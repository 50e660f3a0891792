(** Intentions lists: the durable description of a prepared single-file
    update (§4).

    At prepare time the storage site flushes the owner's shadow pages to
    disk and builds one of these records; stored in the prepare log it is
    "enough ... to guarantee that the files can be committed when the
    transaction reaches the second phase ... regardless of local failures"
    (§4.2). Applying it (writing the inode) is the single-file commit.

    Whether a page commits by direct pointer swap (Figure 4a) or by
    differencing (Figure 4b) is decided when the intentions list is
    {e applied}, not when it is built: if another owner committed the same
    logical page in between — or had uncommitted bytes on it at prepare
    time — only this owner's [ranges] may be transferred onto the latest
    committed version. Deciding at apply time also makes application
    idempotent, so the duplicate commit messages recovery can send (§4.4)
    are harmless. *)

type page_commit = {
  index : int;  (** logical page number within the file *)
  slot : int;  (** shadow slot holding the flushed page image *)
  base_slot : int;
      (** committed slot the shadow was based on; -1 = page was a hole *)
  gen : int;  (** the page's commit generation at prepare *)
  ranges : (int * int) list;
      (** page-relative [(offset, length)] ranges owned by this update *)
  sole : bool;
      (** no other owner had uncommitted bytes on the page at prepare *)
}

type t = {
  fid : File_id.t;
  owner : Owner.t;
  new_size : int;  (** owner's file extent; merged with [max] at commit *)
  pages : page_commit list;
}

val slots : t -> int list
(** All shadow page slots named by the intentions list. *)

val page_indices : t -> int list

val encode : t -> string
(** Serialize for the prepare log. *)

val decode : string -> t option
(** Inverse of {!encode}; [None] on corrupt input. *)

val pp : t Fmt.t
