(* The shard directory: the authoritative answer to "which site owns the
   lock-manager role for fid X right now, and at which epoch".

   The file-id space is hashed into [n_shards] shards; each shard's
   directory entries are served by one deterministic directory site
   (Placement.directory). Runtime lookups and ownership claims travel as
   kernel messages to that site, so they carry real network cost; the
   table itself is cluster-global state, standing in for a replicated
   directory service whose internal availability is out of scope here
   (exactly like the kernel's global hint tables).

   Epochs make migration safe: a claim is a compare-and-swap on the
   entry's epoch, so of two racing claimants exactly one wins, and a
   transfer envelope stamped with a superseded epoch is fenced by the
   receiver. An entry nobody ever claimed reports the caller-supplied
   default owner (the file's storage site) at epoch 0. *)

(* [prev] records who issued the last successful claim — the hand-off
   source. Until that site has either delivered the lock-table envelope
   or aborted the stranded owners, the recorded owner must not serve from
   a fresh table; an adopter checks [prev] before assuming the role. *)
type entry = { mutable owner : Site.t; mutable epoch : int; mutable prev : Site.t }

type t = {
  n_shards : int;
  n_sites : int;
  lock_owners : (File_id.t, entry) Hashtbl.t;
}

let create ~n_shards ~n_sites =
  if n_shards <= 0 then invalid_arg "Directory.create: need n_shards > 0";
  if n_sites <= 0 then invalid_arg "Directory.create: need n_sites > 0";
  { n_shards; n_sites; lock_owners = Hashtbl.create 64 }

let n_shards t = t.n_shards

(* Explicit mixing arithmetic (not [Hashtbl.hash]) so shard assignment is
   stable across OCaml versions — the bench baselines depend on it. *)
let shard_of t fid =
  let h = (fid.File_id.vid * 1_000_003) + (fid.File_id.ino * 7919) in
  abs h mod t.n_shards

let site_of t fid =
  Locus_repl.Placement.directory ~n_sites:t.n_sites (shard_of t fid)

let lookup t fid ~default =
  match Hashtbl.find_opt t.lock_owners fid with
  | Some e -> (e.owner, e.epoch, e.prev)
  | None -> (default, 0, default)

(* CAS on the epoch: the claim succeeds only against the exact current
   epoch, and success advances it — so a migration that lost the race
   learns the winner instead of installing over it. *)
let claim t fid ~default ~new_owner ~from_epoch ~claimer =
  let e =
    match Hashtbl.find_opt t.lock_owners fid with
    | Some e -> e
    | None ->
      let e = { owner = default; epoch = 0; prev = default } in
      Hashtbl.add t.lock_owners fid e;
      e
  in
  if e.epoch <> from_epoch then Error (e.owner, e.epoch)
  else begin
    e.owner <- new_owner;
    e.epoch <- e.epoch + 1;
    e.prev <- claimer;
    Ok e.epoch
  end

let entries t =
  Hashtbl.fold (fun fid e acc -> (fid, e.owner, e.epoch) :: acc) t.lock_owners []
  |> List.sort (fun (a, _, _) (b, _, _) -> File_id.compare a b)
