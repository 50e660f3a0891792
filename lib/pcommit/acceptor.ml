(* Paxos Commit acceptor (Gray & Lamport, cs/0408036, here specialised to
   ballot-0 votes plus ballot-1 closure). Each transaction runs one
   consensus instance per participant; this module is one acceptor's
   share of every instance whose acceptor set includes this site.

   An instance's registered value is first-writer-wins: the participant
   offers its own Prepared/Aborted vote at ballot 0 during prepare, and a
   recovering party may later offer an Aborted vote at ballot 1 to close
   an instance whose participant never got its vote registered here.
   Registered values are never overwritten, so the quorum-counting
   decision rule in {!Pcommit} is monotone: once f+1 of the 2f+1
   acceptors register the same value for an instance, that instance's
   outcome is fixed for every reader.

   Votes are persisted in the acceptor's log volume (same WAL that holds
   coordinator and prepare records, under a distinct tag) and replayed on
   recovery, so a crashed acceptor rejoins with its registrations
   intact. *)

type record = {
  r_txid : Txid.t;
  r_participant : Site.t;
  r_vote : bool;
  r_ballot : int;
  r_participants : Site.t list;
}

let vote_tag = "pcvote"
let magic = "PCV1:"

let encode (r : record) = magic ^ Marshal.to_string r []

let decode s =
  let mlen = String.length magic in
  if String.length s > mlen && String.sub s 0 mlen = magic then
    try Some (Marshal.from_string s mlen : record) with Failure _ -> None
  else None

type entry = {
  vote : bool;
  ballot : int;
  participants : Site.t list;
  log_idx : int;
}

type t = {
  vol : Volume.t;
  votes : (Txid.t * Site.t, entry) Hashtbl.t;
}

let create vol = { vol; votes = Hashtbl.create 32 }

let register t ~txid ~participant ~vote ~ballot ~participants =
  match Hashtbl.find_opt t.votes (txid, participant) with
  | Some e -> e.vote (* first writer wins; the offerer learns the holder *)
  | None ->
    if Mutant.(armed Paxos) then vote (* ack without registering: vote is lost *)
    else begin
      let idx =
        Volume.log_append t.vol ~tag:vote_tag
          (encode
             {
               r_txid = txid;
               r_participant = participant;
               r_vote = vote;
               r_ballot = ballot;
               r_participants = participants;
             })
      in
      Hashtbl.replace t.votes (txid, participant)
        { vote; ballot; participants; log_idx = idx };
      vote
    end

let registered t ~txid ~participant =
  Hashtbl.find_opt t.votes (txid, participant)
  |> Option.map (fun e -> e.vote)

let votes_for t txid =
  Hashtbl.fold
    (fun (tx, p) e ((parts, votes) as acc) ->
      if Txid.equal tx txid then
        (List.sort_uniq compare (e.participants @ parts), (p, e.vote) :: votes)
      else acc)
    t.votes ([], [])

let forget t txid =
  let doomed =
    Hashtbl.fold
      (fun ((tx, _) as key) e acc ->
        if Txid.equal tx txid then (key, e.log_idx) :: acc else acc)
      t.votes []
  in
  List.iter
    (fun (key, idx) ->
      Hashtbl.remove t.votes key;
      Volume.log_delete t.vol idx)
    doomed

let size t = Hashtbl.length t.votes
let crash t = Hashtbl.reset t.votes

let recover t =
  Hashtbl.reset t.votes;
  List.iter
    (fun (idx, tag, payload) ->
      if tag = vote_tag then begin
        (* Charge one device read per replayed record, like prepare-record
           recovery does. *)
        let (_ : Bytes.t) = Volume.read_page t.vol 0 in
        match decode payload with
        | Some r ->
          if not (Hashtbl.mem t.votes (r.r_txid, r.r_participant)) then
            Hashtbl.replace t.votes
              (r.r_txid, r.r_participant)
              {
                vote = r.r_vote;
                ballot = r.r_ballot;
                participants = r.r_participants;
                log_idx = idx;
              }
        | None -> ()
      end)
    (Volume.log_records t.vol)
