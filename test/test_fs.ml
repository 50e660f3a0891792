(* Filestore: the shadow-page record commit mechanism (Figure 4). *)

module E = Engine
module V = Locus_disk.Volume
module C = Locus_disk.Cache
module FS = Locus_fs.Filestore
module I = Locus_fs.Intentions

let tx n = Owner.Transaction (Txid.make ~site:0 ~incarnation:1 ~seq:n)
let proc n = Owner.Process (Pid.make ~origin:0 ~num:n)
let br lo hi = Byte_range.v ~lo ~hi

(* Run [f] inside a fiber with a fresh store holding one volume; returns
   [f]'s result after the engine quiesces. *)
let in_store ?(page_size = 64) f =
  let e = E.create () in
  let cache = C.create e in
  let store = FS.create e ~cache in
  let vol = V.create e ~vid:1 ~page_size () in
  FS.mount store vol;
  let result = ref None in
  ignore (E.spawn e (fun () -> result := Some (f e store vol)));
  E.run e;
  Option.get !result

let s_of b = Bytes.to_string b
let wr store fid owner pos s = FS.write store fid ~owner ~pos (Bytes.of_string s)
let rd store fid pos len = s_of (FS.read store fid ~pos ~len)
let rdc store fid pos len = s_of (FS.read_committed store fid ~pos ~len)

let test_create_open_close () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      Alcotest.(check bool) "exists" true (FS.file_exists store fid);
      Alcotest.(check bool) "not open" false (FS.is_open store fid);
      FS.open_file store fid;
      Alcotest.(check bool) "open" true (FS.is_open store fid);
      FS.open_file store fid;
      FS.close_file store fid;
      Alcotest.(check bool) "refcounted" true (FS.is_open store fid);
      FS.close_file store fid;
      Alcotest.(check bool) "closed" false (FS.is_open store fid);
      Alcotest.(check int) "empty" 0 (FS.size store fid))

let test_write_read_visibility () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "hello";
      Alcotest.(check string) "uncommitted visible" "hello" (rd store fid 0 5);
      Alcotest.(check string) "committed empty" "\000\000\000\000\000" (rdc store fid 0 5);
      Alcotest.(check int) "volatile size" 5 (FS.size store fid);
      Alcotest.(check int) "committed size" 0 (FS.committed_size store fid))

let test_commit_direct () =
  in_store (fun e store vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "data!";
      let it = FS.commit store fid ~owner:(tx 1) in
      Alcotest.(check int) "one page" 1 (List.length it.I.pages);
      Alcotest.(check string) "committed" "data!" (rdc store fid 0 5);
      Alcotest.(check int) "size" 5 (FS.committed_size store fid);
      Alcotest.(check int) "direct path" 1 (Stats.get (E.stats e) "commit.direct");
      Alcotest.(check int) "no merge" 0 (Stats.get (E.stats e) "commit.merge");
      Alcotest.(check bool) "nothing pending" false (FS.has_uncommitted store fid);
      ignore vol)

let test_commit_spanning_pages () =
  in_store ~page_size:8 (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      let s = "abcdefghijklmnopqrst" (* 20 bytes over 8-byte pages *) in
      wr store fid (tx 1) 0 s;
      let it = FS.commit store fid ~owner:(tx 1) in
      Alcotest.(check int) "three pages" 3 (List.length it.I.pages);
      Alcotest.(check string) "roundtrip" s (rdc store fid 0 20))

let test_abort_sole () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "base " ;
      ignore (FS.commit store fid ~owner:(tx 1));
      wr store fid (tx 2) 0 "WRECK";
      FS.abort store fid ~owner:(tx 2);
      Alcotest.(check string) "rolled back" "base " (rd store fid 0 5);
      Alcotest.(check int) "size rolled back" 5 (FS.size store fid))

let test_two_owners_disjoint_same_page () =
  in_store (fun e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      (* Disjoint records on one 64-byte page. *)
      wr store fid (tx 1) 0 "AAAA";
      wr store fid (tx 2) 10 "BBBB";
      Alcotest.(check (list (pair int int))) "tx1 ranges" [ (0, 4) ]
        (List.map (fun r -> (Byte_range.lo r, Byte_range.len r))
           (FS.modified_by store fid (tx 1)));
      (* Commit tx1: must not commit tx2's bytes (Figure 4b). *)
      ignore (FS.commit store fid ~owner:(tx 1));
      Alcotest.(check string) "tx1 committed" "AAAA" (rdc store fid 0 4);
      Alcotest.(check string) "tx2 not committed" "\000\000\000\000" (rdc store fid 10 4);
      Alcotest.(check string) "tx2 still visible" "BBBB" (rd store fid 10 4);
      Alcotest.(check int) "merge path used" 1 (Stats.get (E.stats e) "commit.merge");
      (* Commit tx2 afterwards: both survive. *)
      ignore (FS.commit store fid ~owner:(tx 2));
      Alcotest.(check string) "both committed" "AAAA" (rdc store fid 0 4);
      Alcotest.(check string) "both committed 2" "BBBB" (rdc store fid 10 4))

let test_abort_with_conflicting_mods () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "XXXX";
      wr store fid (tx 2) 10 "YYYY";
      (* Abort tx1: only its records are overwritten from the old version
         (§5.2). *)
      FS.abort store fid ~owner:(tx 1);
      Alcotest.(check string) "tx1 gone" "\000\000\000\000" (rd store fid 0 4);
      Alcotest.(check string) "tx2 intact" "YYYY" (rd store fid 10 4))

let test_conflicting_write_rejected () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "AAAA";
      match wr store fid (tx 2) 2 "BB" with
      | () -> Alcotest.fail "overlapping cross-owner write must raise"
      | exception FS.Conflicting_write (_, _, _) -> ())

let test_overwrite_own_bytes () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "AAAA";
      wr store fid (tx 1) 2 "bb";
      ignore (FS.commit store fid ~owner:(tx 1));
      Alcotest.(check string) "last write wins" "AAbb" (rdc store fid 0 4))

let test_adopt () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (proc 9) 0 "dirty";
      Alcotest.(check int) "one dirty owner" 1
        (List.length (FS.uncommitted_overlapping store fid (br 0 5)));
      FS.adopt store fid ~range:(br 0 5) ~new_owner:(tx 1);
      Alcotest.(check (list (pair int int))) "txn owns them" [ (0, 5) ]
        (List.map (fun r -> (Byte_range.lo r, Byte_range.len r))
           (FS.modified_by store fid (tx 1)));
      Alcotest.(check (list (pair int int))) "process no longer owns" []
        (List.map (fun r -> (Byte_range.lo r, Byte_range.len r))
           (FS.modified_by store fid (proc 9)));
      (* Rule 2 payoff: committing the transaction commits the adopted
         record even though the transaction never wrote it. *)
      ignore (FS.commit store fid ~owner:(tx 1));
      Alcotest.(check string) "adopted bytes committed" "dirty" (rdc store fid 0 5))

let test_adopt_does_not_touch_transactions () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 7) 0 "txn";
      FS.adopt store fid ~range:(br 0 3) ~new_owner:(tx 1);
      Alcotest.(check int) "tx7 keeps its bytes" 1
        (List.length (FS.modified_by store fid (tx 7))))

let test_prepare_then_commit_prepared () =
  in_store (fun _e store vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "2pc!!";
      let it = FS.prepare store fid ~owner:(tx 1) in
      Alcotest.(check int) "prepared listed" 1
        (List.length (FS.prepared_intentions store fid));
      Alcotest.(check string) "not yet committed" "\000" (rdc store fid 0 1);
      (* The intentions list round-trips through the log codec. *)
      let it' = Option.get (I.decode (I.encode it)) in
      FS.commit_prepared store it';
      Alcotest.(check string) "committed" "2pc!!" (rdc store fid 0 5);
      Alcotest.(check int) "prepared cleared" 0
        (List.length (FS.prepared_intentions store fid));
      ignore vol)

let test_commit_prepared_idempotent () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "once!";
      let it = FS.prepare store fid ~owner:(tx 1) in
      FS.commit_prepared store it;
      (* Duplicate commit message (§4.4). *)
      FS.commit_prepared store it;
      Alcotest.(check string) "still right" "once!" (rdc store fid 0 5))

let test_two_prepared_commit_either_order () =
  (* Two transactions prepared on the same page must commit correctly in
     either order — the Direct/Merge decision happens at apply time. *)
  let run order =
    in_store (fun _e store _vol ->
        let fid = FS.create_file store ~vid:1 in
        FS.open_file store fid;
        wr store fid (tx 1) 0 "1111";
        wr store fid (tx 2) 8 "2222";
        let i1 = FS.prepare store fid ~owner:(tx 1) in
        let i2 = FS.prepare store fid ~owner:(tx 2) in
        (match order with
        | `Forward ->
          FS.commit_prepared store i1;
          FS.commit_prepared store i2
        | `Backward ->
          FS.commit_prepared store i2;
          FS.commit_prepared store i1);
        (rdc store fid 0 4, rdc store fid 8 4))
  in
  List.iter
    (fun order ->
      let a, b = run order in
      Alcotest.(check string) "tx1 bytes" "1111" a;
      Alcotest.(check string) "tx2 bytes" "2222" b)
    [ `Forward; `Backward ]

let test_sole_commit_after_base_slot_reused () =
  (* Slot numbers are reused LIFO, so two commits between a sole owner's
     prepare and its commit can free its base slot and install that same
     number again. The page's commit generation, not its slot number,
     decides the direct swap (Figure 4a): the stale shadow must merge. *)
  in_store (fun _e store vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 0) 24 "base";
      ignore (FS.commit store fid ~owner:(tx 0));
      let base = (V.read_inode_nosim vol fid.File_id.ino).V.pages.(0) in
      wr store fid (tx 1) 0 "1111";
      let i1 = FS.prepare store fid ~owner:(tx 1) in
      wr store fid (tx 2) 8 "2222";
      ignore (FS.commit store fid ~owner:(tx 2));
      wr store fid (tx 3) 16 "3333";
      ignore (FS.commit store fid ~owner:(tx 3));
      Alcotest.(check int) "base slot installed again" base
        (V.read_inode_nosim vol fid.File_id.ino).V.pages.(0);
      FS.commit_prepared store i1;
      Alcotest.(check (list string)) "every record committed"
        [ "1111"; "2222"; "3333"; "base" ]
        (List.map (fun pos -> rdc store fid pos 4) [ 0; 8; 16; 24 ]))

let test_prepare_crash_recover_commit () =
  (* Volatile state dies; the flushed shadow pages + intentions survive and
     commit_prepared completes from the log. *)
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "save!";
      let it = FS.prepare store fid ~owner:(tx 1) in
      let encoded = I.encode it in
      FS.crash store;
      Alcotest.(check bool) "volatile gone" false (FS.is_open store fid);
      let it' = Option.get (I.decode encoded) in
      FS.commit_prepared store it';
      FS.open_file store fid;
      Alcotest.(check string) "recovered commit" "save!" (rdc store fid 0 5))

let test_prepare_crash_abort () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "doom!";
      let it = FS.prepare store fid ~owner:(tx 1) in
      FS.crash store;
      FS.abort_prepared store (Option.get (I.decode (I.encode it)));
      FS.open_file store fid;
      Alcotest.(check int) "never grew" 0 (FS.committed_size store fid))

let test_crash_loses_uncommitted () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "base!";
      ignore (FS.commit store fid ~owner:(tx 1));
      wr store fid (tx 2) 0 "lost?";
      FS.crash store;
      FS.open_file store fid;
      Alcotest.(check string) "uncommitted lost, committed kept" "base!"
        (rd store fid 0 5))

let test_read_beyond_eof_zero_filled () =
  in_store (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "ab";
      Alcotest.(check string) "zero filled" "ab\000\000" (rd store fid 0 4))

let test_sparse_file_hole () =
  in_store ~page_size:8 (fun _e store _vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      (* Write only page 2, leaving pages 0-1 as holes. *)
      wr store fid (tx 1) 16 "hole";
      ignore (FS.commit store fid ~owner:(tx 1));
      Alcotest.(check int) "size includes hole" 20 (FS.committed_size store fid);
      Alcotest.(check string) "hole reads zero" (String.make 8 '\000') (rdc store fid 0 8);
      Alcotest.(check string) "data present" "hole" (rdc store fid 16 4))

(* {1 Property: random disjoint multi-owner writes, random commit/abort} *)

let prop_record_commit_model =
  (* Model: each of 4 owners owns a distinct 8-byte stripe per 32-byte
     block; they write random stripes, then each owner independently
     commits or aborts. Committed bytes must match exactly the committed
     owners' writes, on both the current and the durable view. *)
  let arb =
    QCheck.(
      pair
        (small_list (pair (int_bound 3) (int_bound 7))) (* (owner, block) writes *)
        (quad bool bool bool bool))
  in
  QCheck.Test.make ~name:"record commit matches per-owner model" ~count:120 arb
    (fun (writes, (c0, c1, c2, c3)) ->
      let commits = [| c0; c1; c2; c3 |] in
      in_store ~page_size:64 (fun _e store _vol ->
          let fid = FS.create_file store ~vid:1 in
          FS.open_file store fid;
          let model = Hashtbl.create 16 in
          List.iter
            (fun (o, blk) ->
              let pos = (blk * 32) + (o * 8) in
              let data = Printf.sprintf "o%dblk%03d" o blk in
              assert (String.length data = 8);
              wr store fid (tx o) pos data;
              Hashtbl.replace model (o, blk) (pos, data))
            writes;
          Array.iteri
            (fun o commit ->
              if commit then ignore (FS.commit store fid ~owner:(tx o))
              else FS.abort store fid ~owner:(tx o))
            commits;
          Hashtbl.fold
            (fun (o, _) (pos, data) ok ->
              ok
              &&
              let got = rdc store fid pos 8 in
              if commits.(o) then got = data
              else got = String.make 8 '\000')
            model true))

let suite =
  [
    ( "fs.filestore",
      [
        Alcotest.test_case "create/open/close" `Quick test_create_open_close;
        Alcotest.test_case "write visibility" `Quick test_write_read_visibility;
        Alcotest.test_case "commit direct" `Quick test_commit_direct;
        Alcotest.test_case "commit spanning pages" `Quick test_commit_spanning_pages;
        Alcotest.test_case "abort sole" `Quick test_abort_sole;
        Alcotest.test_case "disjoint owners one page" `Quick
          test_two_owners_disjoint_same_page;
        Alcotest.test_case "abort with conflicts" `Quick
          test_abort_with_conflicting_mods;
        Alcotest.test_case "conflicting write" `Quick test_conflicting_write_rejected;
        Alcotest.test_case "overwrite own" `Quick test_overwrite_own_bytes;
        Alcotest.test_case "adopt (rule 2)" `Quick test_adopt;
        Alcotest.test_case "adopt skips transactions" `Quick
          test_adopt_does_not_touch_transactions;
        Alcotest.test_case "prepare/commit_prepared" `Quick
          test_prepare_then_commit_prepared;
        Alcotest.test_case "commit idempotent" `Quick test_commit_prepared_idempotent;
        Alcotest.test_case "prepared either order" `Quick
          test_two_prepared_commit_either_order;
        Alcotest.test_case "sole commit after base slot reused" `Quick
          test_sole_commit_after_base_slot_reused;
        Alcotest.test_case "prepare, crash, commit" `Quick
          test_prepare_crash_recover_commit;
        Alcotest.test_case "prepare, crash, abort" `Quick test_prepare_crash_abort;
        Alcotest.test_case "crash loses uncommitted" `Quick test_crash_loses_uncommitted;
        Alcotest.test_case "read beyond eof" `Quick test_read_beyond_eof_zero_filled;
        Alcotest.test_case "sparse hole" `Quick test_sparse_file_hole;
        QCheck_alcotest.to_alcotest prop_record_commit_model;
      ] );
  ]

(* Appended: storage accounting — shadow paging must not leak page slots
   through any commit/abort path. *)

let referenced_slots vol =
  List.fold_left
    (fun acc ino ->
      let inode = V.read_inode_nosim vol ino in
      Array.fold_left (fun acc slot -> if slot <> -1 then acc + 1 else acc) acc
        inode.V.pages)
    0 (V.inode_numbers vol)

let test_no_page_leaks_simple_cycles () =
  in_store ~page_size:64 (fun _e store vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      for i = 0 to 9 do
        let owner = tx i in
        wr store fid owner (8 * (i mod 4)) "12345678";
        if i mod 2 = 0 then ignore (FS.commit store fid ~owner)
        else FS.abort store fid ~owner
      done;
      Alcotest.(check int) "in-use = referenced"
        (referenced_slots vol) (V.pages_in_use vol))

let test_no_page_leaks_prepared_abort () =
  in_store ~page_size:64 (fun _e store vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      wr store fid (tx 1) 0 "aaaa";
      ignore (FS.commit store fid ~owner:(tx 1));
      (* Prepared then aborted, both with and without volatile state. *)
      wr store fid (tx 2) 8 "bbbb";
      ignore (FS.prepare store fid ~owner:(tx 2));
      FS.abort store fid ~owner:(tx 2);
      wr store fid (tx 3) 16 "cccc";
      let it = FS.prepare store fid ~owner:(tx 3) in
      FS.crash store;
      FS.abort_prepared store (Option.get (I.decode (I.encode it)));
      Alcotest.(check int) "no leaked shadow slots"
        (referenced_slots vol) (V.pages_in_use vol))

let test_no_page_leaks_merge_paths () =
  in_store ~page_size:64 (fun _e store vol ->
      let fid = FS.create_file store ~vid:1 in
      FS.open_file store fid;
      (* Force both Figure 4 paths repeatedly. *)
      for round = 0 to 4 do
        wr store fid (tx (2 * round)) 0 "XXXX";
        wr store fid (tx ((2 * round) + 1)) 32 "YYYY";
        ignore (FS.commit store fid ~owner:(tx (2 * round)));
        ignore (FS.commit store fid ~owner:(tx ((2 * round) + 1)))
      done;
      Alcotest.(check int) "merge paths balanced"
        (referenced_slots vol) (V.pages_in_use vol))

let suite =
  suite
  @ [
      ( "fs.accounting",
        [
          Alcotest.test_case "commit/abort cycles" `Quick
            test_no_page_leaks_simple_cycles;
          Alcotest.test_case "prepared aborts" `Quick
            test_no_page_leaks_prepared_abort;
          Alcotest.test_case "merge paths" `Quick test_no_page_leaks_merge_paths;
        ] );
    ]

(* Appended: concurrent interleaving property — many owners prepare /
   commit / abort through racing fibers (every disk I/O is a potential
   interleaving point); the committed image must equal exactly the
   committed owners' writes, and no page slots may leak. *)

let prop_concurrent_commit_interleavings =
  let arb =
    QCheck.(
      pair (int_bound 1000 (* seed *))
        (list_of_size (Gen.int_range 2 6)
           (triple (int_bound 7 (* block *)) bool (* commit? *) (int_bound 30 (* delay ms *)))))
  in
  QCheck.Test.make ~name:"concurrent prepare/commit/abort interleavings" ~count:60
    arb
    (fun (seed, owners) ->
      let e = E.create ~seed () in
      let cache = C.create e in
      let store = FS.create e ~cache in
      let vol = V.create e ~vid:1 ~page_size:64 () in
      FS.mount store vol;
      let fid = ref None in
      ignore (E.spawn e (fun () -> fid := Some (FS.create_file store ~vid:1)));
      E.run e;
      let fid = Option.get !fid in
      ignore
        (E.spawn e (fun () ->
             FS.open_file store fid;
             (* Never dropped: hold a reference for the whole run. *)
             ()));
      E.run e;
      List.iteri
        (fun i (block, commit, delay_ms) ->
          ignore
            (E.spawn e (fun () ->
                 E.sleep (delay_ms * 1000);
                 let owner = tx i in
                 (* Each owner's bytes: its own 8-byte slice of the 64-byte
                    block (= one page): pages are contended, bytes are
                    not. *)
                 let pos = (block * 64) + (i * 8) in
                 wr store fid owner pos (Printf.sprintf "ow%05d!" i);
                 E.sleep (delay_ms * 500);
                 if commit then begin
                   let it = FS.prepare store fid ~owner in
                   E.sleep (delay_ms * 250);
                   FS.commit_prepared store it
                 end
                 else FS.abort store fid ~owner)))
        owners;
      E.run e;
      let ok = ref true in
      List.iteri
        (fun i (block, commit, _) ->
          let pos = (block * 64) + (i * 8) in
          let got = rdc store fid pos 8 in
          let expect =
            if commit then Printf.sprintf "ow%05d!" i else String.make 8 '\000'
          in
          if got <> expect then ok := false)
        owners;
      (* Storage accounting must balance once everything settled. *)
      !ok && referenced_slots vol = V.pages_in_use vol)

let suite =
  suite
  @ [
      ( "fs.interleavings",
        [ QCheck_alcotest.to_alcotest prop_concurrent_commit_interleavings ] );
    ]
