(* Volume and Cache. *)

module E = Engine
module V = Locus_disk.Volume
module C = Locus_disk.Cache

let in_sim f =
  let e = E.create () in
  let result = ref None in
  ignore (E.spawn e (fun () -> result := Some (f e)));
  E.run e;
  Option.get !result

let test_page_roundtrip () =
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      let p = V.alloc_page v in
      V.write_page v p (Bytes.of_string "hello");
      let b = V.read_page v p in
      Alcotest.(check int) "page size" 1024 (Bytes.length b);
      Alcotest.(check string) "prefix" "hello" (Bytes.to_string (Bytes.sub b 0 5));
      Alcotest.(check char) "zero padded" '\000' (Bytes.get b 5);
      Alcotest.(check int) "write count" 1 (V.io_writes v);
      Alcotest.(check int) "read count" 1 (V.io_reads v))

let test_page_copy_isolation () =
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      let p = V.alloc_page v in
      let src = Bytes.of_string "abc" in
      V.write_page v p src;
      Bytes.set src 0 'X';
      Alcotest.(check char) "store not aliased" 'a' (Bytes.get (V.read_page_nosim v p) 0);
      let out = V.read_page_nosim v p in
      Bytes.set out 0 'Y';
      Alcotest.(check char) "read not aliased" 'a' (Bytes.get (V.read_page_nosim v p) 0))

let test_alloc_free_reuse () =
  in_sim (fun _e ->
      ())
  |> ignore;
  let e = E.create () in
  let v = V.create e ~vid:1 () in
  let p1 = V.alloc_page v in
  let p2 = V.alloc_page v in
  Alcotest.(check bool) "distinct" true (p1 <> p2);
  V.free_page v p1;
  Alcotest.(check int) "reused" p1 (V.alloc_page v)

let test_inode_roundtrip () =
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      let ino = V.alloc_inode v in
      V.write_inode v { V.ino; size = 42; pages = [| 3; -1; 7 |]; gens = [||]; version = 0 };
      let i = V.read_inode v ino in
      Alcotest.(check int) "size" 42 i.V.size;
      Alcotest.(check (array int)) "pages" [| 3; -1; 7 |] i.V.pages;
      Alcotest.(check int) "version bumped" 1 i.V.version;
      V.write_inode v { i with V.size = 50 };
      Alcotest.(check int) "version 2" 2 (V.read_inode_nosim v ino).V.version;
      Alcotest.(check (list int)) "inode numbers" [ ino ] (V.inode_numbers v))

let test_inode_atomicity_model () =
  (* write_inode stores a snapshot: later mutation of the caller's array
     must not leak into the "disk". *)
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      let ino = V.alloc_inode v in
      let pages = [| 1; 2 |] in
      V.write_inode v { V.ino; size = 1; pages; gens = [||]; version = 0 };
      pages.(0) <- 99;
      Alcotest.(check int) "snapshot" 1 (V.read_inode_nosim v ino).V.pages.(0))

let test_log () =
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      let i1 = V.log_append v ~tag:"a" "one" in
      let i2 = V.log_append v ~tag:"b" "two" in
      let i3 = V.log_append v ~tag:"a" "three" in
      Alcotest.(check int) "log io" 3 (V.io_log_writes v);
      Alcotest.(check (list (triple int string string)))
        "records"
        [ (i1, "a", "one"); (i2, "b", "two"); (i3, "a", "three") ]
        (V.log_records v);
      V.log_overwrite v i2 ~tag:"b" "TWO";
      V.log_delete v i1;
      Alcotest.(check (list (triple int string string)))
        "after overwrite+delete"
        [ (i2, "b", "TWO"); (i3, "a", "three") ]
        (V.log_records v);
      (* Many append/delete cycles: only every hundredth record stays. *)
      let kept =
        List.filter_map
          (fun k ->
            let i = V.log_append v ~tag:"c" (string_of_int k) in
            if k mod 100 = 0 then Some (i, "c", string_of_int k)
            else (V.log_delete v i; None))
          (List.init 1000 (fun k -> k + 1))
      in
      V.log_overwrite v i3 ~tag:"a" "THREE";
      Alcotest.check_raises "a deleted record cannot be overwritten"
        (Invalid_argument "Volume.log_overwrite: no such record") (fun () ->
          V.log_overwrite v i1 ~tag:"a" "ONE");
      (* A crash: the site's fiber dies inside its append's force, and the
         record it was writing never lands. *)
      let doomed = E.spawn ~site:1 e (fun () -> ignore (V.log_append v ~tag:"d" "lost")) in
      E.sleep 1;
      E.kill e doomed;
      V.reset_group_commit v;
      Alcotest.(check (list (triple int string string)))
        "read back after the crash, in index order"
        ((i2, "b", "TWO") :: (i3, "a", "THREE") :: kept)
        (V.log_records v);
      let next = V.log_append v ~tag:"e" "after" in
      Alcotest.(check bool) "indices never reused" true (next > i3 + 1000 + 1))

let test_two_write_log () =
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      V.set_two_write_log v true;
      ignore (V.log_append v ~tag:"x" "y");
      (* Footnote 9: uncorrected implementation pays two I/Os per append. *)
      Alcotest.(check int) "two ios" 2 (V.io_log_writes v))

let test_disk_contention () =
  (* Two concurrent I/Os on one volume serialize: total elapsed is about
     twice one I/O, not one. *)
  let e = E.create () in
  let v = V.create e ~vid:1 () in
  let p1 = V.alloc_page v and p2 = V.alloc_page v in
  ignore (E.spawn e (fun () -> V.write_page v p1 (Bytes.create 1)));
  ignore (E.spawn e (fun () -> V.write_page v p2 (Bytes.create 1)));
  E.run e;
  let one_io = Costs.disk_io_us Costs.default ~bytes:1024 in
  Alcotest.(check bool) "serialized" true (E.now e >= 2 * one_io)

let test_cache_hit_miss () =
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      let c = C.create e in
      let p = V.alloc_page v in
      V.write_page v p (Bytes.of_string "data");
      let b1 = C.read c v p in
      let reads_after_miss = V.io_reads v in
      let b2 = C.read c v p in
      Alcotest.(check int) "second read free" reads_after_miss (V.io_reads v);
      Alcotest.(check bytes) "same content" b1 b2;
      Alcotest.(check int) "hit" 1 (C.hits c);
      Alcotest.(check int) "miss" 1 (C.misses c))

let test_cache_invalidate () =
  in_sim (fun e ->
      let v = V.create e ~vid:1 () in
      let c = C.create e in
      let p = V.alloc_page v in
      V.write_page v p (Bytes.of_string "old");
      ignore (C.read c v p);
      C.invalidate c v p;
      let reads_before = V.io_reads v in
      ignore (C.read c v p);
      Alcotest.(check int) "re-read after invalidate" (reads_before + 1) (V.io_reads v);
      C.put c v p (Bytes.of_string "new");
      Alcotest.(check string) "put visible" "new"
        (Bytes.to_string (Bytes.sub (C.read c v p) 0 3)))

let test_cache_volume_invalidate () =
  in_sim (fun e ->
      let v1 = V.create e ~vid:1 () and v2 = V.create e ~vid:2 () in
      let c = C.create e in
      let p1 = V.alloc_page v1 and p2 = V.alloc_page v2 in
      V.write_page v1 p1 (Bytes.of_string "a");
      V.write_page v2 p2 (Bytes.of_string "b");
      ignore (C.read c v1 p1);
      ignore (C.read c v2 p2);
      C.invalidate_volume c ~vid:1;
      let r1 = V.io_reads v1 and r2 = V.io_reads v2 in
      ignore (C.read c v1 p1);
      ignore (C.read c v2 p2);
      Alcotest.(check int) "v1 re-read" (r1 + 1) (V.io_reads v1);
      Alcotest.(check int) "v2 still cached" r2 (V.io_reads v2))

let suite =
  [
    ( "disk.volume",
      [
        Alcotest.test_case "page roundtrip" `Quick test_page_roundtrip;
        Alcotest.test_case "copy isolation" `Quick test_page_copy_isolation;
        Alcotest.test_case "alloc/free" `Quick test_alloc_free_reuse;
        Alcotest.test_case "inode roundtrip" `Quick test_inode_roundtrip;
        Alcotest.test_case "inode snapshot" `Quick test_inode_atomicity_model;
        Alcotest.test_case "log" `Quick test_log;
        Alcotest.test_case "two-write log (fn 9)" `Quick test_two_write_log;
        Alcotest.test_case "contention" `Quick test_disk_contention;
      ] );
    ( "disk.cache",
      [
        Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        Alcotest.test_case "invalidate volume" `Quick test_cache_volume_invalidate;
      ] );
  ]
