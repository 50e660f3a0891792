(* Unit and property tests for Byte_range, Range_set, Lru and the Mutant
   registry. *)

let range = Alcotest.testable Byte_range.pp Byte_range.equal

let br lo hi = Byte_range.v ~lo ~hi

(* {1 Byte_range} *)

let test_basics () =
  let r = br 10 20 in
  Alcotest.(check int) "lo" 10 (Byte_range.lo r);
  Alcotest.(check int) "hi" 20 (Byte_range.hi r);
  Alcotest.(check int) "len" 10 (Byte_range.len r);
  Alcotest.(check bool) "mem lo" true (Byte_range.mem 10 r);
  Alcotest.(check bool) "mem hi" false (Byte_range.mem 20 r);
  Alcotest.(check range) "of_pos_len" r (Byte_range.of_pos_len ~pos:10 ~len:10)

let test_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Byte_range.v: empty or inverted range")
    (fun () -> ignore (br 5 5));
  Alcotest.check_raises "negative" (Invalid_argument "Byte_range.v: negative lo")
    (fun () -> ignore (br (-1) 5))

let test_overlap () =
  Alcotest.(check bool) "overlap" true (Byte_range.overlaps (br 0 10) (br 9 12));
  Alcotest.(check bool) "abut" false (Byte_range.overlaps (br 0 10) (br 10 12));
  Alcotest.(check bool) "abut adjacent" true
    (Byte_range.adjacent_or_overlapping (br 0 10) (br 10 12));
  Alcotest.(check bool) "disjoint" false (Byte_range.overlaps (br 0 5) (br 6 8))

let test_inter_hull () =
  Alcotest.(check (option range)) "inter" (Some (br 5 8))
    (Byte_range.inter (br 0 8) (br 5 12));
  Alcotest.(check (option range)) "inter none" None
    (Byte_range.inter (br 0 5) (br 5 12));
  Alcotest.(check range) "hull" (br 0 12) (Byte_range.hull (br 0 5) (br 7 12))

let test_diff () =
  Alcotest.(check (list range)) "middle" [ br 0 3; br 7 10 ]
    (Byte_range.diff (br 0 10) (br 3 7));
  Alcotest.(check (list range)) "left" [ br 5 10 ] (Byte_range.diff (br 0 10) (br 0 5));
  Alcotest.(check (list range)) "all" [] (Byte_range.diff (br 3 7) (br 0 10));
  Alcotest.(check (list range)) "disjoint" [ br 0 3 ]
    (Byte_range.diff (br 0 3) (br 5 9))

let test_subsumes () =
  Alcotest.(check bool) "yes" true (Byte_range.subsumes (br 0 10) (br 3 7));
  Alcotest.(check bool) "self" true (Byte_range.subsumes (br 0 10) (br 0 10));
  Alcotest.(check bool) "no" false (Byte_range.subsumes (br 3 7) (br 0 10))

(* {1 Range_set} *)

let rs_of l = Range_set.of_list (List.map (fun (a, b) -> br a b) l)

let test_rs_coalesce () =
  let s = rs_of [ (0, 5); (5, 10) ] in
  Alcotest.(check (list range)) "coalesced" [ br 0 10 ] (Range_set.ranges s);
  let s = rs_of [ (0, 5); (6, 10) ] in
  Alcotest.(check (list range)) "gap kept" [ br 0 5; br 6 10 ] (Range_set.ranges s)

let test_rs_remove () =
  let s = Range_set.remove (br 3 7) (rs_of [ (0, 10) ]) in
  Alcotest.(check (list range)) "split" [ br 0 3; br 7 10 ] (Range_set.ranges s);
  Alcotest.(check bool) "mem" false (Range_set.mem 5 s);
  Alcotest.(check bool) "mem edge" true (Range_set.mem 2 s)

let test_rs_ops () =
  let a = rs_of [ (0, 10); (20, 30) ] and b = rs_of [ (5, 25) ] in
  Alcotest.(check (list range)) "inter" [ br 5 10; br 20 25 ]
    (Range_set.ranges (Range_set.inter a b));
  Alcotest.(check (list range)) "union" [ br 0 30 ]
    (Range_set.ranges (Range_set.union a b));
  Alcotest.(check (list range)) "diff" [ br 0 5; br 25 30 ]
    (Range_set.ranges (Range_set.diff a b));
  Alcotest.(check int) "cardinal" 20 (Range_set.cardinal a);
  Alcotest.(check bool) "subsumes" true (Range_set.subsumes a (br 22 28));
  Alcotest.(check bool) "subsumes across gap" false (Range_set.subsumes a (br 5 25))

(* {1 Lru} *)

let test_lru_basic () =
  let l = Lru.create ~capacity:2 () in
  Alcotest.(check (option (pair int string))) "no evict" None (Lru.put l 1 "a");
  Alcotest.(check (option (pair int string))) "no evict" None (Lru.put l 2 "b");
  Alcotest.(check (option string)) "find" (Some "a") (Lru.find l 1);
  (* 2 is now LRU. *)
  Alcotest.(check (option (pair int string))) "evicts 2" (Some (2, "b")) (Lru.put l 3 "c");
  Alcotest.(check (option string)) "gone" None (Lru.find l 2);
  Alcotest.(check int) "len" 2 (Lru.length l)

let test_lru_replace () =
  let l = Lru.create ~capacity:2 () in
  ignore (Lru.put l 1 "a");
  ignore (Lru.put l 1 "a2");
  Alcotest.(check (option string)) "replaced" (Some "a2") (Lru.find l 1);
  Alcotest.(check int) "len" 1 (Lru.length l)

let test_lru_filter () =
  let l = Lru.create ~capacity:8 () in
  List.iter (fun i -> ignore (Lru.put l i (string_of_int i))) [ 1; 2; 3; 4 ];
  Lru.filter_inplace l (fun k _ -> k mod 2 = 0);
  Alcotest.(check int) "kept evens" 2 (Lru.length l);
  Alcotest.(check bool) "peek" true (Lru.peek l 2 <> None)

(* {1 Properties} *)

let arb_range =
  QCheck.map
    ~rev:(fun r -> (Byte_range.lo r, Byte_range.len r))
    (fun (lo, len) -> Byte_range.of_pos_len ~pos:lo ~len)
    QCheck.(pair (int_bound 200) (int_range 1 50))

let prop_diff_inter_partition =
  QCheck.Test.make ~name:"diff+inter partition a" ~count:500
    QCheck.(pair arb_range arb_range)
    (fun (a, b) ->
      let diff_bytes =
        List.fold_left (fun n r -> n + Byte_range.len r) 0 (Byte_range.diff a b)
      in
      let inter_bytes =
        match Byte_range.inter a b with Some r -> Byte_range.len r | None -> 0
      in
      diff_bytes + inter_bytes = Byte_range.len a)

let prop_rangeset_model =
  (* Range_set agrees with a naive per-byte bool-array model. *)
  QCheck.Test.make ~name:"range_set matches bitmap model" ~count:300
    QCheck.(list (pair bool arb_range))
    (fun ops ->
      let model = Array.make 300 false in
      let s =
        List.fold_left
          (fun s (add, r) ->
            for i = Byte_range.lo r to Byte_range.hi r - 1 do
              if i < 300 then model.(i) <- add
            done;
            if add then Range_set.add r s else Range_set.remove r s)
          Range_set.empty ops
      in
      let ok = ref true in
      for i = 0 to 299 do
        if Range_set.mem i s <> model.(i) then ok := false
      done;
      (* Invariant: ranges sorted, disjoint, non-adjacent. *)
      let rec check_sorted = function
        | a :: (b :: _ as rest) ->
          Byte_range.hi a < Byte_range.lo b && check_sorted rest
        | [ _ ] | [] -> true
      in
      !ok && check_sorted (Range_set.ranges s))

let prop_lru_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_bound 20)))
    (fun (cap, keys) ->
      let l = Lru.create ~capacity:cap () in
      List.iter (fun k -> ignore (Lru.put l k k)) keys;
      Lru.length l <= cap)

(* {1 Mutant} *)

let mutants = Alcotest.(list (of_pp (fun ppf m -> Fmt.string ppf (Mutant.name m))))

let armed () = List.filter Mutant.armed Mutant.all

let test_mutant_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (Mutant.name m) true
        (Mutant.of_string (Mutant.name m) = Some m))
    Mutant.all;
  Alcotest.(check bool) "unknown name" true (Mutant.of_string "bogus" = None);
  Alcotest.check mutants "none armed by default" [] (armed ())

let test_mutant_with_armed () =
  Mutant.(with_armed [ Locks ]) (fun () ->
      Mutant.(with_armed [ Repl; Load ]) (fun () ->
          Alcotest.check mutants "nested sets union" Mutant.[ Locks; Repl; Load ]
            (armed ()));
      Alcotest.check mutants "inner set restored" Mutant.[ Locks ] (armed ());
      (match Mutant.(with_armed [ Shard ]) (fun () -> failwith "boom") with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure _ -> ());
      Alcotest.check mutants "restored on exception" Mutant.[ Locks ] (armed ()));
  Alcotest.check mutants "outer set restored" [] (armed ())

let test_mutant_of_env () =
  let with_env v f =
    Unix.putenv "LOCUS_BREAK" v;
    Fun.protect f ~finally:(fun () -> Unix.putenv "LOCUS_BREAK" "")
  in
  with_env "" (fun () -> Alcotest.check mutants "empty" [] (Mutant.of_env ()));
  with_env "batch,shard" (fun () ->
      Alcotest.check mutants "list" Mutant.[ Batch; Shard ] (Mutant.of_env ()));
  with_env "batch,bogus" (fun () ->
      match Mutant.of_env () with
      | _ -> Alcotest.fail "unknown name accepted"
      | exception Invalid_argument _ -> ())

let suite =
  [
    ( "util.mutant",
      [
        Alcotest.test_case "names round-trip" `Quick test_mutant_names;
        Alcotest.test_case "with_armed nests and restores" `Quick
          test_mutant_with_armed;
        Alcotest.test_case "of_env rejects unknown names" `Quick
          test_mutant_of_env;
      ] );
    ( "util.byte_range",
      [
        Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "invalid" `Quick test_invalid;
        Alcotest.test_case "overlap" `Quick test_overlap;
        Alcotest.test_case "inter/hull" `Quick test_inter_hull;
        Alcotest.test_case "diff" `Quick test_diff;
        Alcotest.test_case "subsumes" `Quick test_subsumes;
        QCheck_alcotest.to_alcotest prop_diff_inter_partition;
      ] );
    ( "util.range_set",
      [
        Alcotest.test_case "coalesce" `Quick test_rs_coalesce;
        Alcotest.test_case "remove" `Quick test_rs_remove;
        Alcotest.test_case "set ops" `Quick test_rs_ops;
        QCheck_alcotest.to_alcotest prop_rangeset_model;
      ] );
    ( "util.lru",
      [
        Alcotest.test_case "basic" `Quick test_lru_basic;
        Alcotest.test_case "replace" `Quick test_lru_replace;
        Alcotest.test_case "filter" `Quick test_lru_filter;
        QCheck_alcotest.to_alcotest prop_lru_capacity;
      ] );
  ]
