(* Binary min-heap keyed by [(time, seq)], laid out as three parallel
   arrays. The structure-of-arrays layout exists for the simulator's
   dispatch loop: a [push]/[pop] cycle allocates nothing (the old
   single-array-of-records layout allocated one 3-field [entry] per push
   and a [Some (t, s, v)] per pop, which at millions of events per
   second was most of the engine's minor-GC traffic). Values popped off
   the heap are read out through a caller-owned reusable {!slot}. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  dummy : 'a;  (* fills every unused slot of [vals] *)
  mutable size : int;
}

type 'a slot = { mutable s_time : int; mutable s_seq : int; mutable s_value : 'a }

let make_slot v = { s_time = 0; s_seq = 0; s_value = v }

let create ~dummy = { times = [||]; seqs = [||]; vals = [||]; dummy; size = 0 }
let is_empty t = t.size = 0
let length t = t.size

(* Does slot [i] order strictly before slot [j]? *)
let less t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let ti = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- ti;
  let si = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- si;
  let vi = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- vi

(* Grow before writing slot [t.size]. Unused slots hold the dummy, not a
   value, so that no value outlives its time in the heap (the engine's
   cancelled timers capture fiber continuations). *)
let ensure_capacity t =
  let cap = Array.length t.vals in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ntimes = Array.make ncap 0 and nseqs = Array.make ncap 0 in
    Array.blit t.times 0 ntimes 0 t.size;
    Array.blit t.seqs 0 nseqs 0 t.size;
    let nvals = Array.make ncap t.dummy in
    Array.blit t.vals 0 nvals 0 t.size;
    t.times <- ntimes;
    t.seqs <- nseqs;
    t.vals <- nvals
  end

let push t ~time ~seq value =
  ensure_capacity t;
  let i = ref t.size in
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- value;
  t.size <- t.size + 1;
  (* Sift up. *)
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t !i parent
  do
    let parent = (!i - 1) / 2 in
    swap t !i parent;
    i := parent
  done

(* Overwrite a vacated slot, so that a value popped or dropped from the
   heap is not kept reachable by it. *)
let vacate t i = t.vals.(i) <- t.dummy

let sift_down t i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t l !smallest then smallest := l;
    if r < t.size && less t r !smallest then smallest := r;
    if !smallest = !i then continue := false
    else begin
      swap t !i !smallest;
      i := !smallest
    end
  done

let pop_into t slot =
  if t.size = 0 then false
  else begin
    slot.s_time <- t.times.(0);
    slot.s_seq <- t.seqs.(0);
    slot.s_value <- t.vals.(0);
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      t.times.(0) <- t.times.(n);
      t.seqs.(0) <- t.seqs.(n);
      t.vals.(0) <- t.vals.(n);
      sift_down t 0
    end;
    vacate t n;
    true
  end

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) and v = t.vals.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      t.times.(0) <- t.times.(n);
      t.seqs.(0) <- t.seqs.(n);
      t.vals.(0) <- t.vals.(n);
      sift_down t 0
    end;
    vacate t n;
    Some (time, seq, v)
  end

(* Keys are unique, so rebuilding the heap bottom-up (Floyd, O(n)) cannot
   change the order in which the kept entries pop. *)
let retain t keep =
  let n = t.size in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep t.vals.(i) then begin
      t.times.(!j) <- t.times.(i);
      t.seqs.(!j) <- t.seqs.(i);
      t.vals.(!j) <- t.vals.(i);
      incr j
    end
  done;
  t.size <- !j;
  for i = !j to n - 1 do
    vacate t i
  done;
  for i = (!j / 2) - 1 downto 0 do
    sift_down t i
  done

let min_time t = if t.size = 0 then max_int else t.times.(0)
