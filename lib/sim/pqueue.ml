(* Implicit 4-ary min-heap keyed by [(time, seq)], laid out as three
   parallel arrays. The structure-of-arrays layout exists for the
   simulator's dispatch loop: a [push]/[pop] cycle allocates nothing (the
   old single-array-of-records layout allocated one 3-field [entry] per
   push and a [Some (t, s, v)] per pop, which at millions of events per
   second was most of the engine's minor-GC traffic). Values popped off
   the heap are read out through a caller-owned reusable {!slot}.

   The children of slot [i] are [4i+1 .. 4i+4], its parent [(i-1)/4]: a
   fan-out of 4 halves the depth of a binary heap, and a sift-down reads
   a node's four keys from adjacent slots. Both sifts move a hole, not
   the entry: each level shifts one entry into the hole and the moving
   entry is written once, at its final slot, so a level costs one store
   per array (the [vals] store goes through the write barrier). *)

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

(* Sift the hole at [t.size] up past every parent that orders after
   [(time, seq)], then write the entry into it. *)
let push t ~time ~seq value =
  ensure_capacity t;
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      vals.(!i) <- vals.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- value

(* Sift the hole at [i] down past every least child that orders before
   [(time, seq)], then write the entry into it. Reads only slots below
   [t.size]. *)
let sift_down t i time seq value =
  let times = t.times and seqs = t.seqs and vals = t.vals and n = t.size in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let c = (4 * !i) + 1 in
    if c >= n then moving := false
    else begin
      let m = ref c and mt = ref times.(c) and ms = ref seqs.(c) in
      for k = c + 1 to min (c + 3) (n - 1) do
        let kt = times.(k) in
        if kt < !mt || (kt = !mt && seqs.(k) < !ms) then begin
          m := k;
          mt := kt;
          ms := seqs.(k)
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        times.(!i) <- !mt;
        seqs.(!i) <- !ms;
        vals.(!i) <- vals.(!m);
        i := !m
      end
      else moving := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- value

(* Remove the root of a non-empty heap: the last entry leaves its slot,
   which gets the dummy so the heap stops referencing what it gave up,
   and fills the root's hole. *)
let drop_min t =
  let n = t.size - 1 in
  t.size <- n;
  let time = t.times.(n) and seq = t.seqs.(n) and value = t.vals.(n) in
  t.vals.(n) <- t.dummy;
  if n > 0 then sift_down t 0 time seq value

let pop_into t slot =
  if t.size = 0 then false
  else begin
    slot.s_time <- t.times.(0);
    slot.s_seq <- t.seqs.(0);
    slot.s_value <- t.vals.(0);
    drop_min t;
    true
  end

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) and v = t.vals.(0) in
    drop_min t;
    Some (time, seq, v)
  end

(* Keys are unique, so rebuilding the heap bottom-up (Floyd, O(n)) cannot
   change the order in which the kept entries pop. *)
let retain t keep =
  let n = t.size in
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep vals.(i) then begin
      times.(!j) <- times.(i);
      seqs.(!j) <- seqs.(i);
      vals.(!j) <- vals.(i);
      incr j
    end
  done;
  t.size <- !j;
  Array.fill vals !j (n - !j) t.dummy;
  (* The last parent is [(size-2)/4]; a heap of 0 or 1 entries has none
     (and [(0-2)/4] truncates to 0, a slot an empty heap may lack). *)
  if !j > 1 then
    for i = (!j - 2) / 4 downto 0 do
      sift_down t i times.(i) seqs.(i) vals.(i)
    done

let min_time t = if t.size = 0 then max_int else t.times.(0)
