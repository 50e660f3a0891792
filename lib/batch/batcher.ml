type 'item batch = {
  mutable items : 'item list;  (* newest first *)
  mutable open_ : bool;
  flusher : Engine.Fiber.handle;
}

type 'item t = {
  engine : Engine.t;
  name : string;
  mutable site : int;
  mutable window_us : int;
  mutable cur : 'item batch option;
}

let create engine ~name = { engine; name; site = 0; window_us = 0; cur = None }

let configure t ~site ~window_us =
  t.site <- site;
  t.window_us <- window_us

let enabled t = t.window_us > 0 && not Mutant.(armed Batch)
let reset t = t.cur <- None

(* A batch is joinable only while its window is still open AND its flusher
   fiber is still alive: the flusher runs site-attributed, so a site crash
   kills it, and any batch it left behind must not trap later items. *)
let joinable b = b.open_ && Engine.Fiber.alive b.flusher

let open_batch t flush =
  (* The flusher owns the whole batch lifecycle: sleep out the window,
     close the batch to late joiners, then run [flush] over the items in
     submission order. It is a dedicated fiber at [t.site] (never a
     client fiber) so that killing one waiting client cannot strand the
     others, while a crash of the site takes flusher and waiters down
     together. The ref is filled before the flusher's sleep expires. *)
  let bref = ref None in
  let flusher =
    Engine.spawn ~name:t.name ~site:t.site t.engine (fun () ->
        Engine.sleep t.window_us;
        match !bref with
        | None -> ()
        | Some b ->
          b.open_ <- false;
          (match t.cur with Some cur when cur == b -> t.cur <- None | _ -> ());
          flush (List.rev b.items))
  in
  let b = { items = []; open_ = true; flusher } in
  bref := Some b;
  t.cur <- Some b;
  b

let submit t ~flush item =
  let b = match t.cur with Some b when joinable b -> b | _ -> open_batch t flush in
  b.items <- item :: b.items
