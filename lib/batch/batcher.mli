(** A bounded batch window over the simulation engine — the primitive
    behind group commit and RPC coalescing.

    The first {!submit} after an idle period opens a window and spawns a
    dedicated flusher fiber at the owning site; items submitted while the
    window is open join the batch. When the window expires the batch
    closes (late arrivals open the next window) and [flush] runs over the
    items in submission order. Items carry their own completion ivars:
    [submit] never blocks, callers await whatever their item embeds.

    Crash safety: the flusher fiber is site-attributed, so crashing the
    site kills the flusher together with every fiber awaiting the batch —
    nothing in the batch was made durable, which is exactly the atomicity
    the redo log already guarantees for unforced records. A batch whose
    flusher died is never joinable; {!reset} additionally drops it
    eagerly on the crash path. *)

type 'item t

val create : Engine.t -> name:string -> 'item t
(** A disabled batcher ([window_us = 0]). [name] labels the flusher
    fiber in traces. *)

val configure : 'item t -> site:int -> window_us:int -> unit
(** Set the owning site (where flusher fibers run and die) and the batch
    window. A window of [0] disables batching; callers should then take
    their unbatched path. *)

val enabled : 'item t -> bool
(** [window_us > 0] and the [Mutant.Batch] self-test mutant is not
    armed. *)

val submit : 'item t -> flush:('item list -> unit) -> 'item -> unit
(** Join the open batch, or open a new window whose flusher will call
    [flush] (the [flush] of the submit that opened the window wins for
    the whole batch). Returns immediately. Must be called from a fiber
    context only in the sense that the engine must be running; [submit]
    itself never blocks. *)

val reset : 'item t -> unit
(** Forget the current batch (crash path): pending items are dropped
    without being flushed, mirroring the loss of unforced log records. *)
