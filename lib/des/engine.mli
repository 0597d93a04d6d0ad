(** Discrete-event simulation engine.

    A simulated clock plus an event queue.  Events pop in the total
    [(time, seq)] order, where [seq] is the engine's insertion counter,
    so events scheduled for the same instant fire in scheduling order
    and runs are deterministic.  This is the substrate of the
    asynchronous message-passing dynamics (the paper's peers act
    "anytime", not in rounds).

    An event is a non-negative int code (typically bit-packed
    src/dst/kind, see [Net.Packed]) dispatched through a per-engine
    handler.  The queue is a binary heap over [(time, seq, code)]
    triples, so scheduling and firing touch only scalars in recycled
    arrays: the steady state allocates nothing, and the pending queue
    is plain data that {!dump_packed} serializes (DESIGN.md §14). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time. *)

val schedule_packed : t -> delay:float -> int -> unit
(** Fire event [code] [delay] time units from now.  Raises
    [Invalid_argument] on a negative [code], or on a negative [delay]
    naming the offending value — jittered latency draws that go
    negative fail loudly, not silently.  Allocation-free in steady
    state. *)

val schedule_packed_at : t -> time:float -> int -> unit
(** Absolute-time variant; [time] must not be in the past.  Raises
    [Invalid_argument] naming the offending time and the current clock. *)

val set_packed_handler : t -> (t -> int -> unit) -> unit
(** Install the dispatcher for event codes.  Firing an event with no
    handler installed raises [Invalid_argument]. *)

val pending : t -> int

val step : t -> bool
(** Fire the single earliest pending event; [false] when idle. *)

val run_until : t -> time:float -> unit
(** Process events with timestamp [≤ time], then advance the clock to
    [time]. *)

val dump_packed : t -> (float * int) array
(** The pending queue as pure data, in pop order — the serializable
    form used by deterministic snapshot/restore.  The engine is not
    modified. *)

val restore_packed : now:float -> (float * int) array -> t
(** A fresh engine whose clock reads [now] and whose queue pops exactly
    the given [(time, code)] entries in array order (entries must be in
    pop order, i.e. straight from {!dump_packed} — times before [now]
    raise [Invalid_argument]). *)

val drain : ?max_events:int -> t -> bool
(** Process everything left (events may schedule more).  Returns [false]
    if the [max_events] budget (default 10⁷) ran out first — the runaway
    guard for event loops that feed themselves.  A budget exhaustion also
    bumps the ["des.drain_budget_exhausted"] observability counter so
    instrumented runs cannot mistake a truncated drain for quiescence. *)
