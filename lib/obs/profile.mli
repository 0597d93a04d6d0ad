(** Region profiling: wall time and GC allocation deltas.

    The one region probe of [stratify.obs].  Each [start]/[stop] pair
    (or [with_]) folds one interval into the named region's aggregate:
    total wall seconds, entry count, a caller-supplied operation count,
    and the [Gc.counters] deltas (minor, major, promoted words) over the
    interval.  The allocation deltas are what the zero-alloc discipline
    (DESIGN.md §13) is checked against: a steady-state kernel's
    minor-words-per-op must stay at (essentially) zero.

    Regions may nest: an inner region's interval is also part of every
    enclosing region's.  Aggregates are mutex-protected, so kernels
    running inside worker domains (sharded band solves, [Exec] drains)
    may record rows.  The enable flag is separate from {!Control}:
    profiling reads the clock and GC counters around every region entry,
    which only [--manifest] runs and the harnesses opt into.  Instrument
    once-per-build kernels and whole steps (greedy builds, cut scans,
    stitches, drains), never per-initiative paths.  When disabled,
    [start] returns a shared sentinel and the whole probe is a flag
    test. *)

type entry = {
  kernel : string;
  wall_s : float;
  count : int;
  ops : int;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

type snap
(** A clock + GC-counter snapshot taken at kernel entry. *)

val start : unit -> snap
(** Snapshot now; a shared allocation-free sentinel when disabled. *)

val stop : string -> ?ops:int -> snap -> unit
(** [stop kernel ~ops snap] folds the interval since [snap] into
    [kernel]'s row, crediting it [ops] operations (default 0).  A no-op
    when disabled or when [snap] was taken while disabled. *)

val with_ : string -> ?ops:int -> (unit -> 'a) -> 'a
(** [start]/[stop] around a thunk, exception-safe: the interval is
    recorded even if the thunk raises, and the exception propagates. *)

val record :
  string ->
  ?ops:int ->
  ?minor_words:float ->
  ?major_words:float ->
  ?promoted_words:float ->
  wall_s:float ->
  unit ->
  unit
(** Fold an {e externally measured} interval into a kernel's row —
    for harnesses (bench.des) that time and [Gc]-meter a region
    themselves and want the result to ride the same snapshot/manifest
    machinery (and its zero-alloc ratchet) as instrumented kernels.
    A no-op when disabled. *)

val snapshot : unit -> entry list
(** Current aggregates, in the order their rows were first recorded:
    a row is recorded when its interval ends, so a nested region's row
    precedes its enclosing region's. *)

val reset : unit -> unit
(** Drop all aggregates (the enable flag is left as-is). *)
