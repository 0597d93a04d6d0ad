(** Global observability switch.

    Counters and histograms check this flag first and reduce to a single
    boolean load plus a predictable branch when it is off.  Instrumented
    hot paths therefore cost nothing measurable unless a run explicitly
    opts in (the [--manifest] flag, the benchmark harness).  {!Profile}
    has its own flag.

    The flag is an {!Atomic.t} so worker domains spawned after
    [set_enabled true] observe the switch; toggling it {e while} a
    domain pool is running is not supported (counts from in-flight
    chunks may or may not be recorded). *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the switch forced to the given value, restoring the
    previous value afterwards (exception-safe). *)
