(** [stratify.net] — a fault-injecting network between peers and the DES
    engine.

    The asynchronous dynamics and the scenario harness route every
    peer-to-peer message through a {!t} instead of scheduling it on the
    engine directly.  A message is a packed event code (see {!Packed})
    that the network delivers to the handler installed with
    {!set_handler}.  A network applies, in a {e fixed, documented
    order}, the faults of its {!faults} record:

    + {b partition} — if a partition schedule currently separates [src]
      from [dst], the message is dropped (no RNG draw);
    + {b loss} — i.i.d. Bernoulli or a per-link Gilbert–Elliott burst
      chain;
    + {b latency} — constant, uniform jitter, or log-normal (via the
      same samplers as {!Stratify_prng.Dist});
    + {b reordering} — with probability [reorder] the message picks up an
      extra uniform delay in [0, reorder_spread), letting later sends
      overtake it;
    + {b duplication} — with probability [duplicate] a second copy is
      delivered with fresh latency/reorder draws.

    {2 Determinism}

    All draws come from the [Rng.t] handed to {!create}, in send order,
    so a run is bit-identical for a given seed — the same
    replica-substream discipline as [stratify.exec]: give each replica's
    network its own {!Stratify_prng.Rng.split} substream and results do
    not depend on [--jobs] or scheduling.

    The fault-free configuration ({!ideal}) draws nothing from the RNG:
    [No_loss] and [Iid 0.] draw nothing, [Constant] latency draws
    nothing, and zero [duplicate]/[reorder] probabilities draw nothing,
    so it is draw-for-draw identical to scheduling each message on the
    engine directly. *)

type latency =
  | Constant of float  (** every message takes exactly this long *)
  | Jitter of { base : float; spread : float }
      (** uniform in [base, base + spread) — spread ≥ the inter-send gap
          reorders messages *)
  | Log_normal of { mu : float; sigma : float }
      (** heavy-tailed one-way delay, [exp] of a Gaussian *)

type loss =
  | No_loss
  | Iid of float  (** each message independently vanishes w.p. [p] *)
  | Burst of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }
      (** Gilbert–Elliott: each {e link} (ordered [src, dst] pair) hosts a
          two-state Markov chain advanced once per message — from Good the
          link turns Bad w.p. [p_gb], from Bad it recovers w.p. [p_bg] —
          and the message is lost w.p. [loss_good]/[loss_bad] depending on
          the state after the transition.  Stationary loss rate:
          [(p_gb·loss_bad + p_bg·loss_good) / (p_gb + p_bg)]. *)

type faults = {
  latency : latency;
  loss : loss;
  duplicate : float;  (** probability a message is delivered twice *)
  reorder : float;  (** probability of an extra reordering delay *)
  reorder_spread : float;  (** the extra delay is uniform in [0, spread) *)
}

val ideal : ?latency:float -> unit -> faults
(** Constant [latency] (default 0.05), no loss, no duplication, no
    reordering — the fault-free network, drawing nothing from the RNG. *)

val stationary_loss : loss -> float
(** The long-run fraction of messages a loss model drops (0 for
    [No_loss]); how tick-based workloads map a [Burst] model onto a
    per-tick i.i.d. rate. *)

type partition_event = { at : float; groups : int array option }
(** At time [at], either install a partition ([Some g] assigns peer [p]
    to group [g.(p)]; messages between different groups are dropped) or
    heal it ([None]). *)

type t

(** Event codes: one immediate int bit-packing [(kind, src, dst)].
    Once a network has a partition schedule, kind
    {!Packed.partition_kind} is reserved on its engine: the network uses
    it for the split/heal events of {!set_partition_schedule}. *)
module Packed : sig
  val kind_bits : int
  (** 6: kinds 0..63. *)

  val id_bits : int
  (** 28: src/dst ids 0..268_435_455. *)

  val pack : kind:int -> src:int -> dst:int -> int
  (** Bit-pack without bounds checks (the hot path); out-of-range
      arguments corrupt the code.  The packed value is non-negative as
      {!Stratify_des.Engine.schedule_packed} requires. *)

  val pack_checked : kind:int -> src:int -> dst:int -> int
  (** Like {!pack} but raises [Invalid_argument] on out-of-range
      fields. *)

  val kind : int -> int

  val src : int -> int

  val dst : int -> int

  val partition_kind : int
  (** 63, the largest kind: the network's partition events.  Every
      other code scheduled on a network's engine — sent messages and
      the caller's own timers alike — goes to the {!set_handler}
      handler. *)
end

val create : ?engine:Stratify_des.Engine.t -> Stratify_prng.Rng.t -> faults -> t
(** Build a network over a fresh engine (or [engine]).  Raises
    [Invalid_argument] on out-of-range fault parameters (negative
    latencies or spreads, probabilities outside [0, 1)). *)

val engine : t -> Stratify_des.Engine.t
val faults : t -> faults

val set_handler : t -> (Stratify_des.Engine.t -> int -> unit) -> unit
(** Install the handler for every event the engine fires except the
    network's own partition events (it becomes the engine's packed
    handler, wrapped once a partition schedule exists).  Until one is
    installed, a delivery raises [Invalid_argument]. *)

val set_partition_schedule : t -> partition_event list -> unit
(** Schedule split/heal events on the network's engine (events fire as
    simulated time passes them).  Each is one engine event of kind
    {!Packed.partition_kind}; none counts as sent or delivered.  An
    event dated before the engine's current clock raises
    [Invalid_argument] naming the offending partition time — the whole
    schedule is validated before anything is enqueued. *)

val reachable : t -> src:int -> dst:int -> bool
(** Whether a message sent now would cross the current partition. *)

val send : t -> src:int -> dst:int -> int -> unit
(** [send t ~src ~dst code] routes one message: apply the fault pipeline
    above, drawing from the network's RNG in send order, then (unless
    dropped) schedule [code] at delivery time.  Raises
    [Invalid_argument] on a network with a partition schedule if
    [code]'s kind is {!Packed.partition_kind}. *)

(** {2 Burst-batched sends}

    The high-throughput path for message-level workloads (tens of
    millions of events).  Fault draws are {e burst-batched}:
    {!burst_begin} advances the network's RNG once and derives a
    counter-mode base; every {!send_packed} until the next
    [burst_begin] hashes [(base, message index, draw lane)] for its
    loss / latency / reorder / duplicate draws.  One RNG advance per
    burst, and verdicts independent of send order within a burst — the
    same discipline as {!Tick}.

    Two deliberate semantic differences from {!send} (a separate
    traffic class, not a re-encoding of it): draws come from the
    counter-mode hash, so the two kinds of send over the same network
    do not consume each other's RNG stream; and a [Burst]
    (Gilbert–Elliott) loss model collapses to its {!stationary_loss}
    rate — per-link chain state would reintroduce per-message lookups
    and allocation. *)

val burst_begin : t -> unit
(** Start a fault-draw burst: advance the RNG once and reset the
    message index.  Call at the start of each tick (or other natural
    burst) before a batch of {!send_packed} calls. *)

val send_packed : t -> src:int -> dst:int -> kind:int -> unit
(** Route one message: same fault pipeline and counters as {!send}
    (with the differences above), then schedule
    [Packed.pack ~kind ~src ~dst] at delivery time.  Allocation-free in
    steady state. *)

(** {2 Telemetry} — plain fields, plus the ["net.*"] observability
    counters ([net.sent], [net.delivered], [net.lost],
    [net.partitioned], [net.duplicated], [net.reordered]) when
    {!Stratify_obs.Control} is enabled. *)

val sent : t -> int
val delivered : t -> int
(** Messages scheduled for delivery (duplicates count) — every one of
    them runs by the time the engine drains. *)

val lost : t -> int
(** Dropped by the loss model. *)

val partitioned : t -> int
(** Dropped by a partition. *)

val dropped : t -> int
(** [lost + partitioned]. *)

val duplicated : t -> int
val reordered : t -> int

(** Fault gating for {e tick-based} simulators (the BitTorrent swarm),
    which have no event queue to delay messages in: latency collapses to
    the tick granularity, so only loss and partitions apply.  [passes]
    is a pure hash of [(seed, tick, src, dst)] — deterministic and
    independent of the order links are evaluated in. *)
module Tick : sig
  type event = { at_tick : int; groups : int array option }

  type t

  val create : seed:int -> loss:float -> ?schedule:event list -> unit -> t
  (** [loss] is the per-link per-tick drop probability in [0, 1).
      Raises [Invalid_argument] on an out-of-range [loss] or a schedule
      event at a negative tick, naming the offender. *)

  val advance : t -> tick:int -> unit
  (** Apply every scheduled partition event with [at_tick ≤ tick]; call
      once at the start of each simulator tick. *)

  val connected : t -> src:int -> dst:int -> bool

  val passes : t -> tick:int -> src:int -> dst:int -> bool
  (** Whether the link delivers during this tick: connected, and the
      [(seed, tick, src, dst)] hash clears the loss rate. *)

  val drops : t -> int
  (** Number of [passes] calls that returned [false]. *)

  (** {2 Snapshot/restore} — the fault state as pure data, for the
      deterministic service snapshots of [stratify.serve].  [passes] is
      a stateless hash, so capturing [base], the unapplied schedule, the
      installed groups and the drop tally reproduces the model's future
      verdicts exactly. *)

  type snapshot = {
    snap_base : int64;
    snap_loss : float;
    snap_pending : event list;
    snap_groups : int array option;
    snap_drops : int;
  }

  val snapshot : t -> snapshot
  val restore : snapshot -> t
  (** Raises [Invalid_argument] on an out-of-range loss rate. *)
end
