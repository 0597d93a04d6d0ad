(** Declarative fault-injection scenarios.

    A {e plan} is a JSON file composing a workload, a network fault
    model, a partition schedule and a list of assertions:

    {v
    {
      "name": "async-loss10-partition",
      "seed": 42,
      "workload": { "kind": "async", "n": 100, "d": 10.0,
                    "horizon": 150.0 },
      "net": { "latency": { "kind": "constant", "value": 0.05 },
               "loss": { "kind": "iid", "p": 0.1 } },
      "partitions": [ { "at": 20.0, "groups": "halves" },
                      { "at": 60.0, "groups": "heal" } ],
      "assertions": [ { "kind": "drained" },
                      { "kind": "final_disorder_below", "value": 0.05 } ]
    }
    v}

    Workloads: ["async"] runs {!Stratify_core.Async_dynamics} over an
    acceptance graph through a {!Stratify_net.Net} built from ["net"] —
    its ["backend"] selects the acceptance-graph storage (["dense"]
    Erdős–Rényi, implicit ["complete"], or ["complete_minus"] with a
    rank-spread removal set) and its ["scheduler"] the reference
    fixed-point computation (["random"]: Algorithm 1's greedy;
    ["worklist"]: Theorem 1's constructive drain — by uniqueness both
    must agree, which the ["scheduler_fixed_point"] assertion pins).
    ["swarm"] runs the {!Stratify_bittorrent.Swarm} and ["edonkey"] the
    {!Stratify_edonkey.Queue_sim} credit-queue baseline, both with
    tick-level link faults ({!Stratify_net.Net.Tick}) — for tick plans
    ["at"] is a tick index, ["net"] contributes only a per-tick loss
    rate (latency below tick granularity is meaningless), and
    stratification is compared against a fault-free twin of the same
    seed.

    Running a plan emits a {!Stratify_obs.Run_manifest} whose counters
    and metrics are deterministic functions of the plan and seed — two
    same-seed invocations of the same binary produce byte-identical
    manifests, which the [matrix-aggregate] CI job pins. *)

module Jsonx := Stratify_obs.Jsonx

type latency_spec =
  | Constant of float
  | Jitter of { base : float; spread : float }
  | Log_normal of { mu : float; sigma : float }

type loss_spec =
  | No_loss
  | Iid of float
  | Burst of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }

type net_spec = {
  latency : latency_spec;
  loss : loss_spec;
  duplicate : float;
  reorder : float;
  reorder_spread : float;
}

type groups_spec =
  | Halves  (** peers [0, n/2) vs [n/2, n) *)
  | Groups of int array  (** explicit group per peer *)
  | Heal

type partition_spec = { at : float; groups : groups_spec }
(** [at] is simulated time for async workloads, a tick index for swarm
    workloads. *)

type backend_spec =
  | Dense  (** Erdős–Rényi acceptance graph of expected degree [d] (CSR storage) *)
  | Complete  (** implicit complete acceptance graph; [d] is ignored *)
  | Complete_minus of { removed : int }
      (** complete minus [removed] evenly rank-spaced peers; [d] is ignored *)

type workload =
  | Async of {
      n : int;
      d : float;
      b : int;
      horizon : float;
      initiative_rate : float;
      backend : backend_spec;
      scheduler : Stratify_core.Scheduler.policy;
          (** how the disorder reference is computed: [Random_poll] uses
              Algorithm 1's greedy construction (the historical default),
              [Worklist] drains the dirty set from the empty configuration
              — Theorem 1 says both land on the same fixed point *)
    }
  | Swarm of { n : int; d : float; ticks : int; warmup : int }
  | Edonkey of { n : int; d : float; slots : int; ticks : int; warmup : int }

type assertion =
  | Drained  (** async: in-flight messages drain within the event budget *)
  | Final_disorder_below of float  (** async: disorder vs the reference stable config *)
  | Inconsistency_below of int  (** async: residual one-sided listings after quiescing *)
  | Converged_by of { deadline : float; disorder_below : float }
      (** async: disorder already under the bound at time [deadline] *)
  | Stratification_within of float
      (** swarm/edonkey: |stratification − fault-free twin's| ≤ tolerance *)
  | Scheduler_fixed_point
      (** async: the worklist-drained fixed point equals Algorithm 1's
          greedy configuration (Theorem 1 / Tan uniqueness) *)

type t = {
  name : string;
  seed : int;
  workload : workload;
  net : net_spec;
  partitions : partition_spec list;
  assertions : assertion list;
}

val of_json : Jsonx.t -> t
(** Raises {!Jsonx.Parse_error} on missing, ill-typed or {e unknown}
    top-level fields (a typo'd ["assertions"] must not yield a plan that
    passes by asserting nothing); [Invalid_argument] on semantic
    nonsense (swarm plan with an async-only assertion, etc.). *)

val to_json : t -> Jsonx.t
(** Round-trips: [of_json (to_json p) = p] up to field defaults. *)

val load : string -> t
(** Parse a [.plan] file. *)

type check = { label : string; ok : bool; detail : string }

type result = {
  plan : t;
  passed : bool;  (** all assertions hold *)
  checks : check list;  (** one per assertion, in plan order *)
  manifest : Stratify_obs.Run_manifest.t;
}

val run : t -> result
(** Execute the scenario under {!Stratify_obs.Control} with counters
    and profile rows reset, evaluate every assertion, and capture the
    manifest (kind ["scenario"]).  {!Stratify_obs.Profile} is never
    switched on, so the manifest holds no wall-clock value.
    Deterministic: counters, metrics and check outcomes depend only on
    the plan.  Uses process-global counter state — do not call
    concurrently; the matrix runner uses {!run_pure} instead. *)

val run_pure : ?kind:string -> ?git:string -> t -> result
(** Like {!run} but with observability {e off} for the whole execution:
    the manifest (kind defaults to ["matrix"]) carries no counters,
    histograms or profile rows — only thread-local metrics plus
    [checks_passed]/[checks_failed]/[passed] — so many plans can execute
    concurrently on the {!Stratify_exec.Exec} domain pool.  [git]
    overrides the [git describe] stamp (resolve it once before a
    parallel map instead of forking per cell).  Deterministic: two
    same-seed runs of the same binary produce byte-identical
    manifests. *)
