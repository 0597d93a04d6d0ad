(** One JSON record per instrumented run.

    A manifest is the machine-readable summary of an experiment or
    benchmark run: identity (name, seed, scale, jobs, git describe,
    core count), counter totals (from {!Counter}), histogram bucket
    counts (from {!Histogram}), free-form float metrics (e.g.
    replicas/sec) and per-region wall/GC rows (from {!Profile}).
    CI jobs diff these against checked-in baselines: counter totals are
    deterministic for a given seed and jobs-invariant, so they make
    exact golden values; timings and rates are compared with a
    tolerance.

    Encoding round-trips: [of_string (to_string m) = m] for every
    well-formed manifest (pinned by the test suite). *)

type t = {
  schema_version : int;
  kind : string; (* "experiment" or "bench" *)
  name : string;
  seed : int;
  scale : float;
  jobs : int;
  git : string;
  cores : int;
  counters : (string * int) list;
  histograms : (string * int array) list;
  metrics : (string * float) list;
  profile : Profile.entry list;
      (** Per-region wall/GC rows (see {!Profile}); empty — and omitted
          from the JSON, keeping non-profiled manifests byte-identical
          to the pre-profile schema — unless the run enabled
          profiling. *)
}

val schema_version : int

val capture :
  kind:string ->
  name:string ->
  seed:int ->
  scale:float ->
  jobs:int ->
  ?metrics:(string * float) list ->
  unit ->
  t
(** Snapshot the current {!Counter}, {!Histogram} and {!Profile} state
    into a manifest, stamping git describe and the machine's core
    count. *)

val counter : t -> string -> int option
val metric : t -> string -> float option

val profile_row : t -> string -> Profile.entry option
(** The profile row for a kernel name, if the manifest has one. *)

val to_json : t -> Jsonx.t
val of_json : Jsonx.t -> t
(** Raises {!Jsonx.Parse_error} on missing or ill-typed fields.  A
    legacy ["phases"] member, written by older versions, is ignored. *)

val to_string : t -> string
val of_string : string -> t

val write : dir:string -> t -> string
(** Serialize to [dir/<name>-<seed>.json] (directories created as
    needed); returns the path. *)

val write_path : string -> t -> unit
val read : string -> t

(** {2 Bench sets}

    The bench harness writes all its parts' manifests into one file,
    [{"schema_version":1,"kind":"bench_set","parts":{"<part>": <manifest>, …}}],
    parts in run order. *)

type set = (string * t) list

val set_to_string : set -> string

val set_of_string : string -> set
(** Raises {!Jsonx.Parse_error} unless the document is a bench set — a
    bare manifest is rejected by its kind. *)

val write_set : string -> set -> unit
val read_set : string -> set

val git_describe : unit -> string
(** [git describe --always --dirty], or ["unknown"] outside a work
    tree. *)
