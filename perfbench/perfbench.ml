(* End-to-end benchmark of stratify, driven from outside the program.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Three workloads, each calling only the public functions of the
   libraries under test:

   - serve-tracker: a live tracker session (Stratify_serve.Serve) fed
     by a closed-loop, membership-aware client;
   - match-1m: fig4 and Table 1's normal budgets at n = 10^6 through the
     banded matching core (Stratify_core.Shard, 2 bands);
   - matrix-full: all 108 scenario-matrix cells (Stratify_net_plan) over
     Exec.map_array.

   BENCHMARK.json declares serve-tracker and match-1m only.  matrix-full
   stays runnable by hand but is not declared: its async cells miss their
   disorder envelopes (calibrated at seed 42) at about a quarter of the
   seeds, and such a run reports correct:false and exits 1.

   Load comes from one process with two domains: Shard (match-1m) and
   Exec.map_array (matrix-full) run with [jobs = 2].

   A run repeats the workload's unit of work ("rep") until [--seconds]
   are used up, at least three times.  Rep 0 warms up; the run reports
   the medians of the other reps (see [rep] below).  Every rep starts
   from a full major GC and repeats the same inputs, so each rep's
   output fingerprint must equal the first rep's.  With [--trace 1]
   reps alternate untraced / traced: the traced reps time every call
   into a layer (monotonic clock, Gc deltas) and give the per-layer
   rows; the untraced ones give the trace overhead.

   The last line of stdout is one JSON object:
   {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
   The exit code is 1 when any check fails. *)

module Rng = Stratify_prng.Rng
module Jsonx = Stratify_obs.Jsonx
module Manifest = Stratify_obs.Run_manifest
module Profile = Stratify_obs.Profile
module Engine = Stratify_des.Engine
module Normal_b = Stratify_core.Normal_b
module Instance = Stratify_core.Instance
module Shard = Stratify_core.Shard
module Greedy = Stratify_core.Greedy
module Config = Stratify_core.Config
module Cluster = Stratify_core.Cluster
module Churn = Stratify_core.Churn
module Exec = Stratify_exec.Exec
module Plan = Stratify_net_plan.Plan
module Matrix = Stratify_net_plan.Matrix
module Report = Stratify_cli.Matrix_report
module Serve = Stratify_serve.Serve
module Req = Stratify_serve.Request

(* ------------------------------------------------------------------ *)
(* Clock, statistics, checks                                           *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else 0.5 *. (a.((k / 2) - 1) +. a.(k / 2))

(* Nearest-rank percentile of the first [len] entries of [a]. *)
let percentile a len p =
  if len = 0 then 0.
  else begin
    let s = Array.sub a 0 len in
    Array.sort Float.compare s;
    s.(max 0 (min (len - 1) (int_of_float (Float.ceil (p *. float_of_int len)) - 1)))
  end

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* Peak major heap of the measured path, read once: at the end of rep
   0's timed phase, before its checks run.  Later reps would read a peak
   that grows with their number (fragmentation), and the number of reps
   depends on the machine's speed.  The process runs one workload, so the
   peak is that workload's alone; the one check that needs more memory
   than the measured path, the match-1m oracle, runs after all reps. *)
let peak_mb = ref None

let note_peak () =
  if !peak_mb = None then
    peak_mb :=
      Some (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

(* ------------------------------------------------------------------ *)
(* Per-layer rows of one traced rep                                    *)

(* Rows accumulate only while [tracing] is on.  [attributed] sums the
   top-level spans of the timed phase — the coverage numerator. *)
let tracing = ref false
let rows : (string, float ref) Hashtbl.t = Hashtbl.create 64
let attributed = ref 0.

let row name =
  match Hashtbl.find_opt rows name with
  | Some r -> r
  | None ->
      let r = ref 0. in
      Hashtbl.replace rows name r;
      r

let add name v = if !tracing then (row name) := !(row name) +. v
let put name v = (row name) := v

(* Time one call into a layer.  [top] spans lie in the timed phase and
   count towards coverage; setup and oracle spans pass [~top:false]. *)
let span ?(top = true) name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let dt = since t0 in
    add name dt;
    if top then attributed := !attributed +. dt;
    r
  end

(* The per-layer metrics of a traced run, with their units: the
   per_layer list of BENCHMARK.json.  Every workload reports all of them;
   a layer a workload does not reach reads 0 there. *)
let layer_metrics =
  [
    ("serve.requests", "count");
    ("serve.announce_s", "s");
    ("serve.announces", "count");
    ("serve.announce_minor_words", "words");
    ("serve.announce_p50_us", "us");
    ("serve.announce_p99_us", "us");
    ("serve.join_s", "s");
    ("serve.leave_s", "s");
    ("serve.scrape_s", "s");
    ("serve.stats_s", "s");
    ("serve.refused", "count");
    ("serve.refused_share", "share");
    ("serve.tick_s", "s");
    ("serve.ticks", "count");
    ("serve.tick_max_ms", "ms");
    ("serve.tick_p50_ms", "ms");
    ("serve.tick_minor_words", "words");
    ("serve.tick_major_words", "words");
    ("serve.create_s", "s");
    ("serve.snapshot_s", "s");
    ("serve.restore_s", "s");
    ("serve.snapshot_bytes", "bytes");
    ("des.pending_max", "count");
    ("core.stable_edges", "count");
    ("core.budgets_s", "s");
    ("core.instance_s", "s");
    ("core.shard_solve_s", "s");
    ("core.shard_cuts_s", "s");
    ("core.shard_band_solve_s", "s");
    ("core.shard_stitch_s", "s");
    ("core.shard_fixup_s", "s");
    ("core.adjacency_s", "s");
    ("core.analyze_s", "s");
    ("core.solve_major_words", "words");
    ("core.edges", "count");
    ("core.clusters", "count");
    ("core.greedy_solve_s", "s");
    ("exec.busy_share", "share");
    ("ops_per_s", "1/s");
    ("unattributed_s", "s");
    ("coverage", "share");
    ("trace_overhead_s", "s");
  ]

(* The plan runner's rows, reported by matrix-full alone: it is the only
   workload that reaches Plan and Exec.map_array. *)
let plan_metrics =
  [
    ("plan.async_s", "s");
    ("plan.swarm_s", "s");
    ("plan.edonkey_s", "s");
    ("plan.cell_max_s", "s");
    ("plan.cells", "count");
    ("plan.cells_failed", "count");
    ("exec.map_s", "s");
  ]

(* ------------------------------------------------------------------ *)
(* One rep of a workload                                               *)

(* Reps of one run repeat the same inputs.  The run reports medians
   over its reps after the first.  On a shared machine, contention from
   other tenants slows some reps by up to 1.5x, now and then a fast rep
   stands out, and the first rep runs on a cold heap; the median of the
   reps after the first is moved by none of those. *)
type rep = {
  traced : bool;
  setup_s : float list;  (** builds of the rep's inputs, before the timed phase *)
  wall_s : float;  (** the timed phase *)
  ops : float;  (** operations served in [ops_s] *)
  ops_s : float;  (** the part of the timed phase that serves [ops] *)
  fingerprint : string;  (** output digest; equal in every rep *)
  layers : (string * float) list;  (** traced reps only *)
  covered_s : float;  (** top-level spans inside the timed phase *)
}

let make_rep ~traced ~setup_s ~wall_s ?(ops_s = wall_s) ~ops fingerprint =
  let layers =
    if traced then Hashtbl.fold (fun k v acc -> (k, !v) :: acc) rows [] else []
  in
  { traced; setup_s; wall_s; ops; ops_s; fingerprint; layers; covered_s = !attributed }

let response_ok r = String.length r >= 2 && r.[0] = 'O' && r.[1] = 'K'

(* ------------------------------------------------------------------ *)
(* serve-tracker                                                       *)

module Serve_w = struct
  let population = 100_000
  let slots = 1_000
  let ticks = 12
  let per_tick = 1_000
  let fill = 900  (* initial members per swarm *)
  let sids = [| "lossy"; "pieces"; "plain-a"; "plain-b" |]

  let script seed =
    let swarm ?(loss = 0.) ?(partitions = []) ?piece sid =
      { Req.sid; size = slots; d = 20.; loss; partitions; piece }
    in
    Req.validate
      {
        Req.name = "perfbench-serve-tracker";
        seed;
        world =
          {
            Req.n = population;
            d = 10.;
            b = 3;
            churn_rate = 1.0;
            bands = 2;
            swarms =
              [
                swarm "lossy" ~loss:0.1
                  ~partitions:
                    [
                      { Req.at_tick = 3; groups = Req.Halves };
                      { Req.at_tick = 8; groups = Req.Heal };
                    ];
                swarm "pieces"
                  ~piece:{ Req.pieces = 64; piece_size = 1.0; init_fraction = 0.2; seeds = 10 };
                swarm "plain-a";
                swarm "plain-b";
              ];
          };
        requests = [||];
        horizon = float_of_int (ticks + 4);
      }

  (* The client's view of one swarm's membership: a dense array for
     uniform picks plus a position index for O(1) removal. *)
  type members = { ids : int array; mutable count : int; pos : (int, int) Hashtbl.t }

  let add_member m p =
    m.ids.(m.count) <- p;
    Hashtbl.replace m.pos p m.count;
    m.count <- m.count + 1

  let remove_at m i =
    let p = m.ids.(i) and last = m.count - 1 in
    let q = m.ids.(last) in
    m.ids.(i) <- q;
    Hashtbl.replace m.pos q i;
    Hashtbl.remove m.pos p;
    m.count <- last

  (* A departed peer silently leaves every swarm; churn is visible to
     the client through the population's presence mask. *)
  let prune m present =
    for i = m.count - 1 downto 0 do
      if not present.(m.ids.(i)) then remove_at m i
    done

  let rec fresh_peer rng m =
    let p = Rng.int rng population in
    if Hashtbl.mem m.pos p then fresh_peer rng m else p

  (* The next request: announces from members, joins only into free
     slots, leaves only of members — every request can succeed.
     The mix (89% announces, 4% joins, 4% leaves, 2% scrapes, 1% stats)
     is an assumption, not a measurement: a tracker mostly sees the
     periodic re-announces of its members, and no published split was
     at hand.  Every announce asks for 50 peers, the customary default
     when a BitTorrent client omits [numwant]. *)
  let next rng (view : members array) =
    let s = Rng.int rng (Array.length sids) in
    let m = view.(s) and swarm = sids.(s) in
    let r = Rng.int rng 100 in
    if (r < 4 && m.count < slots) || m.count = 0 then begin
      let peer = fresh_peer rng m in
      add_member m peer;
      Req.Join { peer; swarm }
    end
    else if r < 8 && m.count > fill / 2 then begin
      let i = Rng.int rng m.count in
      let peer = m.ids.(i) in
      remove_at m i;
      Req.Leave { peer; swarm }
    end
    else if r < 10 then Req.Scrape { swarm }
    else if r < 11 then Req.Stats
    else Req.Announce { peer = m.ids.(Rng.int rng m.count); swarm; want = 50 }

  let manifest t = Manifest.to_string (Serve.manifest ~git:"perfbench" t)

  let rep ~seed ~traced =
    let scr = script seed in
    tracing := traced;
    let c0 = now () in
    let t = span ~top:false "serve.create_s" (fun () -> Serve.create scr) in
    let setup_s = since c0 in
    tracing := false;
    let rng = Rng.create (seed + 0x5eed) in
    let view =
      Array.map (fun _ -> { ids = Array.make slots 0; count = 0; pos = Hashtbl.create 2048 }) sids
    in
    let total = (Array.length sids * fill) + (ticks * per_tick) in
    let lat = Array.make total 0. and nlat = ref 0 in
    let tick_ms = Array.make ticks 0. in
    let requests = ref 0 and refused = ref 0 and pending_max = ref 0 in
    let announce_s = row "serve.announce_s" and announce_words = row "serve.announce_minor_words" in
    let serve kind =
      incr requests;
      let resp =
        match kind with
        | Req.Announce _ ->
            let w0 = if traced then Gc.minor_words () else 0. in
            let t0 = now () in
            let resp = Serve.handle t kind in
            let dt = since t0 in
            if traced then begin
              announce_words := !announce_words +. (Gc.minor_words () -. w0);
              announce_s := !announce_s +. dt;
              attributed := !attributed +. dt
            end;
            lat.(!nlat) <- dt;
            incr nlat;
            resp
        | Req.Join _ -> span "serve.join_s" (fun () -> Serve.handle t kind)
        | Req.Leave _ -> span "serve.leave_s" (fun () -> Serve.handle t kind)
        | Req.Scrape _ -> span "serve.scrape_s" (fun () -> Serve.handle t kind)
        | Req.Stats -> span "serve.stats_s" (fun () -> Serve.handle t kind)
      in
      if not (response_ok resp) then begin
        incr refused;
        if !refused <= 5 then Printf.eprintf "perfbench: refused: %s\n%!" resp
      end
    in
    Gc.full_major ();
    tracing := traced;
    let w0 = now () in
    Array.iteri
      (fun s m ->
        for _ = 1 to fill do
          let peer = fresh_peer rng m in
          add_member m peer;
          serve (Req.Join { peer; swarm = sids.(s) })
        done)
      view;
    let present = Churn.world_present (Serve.oracle t) in
    for k = 1 to ticks do
      let g0 = if traced then Gc.counters () else (0., 0., 0.) in
      let t0 = now () in
      span "serve.tick_s" (fun () -> Serve.run_to t (float_of_int k));
      tick_ms.(k - 1) <- 1e3 *. since t0;
      if traced then begin
        let mi0, _, ma0 = g0 and mi1, _, ma1 = Gc.counters () in
        add "serve.tick_minor_words" (mi1 -. mi0);
        add "serve.tick_major_words" (ma1 -. ma0)
      end;
      pending_max := max !pending_max (Engine.pending (Serve.engine t));
      Array.iter (fun m -> prune m present) view;
      for _ = 1 to per_tick do
        serve (next rng view)
      done;
      pending_max := max !pending_max (Engine.pending (Serve.engine t))
    done;
    let ops_s = since w0 in
    let snap = span "serve.snapshot_s" (fun () -> Serve.snapshot_string t) in
    let restored = span "serve.restore_s" (fun () -> Serve.restore_string snap) in
    let wall_s = since w0 in
    tracing := false;
    note_peak ();
    (* Checks: no refusals, the restored world is the same world, and
       both answer the same after one more tick. *)
    attempted := !attempted + !requests;
    failed := !failed + !refused;
    let m_before = manifest t in
    check "serve-tracker: restored manifest equals the original" (m_before = manifest restored);
    let follow w =
      Serve.run_to w (float_of_int (ticks + 1));
      ignore (Serve.handle w Req.Stats);
      Array.iter (fun swarm -> ignore (Serve.handle w (Req.Scrape { swarm }))) sids;
      Serve.checksum w
    in
    let cs_checksum = Serve.checksum t in
    let after = follow t and after_restored = follow restored in
    check "serve-tracker: restored world agrees after one more tick" (after = after_restored);
    if traced then begin
      put "serve.requests" (float_of_int !requests);
      put "serve.announces" (float_of_int !nlat);
      put "serve.announce_p50_us" (1e6 *. percentile lat !nlat 0.5);
      put "serve.announce_p99_us" (1e6 *. percentile lat !nlat 0.99);
      put "serve.refused" (float_of_int !refused);
      put "serve.refused_share" (float_of_int !refused /. float_of_int !requests);
      put "serve.ticks" (float_of_int ticks);
      put "serve.tick_max_ms" (Array.fold_left Float.max 0. tick_ms);
      put "serve.tick_p50_ms" (percentile tick_ms ticks 0.5);
      put "serve.snapshot_bytes" (float_of_int (String.length snap));
      put "des.pending_max" (float_of_int !pending_max);
      put "core.stable_edges"
        (float_of_int (Config.edge_count (Churn.world_stable (Serve.oracle t))))
    end;
    make_rep ~traced ~setup_s:[ setup_s ] ~wall_s ~ops_s ~ops:(float_of_int !requests)
      (Printf.sprintf "checksum %d requests %d snapshot %d bytes manifest %s" cs_checksum
           !requests (String.length snap)
           (Digest.to_hex (Digest.string m_before)))
end

(* ------------------------------------------------------------------ *)
(* match-1m                                                            *)

module Match_w = struct
  let n = 1_000_000
  let jobs = 2
  let bands = 2

  (* Greedy time of the run's oracle pass, outside the timed phase. *)
  let greedy_s = ref 0.

  (* fig4 (constant b0 = 2), then Table 1's N(b, 0.2) budgets. *)
  let steps = Array.append [| (2, 0.) |] (Array.init 6 (fun i -> (i + 2, 0.2)))

  let budgets rng (b0, sigma) =
    if sigma = 0. then Normal_b.constant ~n ~b0
    else Normal_b.rounded_normal rng ~n ~mean:(float_of_int b0) ~sigma

  (* FNV fold over an adjacency's (p, q) pairs, p < q. *)
  let adjacency_checksum adj =
    let h = ref 0x811c9dc5 in
    Array.iteri
      (fun p row ->
        Array.iter
          (fun q -> if p < q then h := ((!h * 16777619) lxor ((p lsl 20) lxor q)) land ((1 lsl 50) - 1))
          row)
      adj;
    !h

  let profile_rows () =
    List.iter
      (fun e ->
        let name =
          match e.Profile.kernel with
          | "shard.cluster_cuts" -> Some "core.shard_cuts_s"
          | "shard.band_solve" -> Some "core.shard_band_solve_s"
          | "shard.stitch" -> Some "core.shard_stitch_s"
          | "shard.fixup" -> Some "core.shard_fixup_s"
          | "greedy.build" -> Some "exec.band_busy_s"
          | _ -> None
        in
        Option.iter (fun name -> add name e.Profile.wall_s) name)
      (Profile.snapshot ())

  let instances seed =
    let rng = Rng.create seed in
    Array.map
      (fun step ->
        let b = span ~top:false "core.budgets_s" (fun () -> budgets rng step) in
        span ~top:false "core.instance_s" (fun () -> Instance.complete ~n ~b ()))
      steps

  let rep ~seed ~traced =
    tracing := traced;
    let c0 = now () in
    let instances = instances seed in
    let setup_s = since c0 in
    tracing := false;
    let wall_s = ref 0. in
    let fp = Buffer.create 256 in
    Array.iteri
      (fun i inst ->
        Gc.full_major ();
        tracing := traced;
        if traced then begin
          Profile.reset ();
          Profile.set_enabled true
        end;
        let t0 = now () in
        let _, _, ma0 = if traced then Gc.counters () else (0., 0., 0.) in
        let cfg = span "core.shard_solve_s" (fun () -> Shard.stable_config ~jobs ~bands inst) in
        if traced then begin
          let _, _, ma1 = Gc.counters () in
          add "core.solve_major_words" (ma1 -. ma0);
          Profile.set_enabled false;
          profile_rows ()
        end;
        let adj = span "core.adjacency_s" (fun () -> Config.to_adjacency cfg) in
        let an = span "core.analyze_s" (fun () -> Cluster.analyze adj) in
        wall_s := !wall_s +. since t0;
        tracing := false;
        let edges = Config.edge_count cfg in
        if traced then begin
          put "core.edges" (!(row "core.edges") +. float_of_int edges);
          put "core.clusters" (!(row "core.clusters") +. float_of_int an.Cluster.count)
        end;
        Printf.bprintf fp "step %d edges %d clusters %d largest %d adj %d\n" i edges
          an.Cluster.count an.Cluster.largest (adjacency_checksum adj))
      instances;
    note_peak ();
    attempted := !attempted + Array.length steps;
    (* band-solve busy time over the pool's capacity *)
    if traced then
      put "exec.busy_share"
        (!(row "exec.band_busy_s") /. (float_of_int jobs *. !(row "core.shard_band_solve_s")));
    make_rep ~traced ~setup_s:[ setup_s ] ~wall_s:!wall_s
      ~ops:(float_of_int (n * Array.length steps))
      (Buffer.contents fp)

  (* Theorem 1: the banded result is the unique stable configuration, so
     it must equal Algorithm 1 run whole.  One pass after the reps, on
     the same inputs; the reps' fingerprints pin that they all computed
     the same configurations. *)
  let oracle ~seed =
    Array.iteri
      (fun i inst ->
        let cfg = Shard.stable_config ~jobs ~bands inst in
        let t0 = now () in
        let g = Greedy.stable_config inst in
        greedy_s := !greedy_s +. since t0;
        check
          (Printf.sprintf "match-1m step %d: banded config equals Greedy.stable_config" i)
          (Config.equal cfg g);
        match steps.(i) with
        | b0, 0. ->
            check "match-1m fig4: block structure"
              (Cluster.matches_block_structure ~n ~b0 (Config.to_adjacency cfg))
        | _ -> ())
      (instances seed)
end

(* ------------------------------------------------------------------ *)
(* matrix-full                                                         *)

module Matrix_w = struct
  let jobs = 2
  let setup_samples = 20
  let baseline_seed = 42
  let baseline_path = "results/matrix/baseline.json"

  (* The matrix build: generate the cells, then write every plan as the
     JSON text a plan file holds and read it back — the cells run from
     the parsed plans, as a runner fed plan files would. *)
  let build seed =
    Array.map
      (fun cell ->
        let text = Jsonx.to_string (Plan.to_json cell.Matrix.plan) in
        (cell, Plan.of_json (Jsonx.of_string text)))
      (Matrix.generate ~seed)

  (* Print every assertion a cell missed. *)
  let report_misses (cell, (result : Plan.result), _) =
    List.iter
      (fun (c : Plan.check) ->
        if not c.ok then
          Printf.eprintf "perfbench: matrix cell %s (seed %d) missed %s: %s\n%!" cell.Matrix.name
            cell.Matrix.seed c.label c.detail)
      result.checks

  let rep ~seed ~traced ~first =
    (* The build takes milliseconds: time it several times, each from a
       compacted heap so the GC state cannot tilt the samples. *)
    let samples = Array.make setup_samples 0. and built = ref [||] in
    for i = 0 to setup_samples - 1 do
      built := [||];
      Gc.full_major ();
      let c0 = now () in
      built := build seed;
      samples.(i) <- since c0
    done;
    let built = !built in
    let cells = Array.length built in
    if first then
      check "matrix-full: every plan reads back equal from its JSON text"
        (Array.for_all (fun (cell, plan) -> plan = cell.Matrix.plan) built);
    Gc.full_major ();
    tracing := traced;
    let w0 = now () in
    let results =
      span "exec.map_s" (fun () ->
          Exec.map_array ~jobs built (fun (cell, plan) ->
              let c0 = now () in
              let result = Plan.run_pure ~git:"perfbench" plan in
              (cell, result, since c0)))
    in
    let wall_s = since w0 in
    tracing := false;
    note_peak ();
    let cell_s = Array.map (fun (_, _, s) -> s) results in
    let cells_total = Array.fold_left ( +. ) 0. cell_s in
    let summary =
      Report.make ~matrix_seed:seed ~cardinality:Matrix.cardinality
        (Array.to_list
           (Array.map
              (fun (cell, result, s) -> Report.cell_of_run ~cell ~result ~wall_ms:(1e3 *. s))
              results))
    in
    let cells_failed = List.length (List.filter (fun c -> not c.Report.passed) summary.Report.cells) in
    attempted := !attempted + cells;
    (* Every cell must meet its assertions, at every seed.  The cells'
       outputs repeat exactly in every rep (the fingerprint), so rep 0
       checks them for the run. *)
    if first then begin
      check "matrix-full: every generated cell ran"
        (cells = Matrix.cardinality && List.length summary.Report.cells = Matrix.cardinality);
      Array.iter report_misses results;
      check
        (Printf.sprintf "matrix-full: every cell meets its assertions (%d of %d miss)" cells_failed
           cells)
        (cells_failed = 0);
      if seed = baseline_seed then begin
        let regressions = Report.regressions ~baseline:(Report.read baseline_path) summary in
        List.iter (fun (cell, what) -> Printf.eprintf "perfbench: regression %s: %s\n%!" cell what) regressions;
        check "matrix-full: no regression against the checked-in baseline" (regressions = [])
      end
    end;
    if traced then begin
      Array.iter
        (fun (cell, _, s) ->
          let layer =
            match cell.Matrix.workload with
            | Matrix.Async_w -> "plan.async_s"
            | Matrix.Swarm_w -> "plan.swarm_s"
            | Matrix.Edonkey_w -> "plan.edonkey_s"
          in
          put layer (!(row layer) +. s))
        results;
      put "plan.cell_max_s" (Array.fold_left Float.max 0. cell_s);
      put "plan.cells" (float_of_int cells);
      put "plan.cells_failed" (float_of_int cells_failed);
      put "exec.busy_share" (cells_total /. (float_of_int jobs *. !(row "exec.map_s")))
    end;
    make_rep ~traced ~setup_s:(Array.to_list samples) ~wall_s ~ops:(float_of_int cells)
      (Jsonx.to_string (Report.to_json (Report.baseline_of_summary summary)))
end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let workloads = [ "serve-tracker"; "match-1m"; "matrix-full" ]
let max_reps = 50

let run_rep workload ~seed ~traced ~first =
  Hashtbl.reset rows;
  attributed := 0.;
  Gc.full_major ();
  match workload with
  | "serve-tracker" -> Serve_w.rep ~seed ~traced
  | "match-1m" -> Match_w.rep ~seed ~traced
  | "matrix-full" -> Matrix_w.rep ~seed ~traced ~first
  | w -> invalid_arg ("unknown workload " ^ w)

(* Reps until [seconds] would be exceeded, at least three, so that two
   follow the warm-up rep; with tracing they alternate untraced / traced. *)
let min_reps = 3

let run_reps workload ~seed ~seconds ~trace =
  let start = now () in
  let rec go i last acc =
    if i >= min_reps && (i >= max_reps || since start +. last > seconds) then List.rev acc
    else begin
      let r0 = now () in
      let r = run_rep workload ~seed ~traced:(trace && i mod 2 = 1) ~first:(i = 0) in
      Printf.printf "# rep %d traced=%b setup_s=%.4f wall_s=%.4f ops_s=%.4f\n%!" i r.traced
        (median r.setup_s) r.wall_s r.ops_s;
      go (i + 1) (since r0) (r :: acc)
    end
  in
  go 0 0. []

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let usage () =
  Printf.eprintf
    "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n%!"
    (String.concat "|" workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some v when v > 0. -> seconds := v | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem !workload workloads) then usage ();
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" !workload seed !seconds
    (Bool.to_int !trace);
  let metrics =
    match
      let reps = run_reps !workload ~seed ~seconds:!seconds ~trace:!trace in
      if !workload = "match-1m" then Match_w.oracle ~seed;
      reps
    with
    | exception e ->
        incr attempted;
        incr failed;
        Printf.eprintf "perfbench: %s raised %s\n%!" !workload (Printexc.to_string e);
        []
    | reps ->
        let first = List.hd reps in
        List.iteri
          (fun i r ->
            check (Printf.sprintf "%s rep %d repeats rep 0's output" !workload i)
              (r.fingerprint = first.fingerprint))
          reps;
        Printf.printf "# reps=%d (%d traced)\n" (List.length reps)
          (List.length (List.filter (fun r -> r.traced) reps));
        let med f rs = median (List.map f rs) in
        (* rep 0 is the warm-up *)
        let timed = List.tl reps in
        if not !trace then
          [
            ("setup_s", median (List.concat_map (fun r -> r.setup_s) timed), "s");
            ("wall_s", med (fun r -> r.wall_s) timed, "s");
            ("peak_heap_mb", Option.value ~default:0. !peak_mb, "MB");
          ]
        else begin
          let traced = List.filter (fun r -> r.traced) timed
          and untraced = List.filter (fun r -> not r.traced) timed in
          let layer name r = Option.value ~default:0. (List.assoc_opt name r.layers) in
          let coverage = med (fun r -> r.covered_s /. r.wall_s) traced in
          let wall rs = med (fun r -> r.wall_s) rs in
          check
            (Printf.sprintf "%s: traced spans cover %.3f of wall_s (need 0.9)" !workload coverage)
            (coverage >= 0.9);
          List.map
            (fun (name, unit) ->
              let v =
                match name with
                | "unattributed_s" -> med (fun r -> r.wall_s -. r.covered_s) traced
                | "coverage" -> coverage
                | "trace_overhead_s" -> wall traced -. wall untraced
                | "ops_per_s" -> first.ops /. med (fun r -> r.ops_s) untraced
                | "core.greedy_solve_s" -> !Match_w.greedy_s
                | _ -> med (layer name) traced
              in
              (name, v, unit))
            (if !workload = "matrix-full" then layer_metrics @ plan_metrics else layer_metrics)
        end
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %s %s\n" name (json_number v) unit) metrics;
  let correct = !failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics));
  exit (if correct then 0 else 1)
