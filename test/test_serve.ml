(* The service layer (lib/serve): request scripts, the live world, and
   full deterministic snapshot/restore.

   The load-bearing property is stop/resume equality: running a script
   to its horizon in one go, and running it to a random stop time,
   serializing the complete world to a JSON string, restoring and
   continuing, must produce byte-identical run manifests.  The qcheck
   law below drives that across random worlds (churn, faults, piece
   mode, multiple swarms). *)

module Rng = Stratify_prng.Rng
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Request = Stratify_serve.Request
module Serve = Stratify_serve.Serve
module Jsonx = Stratify_obs.Jsonx
module Manifest = Stratify_obs.Run_manifest

(* ---- deterministic random scripts ---------------------------------- *)

(* Everything derives from one integer so qcheck shrinking stays
   meaningful (same discipline as Helpers.instance_params). *)
let mk_script seed =
  let rng = Rng.create (0x5e7e + seed) in
  let n = 6 + Rng.int rng 15 in
  let nswarms = 1 + Rng.int rng 2 in
  let swarms =
    List.init nswarms (fun i ->
        let size = 4 + Rng.int rng 7 in
        let piece =
          if Rng.bool rng then
            Some
              {
                Request.pieces = 4 + Rng.int rng 12;
                piece_size = 8.;
                init_fraction = 0.25;
                seeds = 1;
              }
          else None
        in
        let partitions =
          if Rng.bool rng then
            [
              { Request.at_tick = 2 + Rng.int rng 5; groups = Request.Halves };
              { Request.at_tick = 9 + Rng.int rng 5; groups = Request.Heal };
            ]
          else []
        in
        {
          Request.sid = Printf.sprintf "s%d" i;
          size;
          d = 6.;
          loss = (if Rng.bool rng then 0.1 else 0.);
          partitions;
          piece;
        })
  in
  let horizon = 14. +. float_of_int (Rng.int rng 8) in
  let sid k = Printf.sprintf "s%d" (k mod nswarms) in
  let nreq = 6 + Rng.int rng 10 in
  let requests =
    Array.init nreq (fun i ->
        let at = Rng.float rng (horizon -. 0.5) in
        let peer = Rng.int rng n in
        let kind =
          match Rng.int rng 6 with
          | 0 -> Request.Join { peer; swarm = sid i }
          | 1 -> Request.Leave { peer; swarm = sid i }
          | 2 | 3 -> Request.Announce { peer; swarm = sid i; want = Rng.int rng 6 }
          | 4 -> Request.Scrape { swarm = sid i }
          | _ -> Request.Stats
        in
        { Request.at; kind })
  in
  {
    Request.name = "qcheck-serve";
    seed = seed land 0xffff;
    world =
      {
        Request.n;
        d = 5.;
        b = 2;
        churn_rate = (if Rng.bool rng then 0.4 else 0.);
        bands = (if Rng.bool rng then 2 else 1);
        swarms;
      };
    requests;
    horizon;
  }

let manifest_string t = Manifest.to_string (Serve.manifest ~git:"test" t)

(* ---- stop/resume equality ------------------------------------------ *)

let seed_and_cut =
  QCheck.make
    ~print:(fun (seed, cut) -> Printf.sprintf "seed=%d cut=%.2f" seed cut)
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let* cut10 = int_range 1 9 in
      return (seed, float_of_int cut10 /. 10.))

let stop_resume_law (seed, cut) =
  let scr = mk_script seed in
  let stop_at = Float.max 1. (cut *. scr.Request.horizon) in
  let uninterrupted =
    let t = Serve.create scr in
    Serve.run_script t;
    manifest_string t
  in
  let snap =
    let t = Serve.create scr in
    Serve.run_to t stop_at;
    Serve.snapshot_string t
  in
  let t = Serve.restore_string snap in
  (* snapshot of a restored world round-trips byte-for-byte *)
  let again = Serve.snapshot_string t in
  if not (String.equal snap again) then
    QCheck.Test.fail_reportf "snapshot not idempotent (stop %.2f)" stop_at;
  Serve.run_script t;
  let resumed = manifest_string t in
  if not (String.equal uninterrupted resumed) then
    QCheck.Test.fail_reportf "stop/resume manifest drift (stop %.2f):\n%s\nvs\n%s" stop_at
      uninterrupted resumed;
  true

(* ---- scripted vs direct equivalence, double run -------------------- *)

let test_double_run () =
  let scr = mk_script 1234 in
  let run () =
    let t = Serve.create scr in
    Serve.run_script t;
    (manifest_string t, Serve.checksum t)
  in
  let m1, c1 = run () and m2, c2 = run () in
  Alcotest.(check string) "same manifest" m1 m2;
  Alcotest.(check int) "same checksum" c1 c2

(* ---- script JSON ---------------------------------------------------- *)

let script_roundtrip_law (seed, _) =
  let scr = mk_script seed in
  let scr' = Request.of_json (Request.to_json scr) in
  scr = scr'

let expect_parse_error what json =
  match Request.of_json (Jsonx.of_string json) with
  | _ -> Alcotest.failf "%s: unknown key accepted" what
  | exception Jsonx.Parse_error msg ->
      if not (Helpers.contains msg "unknown") then
        Alcotest.failf "%s: error %S does not name the unknown key" what msg

let minimal_script extra_world extra_top =
  Printf.sprintf
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3}]%s}, "requests": [], "horizon": 5.0%s}|}
    extra_world extra_top

let test_unknown_keys () =
  expect_parse_error "top level" (minimal_script "" {|, "bogus": 1|});
  expect_parse_error "world" (minimal_script {|, "pop": 9|} "");
  expect_parse_error "swarm"
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3, "speed": 9}]}, "requests": [], "horizon": 5.0}|};
  expect_parse_error "request"
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3}]}, "requests": [{"at": 1.0, "kind": "stats", "why": 0}], "horizon": 5.0}|};
  expect_parse_error "pieces"
    {|{"name": "x", "seed": 1, "world": {"n": 4, "swarms": [{"sid": "a", "size": 3, "pieces": {"pieces": 4, "piece_size": 8.0, "chunk": 1}}]}, "requests": [], "horizon": 5.0}|}

let expect_invalid what fragment f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument msg ->
      if not (Helpers.contains msg fragment) then
        Alcotest.failf "%s: message %S lacks %S" what msg fragment

let test_validate_errors () =
  let base = mk_script 7 in
  expect_invalid "horizon overrun" "beyond the horizon" (fun () ->
      Request.validate
        {
          base with
          Request.requests = [| { Request.at = base.Request.horizon +. 1.; kind = Request.Stats } |];
        });
  expect_invalid "unknown swarm ref" "unknown swarm" (fun () ->
      Request.validate
        {
          base with
          Request.requests =
            [| { Request.at = 1.; kind = Request.Scrape { swarm = "nope" } } |];
        });
  expect_invalid "stdio syntax" "unknown command" (fun () ->
      Request.of_line "shout 3 loud")

(* ---- error paths: serve, engine, net (satellite sweep) -------------- *)

let test_serve_errors () =
  let t = Serve.create (mk_script 3) in
  expect_invalid "unknown swarm" "Serve: unknown swarm \"zz\"" (fun () ->
      Serve.handle t (Request.Scrape { swarm = "zz" }));
  expect_invalid "peer range" "outside the population" (fun () ->
      Serve.handle t (Request.Join { peer = 10_000; swarm = "s0" }));
  Serve.run_to t 2.;
  expect_invalid "past run_to" "Engine.run_until" (fun () -> Serve.run_to t 1.)

let test_engine_errors () =
  let e = Engine.create () in
  Engine.run_until e ~time:5.;
  expect_invalid "packed past" "Engine.schedule_packed_at" (fun () ->
      Engine.schedule_packed_at e ~time:1. 0);
  expect_invalid "packed negative delay" "Engine.schedule_packed" (fun () ->
      Engine.schedule_packed e ~delay:(-1.) 0);
  expect_invalid "restore negative now" "Engine.restore_packed" (fun () ->
      Engine.restore_packed ~now:(-1.) [||])

let test_net_errors () =
  expect_invalid "negative tick" "Net.Tick.create" (fun () ->
      Net.Tick.create ~seed:1 ~loss:0.
        ~schedule:[ { Net.Tick.at_tick = -1; groups = None } ]
        ());
  let net = Net.create (Helpers.rng ()) (Net.ideal ()) in
  Engine.run_until (Net.engine net) ~time:10.;
  expect_invalid "past partition event" "Net.set_partition_schedule" (fun () ->
      Net.set_partition_schedule net [ { Net.at = 1.; groups = None } ]);
  (* pre-validation: nothing may have been enqueued by the failed call *)
  Alcotest.(check int) "no partial schedule" 0 (Engine.pending (Net.engine net))

let suite =
  [
    Helpers.qtest ~count:36 "serve: stop/resume == uninterrupted (random cut)"
      seed_and_cut stop_resume_law;
    Helpers.qtest ~count:60 "serve: script JSON round-trips" seed_and_cut
      script_roundtrip_law;
    Alcotest.test_case "serve: double-run equality" `Quick test_double_run;
    Alcotest.test_case "serve: unknown JSON keys rejected" `Quick
      test_unknown_keys;
    Alcotest.test_case "serve: validation errors are named" `Quick
      test_validate_errors;
    Alcotest.test_case "serve: reference errors are named" `Quick
      test_serve_errors;
    Alcotest.test_case "engine: packed error paths are named" `Quick
      test_engine_errors;
    Alcotest.test_case "net: partition scripting error paths" `Quick
      test_net_errors;
  ]
