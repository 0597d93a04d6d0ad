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


(* ---- snapshot format pin and hostile snapshots ---------------------- *)

(* The t=17 snapshot of the checked-in tracker script.  Its MD5 pins the
   snapshot bytes: a codec change that alters a single byte fails here.
   The digest is of the file [stratify_serve --stop-at 17 --snapshot]
   writes (the string plus one newline), the same bytes the serve-suite
   CI job checks with md5sum. *)
let tracker_snapshot =
  lazy
    (let t = Serve.create (Request.load "../results/serve/tracker-mixed.serve") in
     Serve.run_to t 17.;
     Serve.snapshot_string t)

let test_snapshot_pin () =
  let snap = Lazy.force tracker_snapshot in
  Alcotest.(check int) "snapshot bytes" 180_009 (String.length snap);
  Alcotest.(check string) "snapshot file MD5" "1640f6451012210116ce457cae15fde3"
    (Digest.to_hex (Digest.string (snap ^ "\n")));
  Alcotest.(check string) "restore then snapshot is the identity" snap
    (Serve.snapshot_string (Serve.restore_string snap))

(* Rewrite one member of the snapshot's tree, then print it back: a
   well-formed document carrying the bad value. *)
let rec update path f (j : Jsonx.t) =
  match (path, j) with
  | [], _ -> f j
  | key :: rest, Jsonx.Obj fields ->
      Jsonx.Obj (List.map (fun (k, v) -> (k, if k = key then update rest f v else v)) fields)
  | _ -> invalid_arg "update: no such member"

let edit path f =
  Jsonx.to_string ~indent:false (update path f (Jsonx.of_string (Lazy.force tracker_snapshot)))

let ints l = Jsonx.List (List.map (fun x -> Jsonx.Int x) l)

(* Rewrite the first adjacency row with at least two neighbours. *)
let edit_row f =
  edit [ "oracle"; "adjacency" ] (fun rows ->
      let seen = ref false in
      Jsonx.List
        (List.mapi
           (fun p row ->
             match List.map Jsonx.get_int (Jsonx.get_list row) with
             | _ :: _ :: _ as l when not !seen ->
                 seen := true;
                 ints (f p l)
             | _ -> row)
           (Jsonx.get_list rows)))

let drop_first = function _ :: rest -> rest | [] -> []

(* Rewrite the members of the first swarm. *)
let edit_members f =
  edit [ "swarms" ] (fun l ->
      match Jsonx.get_list l with
      | first :: rest ->
          Jsonx.List
            (update [ "members" ]
               (fun m -> ints (f (List.map Jsonx.get_int (Jsonx.get_list m))))
               first
            :: rest)
      | [] -> l)

(* Replace the first element satisfying [p] by [f] of it. *)
let replace_first p f l =
  let seen = ref false in
  List.map
    (fun x ->
      if (not !seen) && p x then begin
        seen := true;
        f x
      end
      else x)
    l

(* (name, document, the error it must raise: a fragment of its message) *)
let bad_snapshots =
  lazy
    [
      ("asymmetric row", edit_row (fun _ l -> drop_first l), "does not list");
      ("unsorted row", edit_row (fun _ l -> List.rev l), "not strictly increasing");
      ("self-loop", edit_row (fun p l -> p :: drop_first l |> List.sort compare), "self-loop");
      ("out-of-range neighbour", edit_row (fun _ l -> l @ [ 120 ]), "outside [0, 120)");
      ( "missing swarm",
        edit [ "swarms" ] (fun l -> Jsonx.List [ List.hd (Jsonx.get_list l) ]),
        "snapshot has 1 swarms, script declares 2" );
      ( "missing peer record",
        edit [ "swarms" ] (fun l ->
            Jsonx.List
              (List.map
                 (update [ "peers" ] (fun peers ->
                      Jsonx.List (drop_first (Jsonx.get_list peers))))
                 (Jsonx.get_list l))),
        "peer records" );
      ( "member outside the population",
        edit_members (replace_first (fun m -> m >= 0) (fun _ -> 120)),
        "member 120 outside [-1, 120)" );
      ( "member seated twice",
        edit_members (fun l ->
            let dup = List.find (fun m -> m >= 0) l in
            replace_first (fun m -> m < 0) (fun _ -> dup) l),
        "twice" );
      ( "unknown event code",
        edit [ "queue" ] (fun l ->
            Jsonx.List (ints [ 18; 2 ] :: drop_first (Jsonx.get_list l))),
        "unknown event code 2" );
      ( "short present mask",
        edit [ "oracle"; "present" ] (fun l -> Jsonx.List (drop_first (Jsonx.get_list l))),
        "|present|" );
    ]

(* A truncated, byte-mutated or hand-built bad snapshot is either
   rejected or restored into a world that runs to its horizon.  Only
   Jsonx.Parse_error or an Invalid_argument naming its origin
   ("Module.fn: ...") may escape; "index out of bounds" and friends are
   crashes. *)
let named msg = match String.index_opt msg ':' with Some i -> i > 0 | None -> false

let hostile =
  QCheck.make
    ~print:(fun (kind, a, b) -> Printf.sprintf "kind=%d a=%d b=%d" kind a b)
    QCheck.Gen.(triple (int_bound 2) (int_bound 1_000_000) (int_bound 255))

let hostile_law (kind, a, b) =
  let snap = Lazy.force tracker_snapshot in
  let len = String.length snap in
  let input, must_fail =
    match kind with
    | 0 -> (String.sub snap 0 (a mod len), None)
    | 1 -> (String.mapi (fun i c -> if i = a mod len then Char.chr b else c) snap, None)
    | _ ->
        let cases = Lazy.force bad_snapshots in
        let _, doc, fragment = List.nth cases (a mod List.length cases) in
        (doc, Some fragment)
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match Serve.run_script (Serve.restore_string input) with
    | _ -> None
    | exception Jsonx.Parse_error msg -> Some msg
    | exception Invalid_argument msg ->
        if not (named msg) then QCheck.Test.fail_reportf "unnamed Invalid_argument %S" msg;
        Some msg
    | exception e -> QCheck.Test.fail_reportf "uncaught %s" (Printexc.to_string e)
  in
  if Unix.gettimeofday () -. t0 > 10. then
    QCheck.Test.fail_report "restore and run took over 10 s";
  (match (must_fail, outcome) with
  | Some fragment, None -> QCheck.Test.fail_reportf "accepted (want %S)" fragment
  | Some fragment, Some msg when not (Helpers.contains msg fragment) ->
      QCheck.Test.fail_reportf "error %S lacks %S" msg fragment
  | _ -> ());
  true

let suite =
  [
    Alcotest.test_case "serve: t=17 snapshot bytes pinned (MD5)" `Quick test_snapshot_pin;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x5a9 |])
      (QCheck.Test.make ~count:300 ~name:"serve: hostile snapshots raise named errors" hostile
         hostile_law);
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
