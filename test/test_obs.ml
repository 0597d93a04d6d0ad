(* The observability layer: counters must be monotone and gated on the
   global switch, profile regions must nest and survive exceptions,
   histogram bucket boundaries must be exact at powers of two, and run
   manifests must round-trip through their JSON encoder — these
   invariants are what the CI manifest comparisons stand on. *)

module Obs = Stratify_obs

let with_obs f = Obs.Control.with_enabled true f

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)

let test_counter_monotone () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.monotone" in
      let before = Obs.Counter.value c in
      let prev = ref before in
      for k = 0 to 20 do
        Obs.Counter.incr c;
        Obs.Counter.add c k;
        let now = Obs.Counter.value c in
        Alcotest.(check bool) "never decreases" true (now >= !prev);
        prev := now
      done;
      Alcotest.(check int) "total" (before + 21 + 210) !prev;
      Alcotest.check_raises "negative add rejected"
        (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
          Obs.Counter.add c (-1)))

let test_counter_gating () =
  Obs.Control.set_enabled false;
  let c = Obs.Counter.make "test.gated" in
  let before = Obs.Counter.value c in
  Obs.Counter.incr c;
  Obs.Counter.add c 100;
  Alcotest.(check int) "disabled probes are no-ops" before (Obs.Counter.value c);
  with_obs (fun () -> Obs.Counter.incr c);
  Alcotest.(check int) "enabled probes count" (before + 1) (Obs.Counter.value c)

let test_counter_registry () =
  let a = Obs.Counter.make "test.same-name" and b = Obs.Counter.make "test.same-name" in
  with_obs (fun () -> Obs.Counter.incr a);
  Alcotest.(check int) "make is idempotent" (Obs.Counter.value a) (Obs.Counter.value b);
  Alcotest.(check bool) "dump contains it" true
    (List.mem_assoc "test.same-name" (Obs.Counter.dump ()))

(* ------------------------------------------------------------------ *)
(* Profile regions                                                    *)

let spin () =
  (* Burn a little CPU so the wall clock advances. *)
  let acc = ref 0. in
  for i = 1 to 200_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

let with_profile f =
  Obs.Profile.reset ();
  Obs.Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Profile.set_enabled false) f

let row name =
  List.find (fun (e : Obs.Profile.entry) -> e.kernel = name) (Obs.Profile.snapshot ())

let test_spans_nest () =
  with_profile (fun () ->
      Obs.Profile.with_ "outer" (fun () ->
          Obs.Profile.with_ "inner" spin;
          spin ());
      Obs.Profile.with_ "outer" (fun () -> ());
      (* Rows are recorded when an interval ends; inner time is contained
         in outer time. *)
      Alcotest.(check (list string)) "first-record order" [ "inner"; "outer" ]
        (List.map (fun (e : Obs.Profile.entry) -> e.kernel) (Obs.Profile.snapshot ()));
      let outer = row "outer" and inner = row "inner" in
      Alcotest.(check int) "outer entered twice" 2 outer.count;
      Alcotest.(check int) "inner entered once" 1 inner.count;
      Alcotest.(check bool) "outer wall >= inner wall" true (outer.wall_s >= inner.wall_s);
      Alcotest.(check bool) "inner wall > 0" true (inner.wall_s > 0.))

let test_span_exception_safe () =
  with_profile (fun () ->
      Alcotest.check_raises "exception propagates" (Failure "kernel exploded") (fun () ->
          Obs.Profile.with_ "boom" (fun () -> failwith "kernel exploded"));
      Alcotest.(check int) "interval still recorded" 1 (row "boom").count)

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)

let test_histogram_buckets_exact () =
  (* Power-of-two boundaries are exact: 2^k - 1 and 2^k always land in
     adjacent buckets, for every k. *)
  Alcotest.(check int) "zero" 0 (Obs.Histogram.bucket_of 0);
  Alcotest.(check int) "negative clamps" 0 (Obs.Histogram.bucket_of (-5));
  Alcotest.(check int) "one" 1 (Obs.Histogram.bucket_of 1);
  for k = 1 to 61 do
    let pow = 1 lsl k in
    Alcotest.(check int) (Printf.sprintf "bucket of 2^%d" k) (k + 1) (Obs.Histogram.bucket_of pow);
    Alcotest.(check int)
      (Printf.sprintf "bucket of 2^%d - 1" k)
      k
      (Obs.Histogram.bucket_of (pow - 1));
    Alcotest.(check int)
      (Printf.sprintf "lower bound of bucket %d" (k + 1))
      pow
      (Obs.Histogram.lower_bound (k + 1))
  done

let test_histogram_counts () =
  with_obs (fun () ->
      let h = Obs.Histogram.make "test.hist" in
      let base = Obs.Histogram.total h in
      List.iter (Obs.Histogram.observe h) [ 0; 1; 1; 3; 4; 1023; 1024 ];
      Alcotest.(check int) "total" (base + 7) (Obs.Histogram.total h);
      let counts = Obs.Histogram.counts h in
      Alcotest.(check int) "bucket 0 (zeros)" 1 counts.(0);
      Alcotest.(check int) "bucket 1 (ones)" 2 counts.(1);
      Alcotest.(check int) "bucket 2 (2..3)" 1 counts.(2);
      Alcotest.(check int) "bucket 3 (4..7)" 1 counts.(3);
      Alcotest.(check int) "bucket 10 (512..1023)" 1 counts.(10);
      Alcotest.(check int) "bucket 11 (1024..2047)" 1 counts.(11);
      Alcotest.(check bool) "dump lists non-empty histograms" true
        (List.mem_assoc "test.hist" (Obs.Histogram.dump ())))

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)

let test_json_roundtrip () =
  let open Stratify_obs.Jsonx in
  let samples =
    [
      Null;
      Bool true;
      Int 0;
      Int (-123456789);
      Float 0.05;
      Float 1.6180339887498949;
      Float (-1e-300);
      Float 12345678901234567890.;
      String "plain";
      String "esc \"quotes\" back\\slash\nnewline\ttab\001ctl";
      List [ Int 1; List []; Obj [] ];
      Obj [ ("a", Int 1); ("nested", Obj [ ("b", List [ Float 2.5; Null ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "pretty round-trip" true (of_string (to_string v) = v);
      Alcotest.(check bool) "compact round-trip" true
        (of_string (to_string ~indent:false v) = v))
    samples;
  (* Unicode escapes decode to UTF-8. *)
  Alcotest.(check bool) "\\u escape" true (of_string {|"é€"|} = String "\xc3\xa9\xe2\x82\xac");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "parse error on %S" bad)
        true
        (match of_string bad with exception Parse_error _ -> true | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "12 34"; "nul" ]


(* Edge cases of the printer's and parser's fast paths.  Every expected
   value is a literal the general Printf / int_of_string /
   float_of_string path produced before the fast paths existed. *)
let test_json_fast_paths () =
  let open Stratify_obs.Jsonx in
  let compact v = to_string ~indent:false v in
  List.iter
    (fun (f, expected) ->
      Alcotest.(check string) (Printf.sprintf "print %h" f) expected (compact (Float f)))
    [
      (0.0, "0.0");
      (-0.0, "-0.0");
      (1e15, "1000000000000000.0");
      (-1e15, "-1000000000000000.0");
      (9999999999999998.0, "9999999999999998.0");
      (1e16, "1e+16");
      (5e-324, "4.94065645841247e-324");
      (0x0.ffffffffffffdp-1022, "2.2250738585072e-308");
      (0.05, "0.05");
      (-2.0, "-2.0");
    ];
  List.iter
    (fun (i, expected) ->
      Alcotest.(check string) (Printf.sprintf "print %d" i) expected (compact (Int i)))
    [
      (max_int, "4611686018427387903");
      (min_int, "-4611686018427387904");
      (123456789012345678, "123456789012345678");
      (-123456789012345678, "-123456789012345678");
      (0, "0");
    ];
  Alcotest.(check string) "print unescaped" {|"plain"|} (compact (String "plain"));
  Alcotest.(check string) "print escaped" "\"a\\\"b\\\\c\\nd\\te\\u0001f\127g\""
    (compact (String "a\"b\\c\nd\te\001f\127g"));
  let parses = [
      ("01", Int 1);
      ("-0", Int 0);
      ("1e5", Float 100000.);
      ("0.0", Float 0.0);
      ("-0.0", Float (-0.0));
      ("123456789012345678", Int 123456789012345678);
      ("1234567890123456789", Int 1234567890123456789);
      ("4611686018427387903", Int max_int);
      ("-4611686018427387904", Int min_int);
      ("4611686018427387904", Float 0x1p+62);
      ("12345678901234567890", Float 0x1.56a95319d63e1p+63);
      ("-12345678901234567890", Float (-0x1.56a95319d63e1p+63));
      ("9999999999999998.0", Float 9999999999999998.0);
      ("1e16", Float 1e16);
      ("5e-324", Float 0x0.0000000000001p-1022);
      ("0.30000000000000004", Float 0x1.3333333333334p-2);
      ("00.5", Float 0.5);
      ("+5", Int 5);
      ({|"plain"|}, String "plain");
      ({|"a\"b\\c\nd\u00e9\/"|}, String "a\"b\\c\nd\xc3\xa9/");
    ]
  in
  (* [=] would equate 0.0 and -0.0: compare floats by their bits *)
  let same a b =
    match (a, b) with
    | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | a, b -> a = b
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "parse %s" src) true (same (of_string src) expected);
      (* the pull reader agrees with the tree reader token for token *)
      let r = reader src in
      let pulled =
        match expected with
        | Int _ -> Int (read_int r)
        | Float _ -> Float (read_float r)
        | String _ -> String (read_string r)
        | v -> v
      in
      read_end r;
      Alcotest.(check bool) (Printf.sprintf "read %s" src) true (same pulled expected))
    parses;
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "parse error on %S" bad) true
        (match of_string bad with exception Parse_error _ -> true | _ -> false))
    [ "1-2"; "-"; "1.5.2"; {|"open|} ];
  (* an int reader refuses what the tree holds as a float, as get_int does *)
  List.iter
    (fun src ->
      Alcotest.(check bool) (Printf.sprintf "read_int refuses %s" src) true
        (match read_int (reader src) with exception Parse_error _ -> true | _ -> false))
    [ "1e5"; "1.0"; "12345678901234567890"; "null"; {|"1"|} ]

(* The short-decimal fast path rounds exactly like float_of_string. *)
let decimal_law (neg, int_part, frac_part, frac_digits) =
  let s =
    Printf.sprintf "%s%d.%0*d" (if neg then "-" else "") int_part frac_digits
      (frac_part mod int_of_float (10. ** float_of_int frac_digits))
  in
  match Stratify_obs.Jsonx.of_string s with
  | Stratify_obs.Jsonx.Float f ->
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (float_of_string s))
  | _ -> false

let decimal_arb =
  QCheck.make
    ~print:(fun (n, i, f, k) -> Printf.sprintf "neg=%b int=%d frac=%d digits=%d" n i f k)
    QCheck.Gen.(quad bool (int_bound 99_999_999) (int_bound 9_999_999) (int_range 1 7))

let test_manifest_roundtrip () =
  let m =
    {
      Obs.Run_manifest.schema_version = Obs.Run_manifest.schema_version;
      kind = "experiment";
      name = "fig1";
      seed = 42;
      scale = 0.05;
      jobs = 7;
      git = "81de300-dirty";
      cores = 4;
      counters = [ ("initiative.performed", 278); ("sim.steps", 4200) ];
      histograms = [ ("exec.chunk_ns", [| 0; 0; 3; 1 |]) ];
      metrics = [ ("replicas_per_sec/2", 304.94) ];
      profile =
        [
          {
            Obs.Profile.kernel = "greedy.build";
            wall_s = 0.5;
            count = 2;
            ops = 20000;
            minor_words = 1234.;
            major_words = 56.;
            promoted_words = 7.;
          };
        ];
    }
  in
  let back = Obs.Run_manifest.of_string (Obs.Run_manifest.to_string m) in
  Alcotest.(check bool) "manifest round-trips" true (back = m);
  Alcotest.(check (option int)) "counter accessor" (Some 4200)
    (Obs.Run_manifest.counter back "sim.steps");
  Alcotest.(check (option (float 1e-9))) "metric accessor" (Some 304.94)
    (Obs.Run_manifest.metric back "replicas_per_sec/2");
  (* File round-trip through write/read. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "stratify-obs-test" in
  let path = Obs.Run_manifest.write ~dir m in
  Alcotest.(check bool) "file name" true (Filename.basename path = "fig1-42.json");
  Alcotest.(check bool) "file round-trips" true (Obs.Run_manifest.read path = m);
  (* A bench set keeps its parts in run order. *)
  let set = [ ("parallel", m); ("core", { m with name = "bench_core" }) ] in
  Alcotest.(check bool) "bench set round-trips" true
    (Obs.Run_manifest.(set_of_string (set_to_string set)) = set)

let test_capture_snapshots_probes () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.capture" in
      Obs.Counter.add c 5;
      let m =
        Obs.Run_manifest.capture ~kind:"experiment" ~name:"unit" ~seed:1 ~scale:1.0 ~jobs:1 ()
      in
      Alcotest.(check bool) "captured counter" true
        (match Obs.Run_manifest.counter m "test.capture" with Some v -> v >= 5 | None -> false);
      Alcotest.(check int) "schema version" Obs.Run_manifest.schema_version m.Obs.Run_manifest.schema_version)

(* [--manifest] switches Profile on, so an experiment's manifest carries
   a profile row named after the experiment. *)
let test_experiment_manifest_profile () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "stratify-obs-profile" in
  let ctx =
    { Stratify_cli.Experiments.default_context with scale = 0.05; manifest_dir = Some dir }
  in
  Stratify_cli.Experiments.run_named ctx ("fig7", "", Stratify_cli.Experiments.fig7);
  let m = Obs.Run_manifest.read (Filename.concat dir "fig7-42.json") in
  Alcotest.(check bool) "experiment row" true (Obs.Run_manifest.profile_row m "fig7" <> None);
  Alcotest.(check bool) "profiling switched back off" false (Obs.Profile.enabled ())

(* Manifests written before the region probes were merged keep a
   "phases" member; they must still decode. *)
let test_legacy_phases_decode () =
  let m = Obs.Run_manifest.read "../results/golden/fig1-42.json" in
  Alcotest.(check string) "name" "fig1" m.Obs.Run_manifest.name;
  Alcotest.(check bool) "counters" true (m.Obs.Run_manifest.counters <> [])

let suite =
  [
    Alcotest.test_case "counters are monotone" `Quick test_counter_monotone;
    Alcotest.test_case "counters gated on the switch" `Quick test_counter_gating;
    Alcotest.test_case "counter registry idempotent" `Quick test_counter_registry;
    Alcotest.test_case "spans nest correctly" `Quick test_spans_nest;
    Alcotest.test_case "spans survive exceptions" `Quick test_span_exception_safe;
    Alcotest.test_case "histogram buckets exact at powers of two" `Quick
      test_histogram_buckets_exact;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON fast paths match the general path" `Quick test_json_fast_paths;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xdec |])
      (QCheck.Test.make ~count:2000 ~name:"JSON short decimals round like float_of_string"
         decimal_arb decimal_law);
    Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "capture snapshots live probes" `Quick test_capture_snapshots_probes;
    Alcotest.test_case "experiment manifest has a profile row" `Quick
      test_experiment_manifest_profile;
    Alcotest.test_case "legacy phases member decodes" `Quick test_legacy_phases_decode;
  ]
