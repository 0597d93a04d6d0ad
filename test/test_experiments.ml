(* End-to-end smoke tests: every registered experiment must run to
   completion at a tiny scale (output goes to Alcotest's capture), and the
   CSV export path must produce files.  This keeps the whole regeneration
   harness from bitrotting. *)

module E = Stratify_cli.Experiments

let tiny =
  {
    E.seed = 7;
    scale = 0.05;
    csv_dir = None;
    jobs = 2;
    manifest_dir = None;
    n_override = None;
    scheduler = Stratify_core.Scheduler.Random_poll;
    bands = 1;
    band_overlap = None;
  }

let experiment_cases =
  List.map
    (fun (name, _description, run) ->
      Alcotest.test_case (Printf.sprintf "experiment %s runs" name) `Slow (fun () ->
          run tiny))
    E.all

let test_registry_lookup () =
  Alcotest.(check bool) "fig1 found" true (E.find "fig1" <> None);
  Alcotest.(check bool) "unknown absent" true (E.find "fig99" = None);
  (* Registry names are unique. *)
  let names = List.map (fun (n, _, _) -> n) E.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "all figures and the table present" true
    (List.for_all
       (fun required -> List.mem required names)
       [
         "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "table1"; "fig6"; "fig7"; "fig8"; "fig9";
         "fig10"; "fig11";
       ])

let test_context_validation () =
  let expect what ctx fragment =
    match E.validate_context ctx with
    | exception Invalid_argument msg ->
        if not (Helpers.contains msg fragment) then
          Alcotest.failf "%s: error %S does not mention %S" what msg fragment
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  expect "n = 0" { tiny with E.n_override = Some 0 } "n must be >= 1";
  expect "negative n" { tiny with E.n_override = Some (-5) } "-5";
  expect "zero scale" { tiny with E.scale = 0. } "scale";
  expect "jobs = 0" { tiny with E.jobs = 0 } "jobs";
  expect "bands = 0" { tiny with E.bands = 0 } "bands";
  expect "bands > n" { tiny with E.n_override = Some 100; bands = 101 } "101 bands";
  expect "negative overlap" { tiny with E.band_overlap = Some (-1) } "overlap";
  (* The boundary cases are accepted. *)
  E.validate_context { tiny with E.n_override = Some 100; bands = 100; band_overlap = Some 0 }

let test_csv_export () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "stratify_test_csv" in
  (match E.find "fig7" with
  | Some run -> run { tiny with E.csv_dir = Some dir; jobs = 1 }
  | None -> Alcotest.fail "fig7 missing");
  let path = Filename.concat dir "fig7.csv" in
  Alcotest.(check bool) "csv written" true (Sys.file_exists path);
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  Alcotest.(check bool) "has header" true (String.length header > 0);
  Sys.remove path

let suite =
  Alcotest.test_case "registry lookup" `Quick test_registry_lookup
  :: Alcotest.test_case "context validation" `Quick test_context_validation
  :: Alcotest.test_case "csv export" `Quick test_csv_export
  :: experiment_cases
