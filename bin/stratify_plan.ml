(* Run declarative fault-injection scenarios (see lib/net/plan.mli).

   Usage:
     stratify_plan [--out DIR] PLAN.plan [PLAN.plan ...]

   Each plan is executed, its assertion checks printed, and its run
   manifest written to DIR (default results/manifests/plans) as
   <name>-<seed>.json.  Exit status 0 iff every assertion of every plan
   held.  Manifests are deterministic: two same-seed invocations of the
   same binary produce byte-identical files, which the matrix-aggregate
   CI job pins with a double-run diff.

   --help prints the usage and exits 0.  An unknown flag, a missing
   argument or an unreadable plan prints one named error and exits 2. *)

module Plan = Stratify_net_plan.Plan
module Manifest = Stratify_obs.Run_manifest

let usage_text = "usage: stratify_plan [--out DIR] PLAN.plan [PLAN.plan ...]"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("stratify_plan: " ^ msg);
      prerr_endline usage_text;
      exit 2)
    fmt

let load path =
  try Plan.load path with
  | Sys_error msg -> fail "cannot read plan: %s" msg
  | Stratify_obs.Jsonx.Parse_error msg | Invalid_argument msg -> fail "bad plan %s: %s" path msg

let () =
  let out = ref "results/manifests/plans" in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--out" :: dir :: rest ->
        out := dir;
        parse rest
    | [ "--out" ] -> fail "--out needs a directory"
    | ("--help" | "-h") :: _ ->
        print_endline usage_text;
        exit 0
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' -> fail "unknown flag %s" flag
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = List.rev !paths in
  if paths = [] then fail "no plan given";
  (* load every plan up front, so a bad path fails before any run *)
  let plans = List.map (fun path -> (path, load path)) paths in
  let failed = ref 0 in
  List.iter
    (fun (path, plan) ->
      let result = Plan.run plan in
      Printf.printf "%s (%s, seed %d): %s\n" plan.Plan.name path plan.Plan.seed
        (if result.Plan.passed then "PASS" else "FAIL");
      List.iter
        (fun c ->
          Printf.printf "  %s %s: %s\n"
            (if c.Plan.ok then "ok  " else "FAIL")
            c.Plan.label c.Plan.detail)
        result.Plan.checks;
      let written = Manifest.write ~dir:!out result.Plan.manifest in
      Printf.printf "  manifest %s\n" written;
      if not result.Plan.passed then incr failed)
    plans;
  if !failed > 0 then begin
    Printf.printf "%d plan(s) failed\n" !failed;
    exit 1
  end
