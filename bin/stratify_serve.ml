(* The request-driven service frontend (see lib/serve/serve.mli).

   Script mode:
     stratify_serve [--out DIR] SCRIPT.serve
       run the script to its horizon and write the kind:"serve" run
       manifest to DIR (default results/manifests/serve) as
       <name>-<seed>.json.
     stratify_serve --stop-at T --snapshot SNAP.json SCRIPT.serve
       run to simulated time T, serialize the complete world to
       SNAP.json and exit without a manifest.
     stratify_serve --resume SNAP.json [--out DIR]
       restore the world (the script travels inside the snapshot) and
       run on to the horizon; the manifest is byte-identical to the
       uninterrupted run's, which the serve-suite CI job pins.

   Stdio mode:
     stratify_serve --stdio SCRIPT.serve
       build the world (scripted requests still fire at their times as
       the clock advances) and read commands from stdin:
         announce <peer> <swarm> [want] | join <peer> <swarm>
         leave <peer> <swarm> | scrape <swarm> | stats
         tick [K]          advance K simulated seconds (default 1)
         snapshot PATH     serialize the world
         quit
       Request errors (unknown swarm, peer out of range, bad syntax)
       print "ERR ..." and the loop continues.

   --help prints the usage and exits 0.  An unknown flag, a missing
   argument or an unreadable script or snapshot prints one named error
   and exits 2. *)

module Request = Stratify_serve.Request
module Serve = Stratify_serve.Serve
module Manifest = Stratify_obs.Run_manifest

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let usage_text =
  "usage: stratify_serve [--out DIR] [--stop-at T --snapshot SNAP] [--resume SNAP] [--stdio] \
   [SCRIPT.serve]"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("stratify_serve: " ^ msg);
      prerr_endline usage_text;
      exit 2)
    fmt

(* Load a script or snapshot, turning every way the file can be bad into
   one named error. *)
let load what path f =
  try f path with
  | Sys_error msg -> fail "cannot read %s: %s" what msg
  | Stratify_obs.Jsonx.Parse_error msg | Invalid_argument msg ->
      fail "bad %s %s: %s" what path msg

let stdio_loop t =
  let finished = ref false in
  (try
     while not !finished do
       match In_channel.input_line stdin with
       | None -> finished := true
       | Some line -> (
           let words =
             String.split_on_char ' ' (String.trim line)
             |> List.filter (fun w -> w <> "")
           in
           match words with
           | [] -> ()
           | [ "quit" ] | [ "exit" ] -> finished := true
           | "tick" :: rest -> (
               match rest with
               | [] ->
                   Serve.run_to t (Serve.now t +. 1.);
                   Printf.printf "OK tick now %g\n%!" (Serve.now t)
               | [ k ] -> (
                   match int_of_string_opt k with
                   | Some k when k >= 1 ->
                       Serve.run_to t (Serve.now t +. float_of_int k);
                       Printf.printf "OK tick now %g\n%!" (Serve.now t)
                   | _ -> Printf.printf "ERR tick: bad count %S\n%!" k)
               | _ -> Printf.printf "ERR tick: usage: tick [K]\n%!")
           | [ "snapshot"; path ] ->
               write_file path (Serve.snapshot_string t);
               Printf.printf "OK snapshot %s\n%!" path
           | _ -> (
               try Printf.printf "%s\n%!" (Serve.handle t (Request.of_line line))
               with Invalid_argument msg -> Printf.printf "ERR %s\n%!" msg))
     done
   with Invalid_argument msg ->
     (* an error outside request handling (e.g. the engine) is fatal *)
     Printf.printf "ERR %s\n%!" msg);
  ()

let () =
  let out = ref "results/manifests/serve" in
  let stop_at = ref None in
  let snapshot_path = ref None in
  let resume = ref None in
  let stdio = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--out" :: dir :: rest ->
        out := dir;
        parse rest
    | "--stop-at" :: time :: rest -> (
        match float_of_string_opt time with
        | Some x when x > 0. ->
            stop_at := Some x;
            parse rest
        | _ -> fail "bad --stop-at time %S" time)
    | "--snapshot" :: path :: rest ->
        snapshot_path := Some path;
        parse rest
    | "--resume" :: path :: rest ->
        resume := Some path;
        parse rest
    | "--stdio" :: rest ->
        stdio := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline usage_text;
        exit 0
    | [ ("--out" | "--stop-at" | "--snapshot" | "--resume") as flag ] ->
        fail "%s needs an argument" flag
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' -> fail "unknown flag %s" flag
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let t =
    match (!resume, List.rev !paths) with
    | Some snap, [] ->
        load "snapshot" snap (fun path ->
            Serve.restore_string (In_channel.with_open_bin path In_channel.input_all))
    | None, [ script ] -> load "script" script (fun path -> Serve.create (Request.load path))
    | Some _, _ :: _ -> fail "--resume takes no script (it travels inside the snapshot)"
    | None, [] -> fail "no script given"
    | None, _ :: _ :: _ -> fail "one script at a time"
  in
  if !stdio then begin
    stdio_loop t;
    exit 0
  end;
  (match (!stop_at, !snapshot_path) with
  | Some _, None | None, Some _ -> fail "--stop-at and --snapshot go together"
  | _ -> ());
  match !stop_at with
  | Some time ->
      Serve.run_to t time;
      let path = Option.get !snapshot_path in
      write_file path (Serve.snapshot_string t);
      Printf.printf "%s (seed %d): stopped at %g, snapshot %s\n"
        (Serve.script t).Request.name (Serve.script t).Request.seed time path
  | None ->
      Serve.run_script t;
      let m = Serve.manifest t in
      let written = Manifest.write ~dir:!out m in
      Printf.printf
        "%s (seed %d): %d requests, %d ticks, checksum %d\n  manifest %s\n"
        (Serve.script t).Request.name (Serve.script t).Request.seed
        (Serve.requests_handled t) (Serve.ticks t) (Serve.checksum t) written
