type t = {
  schema_version : int;
  kind : string;
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
}

let schema_version = 1

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, s when s <> "" -> s
    | _ -> "unknown"
  with _ -> "unknown"

let capture ~kind ~name ~seed ~scale ~jobs ?(metrics = []) () =
  {
    schema_version;
    kind;
    name;
    seed;
    scale;
    jobs;
    git = git_describe ();
    cores = Domain.recommended_domain_count ();
    counters = Counter.dump ();
    histograms = Histogram.dump ();
    metrics;
    (* Empty unless this run enabled [Profile] and kernels recorded rows
       — and an empty list is omitted from the JSON, so non-profiled
       manifests are byte-identical to the pre-profile schema. *)
    profile = Profile.snapshot ();
  }

let counter t name = List.assoc_opt name t.counters
let metric t name = List.assoc_opt name t.metrics
let profile_row t name = List.find_opt (fun (r : Profile.entry) -> r.kernel = name) t.profile

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                      *)

let to_json t =
  let open Jsonx in
  Obj
    ([
      ("schema_version", Int t.schema_version);
      ("kind", String t.kind);
      ("name", String t.name);
      ("seed", Int t.seed);
      ("scale", Float t.scale);
      ("jobs", Int t.jobs);
      ("git", String t.git);
      ("cores", Int t.cores);
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) t.counters));
      ( "histograms",
        Obj
          (List.map
             (fun (k, cells) -> (k, List (Array.to_list (Array.map (fun c -> Int c) cells))))
             t.histograms) );
      ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) t.metrics));
    ]
    @
    (* Optional trailing section: absent when the run was not profiled,
       so pre-profile manifests round-trip byte-identically. *)
    (match t.profile with
    | [] -> []
    | rows ->
        [
          ( "profile",
            List
              (List.map
                 (fun (r : Profile.entry) ->
                   Obj
                     [
                       ("kernel", String r.kernel);
                       ("wall_s", Float r.wall_s);
                       ("count", Int r.count);
                       ("ops", Int r.ops);
                       ("minor_words", Float r.minor_words);
                       ("major_words", Float r.major_words);
                       ("promoted_words", Float r.promoted_words);
                     ])
                 rows) );
        ]))

(* Manifests written before the region probes were merged carry a
   "phases" member (per-region wall/CPU rows); readers ignore it. *)
let of_json j =
  let open Jsonx in
  {
    schema_version = get_int (member "schema_version" j);
    kind = get_string (member "kind" j);
    name = get_string (member "name" j);
    seed = get_int (member "seed" j);
    scale = get_float (member "scale" j);
    jobs = get_int (member "jobs" j);
    git = get_string (member "git" j);
    cores = get_int (member "cores" j);
    counters = List.map (fun (k, v) -> (k, get_int v)) (get_obj (member "counters" j));
    histograms =
      List.map
        (fun (k, v) -> (k, Array.of_list (List.map get_int (get_list v))))
        (get_obj (member "histograms" j));
    metrics = List.map (fun (k, v) -> (k, get_float v)) (get_obj (member "metrics" j));
    profile =
      (match member "profile" j with
      | Null -> [] (* pre-profile manifests have no such section *)
      | p ->
          List.map
            (fun r : Profile.entry ->
              {
                kernel = get_string (member "kernel" r);
                wall_s = get_float (member "wall_s" r);
                count = get_int (member "count" r);
                ops = get_int (member "ops" r);
                minor_words = get_float (member "minor_words" r);
                major_words = get_float (member "major_words" r);
                promoted_words = get_float (member "promoted_words" r);
              })
            (get_list p));
  }

let to_string t = Jsonx.to_string (to_json t) ^ "\n"
let of_string s = of_json (Jsonx.of_string (String.trim s))

(* ------------------------------------------------------------------ *)
(* Files                                                              *)

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  ensure_dir (Filename.dirname path);
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_path path t = write_file path (to_string t)

let write ~dir t =
  let path = Filename.concat dir (Printf.sprintf "%s-%d.json" t.name t.seed) in
  write_path path t;
  path

let read path = of_string (read_file path)

(* ------------------------------------------------------------------ *)
(* Bench sets                                                         *)

type set = (string * t) list

let set_kind = "bench_set"

let set_to_string parts =
  let open Jsonx in
  to_string
    (Obj
       [
         ("schema_version", Int schema_version);
         ("kind", String set_kind);
         ("parts", Obj (List.map (fun (part, m) -> (part, to_json m)) parts));
       ])
  ^ "\n"

let set_of_string s =
  let open Jsonx in
  let j = of_string (String.trim s) in
  (match (member "kind" j, member "schema_version" j) with
  | String k, Int v when k = set_kind && v = schema_version -> ()
  | k, v ->
      raise
        (Parse_error
           (Printf.sprintf "not a %s v%d: kind %s, schema_version %s" set_kind schema_version
              (to_string ~indent:false k) (to_string ~indent:false v))));
  List.map (fun (part, m) -> (part, of_json m)) (get_obj (member "parts" j))

let write_set path parts = write_file path (set_to_string parts)
let read_set path = set_of_string (read_file path)
