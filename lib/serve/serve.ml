module Rng = Stratify_prng.Rng
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Churn = Stratify_core.Churn
module Config = Stratify_core.Config
module Instance = Stratify_core.Instance
module Swarm = Stratify_bittorrent.Swarm
module Peer = Stratify_bittorrent.Peer
module Piece = Stratify_bittorrent.Piece
module Rate = Stratify_bittorrent.Rate
module Bw_profile = Stratify_bandwidth.Profile
module Saroiu = Stratify_bandwidth.Saroiu
module Jsonx = Stratify_obs.Jsonx
module Counter = Stratify_obs.Counter
module Histogram = Stratify_obs.Histogram
module Run_manifest = Stratify_obs.Run_manifest

let c_announces = Counter.make "serve.announces"
let c_joins = Counter.make "serve.joins"
let c_leaves = Counter.make "serve.leaves"
let c_scrapes = Counter.make "serve.scrapes"
let c_stats = Counter.make "serve.stats"
let c_reconnects = Counter.make "serve.reconnects"
let c_arrivals = Counter.make "serve.arrivals"
let c_departures = Counter.make "serve.departures"
let c_ticks = Counter.make "serve.ticks"
let h_request_ns = Histogram.make "serve.request_ns"

type swarm_state = {
  sspec : Request.swarm_spec;
  swarm : Swarm.t;
  faults : Net.Tick.t option;
  created_rng : int64 array;
      (* the swarm RNG state *before* Swarm.create consumed it: restore
         replays create from here to regenerate the knowledge graph and
         piece fields bit-for-bit, then overwrites the mutable state *)
  members : int array;  (* slot -> peer id, -1 = free *)
  occupied : int array;
      (* Fenwick tree over [members]: occupied.(i) counts the occupied
         slots in (i - lowbit i, i], 1-based *)
  picked : int array;  (* slot -> last [pick_stamp] that picked it *)
  mutable pick_stamp : int;
  slot_of : (int, int) Hashtbl.t;
  mutable member_count : int;
}

type t = {
  scr : Request.script;
  engine : Engine.t;
  oracle : Churn.world;
  er_p : float;
  req_rng : Rng.t;  (* announce padding draws *)
  churn_rng : Rng.t;  (* churn process + reconnect edge draws *)
  swarms : swarm_state list;  (* in script order *)
  mutable present_count : int;
  mutable ticks : int;
  mutable announces : int;
  mutable joins : int;
  mutable leaves : int;
  mutable scrapes : int;
  mutable stats_reqs : int;
  mutable reconnects : int;
  mutable arrivals : int;
  mutable departures : int;
  mutable checksum : int;
  mutable requests_handled : int;
  mutable measure_latency : bool;
  resp : Buffer.t;  (* announce responses are built here *)
}

let script t = t.scr
let engine t = t.engine
let now t = Engine.now t.engine
let ticks t = t.ticks
let checksum t = t.checksum
let requests_handled t = t.requests_handled
let oracle t = t.oracle
let set_measure_latency t on = t.measure_latency <- on

(* ------------------------------------------------------------------ *)
(* Response checksum: FNV-1a over response bytes, newline-separated.   *)

let fnv_offset = 0x811C9DC5
let fnv_prime = 0x01000193

let fold_checksum t s =
  let cs = ref t.checksum in
  String.iter (fun c -> cs := ((!cs lxor Char.code c) * fnv_prime) land max_int) s;
  cs := ((!cs lxor 0x0a) * fnv_prime) land max_int;
  t.checksum <- !cs

(* ------------------------------------------------------------------ *)
(* Directory plumbing.                                                 *)

let find_swarm t sid =
  let rec go = function
    | [] ->
        invalid_arg
          (Printf.sprintf "Serve: unknown swarm %S (known:%s)" sid
             (String.concat ""
                (List.map (fun ss -> " " ^ ss.sspec.Request.sid) t.swarms)))
    | ss :: rest -> if String.equal ss.sspec.Request.sid sid then ss else go rest
  in
  go t.swarms

let check_peer t peer =
  let n = t.scr.Request.world.Request.n in
  if peer < 0 || peer >= n then
    invalid_arg
      (Printf.sprintf "Serve: peer %d outside the population [0, %d)" peer n)

let free_slot ss =
  let n = Array.length ss.members in
  let rec go i =
    if i >= n then None else if ss.members.(i) < 0 then Some i else go (i + 1)
  in
  go 0

let fenwick_add ss slot delta =
  let i = ref (slot + 1) in
  while !i <= Array.length ss.members do
    ss.occupied.(!i) <- ss.occupied.(!i) + delta;
    i := !i + (!i land - !i)
  done

let fenwick_of_members members =
  let n = Array.length members in
  let tree = Array.make (n + 1) 0 in
  for i = 1 to n do
    if members.(i - 1) >= 0 then tree.(i) <- tree.(i) + 1;
    let j = i + (i land -i) in
    if j <= n then tree.(j) <- tree.(j) + tree.(i)
  done;
  tree

let take_slot ss peer slot =
  ss.members.(slot) <- peer;
  fenwick_add ss slot 1;
  Hashtbl.replace ss.slot_of peer slot;
  ss.member_count <- ss.member_count + 1;
  Swarm.recycle_peer ss.swarm slot

let release_slot ss peer slot =
  Swarm.recycle_peer ss.swarm slot;
  ss.members.(slot) <- -1;
  fenwick_add ss slot (-1);
  Hashtbl.remove ss.slot_of peer;
  ss.member_count <- ss.member_count - 1

(* The r-th occupied slot (r < member_count), by descending the tree. *)
let nth_slot ss r =
  let n = Array.length ss.members in
  let pos = ref 0 and rest = ref r in
  let step = ref 1 in
  while 2 * !step <= n do
    step := 2 * !step
  done;
  while !step > 0 do
    let next = !pos + !step in
    if next <= n && ss.occupied.(next) <= !rest then begin
      pos := next;
      rest := !rest - ss.occupied.(next)
    end;
    step := !step / 2
  done;
  !pos

let new_swarm_state sspec swarm ~faults ~created_rng members =
  let slot_of = Hashtbl.create 64 in
  Array.iteri (fun slot pid -> if pid >= 0 then Hashtbl.replace slot_of pid slot) members;
  {
    sspec;
    swarm;
    faults;
    created_rng;
    members;
    occupied = fenwick_of_members members;
    picked = Array.make (Array.length members) 0;
    pick_stamp = 0;
    slot_of;
    member_count = Hashtbl.length slot_of;
  }

(* ------------------------------------------------------------------ *)
(* Churn: the population evolves under the oracle, and swarm           *)
(* membership follows — a departed peer silently leaves every swarm.   *)

let random_member rng mask value =
  let count = ref 0 in
  Array.iter (fun v -> if v = value then incr count) mask;
  if !count = 0 then None
  else begin
    let target = Rng.int rng !count in
    let seen = ref 0 and res = ref (-1) in
    (try
       Array.iteri
         (fun i v ->
           if v = value then
             if !seen = target then begin
               res := i;
               raise Exit
             end
             else incr seen)
         mask
     with Exit -> ());
    Some !res
  end

let depart t v =
  Churn.remove_peer t.oracle v;
  t.present_count <- t.present_count - 1;
  t.departures <- t.departures + 1;
  Counter.incr c_departures;
  List.iter
    (fun ss ->
      match Hashtbl.find_opt ss.slot_of v with
      | Some slot -> release_slot ss v slot
      | None -> ())
    t.swarms

let arrive t v =
  Churn.insert_peer t.churn_rng t.oracle v ~p:t.er_p;
  t.present_count <- t.present_count + 1;
  t.arrivals <- t.arrivals + 1;
  Counter.incr c_arrivals

let churn_once t =
  let mask = Churn.world_present t.oracle in
  let remove_first = Rng.bool t.churn_rng in
  let removal_ok = t.present_count > 2 in
  if remove_first && removal_ok then (
    match random_member t.churn_rng mask true with
    | Some v -> depart t v
    | None -> ())
  else
    match random_member t.churn_rng mask false with
    | Some v -> arrive t v
    | None -> (
        if removal_ok then
          match random_member t.churn_rng mask true with
          | Some v -> depart t v
          | None -> ())

let ensure_online t peer =
  if not (Churn.world_present t.oracle).(peer) then begin
    Churn.insert_peer t.churn_rng t.oracle peer ~p:t.er_p;
    t.present_count <- t.present_count + 1;
    t.reconnects <- t.reconnects + 1;
    Counter.incr c_reconnects
  end

(* ------------------------------------------------------------------ *)
(* Request handlers.  Reference errors (unknown swarm, peer out of     *)
(* range) raise; state-dependent refusals answer "ERR ..." so the      *)
(* service keeps running — a tracker does not die because a peer       *)
(* joined twice.                                                       *)

let do_announce t peer sid want =
  let ss = find_swarm t sid in
  check_peer t peer;
  ensure_online t peer;
  let seated =
    Hashtbl.mem ss.slot_of peer
    ||
    match free_slot ss with
    | None -> false
    | Some slot ->
        take_slot ss peer slot;
        true
  in
  if not seated then Printf.sprintf "ERR announce %s full" sid
  else begin
    let want = max 0 (min want (ss.member_count - 1)) in
    let buf = t.resp in
    Buffer.clear buf;
    Buffer.add_string buf "OK announce ";
    Buffer.add_string buf sid;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int peer);
    Buffer.add_string buf " peers";
    ss.pick_stamp <- ss.pick_stamp + 1;
    let npicks = ref 0 in
    let consider q slot =
      if !npicks < want && q <> peer && ss.picked.(slot) <> ss.pick_stamp then begin
        ss.picked.(slot) <- ss.pick_stamp;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int q);
        incr npicks
      end
    in
    (* stable-configuration mates first: the tracker answer *is* the
       paper's stratified matching, restricted to this swarm *)
    List.iter
      (fun q ->
        match Hashtbl.find_opt ss.slot_of q with Some slot -> consider q slot | None -> ())
      (Config.mates (Churn.world_stable t.oracle) peer);
    (* pad with uniform member draws; bounded attempts keep a
       near-degenerate membership from spinning *)
    let attempts = ref 0 in
    let max_attempts = (4 * want) + 8 in
    while !npicks < want && !attempts < max_attempts do
      incr attempts;
      let slot = nth_slot ss (Rng.int t.req_rng ss.member_count) in
      consider ss.members.(slot) slot
    done;
    Buffer.contents buf
  end

let do_join t peer sid =
  let ss = find_swarm t sid in
  check_peer t peer;
  if Hashtbl.mem ss.slot_of peer then
    Printf.sprintf "ERR join %s %d already-member" sid peer
  else
    match free_slot ss with
    | None -> Printf.sprintf "ERR join %s full" sid
    | Some slot ->
        ensure_online t peer;
        take_slot ss peer slot;
        Printf.sprintf "OK join %s %d slot %d" sid peer slot

let do_leave t peer sid =
  let ss = find_swarm t sid in
  check_peer t peer;
  match Hashtbl.find_opt ss.slot_of peer with
  | None -> Printf.sprintf "ERR leave %s %d not-a-member" sid peer
  | Some slot ->
      release_slot ss peer slot;
      Printf.sprintf "OK leave %s %d" sid peer

let do_scrape t sid =
  let ss = find_swarm t sid in
  let uploaded = ref 0. in
  Array.iteri
    (fun slot p ->
      if p >= 0 then
        uploaded := !uploaded +. (Swarm.peer ss.swarm slot).Peer.uploaded)
    ss.members;
  Printf.sprintf "OK scrape %s members %d complete %d drops %d uploaded %.3f"
    sid ss.member_count
    (Swarm.completed ss.swarm)
    (Swarm.link_drops ss.swarm)
    !uploaded

let do_stats t =
  Printf.sprintf "OK stats now %g ticks %d present %d stable_edges %d handled %d"
    (Engine.now t.engine) t.ticks t.present_count
    (Config.edge_count (Churn.world_stable t.oracle))
    t.requests_handled

let handle t kind =
  let resp =
    match kind with
    | Request.Announce { peer; swarm; want } ->
        t.announces <- t.announces + 1;
        Counter.incr c_announces;
        do_announce t peer swarm want
    | Request.Join { peer; swarm } ->
        t.joins <- t.joins + 1;
        Counter.incr c_joins;
        do_join t peer swarm
    | Request.Leave { peer; swarm } ->
        t.leaves <- t.leaves + 1;
        Counter.incr c_leaves;
        do_leave t peer swarm
    | Request.Scrape { swarm } ->
        t.scrapes <- t.scrapes + 1;
        Counter.incr c_scrapes;
        do_scrape t swarm
    | Request.Stats ->
        t.stats_reqs <- t.stats_reqs + 1;
        Counter.incr c_stats;
        do_stats t
  in
  t.requests_handled <- t.requests_handled + 1;
  fold_checksum t resp;
  resp

(* ------------------------------------------------------------------ *)
(* The event loop: one self-rescheduling packed tick plus one packed   *)
(* event per scripted request (src = request index); the queue         *)
(* serializes as plain data ([Engine.dump_packed]).                    *)

let kind_tick = 0
let kind_request = 1
let tick_code = Net.Packed.pack ~kind:kind_tick ~src:0 ~dst:0
let request_code i = Net.Packed.pack_checked ~kind:kind_request ~src:i ~dst:0

let handle_tick t =
  List.iter (fun ss -> Swarm.step ss.swarm) t.swarms;
  let rate = t.scr.Request.world.Request.churn_rate in
  if rate > 0. && Rng.bernoulli t.churn_rng rate then churn_once t;
  t.ticks <- t.ticks + 1;
  Counter.incr c_ticks;
  Engine.schedule_packed t.engine ~delay:1.0 tick_code

let handle_scripted t i =
  let r = t.scr.Request.requests.(i) in
  if t.measure_latency then begin
    let t0 = Unix.gettimeofday () in
    ignore (handle t r.Request.kind);
    Histogram.observe h_request_ns
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
  end
  else ignore (handle t r.Request.kind)

let install_handler t =
  Engine.set_packed_handler t.engine (fun _e code ->
      match Net.Packed.kind code with
      | 0 -> handle_tick t
      | 1 -> handle_scripted t (Net.Packed.src code)
      | k -> invalid_arg (Printf.sprintf "Serve: unknown packed event kind %d" k))

(* ------------------------------------------------------------------ *)
(* World construction.  All randomness flows from the script seed      *)
(* through named substreams split off a root in a fixed order, so the  *)
(* whole run is a pure function of the script.                         *)

let resolve_groups size = function
  | Request.Heal -> None
  | Request.Halves ->
      Some (Array.init size (fun i -> if 2 * i < size then 0 else 1))
  | Request.Groups g -> Some (Array.copy g)

let make_faults ~seed ~idx (sw : Request.swarm_spec) =
  if sw.loss > 0. || sw.partitions <> [] then
    Some
      (Net.Tick.create
         ~seed:(seed + (7919 * (idx + 1)))
         ~loss:sw.loss
         ~schedule:
           (List.map
              (fun (pe : Request.partition) ->
                { Net.Tick.at_tick = pe.at_tick;
                  groups = resolve_groups sw.size pe.groups })
              sw.partitions)
         ())
  else None

let swarm_params (sw : Request.swarm_spec) ~faults =
  let uploads = Bw_profile.rank_bandwidths Saroiu.profile ~n:sw.size in
  {
    (Swarm.default_params ~uploads) with
    Swarm.d = sw.d;
    faults;
    piece =
      Option.map
        (fun (pp : Request.piece_spec) ->
          {
            Swarm.pieces = pp.pieces;
            piece_size = pp.piece_size;
            init_fraction = pp.init_fraction;
            seeds = pp.seeds;
          })
        sw.piece;
  }

let er_p (w : Request.world_spec) = w.d /. float_of_int (max 1 (w.n - 1))

let create scr =
  let scr = Request.validate scr in
  let w = scr.Request.world in
  let root = Rng.create scr.Request.seed in
  let oracle_rng = Rng.split root in
  let req_rng = Rng.split root in
  let churn_rng = Rng.split root in
  let oracle =
    Churn.make_world ~bands:w.Request.bands oracle_rng ~n:w.Request.n
      ~d:w.Request.d ~b:w.Request.b
  in
  let swarms =
    List.mapi
      (fun idx (sw : Request.swarm_spec) ->
        let srng = Rng.split root in
        let created_rng = Rng.state srng in
        let faults = make_faults ~seed:scr.Request.seed ~idx sw in
        let swarm = Swarm.create srng (swarm_params sw ~faults) in
        new_swarm_state sw swarm ~faults ~created_rng (Array.make sw.size (-1)))
      w.Request.swarms
  in
  let engine = Engine.create () in
  let t =
    {
      scr;
      engine;
      oracle;
      er_p = er_p w;
      req_rng;
      churn_rng;
      swarms;
      present_count = w.Request.n;
      ticks = 0;
      announces = 0;
      joins = 0;
      leaves = 0;
      scrapes = 0;
      stats_reqs = 0;
      reconnects = 0;
      arrivals = 0;
      departures = 0;
      checksum = fnv_offset;
      requests_handled = 0;
      measure_latency = false;
      resp = Buffer.create 256;
    }
  in
  install_handler t;
  Array.iteri
    (fun i (r : Request.t) ->
      Engine.schedule_packed_at engine ~time:r.at (request_code i))
    scr.Request.requests;
  Engine.schedule_packed_at engine ~time:1.0 tick_code;
  t

let run_to t time = Engine.run_until t.engine ~time
let run_script t = run_to t t.scr.Request.horizon

(* ------------------------------------------------------------------ *)
(* Manifest: built by hand from world-internal tallies, never from the *)
(* process-global counters — so stop/resume across *processes* keeps   *)
(* every total, and the bytes are wall-clock-invariant.                *)

let manifest ?git t =
  let swarm_counters =
    List.concat_map
      (fun ss ->
        let sid = ss.sspec.Request.sid in
        let uploaded = ref 0. in
        Array.iteri
          (fun slot p ->
            if p >= 0 then
              uploaded := !uploaded +. (Swarm.peer ss.swarm slot).Peer.uploaded)
          ss.members;
        [
          ("serve.swarm." ^ sid ^ ".members", ss.member_count);
          ("serve.swarm." ^ sid ^ ".completed", Swarm.completed ss.swarm);
          ("serve.swarm." ^ sid ^ ".link_drops", Swarm.link_drops ss.swarm);
          ( "serve.swarm." ^ sid ^ ".uploaded_milli",
            int_of_float (!uploaded *. 1000.) );
        ])
      t.swarms
  in
  {
    Run_manifest.schema_version = Run_manifest.schema_version;
    kind = "serve";
    name = t.scr.Request.name;
    seed = t.scr.Request.seed;
    scale = 1.0;
    jobs = 1;
    git = (match git with Some g -> g | None -> Run_manifest.git_describe ());
    cores = Domain.recommended_domain_count ();
    phases = [];
    counters =
      [
        ("checksum.serve_responses", t.checksum);
        ("serve.announces", t.announces);
        ("serve.arrivals", t.arrivals);
        ("serve.departures", t.departures);
        ("serve.joins", t.joins);
        ("serve.leaves", t.leaves);
        ("serve.oracle.present", t.present_count);
        ( "serve.oracle.stable_edges",
          Config.edge_count (Churn.world_stable t.oracle) );
        ("serve.reconnects", t.reconnects);
        ("serve.requests", t.requests_handled);
        ("serve.scrapes", t.scrapes);
        ("serve.stats", t.stats_reqs);
        ("serve.ticks", t.ticks);
      ]
      @ swarm_counters;
    histograms = [];
    metrics = [ ("horizon", t.scr.Request.horizon); ("now", Engine.now t.engine) ];
    profile = [];
  }

(* ------------------------------------------------------------------ *)
(* Snapshot: one compact JSON document, written straight into a       *)
(* buffer and read back with Jsonx's pull reader, no tree in between. *)
(* Int64s travel as decimal strings (a Jsonx int is OCaml's 63-bit    *)
(* int); every hash-table dump is sorted by key so the bytes are      *)
(* canonical.  Members are read in the order they are written.        *)

(* [{"k": ] opens an object at its first member, [, "k": ] adds one. *)
let w_first b k =
  Buffer.add_string b "{\"";
  Buffer.add_string b k;
  Buffer.add_string b "\": "

let w_key b k =
  Buffer.add_string b ", \"";
  Buffer.add_string b k;
  Buffer.add_string b "\": "

(* [w_seq b f iter] writes the array of the values [iter] yields. *)
let w_seq b f iter =
  Buffer.add_char b '[';
  let first = ref true in
  iter (fun x ->
      if !first then first := false else Buffer.add_string b ", ";
      f b x);
  Buffer.add_char b ']'

let w_array b f a = w_seq b f (fun g -> Array.iter g a)
let w_list b f l = w_seq b f (fun g -> List.iter g l)
let w_int64 b x = Jsonx.write_string b (Int64.to_string x)
let w_rng b st = w_array b w_int64 st

let w_groups b = function
  | None -> Buffer.add_string b "null"
  | Some g -> w_array b Jsonx.write_int g

let w_faults b = function
  | None -> Buffer.add_string b "null"
  | Some f ->
      let s = Net.Tick.snapshot f in
      w_first b "base";
      w_int64 b s.Net.Tick.snap_base;
      w_key b "loss";
      Jsonx.write_float b s.Net.Tick.snap_loss;
      w_key b "pending";
      w_list b
        (fun b (e : Net.Tick.event) ->
          w_first b "at_tick";
          Jsonx.write_int b e.at_tick;
          w_key b "groups";
          w_groups b e.groups;
          Buffer.add_char b '}')
        s.Net.Tick.snap_pending;
      w_key b "groups";
      w_groups b s.Net.Tick.snap_groups;
      w_key b "drops";
      Jsonx.write_int b s.Net.Tick.snap_drops;
      Buffer.add_char b '}'

let w_rate b (q, r) =
  let buckets, stamps, total = Rate.dump r in
  w_first b "from";
  Jsonx.write_int b q;
  w_key b "window";
  Jsonx.write_int b (Rate.window r);
  w_key b "buckets";
  w_array b Jsonx.write_float buckets;
  w_key b "stamps";
  w_array b Jsonx.write_int stamps;
  w_key b "total";
  Jsonx.write_float b total;
  Buffer.add_char b '}'

let w_peer b (p : Peer.t) =
  w_first b "unchoked";
  w_list b Jsonx.write_int p.unchoked;
  w_key b "optimistic";
  Jsonx.write_int b (match p.optimistic with Some q -> q | None -> -1);
  w_key b "uploaded";
  Jsonx.write_float b p.uploaded;
  w_key b "downloaded";
  Jsonx.write_float b p.downloaded;
  w_key b "uploaded_tft";
  Jsonx.write_float b p.uploaded_tft;
  w_key b "downloaded_tft";
  Jsonx.write_float b p.downloaded_tft;
  w_key b "pieces";
  (match p.field with
  | None -> Buffer.add_string b "null"
  | Some f -> w_seq b Jsonx.write_int (Piece.iter_held f));
  w_key b "rates";
  w_list b w_rate
    (Hashtbl.fold (fun q r acc -> (q, r) :: acc) p.link_rates []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b));
  Buffer.add_char b '}'

let w_swarm b ss =
  let sw = ss.swarm in
  w_first b "sid";
  Jsonx.write_string b ss.sspec.Request.sid;
  w_key b "created_rng";
  w_rng b ss.created_rng;
  w_key b "rng";
  w_rng b (Rng.state (Swarm.rng sw));
  w_key b "tick";
  Jsonx.write_int b (Swarm.tick_count sw);
  w_key b "members";
  w_array b Jsonx.write_int ss.members;
  w_key b "faults";
  w_faults b ss.faults;
  w_key b "peers";
  w_seq b w_peer (fun g ->
      for i = 0 to Swarm.size sw - 1 do
        g (Swarm.peer sw i)
      done);
  w_key b "progress";
  let acc = ref [] in
  Swarm.iter_link_progress sw (fun s r v -> acc := (s, r, v) :: !acc);
  w_list b
    (fun b (s, r, v) ->
      Buffer.add_char b '[';
      Jsonx.write_int b s;
      Buffer.add_string b ", ";
      Jsonx.write_int b r;
      Buffer.add_string b ", ";
      Jsonx.write_float b v;
      Buffer.add_char b ']')
    (List.sort compare !acc);
  Buffer.add_char b '}'

let w_pair b (p, q) =
  Buffer.add_char b '[';
  Jsonx.write_int b p;
  Buffer.add_string b ", ";
  Jsonx.write_int b q;
  Buffer.add_char b ']'

let w_oracle b oracle =
  w_first b "present";
  w_array b (fun b p -> Jsonx.write_int b (Bool.to_int p)) (Churn.world_present oracle);
  w_key b "adjacency";
  (match Instance.raw_backend (Churn.world_instance oracle) with
  | Instance.Raw_dynamic { rows; len } ->
      w_seq b
        (fun b p ->
          w_seq b Jsonx.write_int (fun g ->
              for j = 0 to len.(p) - 1 do
                g rows.(p).(j)
              done))
        (fun g ->
          for p = 0 to Array.length rows - 1 do
            g p
          done)
  | _ -> invalid_arg "Serve.snapshot_string: oracle instance is not dynamic");
  let pairs cfg = w_seq b w_pair (fun g -> Config.iter_pairs (fun p q -> g (p, q)) cfg) in
  w_key b "config";
  pairs (Churn.world_config oracle);
  w_key b "stable";
  pairs (Churn.world_stable oracle);
  Buffer.add_char b '}'

let tallies t =
  [
    ("announces", t.announces);
    ("joins", t.joins);
    ("leaves", t.leaves);
    ("scrapes", t.scrapes);
    ("stats", t.stats_reqs);
    ("reconnects", t.reconnects);
    ("arrivals", t.arrivals);
    ("departures", t.departures);
    ("requests_handled", t.requests_handled);
  ]

let snapshot_string t =
  let b = Buffer.create 65536 in
  w_first b "schema_version";
  Jsonx.write_int b 1;
  w_key b "kind";
  Jsonx.write_string b "serve-snapshot";
  w_key b "script";
  Jsonx.write b (Request.to_json t.scr);
  w_key b "now";
  Jsonx.write_float b (Engine.now t.engine);
  w_key b "ticks";
  Jsonx.write_int b t.ticks;
  w_key b "tallies";
  List.iteri
    (fun i (k, v) ->
      (if i = 0 then w_first else w_key) b k;
      Jsonx.write_int b v)
    (tallies t);
  Buffer.add_char b '}';
  w_key b "checksum";
  Jsonx.write_int b t.checksum;
  w_key b "req_rng";
  w_rng b (Rng.state t.req_rng);
  w_key b "churn_rng";
  w_rng b (Rng.state t.churn_rng);
  w_key b "queue";
  w_array b
    (fun b (time, code) ->
      Buffer.add_char b '[';
      Jsonx.write_float b time;
      Buffer.add_string b ", ";
      Jsonx.write_int b code;
      Buffer.add_char b ']')
    (Engine.dump_packed t.engine);
  w_key b "oracle";
  w_oracle b t.oracle;
  w_key b "swarms";
  w_list b w_swarm t.swarms;
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Restore.  Shape errors raise [Jsonx.Parse_error]; values out of     *)
(* range raise a named [Invalid_argument], here or in the module that *)
(* takes them.                                                         *)

let what = "Serve.restore_string"
let parse_fail fmt = Printf.ksprintf (fun msg -> raise (Jsonx.Parse_error msg)) fmt
let bad fmt = Printf.ksprintf (fun msg -> invalid_arg (what ^ ": " ^ msg)) fmt

let field r name read =
  Jsonx.read_field r name;
  read r

(* An array of unknown length, read through one growing buffer that
   starts at [hint] entries (the length, where the document names it
   before the array). *)
let r_array ?(hint = 8) read r =
  let buf = ref [||] and n = ref 0 in
  Jsonx.read_list r (fun r ->
      let x = read r in
      if !n = Array.length !buf then begin
        let grown = Array.make (if !n = 0 then max 1 (min hint 1024) else 2 * !n) x in
        Array.blit !buf 0 grown 0 !n;
        buf := grown
      end;
      !buf.(!n) <- x;
      incr n);
  if !n = Array.length !buf then !buf else Array.sub !buf 0 !n

let r_list read r = Array.to_list (r_array read r)

(* A fixed-arity array: [read r i] reads entry [i]. *)
let r_tuple name arity read r =
  let i = ref 0 in
  Jsonx.read_list r (fun r ->
      if !i >= arity then parse_fail "%s: %s entry has more than %d fields" what name arity;
      read r !i;
      incr i);
  if !i <> arity then parse_fail "%s: %s entry has %d fields, expected %d" what name !i arity

let r_pair name r =
  let p = ref 0 and q = ref 0 in
  r_tuple name 2 (fun r i -> (if i = 0 then p else q) := Jsonx.read_int r) r;
  (!p, !q)

let r_int64 r =
  let s = Jsonx.read_string r in
  match Int64.of_string_opt s with Some x -> x | None -> parse_fail "%s: bad int64 %S" what s

let r_rng = r_array r_int64
let r_groups r = if Jsonx.read_null r then None else Some (r_array Jsonx.read_int r)

let check_range name ~lo ~hi x =
  if x < lo || x >= hi then bad "%s %d outside [%d, %d)" name x lo hi

let r_faults size r =
  if Jsonx.read_null r then None
  else
    let groups r =
      let g = r_groups r in
      Option.iter
        (fun g ->
          if Array.length g <> size then
            bad "fault groups have %d entries, the swarm has %d slots" (Array.length g) size)
        g;
      g
    in
    Jsonx.read_obj r (fun () ->
        let snap_base = field r "base" r_int64 in
        let snap_loss = field r "loss" Jsonx.read_float in
        let snap_pending =
          field r "pending"
            (r_list (fun r ->
                 Jsonx.read_obj r (fun () ->
                     let at_tick = field r "at_tick" Jsonx.read_int in
                     { Net.Tick.at_tick; groups = field r "groups" groups })))
        in
        let snap_groups = field r "groups" groups in
        let snap_drops = field r "drops" Jsonx.read_int in
        Some
          (Net.Tick.restore
             { Net.Tick.snap_base; snap_loss; snap_pending; snap_groups; snap_drops }))

let r_rates size (p : Peer.t) r =
  Hashtbl.reset p.link_rates;
  Jsonx.read_list r (fun r ->
      Jsonx.read_obj r (fun () ->
          let q = field r "from" Jsonx.read_int in
          check_range "rate source" ~lo:0 ~hi:size q;
          let window = field r "window" Jsonx.read_int in
          let buckets = field r "buckets" (r_array ~hint:window Jsonx.read_float) in
          let stamps = field r "stamps" (r_array ~hint:window Jsonx.read_int) in
          let total = field r "total" Jsonx.read_float in
          Hashtbl.replace p.link_rates q (Rate.restore ~window ~buckets ~stamps ~total)))

let r_peer swarm size i r =
  let p = Swarm.peer swarm i in
  Jsonx.read_obj r (fun () ->
      let slot name q = check_range name ~lo:0 ~hi:size q in
      p.unchoked <- field r "unchoked" (r_list Jsonx.read_int);
      List.iter (slot "unchoked peer") p.unchoked;
      p.optimistic <-
        (match field r "optimistic" Jsonx.read_int with
        | -1 -> None
        | q ->
            slot "optimistic peer" q;
            Some q);
      p.uploaded <- field r "uploaded" Jsonx.read_float;
      p.downloaded <- field r "downloaded" Jsonx.read_float;
      p.uploaded_tft <- field r "uploaded_tft" Jsonx.read_float;
      p.downloaded_tft <- field r "downloaded_tft" Jsonx.read_float;
      Jsonx.read_field r "pieces";
      if not (Jsonx.read_null r) then Swarm.set_held_pieces swarm i (r_list Jsonx.read_int r);
      field r "rates" (r_rates size p))

let r_swarm ~n (sw : Request.swarm_spec) r =
  Jsonx.read_obj r (fun () ->
      let sid = field r "sid" Jsonx.read_string in
      if not (String.equal sid sw.sid) then
        parse_fail "%s: swarm %S out of order (script declares %S here)" what sid sw.sid;
      let created_rng = field r "created_rng" r_rng in
      let rng = field r "rng" r_rng in
      let tick = field r "tick" Jsonx.read_int in
      let members = field r "members" (r_array Jsonx.read_int) in
      if Array.length members <> sw.size then
        parse_fail "%s: swarm %S has %d member slots, expected %d" what sid
          (Array.length members) sw.size;
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun pid ->
          check_range "member" ~lo:(-1) ~hi:n pid;
          if pid >= 0 then begin
            if Hashtbl.mem seen pid then bad "swarm %S seats peer %d twice" sid pid;
            Hashtbl.add seen pid ()
          end)
        members;
      let faults = field r "faults" (r_faults sw.size) in
      (* replay create from the captured pre-create RNG state: regenerates
         the knowledge graph and piece fields bit-for-bit *)
      let swarm = Swarm.create (Rng.of_state created_rng) (swarm_params sw ~faults) in
      Rng.set_state (Swarm.rng swarm) rng;
      Swarm.set_tick swarm tick;
      let peers = ref 0 in
      field r "peers"
        (fun r ->
          Jsonx.read_list r (fun r ->
              if !peers >= sw.size then
                parse_fail "%s: swarm %S has more than %d peer records" what sid sw.size;
              r_peer swarm sw.size !peers r;
              incr peers));
      if !peers <> sw.size then
        parse_fail "%s: swarm %S has %d peer records, expected %d" what sid !peers sw.size;
      Swarm.clear_link_progress swarm;
      field r "progress"
        (fun r ->
          Jsonx.read_list r (fun r ->
              let s = ref 0 and q = ref 0 and v = ref 0. in
              r_tuple "progress" 3
                (fun r i ->
                  if i = 2 then v := Jsonx.read_float r
                  else (if i = 0 then s else q) := Jsonx.read_int r)
                r;
              check_range "progress sender" ~lo:0 ~hi:sw.size !s;
              check_range "progress receiver" ~lo:0 ~hi:sw.size !q;
              Swarm.set_link_progress swarm ~sender:!s ~receiver:!q !v));
      new_swarm_state sw swarm ~faults ~created_rng members)

let r_oracle (w : Request.world_spec) r =
  Jsonx.read_obj r (fun () ->
      let present = field r "present" (r_array (fun r -> Jsonx.read_int r <> 0)) in
      let adjacency = field r "adjacency" (r_array (r_array Jsonx.read_int)) in
      let config_pairs = field r "config" (r_list (r_pair "config")) in
      let stable_pairs = field r "stable" (r_list (r_pair "stable")) in
      Churn.restore_world ~n:w.n ~b:w.b ~present ~adjacency ~config_pairs ~stable_pairs)

let valid_code (scr : Request.script) code =
  code = tick_code
  || Net.Packed.kind code = kind_request
     && Net.Packed.src code < Array.length scr.requests
     && code = request_code (Net.Packed.src code)

let restore_string s =
  let r = Jsonx.reader s in
  let t =
    Jsonx.read_obj r (fun () ->
        (match field r "schema_version" Jsonx.read_int with
        | 1 -> ()
        | v -> parse_fail "%s: unsupported schema_version %d" what v);
        (match field r "kind" Jsonx.read_string with
        | "serve-snapshot" -> ()
        | k -> parse_fail "%s: kind %S is not a serve snapshot" what k);
        let scr = Request.of_json (field r "script" Jsonx.read_value) in
        let w = scr.Request.world in
        let now = field r "now" Jsonx.read_float in
        let ticks = field r "ticks" Jsonx.read_int in
        let ( announces, joins, leaves, scrapes, stats_reqs, reconnects, arrivals, departures,
              handled ) =
          field r "tallies" (fun r ->
              Jsonx.read_obj r (fun () ->
                  let tally k = field r k Jsonx.read_int in
                  let announces = tally "announces" in
                  let joins = tally "joins" in
                  let leaves = tally "leaves" in
                  let scrapes = tally "scrapes" in
                  let stats = tally "stats" in
                  let reconnects = tally "reconnects" in
                  let arrivals = tally "arrivals" in
                  let departures = tally "departures" in
                  let handled = tally "requests_handled" in
                  ( announces, joins, leaves, scrapes, stats, reconnects, arrivals, departures,
                    handled )))
        in
        let checksum = field r "checksum" Jsonx.read_int in
        let req_rng = Rng.of_state (field r "req_rng" r_rng) in
        let churn_rng = Rng.of_state (field r "churn_rng" r_rng) in
        let queue =
          field r "queue"
            (r_array (fun r ->
                 let time = ref 0. and code = ref 0 in
                 r_tuple "queue" 2
                   (fun r i ->
                     if i = 0 then time := Jsonx.read_float r else code := Jsonx.read_int r)
                   r;
                 if not (valid_code scr !code) then
                   bad "queue holds an unknown event code %d" !code;
                 (!time, !code)))
        in
        let engine = Engine.restore_packed ~now queue in
        let oracle = field r "oracle" (r_oracle w) in
        let specs = Array.of_list w.swarms in
        let swarms = ref [] in
        field r "swarms"
          (fun r ->
            Jsonx.read_list r (fun r ->
                let i = List.length !swarms in
                if i >= Array.length specs then
                  parse_fail "%s: snapshot has more than the %d swarms the script declares" what
                    (Array.length specs);
                swarms := r_swarm ~n:w.n specs.(i) r :: !swarms));
        if List.length !swarms <> Array.length specs then
          parse_fail "%s: snapshot has %d swarms, script declares %d" what (List.length !swarms)
            (Array.length specs);
        {
          scr;
          engine;
          oracle;
          er_p = er_p w;
          req_rng;
          churn_rng;
          swarms = List.rev !swarms;
          present_count =
            Array.fold_left (fun a b -> if b then a + 1 else a) 0 (Churn.world_present oracle);
          ticks;
          announces;
          joins;
          leaves;
          scrapes;
          stats_reqs;
          reconnects;
          arrivals;
          departures;
          checksum;
          requests_handled = handled;
          measure_latency = false;
          resp = Buffer.create 256;
        })
  in
  Jsonx.read_end r;
  install_handler t;
  t
