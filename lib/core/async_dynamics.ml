module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Engine = Stratify_des.Engine
module Net = Stratify_net.Net
module Series = Stratify_stats.Series

type params = { latency : float; initiative_rate : float; loss : float }

let default_params = { latency = 0.05; initiative_rate = 1.; loss = 0. }

type outcome = Drained | Budget_exhausted

type t = {
  instance : Instance.t;
  params : params;
  rng : Rng.t;
  net : Net.t;
  mates : int list array;  (* each peer's local belief, sorted by rank *)
  mutable live : bool;  (* initiative clocks active *)
}

(* ---- local mate-list operations (always keep |mates| <= b) ---------- *)

let degree t p = List.length t.mates.(p)
let listed t p q = List.mem q t.mates.(p)

let insert_sorted q l =
  let rec go = function
    | [] -> [ q ]
    | x :: rest as all -> if q < x then q :: all else x :: go rest
  in
  go l

let remove t p q = t.mates.(p) <- List.filter (fun x -> x <> q) t.mates.(p)

let worst t p = match t.mates.(p) with [] -> None | l -> Some (List.nth l (List.length l - 1))

(* Would p welcome q right now, according to p's local state? *)
let wants t p q =
  (not (listed t p q))
  &&
  if degree t p < Instance.slots t.instance p then Instance.slots t.instance p > 0
  else match worst t p with None -> false | Some w -> q < w

(* ---- protocol ------------------------------------------------------ *)

(* Every message is a packed event code [(kind, src, dst)] and crosses
   the network layer, which applies partition, loss, latency, reordering
   and duplication faults; the keepalive audits are what make the
   protocol safe under all of them.  Initiative clocks are events of the
   same engine, scheduled directly. *)
let kind_clock = 0
let kind_propose = 1
let kind_accept = 2
let kind_commit = 3
let kind_retract = 4 (* dst drops src from its mate list *)
let kind_probe = 5
let kind_reply_listed = 6 (* probe reply: src listed dst at probe time *)
let kind_reply_unlisted = 7

let send t ~src ~dst kind = Net.send t.net ~src ~dst (Net.Packed.pack ~kind ~src ~dst)

(* p makes room for a new mate, notifying the evicted peer. *)
let make_room t p =
  if degree t p >= Instance.slots t.instance p then
    match worst t p with
    | Some w ->
        remove t p w;
        send t ~src:p ~dst:w kind_retract
    | None -> ()

let handle_commit t ~from_:p ~to_:q =
  (* q finalises: idempotent if already mutual; retract if q changed its
     mind while the commit was in flight. *)
  if listed t q p then ()
  else if wants t q p then begin
    make_room t q;
    t.mates.(q) <- insert_sorted p t.mates.(q)
  end
  else send t ~src:q ~dst:p kind_retract

let handle_accept t ~from_:q ~to_:p =
  (* p re-validates on current state before committing. *)
  if listed t p q then ()
  else if wants t p q then begin
    make_room t p;
    t.mates.(p) <- insert_sorted q t.mates.(p);
    send t ~src:p ~dst:q kind_commit
  end

let handle_propose t ~from_:p ~to_:q =
  if wants t q p then send t ~src:q ~dst:p kind_accept

let initiative t p =
  let len = Instance.degree t.instance p in
  if len > 0 then begin
    let q = Instance.acceptable_at t.instance p (Rng.int t.rng len) in
    (* Random strategy: propose if q looks attractive on local state. *)
    if wants t p q then send t ~src:p ~dst:q kind_propose
  end;
  (* Keepalive audit: probe one current mate; stale one-sided listings
     (races between crossing retracts and re-adds) get repaired instead of
     squatting a slot forever. *)
  match t.mates.(p) with
  | [] -> ()
  | l ->
      let m = List.nth l (Rng.int t.rng (List.length l)) in
      send t ~src:p ~dst:m kind_probe

let arm_clock t p =
  let delay = Dist.exponential t.rng ~rate:t.params.initiative_rate in
  Engine.schedule_packed (Net.engine t.net) ~delay (Net.Packed.pack ~kind:kind_clock ~src:p ~dst:0)

let dispatch t _engine code =
  let src = Net.Packed.src code and dst = Net.Packed.dst code in
  match Net.Packed.kind code with
  | 0 (* clock *) ->
      if t.live then begin
        initiative t src;
        arm_clock t src
      end
  | 1 (* propose *) -> handle_propose t ~from_:src ~to_:dst
  | 2 (* accept *) -> handle_accept t ~from_:src ~to_:dst
  | 3 (* commit *) -> handle_commit t ~from_:src ~to_:dst
  | 4 (* retract *) -> remove t dst src
  | 5 (* probe *) ->
      (* the probed mate answers with its state at probe time... *)
      send t ~src:dst ~dst:src (if listed t dst src then kind_reply_listed else kind_reply_unlisted)
  | 6 (* reply_listed *) -> ()
  | 7 (* reply_unlisted *) ->
      (* ...and the prober acts on the reply (the mate may have re-added
         since; its own audits repair the inverse ghost if so). *)
      if listed t dst src then remove t dst src
  | k -> invalid_arg (Printf.sprintf "Async_dynamics: unknown event kind %d" k)

let create ?net instance rng params =
  if params.latency < 0. then invalid_arg "Async_dynamics: negative latency";
  if params.initiative_rate <= 0. then invalid_arg "Async_dynamics: rate must be positive";
  if params.loss < 0. || params.loss >= 1. then
    invalid_arg "Async_dynamics: loss must be in [0,1)";
  if Instance.n instance > 1 lsl Net.Packed.id_bits then
    invalid_arg "Async_dynamics: more peers than Net.Packed ids";
  let net =
    match net with
    | Some n -> n
    | None ->
        (* Legacy fault model: constant latency, optional i.i.d. loss.
           [Iid 0.] and [Constant] draw nothing, so a loss-free network
           consumes no randomness. *)
        Net.create rng
          {
            latency = Net.Constant params.latency;
            loss = (if params.loss > 0. then Net.Iid params.loss else Net.No_loss);
            duplicate = 0.;
            reorder = 0.;
            reorder_spread = 0.;
          }
  in
  let t =
    { instance; params; rng; net; mates = Array.make (Instance.n instance) []; live = true }
  in
  Net.set_handler net (dispatch t);
  for p = 0 to Instance.n instance - 1 do
    arm_clock t p
  done;
  t

let net t = t.net

let time t = Engine.now (Net.engine t.net)

let run t ~horizon =
  let engine = Net.engine t.net in
  Engine.run_until engine ~time:(Engine.now engine +. horizon)

let quiesce ?max_events t =
  t.live <- false;
  if Engine.drain ?max_events (Net.engine t.net) then Drained else Budget_exhausted

let mutual_config t =
  let config = Config.empty t.instance in
  Array.iteri
    (fun p l ->
      List.iter (fun q -> if p < q && listed t q p && not (Config.mated config p q) then Config.connect config p q) l)
    t.mates;
  config

let inconsistency_count t =
  let count = ref 0 in
  Array.iteri
    (fun p l -> List.iter (fun q -> if not (listed t q p) then incr count) l)
    t.mates;
  !count

let messages_sent t = Net.sent t.net
let messages_lost t = Net.dropped t.net

let disorder_trajectory t ~stable ~horizon ~samples =
  if samples < 1 then invalid_arg "Async_dynamics.disorder_trajectory: need samples >= 1";
  let start = time t in
  let points = ref [ (0., Disorder.disorder (mutual_config t) ~stable) ] in
  for k = 1 to samples do
    let target = start +. (horizon *. float_of_int k /. float_of_int samples) in
    Engine.run_until (Net.engine t.net) ~time:target;
    points := (target -. start, Disorder.disorder (mutual_config t) ~stable) :: !points
  done;
  Series.make
    (Printf.sprintf "latency=%g" t.params.latency)
    (Array.of_list (List.rev !points))
