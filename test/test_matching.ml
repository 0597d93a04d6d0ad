module Rng = Stratify_prng.Rng
module Dist = Stratify_prng.Dist
module Gen = Stratify_graph.Gen
module U = Stratify_graph.Undirected
open Stratify_core

(* ------------------------------------------------------------------ *)
(* Ranking                                                             *)

let test_ranking_of_scores () =
  let r = Ranking.of_scores [| 1.5; 9.; 4. |] in
  Alcotest.(check int) "best peer" 1 (Ranking.peer_at r 0);
  Alcotest.(check int) "middle peer" 2 (Ranking.peer_at r 1);
  Alcotest.(check int) "worst peer" 0 (Ranking.peer_at r 2);
  Alcotest.(check int) "rank of 9." 0 (Ranking.rank r 1);
  Alcotest.(check bool) "prefers" true (Ranking.prefers r 1 0);
  Alcotest.(check bool) "not identity" false (Ranking.is_identity r)

let test_ranking_ties_rejected () =
  match Ranking.of_scores [| 1.; 2.; 1. |] with
  | exception Ranking.Ties (a, b) ->
      Alcotest.(check bool) "tie peers" true ((a = 0 && b = 2) || (a = 2 && b = 0))
  | _ -> Alcotest.fail "expected Ties"

let test_ranking_identity () =
  let r = Ranking.identity 5 in
  Alcotest.(check bool) "identity" true (Ranking.is_identity r);
  for i = 0 to 4 do
    Alcotest.(check int) "rank = id" i (Ranking.rank r i)
  done;
  Alcotest.(check int) "compare" (-1)
    (compare (Ranking.compare_peers r 0 3) 0)

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)

let test_instance_relabeling () =
  (* Peers 0,1,2 with scores making 2 the best; edge set {0-2, 1-2}. *)
  let g = U.create 3 in
  ignore (U.add_edge g 0 2);
  ignore (U.add_edge g 1 2);
  let ranking = Ranking.of_scores [| 5.; 1.; 9. |] in
  (* ranks: peer2 -> 0, peer0 -> 1, peer1 -> 2 *)
  let inst = Instance.create ~ranking ~graph:g ~b:[| 1; 2; 3 |] () in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Alcotest.(check int) "best peer budget" 3 (Instance.slots inst 0);
  Alcotest.(check int) "slot total" 6 (Instance.slot_total inst);
  (* Rank 0 (= original peer 2) accepts ranks 1 and 2. *)
  Alcotest.(check (array int)) "acceptance best" [| 1; 2 |] (Instance.acceptable inst 0);
  Alcotest.(check (array int)) "acceptance rank1" [| 0 |] (Instance.acceptable inst 1);
  Alcotest.(check bool) "accepts" true (Instance.accepts inst 2 0);
  Alcotest.(check bool) "not accepts" false (Instance.accepts inst 1 2);
  Alcotest.(check int) "rank->id" 2 (Instance.rank_to_id inst 0);
  Alcotest.(check int) "id->rank" 0 (Instance.id_to_rank inst 2)

let test_instance_validation () =
  let g = U.create 2 in
  Alcotest.check_raises "negative budget" (Invalid_argument "Instance: negative slot budget")
    (fun () -> ignore (Instance.create ~graph:g ~b:[| 1; -1 |] ()));
  Alcotest.check_raises "bad size" (Invalid_argument "Instance: |b| must equal the number of peers")
    (fun () -> ignore (Instance.create ~graph:g ~b:[| 1 |] ()))

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let line_instance n b =
  (* path acceptance graph 0-1-2-...-(n-1) *)
  Instance.create ~graph:(Gen.path n) ~b:(Array.make n b) ()

let test_config_connect_disconnect () =
  let inst = line_instance 4 2 in
  let c = Config.empty inst in
  Config.connect c 1 2;
  Config.connect c 0 1;
  Alcotest.(check int) "degree" 2 (Config.degree c 1);
  Alcotest.(check (list int)) "mates best first" [ 0; 2 ] (Config.mates c 1);
  Alcotest.(check bool) "mated" true (Config.mated c 2 1);
  Alcotest.(check (option int)) "best" (Some 0) (Config.best_mate c 1);
  Alcotest.(check (option int)) "worst" (Some 2) (Config.worst_mate c 1);
  Alcotest.(check int) "edges" 2 (Config.edge_count c);
  Config.disconnect c 1 2;
  Alcotest.(check bool) "unmated" false (Config.mated c 1 2);
  Alcotest.(check int) "edges after" 1 (Config.edge_count c)

let test_config_guards () =
  let inst = line_instance 4 1 in
  let c = Config.empty inst in
  Config.connect c 0 1;
  Alcotest.check_raises "full" (Invalid_argument "Config.connect: no free slot") (fun () ->
      Config.connect c 1 2);
  Alcotest.check_raises "unacceptable"
    (Invalid_argument "Config.connect: pair not in the acceptance graph") (fun () ->
      Config.connect c 2 0);
  Alcotest.check_raises "not mates" (Invalid_argument "Config.disconnect: not mates") (fun () ->
      Config.disconnect c 2 3)

let test_config_drop_worst_copy_equal () =
  let inst = line_instance 5 2 in
  let c = Config.of_pairs inst [ (1, 2); (2, 3) ] in
  let c2 = Config.copy c in
  Alcotest.(check bool) "copies equal" true (Config.equal c c2);
  Alcotest.(check (option int)) "drop worst" (Some 3) (Config.drop_worst c 2);
  Alcotest.(check bool) "now differ" false (Config.equal c c2);
  Alcotest.(check bool) "copy untouched" true (Config.mated c2 2 3);
  Alcotest.(check (option int)) "drop empty" None (Config.drop_worst c 0);
  Alcotest.(check bool) "signatures differ" true (Config.signature c <> Config.signature c2)

let prop_config_worst_cache_matches_lists =
  (* [Config] caches each peer's worst mate for O(1) [worst_mate]/[mated];
     this drives random connect/disconnect/drop_worst sequences against
     the plain-list reference the cache replaced ([List.nth] for worst,
     [List.mem] for membership) and demands identical observations
     throughout. *)
  Helpers.qtest ~count:200 "worst-mate cache = list reference under random ops"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      let n = Instance.n inst in
      let c = Config.empty inst in
      let model = Array.make n [] in
      let model_worst q =
        match model.(q) with [] -> None | l -> Some (List.nth l (List.length l - 1))
      in
      let model_connect a b =
        model.(a) <- List.sort compare (b :: model.(a));
        model.(b) <- List.sort compare (a :: model.(b))
      in
      let model_disconnect a b =
        model.(a) <- List.filter (( <> ) b) model.(a);
        model.(b) <- List.filter (( <> ) a) model.(b)
      in
      let agree q =
        Config.mates c q = model.(q)
        && Config.worst_mate c q = model_worst q
        && Config.degree c q = List.length model.(q)
        && List.for_all
             (fun other -> Config.mated c q other = List.mem other model.(q))
             (Array.to_list (Instance.acceptable inst q))
      in
      let ok = ref true in
      for _ = 1 to 120 do
        let a = Rng.int rng n in
        (match Rng.int rng 3 with
        | 0 ->
            (* Connect [a] to a random acceptable free peer, if any. *)
            let candidates =
              List.filter
                (fun b ->
                  Config.free_slots c b > 0 && (not (List.mem b model.(a))) && b <> a)
                (Array.to_list (Instance.acceptable inst a))
            in
            if Config.free_slots c a > 0 && candidates <> [] then begin
              let b = List.nth candidates (Rng.int rng (List.length candidates)) in
              Config.connect c a b;
              model_connect a b
            end
        | 1 -> (
            match (Config.drop_worst c a, model_worst a) with
            | Some w, Some w' when w = w' -> model_disconnect a w
            | None, None -> ()
            | _ -> ok := false)
        | _ ->
            (* Disconnect a uniformly random current mate. *)
            if model.(a) <> [] then begin
              let b = List.nth model.(a) (Rng.int rng (List.length model.(a))) in
              Config.disconnect c a b;
              model_disconnect a b
            end);
        if not (agree a) then ok := false
      done;
      !ok
      && (let all = ref true in
          for q = 0 to n - 1 do
            if not (agree q) then all := false
          done;
          !all)
      && Config.edge_count c
         = Array.fold_left (fun acc l -> acc + List.length l) 0 model / 2)

(* ------------------------------------------------------------------ *)
(* Backend equivalence                                                 *)

(* Executable spec of [Instance.first_index_above]: linear scan of the
   materialized row. *)
let first_above_spec row rank =
  let len = Array.length row in
  let rec go i = if i >= len || row.(i) > rank then i else go (i + 1) in
  go 0

(* Observational equality of two instances describing the same acceptance
   system through different backends: every accessor of the iteration API
   must agree (and match the row-based spec). *)
let instances_agree a b =
  let n = Instance.n a in
  let ok = ref (n = Instance.n b) in
  for p = 0 to n - 1 do
    let row_a = Instance.acceptable a p and row_b = Instance.acceptable b p in
    if row_a <> row_b then ok := false;
    if Instance.degree a p <> Array.length row_a then ok := false;
    if Instance.degree b p <> Array.length row_b then ok := false;
    if Instance.slots a p <> Instance.slots b p then ok := false;
    Array.iteri
      (fun i q ->
        if Instance.acceptable_at a p i <> q || Instance.acceptable_at b p i <> q then ok := false)
      row_a;
    let collected = ref [] in
    Instance.iter_acceptable a p (fun q -> collected := q :: !collected);
    if List.rev !collected <> Array.to_list row_a then ok := false;
    if Instance.fold_acceptable a p (fun acc _ -> acc + 1) 0 <> Array.length row_a then ok := false;
    for q = 0 to n - 1 do
      if Instance.accepts a p q <> Instance.accepts b p q then ok := false
    done;
    for rank = -1 to n do
      let spec = first_above_spec row_a rank in
      if Instance.first_index_above a p ~rank <> spec then ok := false;
      if Instance.first_index_above b p ~rank <> spec then ok := false
    done
  done;
  !ok

(* The generic blocking scan the fused kernels replaced — kept as the
   executable spec of [Blocking.best_blocking_mate]. *)
let reference_best_blocking_mate c p =
  let inst = Config.instance c in
  if Instance.slots inst p = 0 then None
  else begin
    let len = Instance.degree inst p in
    let rec scan i =
      if i >= len then None
      else begin
        let q = Instance.acceptable_at inst p i in
        if not (Blocking.would_accept c p q) then None
        else if (not (Config.mated c p q)) && Blocking.would_accept c q p then Some q
        else scan (i + 1)
      end
    in
    scan 0
  end

(* Drive one random op sequence on a config per instance (all instances
   describing the same acceptance system) and demand identical signatures
   and spec-conformant blocking observations after every op. *)
let configs_stay_equivalent rng insts ~ops =
  match insts with
  | [] -> true
  | first :: _ ->
      let n = Instance.n first in
      let cs = List.map Config.empty insts in
      let ok = ref true in
      let check () =
        (match cs with
        | c0 :: rest ->
            let s0 = Config.signature c0 in
            List.iter (fun c -> if Config.signature c <> s0 then ok := false) rest
        | [] -> ());
        List.iter
          (fun c ->
            for p = 0 to n - 1 do
              if Blocking.best_blocking_mate c p <> reference_best_blocking_mate c p then
                ok := false
            done)
          cs
      in
      for _ = 1 to ops do
        let p = Rng.int rng n in
        (match Rng.int rng 3 with
        | 0 ->
            (* A best-mate initiative — the dynamics' own operation. *)
            List.iter
              (fun c ->
                match Blocking.best_blocking_mate c p with
                | None -> ()
                | Some q ->
                    if Config.free_slots c p <= 0 then ignore (Config.drop_worst c p);
                    if Config.free_slots c q <= 0 then ignore (Config.drop_worst c q);
                    Config.connect c p q)
              cs
        | 1 -> List.iter (fun c -> ignore (Config.drop_worst c p)) cs
        | _ ->
            List.iter
              (fun c -> if Config.degree c p > 0 then Config.disconnect c p (Config.mate_at c p 0))
              cs);
        check ()
      done;
      !ok

let complete_params =
  QCheck.make
    ~print:(fun (seed, n, bmax) -> Printf.sprintf "seed=%d n=%d bmax=%d" seed n bmax)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 20 in
      let* bmax = int_range 0 4 in
      return (seed, n, bmax))

let prop_complete_backend_equiv =
  Helpers.qtest ~count:60 "implicit complete backend = materialized dense"
    complete_params (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let implicit = Instance.complete ~n ~b () in
      let dense = Instance.create ~graph:(Gen.complete n) ~b () in
      instances_agree implicit dense
      && Config.signature (Greedy.stable_config implicit)
         = Config.signature (Greedy.stable_config dense)
      && Blocking.is_stable (Greedy.stable_config implicit)
      && configs_stay_equivalent rng [ implicit; dense ] ~ops:60)

let prop_complete_minus_backend_equiv =
  Helpers.qtest ~count:60 "complete-minus backend = materialized dense"
    complete_params (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let removed = List.filter (fun _ -> Rng.int rng 4 = 0) (List.init n (fun p -> p)) in
      let gone = Array.make n false in
      List.iter (fun p -> gone.(p) <- true) removed;
      let adj =
        Array.init n (fun p ->
            if gone.(p) then [||]
            else
              Array.of_list
                (List.filter (fun q -> (q <> p) && not gone.(q)) (List.init n (fun q -> q))))
      in
      let implicit = Instance.complete_minus ~n ~b ~removed () in
      let dense = Instance.of_adjacency ~adj ~b () in
      instances_agree implicit dense
      && Config.signature (Greedy.stable_config implicit)
         = Config.signature (Greedy.stable_config dense)
      && configs_stay_equivalent rng [ implicit; dense ] ~ops:60)

let prop_blocking_fused_matches_reference =
  Helpers.qtest ~count:120 "fused blocking scan = generic reference"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      configs_stay_equivalent rng [ inst ] ~ops:80)

(* Bitset mate filter ≡ exact linear scan: the same op sequence driven
   on two configs of the same instance, one keeping the 63-bit mate
   mask, one forced onto the flat-array fallback — every observation
   the kernels make (mated / would_accept / is_blocking /
   best_blocking_mate) must agree, and both must match the executable
   spec. *)
let mask_paths_agree rng inst ~ops =
  let n = Instance.n inst in
  let masked = Config.empty inst in
  let flat = Config.empty inst in
  Config.set_use_mask flat false;
  let cs = [ masked; flat ] in
  let ok = ref true in
  let check () =
    if Config.signature masked <> Config.signature flat then ok := false;
    for p = 0 to n - 1 do
      let bm = Blocking.best_blocking_mate masked p in
      if bm <> Blocking.best_blocking_mate flat p then ok := false;
      if bm <> reference_best_blocking_mate masked p then ok := false;
      (match bm with
      | Some q -> if Blocking.best_blocking_mate_int masked p <> q then ok := false
      | None -> if Blocking.best_blocking_mate_int masked p <> -1 then ok := false);
      for q = 0 to n - 1 do
        if Config.mated masked p q <> Config.mated flat p q then ok := false;
        if Config.mated masked p q <> Config.mated_linear masked p q then ok := false;
        if Blocking.would_accept masked p q <> Blocking.would_accept flat p q then ok := false;
        if Blocking.is_blocking masked p q <> Blocking.is_blocking flat p q then ok := false
      done
    done
  in
  if not (Config.mask_enabled masked) || Config.mask_enabled flat then ok := false;
  check ();
  for _ = 1 to ops do
    let p = Rng.int rng n in
    (match Rng.int rng 3 with
    | 0 ->
        List.iter
          (fun c ->
            match Blocking.best_blocking_mate c p with
            | None -> ()
            | Some q ->
                if Config.free_slots c p <= 0 then ignore (Config.drop_worst c p);
                if Config.free_slots c q <= 0 then ignore (Config.drop_worst c q);
                Config.connect c p q)
          cs
    | 1 -> List.iter (fun c -> ignore (Config.drop_worst c p)) cs
    | _ ->
        List.iter
          (fun c -> if Config.degree c p > 0 then Config.disconnect c p (Config.mate_at c p 0))
          cs);
    check ()
  done;
  !ok

let prop_mask_equiv_complete =
  Helpers.qtest ~count:60 "bitset mate path = flat path (complete backend)" complete_params
    (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      mask_paths_agree rng (Instance.complete ~n ~b ()) ~ops:60)

let prop_mask_equiv_complete_minus =
  Helpers.qtest ~count:60 "bitset mate path = flat path (complete-minus backend)" complete_params
    (fun (seed, n, bmax) ->
      let rng = Rng.create seed in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let removed = List.filter (fun _ -> Rng.int rng 4 = 0) (List.init n (fun p -> p)) in
      mask_paths_agree rng (Instance.complete_minus ~n ~b ~removed ()) ~ops:60)

let prop_mask_equiv_sparse =
  Helpers.qtest ~count:80 "bitset mate path = flat path (sparse backend)"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      mask_paths_agree rng (Helpers.random_instance rng ~n ~p ~bmax) ~ops:60)

(* ------------------------------------------------------------------ *)
(* Blocking                                                            *)

let test_blocking_basics () =
  let inst = line_instance 4 1 in
  let c = Config.empty inst in
  (* Empty config: every acceptance edge blocks. *)
  Alcotest.(check bool) "0-1 blocks" true (Blocking.is_blocking c 0 1);
  Alcotest.(check (list (pair int int))) "all pairs" [ (0, 1); (1, 2); (2, 3) ]
    (Blocking.blocking_pairs c);
  Config.connect c 1 2;
  (* 0-1 still blocks: 1 prefers 0 to its worst mate 2. *)
  Alcotest.(check bool) "0-1 blocks still" true (Blocking.is_blocking c 0 1);
  (* 2-3 no longer blocks: 2 is full with the better mate 1. *)
  Alcotest.(check bool) "2-3 does not block" false (Blocking.is_blocking c 2 3);
  Alcotest.(check (option int)) "best blocking mate of 0" (Some 1)
    (Blocking.best_blocking_mate c 0);
  Alcotest.(check (option int)) "none for 3" None (Blocking.best_blocking_mate c 3)

let test_blocking_zero_budget () =
  let g = Gen.complete 3 in
  let inst = Instance.create ~graph:g ~b:[| 0; 1; 1 |] () in
  let c = Config.empty inst in
  Alcotest.(check bool) "b=0 never blocks" false (Blocking.is_blocking c 0 1);
  Alcotest.(check (option int)) "no mate for b=0" None (Blocking.best_blocking_mate c 0);
  Alcotest.(check (list (pair int int))) "only 1-2" [ (1, 2) ] (Blocking.blocking_pairs c)

let test_stability_check () =
  let inst = line_instance 4 1 in
  let stable = Config.of_pairs inst [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "stable" true (Blocking.is_stable stable);
  let unstable = Config.of_pairs inst [ (1, 2) ] in
  Alcotest.(check bool) "unstable" false (Blocking.is_stable unstable);
  Alcotest.(check (option (pair int int))) "first blocking" (Some (0, 1))
    (Blocking.first_blocking_pair unstable)

(* ------------------------------------------------------------------ *)
(* Greedy / Algorithm 1                                                *)

let test_greedy_line () =
  let inst = line_instance 4 1 in
  let c = Greedy.stable_config inst in
  Alcotest.(check bool) "stable" true (Blocking.is_stable c);
  Alcotest.(check bool) "0-1" true (Config.mated c 0 1);
  Alcotest.(check bool) "2-3" true (Config.mated c 2 3)

let test_greedy_complete_blocks () =
  (* Fig 4: K9 with b0 = 2 -> three complete triangles. *)
  let adj = Greedy.stable_complete ~b:(Array.make 9 2) in
  Alcotest.(check bool) "block structure" true
    (Cluster.matches_block_structure ~n:9 ~b0:2 adj);
  Alcotest.(check (array int)) "peer 0 mates" [| 1; 2 |] adj.(0);
  Alcotest.(check (array int)) "peer 4 mates" [| 3; 5 |] adj.(4)

let test_greedy_complete_matches_generic () =
  let rng = Helpers.rng () in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 30 in
    let b = Array.init n (fun _ -> Rng.int rng 4) in
    let fast = Greedy.stable_complete ~b in
    let inst = Instance.create ~graph:(Gen.complete n) ~b () in
    let slow = Config.to_adjacency (Greedy.stable_config inst) in
    Alcotest.(check bool) "fast = generic on complete graphs" true (fast = slow)
  done

let test_greedy_partners_array () =
  let inst = line_instance 5 1 in
  Alcotest.(check (array int)) "partners" [| 1; 0; 3; 2; -1 |]
    (Greedy.stable_partners_array inst);
  let inst2 = line_instance 3 2 in
  Alcotest.check_raises "b>1 rejected"
    (Invalid_argument "Greedy.stable_partners_array: 1-matching only") (fun () ->
      ignore (Greedy.stable_partners_array inst2))

let prop_greedy_stable =
  Helpers.qtest ~count:300 "Algorithm 1 output is stable" Helpers.instance_params
    (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p ~bmax in
      Blocking.is_stable (Greedy.stable_config inst))

let prop_greedy_unique_stable =
  Helpers.qtest ~count:120 "greedy = the unique stable configuration (brute force)"
    QCheck.(
      make
        ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
        Gen.(pair (int_bound 1_000_000) (int_range 1 6)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = Helpers.random_instance rng ~n ~p:0.6 ~bmax:2 in
      match Brute.all_stable_configs inst with
      | [ unique ] -> Config.equal unique (Greedy.stable_config inst)
      | others ->
          QCheck.Test.fail_reportf "expected exactly one stable config, got %d"
            (List.length others))

(* ------------------------------------------------------------------ *)
(* Brute                                                               *)

let test_brute_counts () =
  (* K3, b=1: empty + three single-pair configs. *)
  let inst = Instance.create ~graph:(Gen.complete 3) ~b:[| 1; 1; 1 |] () in
  Alcotest.(check int) "K3 1-matchings" 4 (Brute.count_configs inst);
  Alcotest.(check int) "materialised" 4 (List.length (Brute.all_configs inst));
  (* Unique stable: {0,1}. *)
  (match Brute.all_stable_configs inst with
  | [ c ] ->
      Alcotest.(check bool) "0-1 mated" true (Config.mated c 0 1);
      Alcotest.(check int) "peer 2 alone" 0 (Config.degree c 2)
  | l -> Alcotest.failf "expected 1 stable config, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Tan                                                                 *)

let test_tan_no_cycle_in_global_ranking () =
  let rng = Helpers.rng ~seed:5 () in
  for _ = 1 to 30 do
    let inst = Helpers.random_instance rng ~n:7 ~p:0.7 ~bmax:2 in
    let sys = Tan.of_global_ranking inst in
    Alcotest.(check bool) "no preference cycle" true (Tan.find_preference_cycle sys = None);
    Alcotest.(check bool) "ranking-like" true (Tan.is_global_ranking_like sys)
  done

let odd_cycle_prefs =
  (* The classic 3-cycle: each of 0,1,2 prefers its successor. *)
  [| [| 1; 2 |]; [| 2; 0 |]; [| 0; 1 |] |]

let test_tan_finds_odd_cycle () =
  let sys = Tan.of_lists odd_cycle_prefs in
  (match Tan.find_preference_cycle sys with
  | Some cycle -> Alcotest.(check int) "cycle length" 3 (List.length cycle)
  | None -> Alcotest.fail "expected a cycle");
  (match Tan.find_preference_cycle ~parity:`Odd sys with
  | Some _ -> ()
  | None -> Alcotest.fail "expected an odd cycle");
  Alcotest.(check bool) "even cycle absent" true
    (Tan.find_preference_cycle ~parity:`Even sys = None);
  Alcotest.(check bool) "not ranking-like" false (Tan.is_global_ranking_like sys)

let test_tan_symmetrisation () =
  (* 0 lists 1 but 1 does not list 0: the pair must be dropped. *)
  let sys = Tan.of_lists [| [| 1 |]; [||] |] in
  Alcotest.(check bool) "dropped" false (Tan.accepts sys 0 1)

let test_tan_validation () =
  Alcotest.check_raises "self" (Invalid_argument "Tan.of_lists: peer prefers itself") (fun () ->
      ignore (Tan.of_lists [| [| 0 |] |]));
  Alcotest.check_raises "dup" (Invalid_argument "Tan.of_lists: duplicate in preference list")
    (fun () -> ignore (Tan.of_lists [| [| 1; 1 |]; [| 0 |] |]))

(* ------------------------------------------------------------------ *)
(* Gale-Shapley                                                        *)

let test_gale_shapley_known () =
  (* Classic 3x3 instance. *)
  let men = [| [| 0; 1; 2 |]; [| 1; 0; 2 |]; [| 0; 1; 2 |] |] in
  let women = [| [| 1; 0; 2 |]; [| 0; 1; 2 |]; [| 0; 1; 2 |] |] in
  let m = Gale_shapley.run ~proposer_prefs:men ~receiver_prefs:women in
  Alcotest.(check bool) "stable" true
    (Gale_shapley.is_stable ~proposer_prefs:men ~receiver_prefs:women m);
  (* Proposer-optimal: man 1 gets his favourite woman 1; man 0 gets 0. *)
  Alcotest.(check int) "man 0" 0 m.Gale_shapley.proposer_mate.(0);
  Alcotest.(check int) "man 1" 1 m.Gale_shapley.proposer_mate.(1);
  Alcotest.(check int) "man 2" 2 m.Gale_shapley.proposer_mate.(2)

let random_complete_prefs rng n =
  Array.init n (fun _ ->
      let a = Array.init n (fun i -> i) in
      Dist.shuffle rng a;
      a)

let test_gale_shapley_random_stable () =
  let rng = Helpers.rng ~seed:21 () in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 12 in
    let men = random_complete_prefs rng n and women = random_complete_prefs rng n in
    let m = Gale_shapley.run ~proposer_prefs:men ~receiver_prefs:women in
    Alcotest.(check bool) "stable" true
      (Gale_shapley.is_stable ~proposer_prefs:men ~receiver_prefs:women m);
    (* Perfect matching and mutual consistency. *)
    for p = 0 to n - 1 do
      let w = m.Gale_shapley.proposer_mate.(p) in
      Alcotest.(check int) "mutual" p m.Gale_shapley.receiver_mate.(w)
    done
  done

let test_gale_shapley_proposer_optimal () =
  (* Swapping roles: proposers do at least as well as when receiving. *)
  let rng = Helpers.rng ~seed:22 () in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 8 in
    let men = random_complete_prefs rng n and women = random_complete_prefs rng n in
    let as_proposers = Gale_shapley.run ~proposer_prefs:men ~receiver_prefs:women in
    let as_receivers = Gale_shapley.run ~proposer_prefs:women ~receiver_prefs:men in
    let rank_when_proposing = Gale_shapley.proposer_rank_of_mate ~proposer_prefs:men as_proposers in
    (* men's mean rank of mate in the women-proposing matching *)
    let total = ref 0 in
    for m = 0 to n - 1 do
      let w = as_receivers.Gale_shapley.receiver_mate.(m) in
      Array.iteri (fun i q -> if q = w then total := !total + i) men.(m)
    done;
    let rank_when_receiving = float_of_int !total /. float_of_int n in
    Alcotest.(check bool) "proposing is weakly better" true
      (rank_when_proposing <= rank_when_receiving +. 1e-9)
  done

let test_gale_shapley_validation () =
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Gale_shapley: proposer_prefs: incomplete preference list") (fun () ->
      ignore (Gale_shapley.run ~proposer_prefs:[| [| 0 |]; [||] |] ~receiver_prefs:[| [| 0; 1 |]; [| 0; 1 |] |]))

(* ------------------------------------------------------------------ *)
(* Roommates                                                           *)

let test_roommates_classic_solvable () =
  (* Gusfield & Irving's 6-person example with a stable matching. *)
  let prefs =
    [|
      [| 3; 5; 1; 2; 4 |];
      [| 5; 2; 4; 0; 3 |];
      [| 1; 4; 5; 0; 3 |];
      [| 2; 5; 4; 1; 0 |];
      [| 0; 1; 2; 3; 5 |];
      [| 4; 2; 3; 1; 0 |];
    |]
  in
  let sys = Tan.of_lists prefs in
  (match Roommates.solve sys with
  | Roommates.Stable mate ->
      Alcotest.(check bool) "checker agrees" true (Roommates.is_stable_matching sys mate);
      Array.iteri (fun p q -> if q >= 0 then Alcotest.(check int) "mutual" p mate.(q)) mate
  | Roommates.No_stable -> Alcotest.fail "expected a stable matching")

let test_roommates_classic_unsolvable () =
  (* The classic 4-person instance with no stable matching: 0,1,2 rank
     each other cyclically and all rank 3 last. *)
  let prefs = [| [| 1; 2; 3 |]; [| 2; 0; 3 |]; [| 0; 1; 3 |]; [| 0; 1; 2 |] |] in
  let sys = Tan.of_lists prefs in
  Alcotest.(check bool) "no stable matching" true (Roommates.solve sys = Roommates.No_stable);
  (* Tan's theorem: there must be an odd preference cycle. *)
  Alcotest.(check bool) "odd cycle exists" true
    (Tan.find_preference_cycle ~parity:`Odd sys <> None)

let test_roommates_global_ranking_agrees_with_greedy () =
  let rng = Helpers.rng ~seed:33 () in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 14 in
    let inst = Helpers.random_instance rng ~n ~p:0.5 ~bmax:1 in
    (* Restrict to peers with budget 1 by dropping b=0 peers' edges. *)
    let sys =
      Tan.of_lists
        (Array.init n (fun p ->
             if Instance.slots inst p = 0 then [||]
             else
               Array.of_list
                 (List.filter
                    (fun q -> Instance.slots inst q > 0)
                    (Array.to_list (Instance.acceptable inst p)))))
    in
    match Roommates.solve sys with
    | Roommates.Stable mate ->
        let greedy = Greedy.stable_config inst in
        Array.iteri
          (fun p q ->
            let expected = match Config.best_mate greedy p with Some m -> m | None -> -1 in
            if Instance.slots inst p > 0 then
              Alcotest.(check int) (Printf.sprintf "mate of %d" p) expected q)
          mate
    | Roommates.No_stable -> Alcotest.fail "global ranking always has a stable matching"
  done

(* Brute-force stable-matching enumeration over a general preference
   system (n small). *)
let brute_roommates sys =
  let n = Tan.size sys in
  let mate = Array.make n (-1) in
  let results = ref [] in
  let rec go p =
    if p >= n then begin
      if Roommates.is_stable_matching sys (Array.copy mate) then results := Array.copy mate :: !results
    end
    else if mate.(p) >= 0 then go (p + 1)
    else begin
      (* p stays single *)
      go (p + 1);
      Array.iter
        (fun q ->
          if q > p && mate.(q) < 0 then begin
            mate.(p) <- q;
            mate.(q) <- p;
            go (p + 1);
            mate.(p) <- -1;
            mate.(q) <- -1
          end)
        (Tan.preference_list sys p)
    end
  in
  go 0;
  !results

let random_tan rng n p =
  (* Random symmetric acceptance with random strict preferences. *)
  let g = Gen.gnp rng ~n ~p in
  let prefs =
    Array.init n (fun v ->
        let row = Array.of_list (U.neighbors g v) in
        Dist.shuffle rng row;
        row)
  in
  Tan.of_lists prefs

let prop_roommates_matches_brute_force =
  Helpers.qtest ~count:300 "Irving agrees with brute force on existence and stability"
    QCheck.(
      make
        ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
        Gen.(pair (int_bound 1_000_000) (int_range 1 7)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let sys = random_tan rng n 0.7 in
      let brute = brute_roommates sys in
      match Roommates.solve sys with
      | Roommates.Stable mate ->
          Roommates.is_stable_matching sys mate && List.length brute > 0
      | Roommates.No_stable -> brute = [])

let test_roommates_empty_and_trivial () =
  Alcotest.(check bool) "n=1 stays single" true
    (match Roommates.solve (Tan.of_lists [| [||] |]) with
    | Roommates.Stable [| -1 |] -> true
    | _ -> false);
  (match Roommates.solve (Tan.of_lists [| [| 1 |]; [| 0 |] |]) with
  | Roommates.Stable m -> Alcotest.(check (array int)) "pair" [| 1; 0 |] m
  | Roommates.No_stable -> Alcotest.fail "pair instance is stable")


let prop_relabeling_invariance =
  (* Solving with an arbitrary ranking must agree with solving the
     identity-ranked instance after relabelling the peers by rank. *)
  Helpers.qtest ~count:150 "ranking relabelling invariance" Helpers.instance_params
    (fun (seed, n, p, bmax) ->
      let rng = Rng.create seed in
      let graph = Gen.gnp rng ~n ~p in
      let b = Array.init n (fun _ -> Rng.int rng (bmax + 1)) in
      let scores = Array.init n (fun i -> float_of_int i +. Rng.unit_float rng *. 0.5) in
      match Ranking.of_scores scores with
      | exception Ranking.Ties _ -> true (* astronomically unlikely; skip *)
      | ranking ->
          let inst = Instance.create ~ranking ~graph ~b () in
          let stable = Greedy.stable_config inst in
          (* Identity-ranked twin: relabel vertices by rank. *)
          let twin_graph = U.create n in
          U.iter_edges
            (fun u v ->
              ignore
                (U.add_edge twin_graph (Ranking.rank ranking u) (Ranking.rank ranking v)))
            graph;
          let twin_b = Array.init n (fun r -> b.(Ranking.peer_at ranking r)) in
          let twin = Instance.create ~graph:twin_graph ~b:twin_b () in
          Config.equal (Greedy.stable_config twin) stable
          && Blocking.is_stable stable)

let suite =
  [
    Alcotest.test_case "ranking from scores" `Quick test_ranking_of_scores;
    Alcotest.test_case "ranking rejects ties" `Quick test_ranking_ties_rejected;
    Alcotest.test_case "identity ranking" `Quick test_ranking_identity;
    Alcotest.test_case "instance relabelling" `Quick test_instance_relabeling;
    Alcotest.test_case "instance validation" `Quick test_instance_validation;
    Alcotest.test_case "config connect/disconnect" `Quick test_config_connect_disconnect;
    Alcotest.test_case "config guards" `Quick test_config_guards;
    Alcotest.test_case "config drop/copy/equal" `Quick test_config_drop_worst_copy_equal;
    prop_config_worst_cache_matches_lists;
    Alcotest.test_case "blocking pairs" `Quick test_blocking_basics;
    Alcotest.test_case "blocking with zero budgets" `Quick test_blocking_zero_budget;
    Alcotest.test_case "stability check" `Quick test_stability_check;
    Alcotest.test_case "greedy on a path" `Quick test_greedy_line;
    Alcotest.test_case "greedy complete-graph blocks (Fig 4)" `Quick test_greedy_complete_blocks;
    Alcotest.test_case "fast complete path = generic greedy" `Quick
      test_greedy_complete_matches_generic;
    prop_complete_backend_equiv;
    prop_complete_minus_backend_equiv;
    prop_blocking_fused_matches_reference;
    prop_mask_equiv_complete;
    prop_mask_equiv_complete_minus;
    prop_mask_equiv_sparse;
    Alcotest.test_case "stable partners array" `Quick test_greedy_partners_array;
    prop_greedy_stable;
    prop_greedy_unique_stable;
    Alcotest.test_case "brute-force counting" `Quick test_brute_counts;
    Alcotest.test_case "global rankings have no preference cycle" `Quick
      test_tan_no_cycle_in_global_ranking;
    Alcotest.test_case "odd preference cycle found" `Quick test_tan_finds_odd_cycle;
    Alcotest.test_case "acceptability symmetrisation" `Quick test_tan_symmetrisation;
    Alcotest.test_case "preference-system validation" `Quick test_tan_validation;
    Alcotest.test_case "Gale-Shapley known instance" `Quick test_gale_shapley_known;
    Alcotest.test_case "Gale-Shapley random stability" `Quick test_gale_shapley_random_stable;
    Alcotest.test_case "Gale-Shapley proposer optimality" `Quick test_gale_shapley_proposer_optimal;
    Alcotest.test_case "Gale-Shapley validation" `Quick test_gale_shapley_validation;
    Alcotest.test_case "roommates: solvable classic" `Quick test_roommates_classic_solvable;
    Alcotest.test_case "roommates: unsolvable classic" `Quick test_roommates_classic_unsolvable;
    Alcotest.test_case "roommates = greedy under global ranking" `Quick
      test_roommates_global_ranking_agrees_with_greedy;
    prop_roommates_matches_brute_force;
    Alcotest.test_case "roommates corner cases" `Quick test_roommates_empty_and_trivial;
    prop_relabeling_invariance;
  ]
