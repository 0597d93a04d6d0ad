(* The convergence scheduler: dirty-queue mechanics, Worklist/Random_poll
   schedule equivalence (Theorem 1's uniqueness), and the incremental
   churn repair against the from-scratch reference. *)

module Rng = Stratify_prng.Rng
module Gen = Stratify_graph.Gen
open Stratify_core

(* ------------------------------------------------------------------ *)
(* Queue mechanics                                                     *)

let test_push_pop_rank_order () =
  let s = Scheduler.create ~n:8 in
  Alcotest.(check bool) "starts empty" true (Scheduler.is_empty s);
  List.iter (Scheduler.push s) [ 3; 1; 7; 0 ];
  Alcotest.(check int) "length" 4 (Scheduler.length s);
  Alcotest.(check (list (option int)))
    "best rank first"
    [ Some 0; Some 1; Some 3; Some 7; None ]
    (List.init 5 (fun _ -> Scheduler.pop s))

let test_push_dedup () =
  let s = Scheduler.create ~n:4 in
  Scheduler.push s 2;
  Scheduler.push s 2;
  Scheduler.push s 1;
  Scheduler.push s 2;
  Alcotest.(check int) "duplicates collapse" 2 (Scheduler.length s);
  Alcotest.(check bool) "mem queued" true (Scheduler.mem s 2);
  Alcotest.(check bool) "mem unqueued" false (Scheduler.mem s 0);
  Alcotest.(check (option int)) "lowest label first" (Some 1) (Scheduler.pop s);
  Alcotest.(check bool) "popped leaves" false (Scheduler.mem s 1);
  (* Re-pushing below the cursor must rewind it: 0 pops before 2. *)
  Scheduler.push s 0;
  Alcotest.(check (list (option int)))
    "push below cursor rewinds"
    [ Some 0; Some 2; None ]
    (List.init 3 (fun _ -> Scheduler.pop s));
  (* A popped peer can re-enter. *)
  Scheduler.push s 2;
  Alcotest.(check (option int)) "re-entry" (Some 2) (Scheduler.pop s)

let test_word_boundaries () =
  (* Exercise labels straddling the 62-bit word packing. *)
  let n = 200 in
  let s = Scheduler.create ~n in
  let labels = [ 61; 62; 63; 123; 124; 199; 0 ] in
  List.iter (Scheduler.push s) labels;
  let expected = List.sort Int.compare labels in
  Alcotest.(check (list int)) "sorted drain across words" expected
    (List.filter_map (fun _ -> Scheduler.pop s) labels);
  Alcotest.(check bool) "empty after" true (Scheduler.is_empty s)

let test_clear_and_seed_all () =
  let s = Scheduler.create ~n:5 in
  Scheduler.push s 4;
  Scheduler.clear s;
  Alcotest.(check bool) "clear empties" true (Scheduler.is_empty s);
  Alcotest.(check bool) "clear resets membership" false (Scheduler.mem s 4);
  Scheduler.seed_all s;
  Alcotest.(check int) "seed_all queues everyone" 5 (Scheduler.length s);
  Alcotest.(check (list (option int)))
    "seed_all is in peer order"
    [ Some 0; Some 1; Some 2; Some 3; Some 4; None ]
    (List.init 6 (fun _ -> Scheduler.pop s))

let test_policy_names () =
  Alcotest.(check string) "random" "random" (Scheduler.policy_name Scheduler.Random_poll);
  Alcotest.(check string) "worklist" "worklist" (Scheduler.policy_name Scheduler.Worklist);
  Alcotest.(check bool) "round trip" true
    (Scheduler.policy_of_string "worklist" = Some Scheduler.Worklist
    && Scheduler.policy_of_string "random" = Some Scheduler.Random_poll
    && Scheduler.policy_of_string "nonsense" = None)

let test_drain_reaches_stability () =
  (* seed_all + drain from the empty configuration is a full worklist
     convergence: the result must be the unique stable configuration,
     certified by the empty queue. *)
  let rng = Rng.create 11 in
  let inst = Helpers.random_instance rng ~n:18 ~p:0.4 ~bmax:3 in
  let s = Scheduler.create ~n:(Instance.n inst) in
  Scheduler.seed_all s;
  let config = Config.empty inst in
  let state = Initiative.create_state inst in
  let active, attempts = Scheduler.drain s config state Initiative.Best_mate rng in
  Alcotest.(check bool) "queue drained" true (Scheduler.is_empty s);
  Alcotest.(check bool) "some attempts" true (attempts >= Instance.n inst);
  Alcotest.(check bool) "active <= attempts" true (active <= attempts);
  Alcotest.(check string) "reached the stable configuration"
    (Config.signature (Greedy.stable_config inst))
    (Config.signature config)

(* ------------------------------------------------------------------ *)
(* Schedule equivalence (Theorem 1)                                    *)

let prop_worklist_matches_random_poll =
  Helpers.qtest ~count:80 "Worklist and Random_poll reach the identical stable configuration"
    Helpers.instance_params (fun (seed, n, p, bmax) ->
      let inst = Helpers.random_instance (Rng.create seed) ~n ~p ~bmax in
      let stable = Greedy.stable_config inst in
      let converge policy =
        let sim = Sim.create ~scheduler:policy inst (Rng.create (seed + 1)) in
        match Sim.run_until_stable sim ~stable ~max_units:400 with
        | None -> QCheck.Test.fail_reportf "%s did not stabilize" (Scheduler.policy_name policy)
        | Some _ -> Config.signature (Sim.config sim)
      in
      let sig_random = converge Scheduler.Random_poll in
      let sig_worklist = converge Scheduler.Worklist in
      sig_random = sig_worklist && sig_worklist = Config.signature stable)

let test_worklist_active_counts_match () =
  (* count_active_to_stability under either policy: both finite, and the
     worklist never needs more attempts than its own queue traffic. *)
  let inst = Helpers.random_instance (Rng.create 5) ~n:40 ~p:0.3 ~bmax:2 in
  let run policy =
    Sim.count_active_to_stability ~scheduler:policy inst ~strategy:Initiative.Best_mate
      (Rng.create 6) ~max_steps:1_000_000
  in
  match (run Scheduler.Random_poll, run Scheduler.Worklist) with
  | Some _, Some active_w ->
      let stable_edges = Config.edge_count (Greedy.stable_config inst) in
      Alcotest.(check bool)
        (Printf.sprintf "worklist active=%d >= stable edges=%d" active_w stable_edges)
        true
        (active_w >= stable_edges)
  | r, w ->
      Alcotest.failf "did not converge (random=%b worklist=%b)" (r <> None) (w <> None)

(* ------------------------------------------------------------------ *)
(* Churn: reference semantics and incremental repair                   *)

let test_reconfigure_keeps_present_acceptable () =
  (* After isolating one peer and masking another out, [reconfigure]
     must keep exactly the pairs that are still present and acceptable. *)
  let n = 20 and b = 2 in
  let rng = Rng.create 9 in
  let graph = Gen.gnd rng ~n ~d:6. in
  let inst = Instance.dynamic ~graph ~b:(Array.make n b) () in
  let config = Greedy.stable_config inst in
  let old_pairs = ref [] in
  Config.iter_pairs (fun p q -> old_pairs := (p, q) :: !old_pairs) config;
  let isolated = 3 and masked = 7 in
  Instance.dyn_isolate inst isolated;
  let present = Array.make n true in
  present.(masked) <- false;
  let fresh = Churn.reconfigure config inst present in
  Config.iter_pairs
    (fun p q ->
      Alcotest.(check bool) "endpoints present" true (present.(p) && present.(q));
      Alcotest.(check bool) "still acceptable" true (Instance.accepts inst p q);
      Alcotest.(check bool) "was a pair before" true
        (List.mem (p, q) !old_pairs || List.mem (q, p) !old_pairs))
    fresh;
  List.iter
    (fun (p, q) ->
      if present.(p) && present.(q) && Instance.accepts inst p q then
        Alcotest.(check bool) (Printf.sprintf "surviving pair %d-%d kept" p q) true
          (Config.mated fresh p q))
    !old_pairs

(* Rebuild a frozen instance from the live dynamic one's acceptance rows
   and the constant budget: the from-scratch reference for the
   incrementally repaired stable configuration. *)
let from_scratch_stable w ~b =
  let inst = Churn.world_instance w in
  let n = Instance.n inst in
  let adj = Array.init n (fun p -> Instance.acceptable inst p) in
  let fresh = Instance.of_adjacency ~adj ~b:(Array.make n b) () in
  Config.signature (Greedy.stable_config fresh)

let churn_world_params =
  QCheck.make
    ~print:(fun (seed, n, b, events) -> Printf.sprintf "seed=%d n=%d b=%d events=%d" seed n b events)
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 6 40 in
      let* b = int_range 1 3 in
      let* events = int_range 1 25 in
      return (seed, n, b, events))

let prop_incremental_repair_matches_greedy scheduler =
  Helpers.qtest ~count:60
    (Printf.sprintf "incremental stable repair = from-scratch greedy (%s)"
       (Scheduler.policy_name scheduler))
    churn_world_params
    (fun (seed, n, b, events) ->
      let rng = Rng.create seed in
      let d = 5. in
      let w = Churn.make_world ~scheduler rng ~n ~d ~b in
      let p = d /. float_of_int (n - 1) in
      for _ = 1 to events do
        Churn.churn_event rng w ~p;
        (* Interleave a few initiatives so [config] evolves too. *)
        for _ = 1 to 3 do
          Churn.initiative_step rng w Initiative.Best_mate
        done
      done;
      Config.signature (Churn.world_stable w) = from_scratch_stable w ~b)

let test_removal_and_arrival_repair () =
  (* Deterministic spot check of the two event kinds in sequence. *)
  let n = 30 and b = 1 and d = 6. in
  let rng = Rng.create 21 in
  let w = Churn.make_world rng ~n ~d ~b in
  let p = d /. float_of_int (n - 1) in
  Churn.remove_peer w 0;
  Alcotest.(check string) "repair after removing the best peer"
    (from_scratch_stable w ~b)
    (Config.signature (Churn.world_stable w));
  Churn.remove_peer w 13;
  Alcotest.(check string) "repair after a mid-rank removal"
    (from_scratch_stable w ~b)
    (Config.signature (Churn.world_stable w));
  Churn.insert_peer rng w 0 ~p;
  Alcotest.(check string) "repair after a re-arrival"
    (from_scratch_stable w ~b)
    (Config.signature (Churn.world_stable w));
  Alcotest.(check bool) "present mask tracks events" true
    (let present = Churn.world_present w in
     present.(0) && not present.(13))

let suite =
  [
    Alcotest.test_case "push/pop rank order" `Quick test_push_pop_rank_order;
    Alcotest.test_case "push dedup + cursor rewind" `Quick test_push_dedup;
    Alcotest.test_case "word-boundary labels" `Quick test_word_boundaries;
    Alcotest.test_case "clear and seed_all" `Quick test_clear_and_seed_all;
    Alcotest.test_case "policy names" `Quick test_policy_names;
    Alcotest.test_case "drain reaches stability" `Quick test_drain_reaches_stability;
    prop_worklist_matches_random_poll;
    Alcotest.test_case "active counts under both policies" `Quick
      test_worklist_active_counts_match;
    Alcotest.test_case "reconfigure keeps present+acceptable" `Quick
      test_reconfigure_keeps_present_acceptable;
    prop_incremental_repair_matches_greedy Scheduler.Random_poll;
    prop_incremental_repair_matches_greedy Scheduler.Worklist;
    Alcotest.test_case "removal/arrival incremental repair" `Quick test_removal_and_arrival_repair;
  ]
