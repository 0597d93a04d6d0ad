module Rng = Stratify_prng.Rng
module U = Stratify_graph.Undirected
module Gen = Stratify_graph.Gen
module Union_find = Stratify_graph.Union_find
module Components = Stratify_graph.Components
module Traversal = Stratify_graph.Traversal
module Metrics = Stratify_graph.Metrics

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Union_find.count uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union again" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "same set" true (Union_find.same uf 0 2);
  Alcotest.(check int) "set size" 4 (Union_find.size uf 3);
  Alcotest.(check int) "remaining sets" 3 (Union_find.count uf)

let test_add_remove_edges () =
  let g = U.create 5 in
  Alcotest.(check bool) "add" true (U.add_edge g 0 3);
  Alcotest.(check bool) "add dup" false (U.add_edge g 3 0);
  Alcotest.(check bool) "mem" true (U.mem_edge g 3 0);
  Alcotest.(check int) "edges" 1 (U.edge_count g);
  Alcotest.(check bool) "remove" true (U.remove_edge g 0 3);
  Alcotest.(check bool) "remove absent" false (U.remove_edge g 0 3);
  Alcotest.(check int) "edges after" 0 (U.edge_count g)

let test_self_loop_rejected () =
  let g = U.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Undirected.add_edge: self-loop")
    (fun () -> ignore (U.add_edge g 1 1))

let test_isolate () =
  let g = Gen.star 6 in
  Alcotest.(check int) "star edges" 5 (U.edge_count g);
  U.isolate g 0;
  Alcotest.(check int) "isolated" 0 (U.edge_count g);
  Alcotest.(check int) "degree" 0 (U.degree g 0)

let test_builders () =
  Alcotest.(check int) "complete K6 edges" 15 (U.edge_count (Gen.complete 6));
  Alcotest.(check int) "ring edges" 7 (U.edge_count (Gen.ring 7));
  Alcotest.(check int) "path edges" 6 (U.edge_count (Gen.path 7));
  let ring = Gen.ring 5 in
  for v = 0 to 4 do
    Alcotest.(check int) "ring degree" 2 (U.degree ring v)
  done

let test_sorted_neighbors_and_arrays () =
  let g = U.create 5 in
  ignore (U.add_edge g 2 4);
  ignore (U.add_edge g 2 0);
  ignore (U.add_edge g 2 3);
  Alcotest.(check (list int)) "sorted" [ 0; 3; 4 ] (U.sorted_neighbors g 2);
  let adj = U.adjacency_arrays g in
  Alcotest.(check (array int)) "row 2" [| 0; 3; 4 |] adj.(2);
  Alcotest.(check (array int)) "row 0" [| 2 |] adj.(0)

let test_gnp_edge_count () =
  let rng = Rng.create 1 in
  let n = 400 and p = 0.05 in
  let acc = Stratify_stats.Online.create () in
  for _ = 1 to 30 do
    let g = Gen.gnp rng ~n ~p in
    Stratify_stats.Online.add acc (float_of_int (U.edge_count g))
  done;
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let mean = Stratify_stats.Online.mean acc in
  Alcotest.(check bool)
    (Printf.sprintf "edge count mean %.0f near %.0f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.05 *. expected)

let test_gnp_extremes () =
  let rng = Rng.create 2 in
  Alcotest.(check int) "p=0" 0 (U.edge_count (Gen.gnp rng ~n:50 ~p:0.));
  Alcotest.(check int) "p=1" (50 * 49 / 2) (U.edge_count (Gen.gnp rng ~n:50 ~p:1.))

let test_gnp_symmetry_no_selfloop () =
  let rng = Rng.create 3 in
  let g = Gen.gnp rng ~n:100 ~p:0.1 in
  for v = 0 to 99 do
    List.iter
      (fun w ->
        Alcotest.(check bool) "no self" true (w <> v);
        Alcotest.(check bool) "symmetric" true (U.mem_edge g w v))
      (U.neighbors g v)
  done

let test_gnd_mean_degree () =
  let rng = Rng.create 4 in
  let acc = Stratify_stats.Online.create () in
  for _ = 1 to 20 do
    let g = Gen.gnd rng ~n:500 ~d:12. in
    Stratify_stats.Online.add acc (Metrics.mean_degree g)
  done;
  Helpers.check_close ~eps:0.5 "mean degree ~ d" 12. (Stratify_stats.Online.mean acc)

let test_gnp_adjacency_agrees () =
  let rng = Rng.create 5 in
  let adj = Gen.gnp_adjacency rng ~n:200 ~p:0.08 in
  (* sorted rows, symmetric, no self-loops *)
  Array.iteri
    (fun u row ->
      Array.iteri
        (fun k v ->
          Alcotest.(check bool) "no self" true (v <> u);
          if k > 0 then Alcotest.(check bool) "sorted" true (row.(k - 1) < v);
          Alcotest.(check bool) "symmetric" true (Array.exists (fun w -> w = u) adj.(v)))
        row)
    adj;
  (* Same distribution as Gen.gnp: compare edge totals loosely. *)
  let m = Array.fold_left (fun acc row -> acc + Array.length row) 0 adj / 2 in
  let expected = 0.08 *. float_of_int (200 * 199 / 2) in
  Alcotest.(check bool) "edge count plausible" true
    (Float.abs (float_of_int m -. expected) < 5. *. sqrt expected)

let test_attach_fresh_vertex () =
  let rng = Rng.create 6 in
  let g = U.create 100 in
  let present = Array.make 100 true in
  present.(7) <- false;
  let added =
    Gen.attach_fresh_vertex rng g ~v:0 ~p:0.5 ~present:(fun x -> present.(x))
  in
  Alcotest.(check int) "edge count matches" added (U.edge_count g);
  Alcotest.(check bool) "skips absent" true (not (U.mem_edge g 0 7));
  Alcotest.(check bool) "plausible count" true (added > 25 && added < 75);
  Alcotest.(check int) "p=0 adds none" 0
    (Gen.attach_fresh_vertex rng (U.create 10) ~v:3 ~p:0. ~present:(fun _ -> true));
  let g1 = U.create 10 in
  let all = Gen.attach_fresh_vertex rng g1 ~v:3 ~p:1. ~present:(fun _ -> true) in
  Alcotest.(check int) "p=1 adds all" 9 all

let test_components () =
  let g = U.create 7 in
  ignore (U.add_edge g 0 1);
  ignore (U.add_edge g 1 2);
  ignore (U.add_edge g 3 4);
  let c = Components.of_graph g in
  Alcotest.(check int) "count" 4 c.Components.count;
  Alcotest.(check int) "largest" 3 (Components.largest_size c);
  Helpers.check_close "mean" (7. /. 4.) (Components.mean_size c);
  Alcotest.(check bool) "same comp" true (c.Components.component.(0) = c.Components.component.(2));
  Alcotest.(check bool) "diff comp" true (c.Components.component.(0) <> c.Components.component.(3));
  Alcotest.(check (list int)) "members" [ 3; 4 ] (Components.members c c.Components.component.(3))

let test_components_connected () =
  let c = Components.of_graph (Gen.ring 10) in
  Alcotest.(check bool) "ring connected" true (Components.is_connected c);
  let c2 = Components.of_graph (U.create 3) in
  Alcotest.(check bool) "empty not connected" false (Components.is_connected c2)

let test_bfs () =
  let g = Gen.path 6 in
  let dist = Traversal.bfs_distances g 0 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4; 5 |] dist;
  let g2 = U.create 4 in
  ignore (U.add_edge g2 0 1);
  let dist2 = Traversal.bfs_distances g2 0 in
  Alcotest.(check int) "unreachable" (-1) dist2.(3)

let test_diameter () =
  Alcotest.(check int) "path diameter" 9 (Traversal.diameter_estimate (Gen.path 10));
  Alcotest.(check int) "ring diameter" 5 (Traversal.diameter_estimate (Gen.ring 10));
  Alcotest.(check int) "complete diameter" 1 (Traversal.diameter_estimate (Gen.complete 5))

let test_metrics () =
  let k5 = Gen.complete 5 in
  Helpers.check_close "K5 mean degree" 4. (Metrics.mean_degree k5);
  Helpers.check_close "K5 clustering" 1. (Metrics.clustering_coefficient k5);
  Alcotest.(check int) "K5 max degree" 4 (Metrics.max_degree k5);
  Helpers.check_close "path clustering" 0. (Metrics.clustering_coefficient (Gen.path 5));
  let h = Metrics.degree_histogram (Gen.star 5) in
  Alcotest.(check int) "star leaves" 4 h.(1);
  Alcotest.(check int) "star centre" 1 h.(4)

let test_assortativity () =
  (* A graph linking only consecutive labels is strongly assortative. *)
  let chain = Gen.path 100 in
  Alcotest.(check bool) "chain assortative" true (Metrics.assortativity_by_label chain > 0.9);
  (* A star from vertex 0 to everyone is disassortative by label. *)
  let star = Gen.star 100 in
  Alcotest.(check bool) "star negative" true (Metrics.assortativity_by_label star < 0.)

let prop_gnp_rows_symmetric =
  Helpers.qtest ~count:50 "components of adjacency = components of graph"
    Helpers.instance_params (fun (seed, n, p, _) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p in
      let c1 = Components.of_graph g in
      let c2 = Components.of_adjacency (U.adjacency_arrays g) in
      c1.Components.count = c2.Components.count
      && Components.largest_size c1 = Components.largest_size c2)

let prop_csr_matches_adjacency_arrays =
  Helpers.qtest ~count:100 "CSR snapshot = per-row adjacency arrays"
    Helpers.instance_params (fun (seed, n, p, _) ->
      let rng = Rng.create seed in
      let g = Gen.gnp rng ~n ~p in
      let rows = U.adjacency_arrays g in
      let off, data = U.adjacency_csr g in
      Array.length off = n + 1
      && off.(n) = Array.length data
      && begin
           let ok = ref true in
           Array.iteri
             (fun v row ->
               if Array.sub data off.(v) (off.(v + 1) - off.(v)) <> row then ok := false)
             rows;
           !ok
         end)

let suite =
  [
    Alcotest.test_case "union-find basics" `Quick test_union_find_basic;
    Alcotest.test_case "add/remove edges" `Quick test_add_remove_edges;
    Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "isolate removes incident edges" `Quick test_isolate;
    Alcotest.test_case "builders" `Quick test_builders;
    Alcotest.test_case "sorted neighbours / adjacency arrays" `Quick test_sorted_neighbors_and_arrays;
    prop_csr_matches_adjacency_arrays;
    Alcotest.test_case "G(n,p) edge-count concentration" `Slow test_gnp_edge_count;
    Alcotest.test_case "G(n,p) extremes" `Quick test_gnp_extremes;
    Alcotest.test_case "G(n,p) symmetry, no self-loops" `Quick test_gnp_symmetry_no_selfloop;
    Alcotest.test_case "G(n,d) mean degree" `Slow test_gnd_mean_degree;
    Alcotest.test_case "gnp_adjacency invariants" `Quick test_gnp_adjacency_agrees;
    Alcotest.test_case "attach_fresh_vertex" `Quick test_attach_fresh_vertex;
    Alcotest.test_case "connected components" `Quick test_components;
    Alcotest.test_case "is_connected" `Quick test_components_connected;
    Alcotest.test_case "BFS distances" `Quick test_bfs;
    Alcotest.test_case "diameter estimates" `Quick test_diameter;
    Alcotest.test_case "structural metrics" `Quick test_metrics;
    Alcotest.test_case "label assortativity" `Quick test_assortativity;
    prop_gnp_rows_symmetric;
  ]

(* ------------------------------------------------------------------ *)
(* Spatial generators                                                  *)

module Spatial = Stratify_graph.Spatial

let test_positions_and_distance () =
  let rng = Rng.create 31 in
  let pos = Spatial.random_positions rng ~n:50 in
  Array.iter
    (fun (x, y) ->
      Alcotest.(check bool) "in unit square" true (x >= 0. && x < 1. && y >= 0. && y < 1.))
    pos;
  Helpers.check_close "self distance" 0. (Spatial.distance pos 3 3);
  Helpers.check_close "symmetric" (Spatial.distance pos 1 2) (Spatial.distance pos 2 1);
  Alcotest.(check bool) "torus <= plane" true
    (Spatial.toroidal_distance pos 1 2 <= Spatial.distance pos 1 2 +. 1e-12);
  Alcotest.(check bool) "torus bounded" true
    (Spatial.toroidal_distance pos 4 5 <= sqrt 0.5 +. 1e-12)

let test_random_geometric () =
  let rng = Rng.create 32 in
  let g, pos = Spatial.random_geometric rng ~n:100 ~radius:0.2 () in
  (* Every edge within the radius, every close pair connected. *)
  U.iter_edges
    (fun u v ->
      Alcotest.(check bool) "edge within radius" true (Spatial.distance pos u v <= 0.2))
    g;
  for u = 0 to 99 do
    for v = u + 1 to 99 do
      if Spatial.distance pos u v <= 0.2 then
        Alcotest.(check bool) "close pair connected" true (U.mem_edge g u v)
    done
  done

let test_random_geometric_torus_denser () =
  let rng = Rng.create 33 in
  let g_plane, _ = Spatial.random_geometric rng ~n:200 ~radius:0.15 () in
  let rng2 = Rng.create 33 in
  let g_torus, _ = Spatial.random_geometric rng2 ~n:200 ~radius:0.15 ~torus:true () in
  (* Same positions (same seed), wrapping can only add edges. *)
  Alcotest.(check bool) "torus adds edges" true
    (U.edge_count g_torus >= U.edge_count g_plane)

let test_watts_strogatz_lattice () =
  let rng = Rng.create 34 in
  let g = Spatial.watts_strogatz rng ~n:40 ~k:4 ~beta:0. in
  Alcotest.(check int) "lattice edges" 80 (U.edge_count g);
  for v = 0 to 39 do
    Alcotest.(check int) "degree k" 4 (U.degree g v)
  done;
  (* beta = 0 keeps the high-clustering ring lattice. *)
  Alcotest.(check bool) "clustered" true (Metrics.clustering_coefficient g > 0.4)

let test_watts_strogatz_small_world () =
  let rng = Rng.create 35 in
  let lattice = Spatial.watts_strogatz rng ~n:200 ~k:6 ~beta:0. in
  let rewired = Spatial.watts_strogatz rng ~n:200 ~k:6 ~beta:0.2 in
  (* A few shortcuts collapse the diameter while edges stay ~constant. *)
  Alcotest.(check bool) "diameter shrinks" true
    (Traversal.diameter_estimate rewired < Traversal.diameter_estimate lattice);
  Alcotest.(check bool) "edge count preserved" true
    (abs (U.edge_count rewired - U.edge_count lattice) <= 0)

let test_watts_strogatz_guards () =
  let rng = Rng.create 36 in
  Alcotest.check_raises "odd k"
    (Invalid_argument "Spatial.watts_strogatz: k must be even and >= 2") (fun () ->
      ignore (Spatial.watts_strogatz rng ~n:10 ~k:3 ~beta:0.1));
  Alcotest.check_raises "k too big" (Invalid_argument "Spatial.watts_strogatz: need k < n")
    (fun () -> ignore (Spatial.watts_strogatz rng ~n:4 ~k:4 ~beta:0.1))

let spatial_suite =
  [
    Alcotest.test_case "positions and distances" `Quick test_positions_and_distance;
    Alcotest.test_case "random geometric graph" `Quick test_random_geometric;
    Alcotest.test_case "toroidal geometric graph" `Quick test_random_geometric_torus_denser;
    Alcotest.test_case "watts-strogatz lattice" `Quick test_watts_strogatz_lattice;
    Alcotest.test_case "watts-strogatz small world" `Quick test_watts_strogatz_small_world;
    Alcotest.test_case "watts-strogatz guards" `Quick test_watts_strogatz_guards;
  ]

let suite = suite @ spatial_suite
