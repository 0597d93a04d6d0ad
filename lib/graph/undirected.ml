type t = { adj : (int, unit) Hashtbl.t array; mutable edges : int }

let create n =
  if n < 0 then invalid_arg "Undirected.create: negative size";
  { adj = Array.init n (fun _ -> Hashtbl.create 8); edges = 0 }

let vertex_count t = Array.length t.adj
let edge_count t = t.edges

let check_vertex t v =
  if v < 0 || v >= vertex_count t then invalid_arg "Undirected: vertex out of range"

let add_edge t u v =
  check_vertex t u;
  check_vertex t v;
  if u = v then invalid_arg "Undirected.add_edge: self-loop";
  if Hashtbl.mem t.adj.(u) v then false
  else begin
    Hashtbl.replace t.adj.(u) v ();
    Hashtbl.replace t.adj.(v) u ();
    t.edges <- t.edges + 1;
    true
  end

let remove_edge t u v =
  check_vertex t u;
  check_vertex t v;
  if Hashtbl.mem t.adj.(u) v then begin
    Hashtbl.remove t.adj.(u) v;
    Hashtbl.remove t.adj.(v) u;
    t.edges <- t.edges - 1;
    true
  end
  else false

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  let du = Hashtbl.length t.adj.(u) and dv = Hashtbl.length t.adj.(v) in
  if du <= dv then Hashtbl.mem t.adj.(u) v else Hashtbl.mem t.adj.(v) u

let degree t v =
  check_vertex t v;
  Hashtbl.length t.adj.(v)

let neighbors t v =
  check_vertex t v;
  Hashtbl.fold (fun w () acc -> w :: acc) t.adj.(v) []

let sorted_neighbors t v = List.sort Int.compare (neighbors t v)

let isolate t v =
  check_vertex t v;
  let ws = neighbors t v in
  List.iter (fun w -> ignore (remove_edge t v w)) ws

let iter_edges f t =
  Array.iteri
    (fun u adjacency -> Hashtbl.iter (fun v () -> if u < v then f u v) adjacency)
    t.adj

let fold_edges f t init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) t;
  !acc

let copy t =
  { adj = Array.map Hashtbl.copy t.adj; edges = t.edges }

let adjacency_arrays t =
  Array.init (vertex_count t) (fun v ->
      let a = Array.of_list (neighbors t v) in
      Array.sort Int.compare a;
      a)

let adjacency_csr t =
  let n = vertex_count t in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Hashtbl.length t.adj.(v)
  done;
  let data = Array.make off.(n) 0 in
  let fill = Array.make n 0 in
  (* One pass per vertex: dump the hash-set neighbours into the segment,
     then sort the segment in place.  No intermediate row arrays. *)
  for v = 0 to n - 1 do
    Hashtbl.iter
      (fun w () ->
        data.(off.(v) + fill.(v)) <- w;
        fill.(v) <- fill.(v) + 1)
      t.adj.(v)
  done;
  for v = 0 to n - 1 do
    let len = off.(v + 1) - off.(v) in
    if len > 1 then begin
      let seg = Array.sub data off.(v) len in
      Array.sort Int.compare seg;
      Array.blit seg 0 data off.(v) len
    end
  done;
  (off, data)
