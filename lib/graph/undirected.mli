(** Mutable undirected simple graphs over a fixed vertex universe [0..n-1].

    This is the acceptance-graph / collaboration-graph representation used
    throughout the library.  Vertices are peer ranks (0 = best peer); the
    structure supports edge insertion and deletion plus vertex isolation so
    that churn (peer departure/arrival, §3 of the paper) can be simulated in
    place. *)

type t

val create : int -> t
(** [create n] is the empty graph on vertices [0 .. n-1]. *)

val vertex_count : t -> int
(** Size of the vertex universe (including isolated vertices). *)

val edge_count : t -> int
(** Number of edges currently present. *)

val add_edge : t -> int -> int -> bool
(** [add_edge g u v] inserts the edge [{u,v}]; returns [false] if it was
    already present.  Self-loops are rejected with [Invalid_argument]. *)

val remove_edge : t -> int -> int -> bool
(** [remove_edge g u v] deletes the edge; returns [false] if absent. *)

val mem_edge : t -> int -> int -> bool
(** Edge membership test, O(min degree). *)

val degree : t -> int -> int
(** Number of neighbours of a vertex. *)

val neighbors : t -> int -> int list
(** Neighbours in unspecified order. *)

val sorted_neighbors : t -> int -> int list
(** Neighbours in increasing vertex order (best peer first under the
    rank-as-label convention). *)

val isolate : t -> int -> unit
(** [isolate g v] removes every edge incident to [v] (peer departure). *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Iterate each edge exactly once, with [u < v]. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over each edge exactly once, with [u < v]. *)

val copy : t -> t
(** Deep copy. *)

val adjacency_arrays : t -> int array array
(** Snapshot: for each vertex, its neighbours sorted increasingly.  This is
    the frozen form consumed by the matching algorithms' hot paths. *)

val adjacency_csr : t -> int array * int array
(** Compressed-sparse-row snapshot [(off, data)]: the neighbours of [v]
    are [data.(off.(v)) .. data.(off.(v+1) - 1)], sorted increasingly.
    One flat allocation instead of [n] row arrays — the form
    [Instance.create] freezes acceptance graphs into. *)

