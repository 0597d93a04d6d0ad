(** Gossip-based peer sampling (Jelasity, Guerraoui & Kermarrec —
    reference [8] of the paper).

    The paper notes its framework "also fits gossip-based protocols used
    by a peer to discover its rank": in a deployed system the acceptance
    list is not a static random graph but a continuously refreshed {e
    view} maintained by gossip.  This module implements the classic
    view-exchange service — every round each peer swaps half of its view
    with a random view member and keeps the freshest entries — and
    exposes the induced (symmetrised) acceptance graph so the initiative
    dynamics can run on top of it. *)

type t

val create : Stratify_prng.Rng.t -> n:int -> view_size:int -> t
(** Initial views: each peer's view holds [view_size] uniform random peers. *)

val n : t -> int
val view_size : t -> int

val view : t -> int -> int array
(** Current view of a peer (distinct peers, no self). *)

val round : t -> unit
(** One gossip round: every peer (in random order) exchanges half of its
    view, including its own address, with a uniformly chosen view member;
    both keep a fresh random subset of the union, deduplicated, capped at
    [view_size]. *)

val acceptance_graph : t -> Stratify_graph.Undirected.t
(** The symmetrised knows-relation: an edge whenever either peer has the
    other in view. *)

val view_coverage : t -> float
(** Fraction of ordered peer pairs (p, q) with [q] in [p]'s view —
    [view_size/(n-1)] when views stay full. *)

val indegree_stddev : t -> float
(** Standard deviation of the in-view count across peers — the classic
    load-balance diagnostic of a peer-sampling service (gossip keeps it
    low; a star topology makes it explode). *)

(** Decentralised rank discovery — the use the paper cites gossip for
    ("gossip-based protocols used by a peer to discover its rank"). *)
module Rank_estimator : sig
  type estimator

  val create : n:int -> estimator

  val observe : estimator -> t -> scores:float array -> unit
  (** After a gossip round, every peer compares its score against its
      current view and accumulates the better-than-me fraction. *)

  val estimated_rank : estimator -> int -> float
  (** Peer's running rank estimate, in [0, n-1] (smaller = better). *)

  val mean_absolute_error : estimator -> scores:float array -> float
  (** Mean |estimated − true| rank over all peers. *)
end
