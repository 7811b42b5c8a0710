(** Deterministic topology generators for fleet-scale networks.

    Each generator returns a plain edge list — each undirected edge once
    as [(a, b)] with [a < b], in ascending lexicographic order — that
    [Net.link_all] turns into bidirectional links.  Generators are pure
    and seeded: the same parameters always produce the same graph, so
    the fleet determinism contract extends to the topology. *)

type edge = int * int

(** A chain 0-1-2-...-(n-1). *)
val line : int -> edge list

(** A 4-neighbour lattice of [n] nodes, row-major in [cols] columns
    (last row may be ragged).  Raises [Invalid_argument] when
    [cols <= 0]. *)
val grid : cols:int -> int -> edge list

(** [random_geometric ~seed ~radius n] scatters [n] nodes on a
    1000 x 1000 integer square with a seeded LCG and connects every
    pair within Euclidean distance [radius] (same units) — the classic
    unit-disk deployment model.  Deterministic per [seed] (default 1). *)
val random_geometric : ?seed:int -> radius:int -> int -> edge list
