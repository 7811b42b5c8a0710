(* Deterministic topology generators for fleet-scale networks.

   Each generator returns a plain edge list (pairs of node ids, each
   pair once with [a < b], ascending lexicographic order) that
   [Net.link_all] turns into bidirectional links.  Everything is pure
   and seeded, so a topology is a function of its parameters alone —
   the fleet determinism contract extends to the graph. *)

type edge = int * int

(** A chain 0-1-2-...-(n-1): [n - 1] edges. *)
let line n = List.init (max 0 (n - 1)) (fun i -> (i, i + 1))

(** A 4-neighbour lattice of [n] nodes laid out row-major in [cols]
    columns (the last row may be ragged).  Raises [Invalid_argument]
    when [cols <= 0]. *)
let grid ~cols n =
  if cols <= 0 then invalid_arg "Topology.grid: cols must be positive";
  let edges = ref [] in
  for i = n - 1 downto 0 do
    if i + cols < n then edges := (i, i + cols) :: !edges;
    if (i mod cols) + 1 < cols && i + 1 < n then edges := (i, i + 1) :: !edges
  done;
  !edges

(* A 31-bit linear congruential generator (Numerical Recipes constants,
   truncated): deterministic across OCaml versions and platforms, which
   is all the positions need — statistical quality hardly matters for a
   layout. *)
let lcg_next s = (s * 1103515245 + 12345) land 0x3FFFFFFF

(** [random_geometric ~seed ~radius n] scatters [n] nodes uniformly on a
    1000 x 1000 integer square (positions drawn from a seeded LCG) and
    connects every pair within Euclidean distance [radius] (same units).
    The classic unit-disk model of sensor-network deployments; the same
    [seed] always yields the same graph. *)
let random_geometric ?(seed = 1) ~radius n =
  let s = ref (seed land 0x3FFFFFFF) in
  let coord () =
    s := lcg_next !s;
    (!s lsr 10) mod 1000
  in
  let xs = Array.init n (fun _ -> coord ()) in
  let ys = Array.init n (fun _ -> coord ()) in
  let r2 = radius * radius in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let dx = xs.(i) - xs.(j) and dy = ys.(i) - ys.(j) in
      if (dx * dx) + (dy * dy) <= r2 then acc := (i, j) :: !acc
    done
  done;
  !acc
