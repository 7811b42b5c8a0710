(** Multi-mote network simulation: many simulated motes — each running
    its own SenSmart kernel — advance in lockstep quanta, and radio
    bytes are carried between linked neighbours with a per-byte latency
    and reproducible (LFSR-driven, bias-corrected) loss.  Broadcast
    semantics; collisions are not modeled.

    The run loop is event-driven: each unfinished mote owns one entry
    in a min-heap keyed by its next-execution cycle, rounds step only
    the motes due below the lockstep horizon, and the horizon jumps
    over fully-idle spans — byte-identical to stepping every mote every
    quantum, at O(active motes) per round.  Motes booted from the same
    image list share one copy-on-write flash image with its decode
    cache and tier-1 block table ({!Kernel.template}), so fleet boot
    and compile cost is per-program, not per-mote.

    Stepping can be parallelized over OCaml domains ({!run}'s
    [?domains]); motes only interact through the coordinator's byte
    exchange between rounds, and per-mote trace sinks are merged in
    node-id order, so a run is byte-for-byte identical at any domain
    count (see DESIGN.md, "Fleet-scale stepping & shared flash"). *)

module Topology : module type of Topology

type node = {
  id : int;
  kernel : Kernel.t;
  sink : Trace.t;
      (** this mote's private event sink; drained into the network's
          master trace in node-id order once per round *)
  mutable neighbours : int list;
  mutable finished : bool;
}

(** Buckets in {!t.streaks}: runs of 1, 2, ..., [streak_buckets - 1]
    consecutive losses, with the last bucket counting longer runs. *)
val streak_buckets : int

type t = {
  nodes : node array;
  quantum : int;
  latency : int;
  loss_permille : int;
  mutable loss_state : int;
  mutable routed : int;  (** delivered bytes *)
  mutable dropped : int;  (** lost bytes (loss draws + dead destinations) *)
  mutable quanta : int;  (** lockstep horizon position, in quanta *)
  mutable streak : int;  (** current (open) consecutive-loss run length *)
  streaks : int array;
      (** closed consecutive-loss runs bucketed 1..{!streak_buckets}
          (last bucket = that length or more); global across links,
          since the loss LFSR is one global sequence *)
  trace : Trace.t;
      (** master sink: every mote's merged events plus the routing
          events ([Routed]/[Dropped]) *)
}

(** Boot one mote per element; each element lists the mote's
    application images.  Motes whose image lists are element-wise
    physically equal share one prepared {!Kernel.template} and hence
    one copy-on-write flash image and its caches.  Every kernel records into a private
    per-mote sink of [sink_capacity] events (default
    {!Trace.default_capacity}; large fleets should pass a small ring to
    bound memory), merged into the master [trace] ([~trace] to supply
    your own) in node-id order; events carry the emitting mote's id. *)
val create :
  ?quantum:int ->
  ?latency:int ->
  ?loss_permille:int ->
  ?config:Kernel.config ->
  ?trace:Trace.t ->
  ?sink_capacity:int ->
  Asm.Image.t list list ->
  t

(** Declare a bidirectional link between two motes. *)
val link : t -> int -> int -> unit

(** Link the motes into a chain 0-1-2-... *)
val chain : t -> unit

(** Apply a {!Topology} edge list as bidirectional links. *)
val link_all : t -> Topology.edge list -> unit

(** Run until every mote's tasks exit or the lockstep horizon reaches
    [max_cycles]; returns how many motes are still running.
    [max_cycles] is an {e absolute} horizon on the lockstep clock — on
    a resumed or snapshot-restored network it is compared against the
    already-elapsed [t.quanta * t.quantum], not treated as a fresh
    budget.

    [domains] (default 1) steps the motes due each round (mote [i] on
    domain [i mod domains]) in parallel; exchange, loss, and trace
    merging stay on the calling domain, so counters, events, and
    machine state are byte-identical at any domain count.

    [tier], when given, stores a new execution-tier ceiling on every
    mote first (as {!Machine.Cpu.run}); motes booted from one shared
    template image share one tier-2 compilation, so a 10 k-mote fleet
    pays the toolchain once per distinct program.

    The lockstep position derives from [t.quanta], so calling [run]
    again — including on a network restored from a [Snapshot] — resumes
    the exact horizon sequence of an uninterrupted run.

    [checkpoint_every] (cycles) invokes [on_checkpoint c t] between
    rounds once per multiple [c] of it crossed by the lockstep horizon
    — several times per round when [checkpoint_every] is smaller than a
    quantum or an idle jump crosses several multiples.  The network is
    coordinator-consistent at that point (sinks drained, bytes
    exchanged) at the current horizon, which is [>= c]. *)
val run :
  ?max_cycles:int ->
  ?domains:int ->
  ?tier:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(int -> t -> unit) ->
  t ->
  int

(** Node by id; raises [Invalid_argument] when out of range. *)
val node : t -> int -> node

(** Bytes a mote has received but not yet consumed. *)
val pending_rx : t -> int -> int

(** Publish [net.routed]/[net.dropped]/[net.quanta] and the
    consecutive-loss histogram ([net.loss_streak_<k>]) plus every
    mote's kernel counters (prefixed ["mote<i>."]) into the master
    registry.  O(motes) counter keys — large fleets should aggregate
    themselves instead. *)
val publish_counters : t -> unit
