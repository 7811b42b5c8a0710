(* Multi-mote network simulation: the paper's application context is
   "multi-hop networking" on numerous unreliable devices, so this module
   runs many simulated motes — each with its own SenSmart kernel — in
   lockstep and carries radio bytes between them.

   Radio model: transmission is broadcast to all neighbours, with a
   propagation+MAC delay per byte and optional deterministic loss (an
   LFSR keyed by sequence number, so runs are reproducible).  Collisions
   are not modeled; the byte channel of {!Machine.Io} already serializes
   each sender.  Nodes advance in quanta of a few thousand cycles, which
   bounds clock skew between motes to one quantum.

   Fleet scale: the run loop is event-driven.  Each unfinished mote has
   exactly one entry in a binary min-heap keyed by its next-execution
   cycle — its machine clock, since a kernel whose tasks all sleep
   fast-forwards its clock to the earliest wake-up before returning.
   Each round pops every mote due below the next lockstep horizon,
   steps only those, and jumps the horizon straight to the earliest
   pending event when nothing is due in between.  This is byte-identical
   to stepping every mote every quantum because (a) running a kernel
   whose clock is at/past the horizon is a strict no-op, (b) an RX byte
   is timestamped [dest.cycles + latency], so it can never wake a mote
   earlier than its already-fast-forwarded clock, and (c) only motes
   that executed this round can have queued TX bytes or fresh trace
   events, and empty exchanges draw nothing from the loss LFSR.  Motes
   of identical program lists share one {!Kernel.template} — and hence
   one copy-on-write flash image with its decode cache and tier-1 block
   table — so booting a 10k-mote fleet of one program costs one 64
   K-word array instead of 10 000, and the fleet compiles each block
   once.

   Parallelism: motes only interact through the coordinator's exchange
   between rounds, so the per-round stepping is embarrassingly parallel.
   [run ~domains:n] partitions the due motes over [n] domains (mote [i]
   belongs to domain [i mod n]) backed by a hand-rolled fork-join pool;
   byte exchange, the loss LFSR, and trace merging stay on the
   coordinator, and each mote records events into a private sink that is
   drained into the master trace in node-id order once per round.  The
   merge path is identical for [domains = 1], so runs are bit-for-bit
   reproducible at any domain count.  Domains do share one mutable
   thing: the caches of a shared flash image, which they fill without
   locks.  Those races are benign (see {!Machine.Cpu.image}): a lost
   write costs a recompile, never simulated state. *)

type node = {
  id : int;
  kernel : Kernel.t;
  sink : Trace.t;  (** private event sink, merged per round *)
  mutable neighbours : int list;
  mutable finished : bool;
}

(* Consecutive-loss streak histogram buckets: 1, 2, ..., 7, >= 8. *)
let streak_buckets = 8

type t = {
  nodes : node array;
  quantum : int;  (** lockstep cycle quantum *)
  latency : int;  (** cycles from transmit to neighbour reception *)
  loss_permille : int;  (** per-byte drop rate, 0..1000 *)
  mutable loss_state : int;  (** LFSR for reproducible losses *)
  mutable routed : int;  (** delivered byte count *)
  mutable dropped : int;
  mutable quanta : int;  (** lockstep rounds' horizon, in quanta *)
  mutable streak : int;  (** current consecutive-loss run length *)
  streaks : int array;
      (** closed consecutive-loss runs, bucketed 1..[streak_buckets]
          (last bucket counts runs of [streak_buckets] or more) *)
  trace : Trace.t;  (** master sink: merged mote events + routing *)
}

(* Merge every mote's private sink into the master trace, in node-id
   order.  Coordinator-only — this fixed order is what makes the event
   stream independent of how motes are scheduled across domains. *)
let drain_sinks t =
  Array.iter (fun n -> Trace.transfer ~into:t.trace n.sink) t.nodes

(** [create ~images ...] boots one kernel per element of [images] (each
    a list of application images for that mote).  Motes with the same
    image list (element-wise physical equality) share one prepared
    {!Kernel.template}, so their flash is one copy-on-write image —
    words, decode cache and block table — instead of a private 64
    K-word copy each.  Every kernel records into
    a private per-mote sink of [sink_capacity] events (default
    {!Trace.default_capacity}; fleets use a small ring to bound memory);
    sinks are merged into the shared [trace] in node-id order, and
    events carry the mote id. *)
let create ?(quantum = 5_000) ?(latency = 2_000) ?(loss_permille = 0)
    ?config ?trace ?sink_capacity (images : Asm.Image.t list list) : t =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let templates = ref [] in
  let same_images a b =
    List.compare_lengths a b = 0 && List.for_all2 ( == ) a b
  in
  let template_for imgs =
    match List.find_opt (fun (l, _) -> same_images l imgs) !templates with
    | Some (_, tpl) -> tpl
    | None ->
      let tpl = Kernel.prepare ?config imgs in
      templates := (imgs, tpl) :: !templates;
      tpl
  in
  let nodes =
    Array.of_list
      (List.mapi
         (fun id imgs ->
           let sink = Trace.create ?capacity:sink_capacity () in
           { id;
             kernel = Kernel.boot_from ~trace:sink ~mote:id (template_for imgs);
             sink; neighbours = []; finished = false })
         images)
  in
  let t =
    { nodes; quantum; latency; loss_permille; loss_state = 0xACE1;
      routed = 0; dropped = 0; quanta = 0; streak = 0;
      streaks = Array.make streak_buckets 0; trace }
  in
  drain_sinks t;  (* boot-time events (task spawns) *)
  t

(** Declare a bidirectional link. *)
let link t a b =
  let add n m =
    if not (List.mem m n.neighbours) then n.neighbours <- m :: n.neighbours
  in
  add t.nodes.(a) b;
  add t.nodes.(b) a

let chain t =
  for i = 0 to Array.length t.nodes - 2 do
    link t i (i + 1)
  done

(** Apply an edge list (e.g. from {!Topology}) as bidirectional links. *)
let link_all t edges = List.iter (fun (a, b) -> link t a b) edges

let lfsr_step x =
  let x' = x lsr 1 in
  if x land 1 = 1 then x' lxor 0xB400 else x'

(* One unbiased permille draw.  The 16-bit Fibonacci LFSR emits every
   value in 1..65535 once per period; [v mod 1000] over that range is
   biased (values 0..534 appear 66 times per period, 535..999 only 65).
   Rejecting the top 535 states maps the draw onto 0..64999, where every
   residue class mod 1000 has exactly 65 members — the effective drop
   rate is exactly [loss_permille]/1000 over the LFSR period. *)
let rec loss_draw t =
  t.loss_state <- lfsr_step t.loss_state;
  let v = t.loss_state - 1 in
  if v < 65_000 then v mod 1000 else loss_draw t

let lose t = loss_draw t < t.loss_permille

(* Record the end of a consecutive-loss run (a byte was delivered after
   [t.streak] drops).  The histogram is global across links: the LFSR
   itself is one global sequence, so per-link attribution would not be
   meaningful anyway. *)
let close_streak t =
  if t.streak > 0 then begin
    let bucket = min t.streak streak_buckets in
    t.streaks.(bucket - 1) <- t.streaks.(bucket - 1) + 1;
    t.streak <- 0
  end

(* Route bytes one mote transmitted since its last exchange to all its
   neighbours.  The TX FIFO is drained as it is read, so an exchange
   costs O(bytes transmitted this round) and the queue never grows
   across rounds.  Coordinator-only: this is the single point where
   motes interact, and it keeps the loss LFSR sequential regardless of
   the domain count.

   A finished or crashed destination never receives: the byte is counted
   in [dropped] (with a [Dropped] event) *without* consuming a loss
   draw, so the loss sequence seen by live links is independent of when
   other motes die. *)
let exchange_node t n =
  let io = n.kernel.m.io in
  let at = n.kernel.m.cycles in
  while not (Queue.is_empty io.radio_tx) do
    let b = Queue.pop io.radio_tx in
    List.iter
      (fun peer ->
        let dst = t.nodes.(peer) in
        if dst.finished || dst.kernel.m.halted <> None then begin
          t.dropped <- t.dropped + 1;
          Trace.emit t.trace ~mote:n.id ~at
            (Trace.Dropped { src = n.id; dst = peer; byte = b })
        end
        else if lose t then begin
          t.streak <- t.streak + 1;
          t.dropped <- t.dropped + 1;
          Trace.emit t.trace ~mote:n.id ~at
            (Trace.Dropped { src = n.id; dst = peer; byte = b })
        end
        else begin
          close_streak t;
          let m = dst.kernel.m in
          Machine.Io.inject_rx m.io ~cycles:m.cycles ~after:t.latency b;
          t.routed <- t.routed + 1;
          Trace.emit t.trace ~mote:n.id ~at
            (Trace.Routed { src = n.id; dst = peer; byte = b })
        end)
      n.neighbours
  done

(* Advance one mote to the lockstep horizon.  Safe to call from a worker
   domain: a kernel only touches its own machine, its own sink, and the
   node's [finished] flag, and the coordinator reads them back strictly
   after the fork-join barrier. *)
let step_node horizon n =
  if not n.finished then
    match Kernel.run ~max_cycles:horizon n.kernel with
    | Machine.Cpu.Out_of_fuel -> ()
    | Machine.Cpu.Halted _ -> n.finished <- true
    | Machine.Cpu.Sleeping | Machine.Cpu.Preempted -> ()

(* Hand-rolled fork-join pool over raw [Domain.spawn] (the container has
   no domainslib).  [round p job] runs [job w] for every worker index
   [w] in [0 .. n]; index 0 executes on the calling (coordinator) domain
   and [1 .. n] on the spawned domains.  The mutex acquire/release pairs
   around each round give the coordinator a happens-before edge over
   every worker's writes, so plain mutable fields (machine state, the
   [finished] flags, the per-mote sinks) need no atomics. *)
module Pool = struct
  type t = {
    mutex : Mutex.t;
    ready : Condition.t;
    finished : Condition.t;
    mutable epoch : int;  (* bumped to release workers into a round *)
    mutable remaining : int;  (* workers still inside the current round *)
    mutable job : int -> unit;
    mutable stop : bool;
    mutable workers : unit Domain.t array;
  }

  let worker p w =
    let last = ref 0 in
    let rec loop () =
      Mutex.lock p.mutex;
      while (not p.stop) && p.epoch = !last do
        Condition.wait p.ready p.mutex
      done;
      if p.stop then Mutex.unlock p.mutex
      else begin
        last := p.epoch;
        let job = p.job in
        Mutex.unlock p.mutex;
        job w;
        Mutex.lock p.mutex;
        p.remaining <- p.remaining - 1;
        if p.remaining = 0 then Condition.signal p.finished;
        Mutex.unlock p.mutex;
        loop ()
      end
    in
    loop ()

  let create n =
    let p =
      { mutex = Mutex.create (); ready = Condition.create ();
        finished = Condition.create (); epoch = 0; remaining = 0;
        job = ignore; stop = false; workers = [||] }
    in
    p.workers <-
      Array.init n (fun w -> Domain.spawn (fun () -> worker p (w + 1)));
    p

  let round p job =
    Mutex.lock p.mutex;
    p.job <- job;
    p.remaining <- Array.length p.workers;
    p.epoch <- p.epoch + 1;
    Condition.broadcast p.ready;
    Mutex.unlock p.mutex;
    job 0;
    Mutex.lock p.mutex;
    while p.remaining > 0 do
      Condition.wait p.finished p.mutex
    done;
    Mutex.unlock p.mutex

  let shutdown p =
    Mutex.lock p.mutex;
    p.stop <- true;
    Condition.broadcast p.ready;
    Mutex.unlock p.mutex;
    Array.iter Domain.join p.workers
end

(** Run the whole network until every node's tasks exit or the lockstep
    horizon reaches [max_cycles].  Returns the number of nodes still
    running.  [max_cycles] is an {e absolute} horizon on the network's
    lockstep clock: on a resumed or restored network it is compared
    against the already-elapsed [t.quanta * t.quantum], not treated as
    an additional budget, so running to 2 M cycles, snapshotting, and
    resuming with [~max_cycles:3_000_000] runs one more million.

    [domains] (default 1) steps the motes due each round on that many
    OCaml domains; results are byte-identical at any count.

    The scheduler is event-driven: only motes whose clock lies below the
    round's horizon execute, and the horizon jumps over spans where
    every mote sleeps — behaviourally identical to quantum-by-quantum
    lockstep (see the module preamble), but a 10k-mote fleet costs
    O(active motes) per round, not O(N).

    [checkpoint_every] (cycles) calls [on_checkpoint c t] between rounds
    once for every multiple [c] of it that the lockstep horizon crossed
    — including several per round when [checkpoint_every < quantum], or
    when an idle jump crosses several multiples at once.  The state
    handed to the callback is coordinator-consistent (sinks drained,
    bytes exchanged) at the *current* horizon, which is [>= c]. *)
let run ?(max_cycles = 50_000_000) ?(domains = 1) ?tier ?checkpoint_every
    ?(on_checkpoint = fun _ _ -> ()) (t : t) : int =
  let nnodes = Array.length t.nodes in
  let d = max 1 (min domains nnodes) in
  (* A new tier ceiling applies to every mote; motes sharing one
     template image share one tier-2 artifact (content addressing). *)
  (match tier with
   | Some tr -> Array.iter (fun n -> n.kernel.m.tier <- tr) t.nodes
   | None -> ());
  (* Pick up events logged into per-mote sinks outside [run] (e.g. a
     fault engine crashing a node between segments). *)
  drain_sinks t;
  (* The event queue: a binary min-heap over (next-execution cycle,
     node id), one entry per unfinished mote. *)
  let cap = max 1 nnodes in
  let hcyc = Array.make cap 0 in
  let hid = Array.make cap 0 in
  let hn = ref 0 in
  let swap i j =
    let c = hcyc.(i) and n = hid.(i) in
    hcyc.(i) <- hcyc.(j); hid.(i) <- hid.(j);
    hcyc.(j) <- c; hid.(j) <- n
  in
  let push cyc id =
    let i = ref !hn in
    hcyc.(!i) <- cyc;
    hid.(!i) <- id;
    incr hn;
    while !i > 0 && hcyc.((!i - 1) / 2) > hcyc.(!i) do
      swap ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let id = hid.(0) in
    decr hn;
    hcyc.(0) <- hcyc.(!hn);
    hid.(0) <- hid.(!hn);
    let i = ref 0 in
    let down = ref true in
    while !down do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < !hn && hcyc.(l) < hcyc.(!s) then s := l;
      if r < !hn && hcyc.(r) < hcyc.(!s) then s := r;
      if !s = !i then down := false
      else begin
        swap !i !s;
        i := !s
      end
    done;
    id
  in
  (* A crashed-but-unretired mote (fault injection between runs) must be
     stepped at the very next round regardless of its possibly
     fast-forwarded clock — stepping it is free and retires it, exactly
     when quantum-by-quantum stepping would have. *)
  let entry_cycle n =
    if n.kernel.m.halted <> None then 0 else n.kernel.m.cycles
  in
  Array.iter (fun n -> if not n.finished then push (entry_cycle n) n.id) t.nodes;
  let due = Array.make cap 0 in
  (* First quanta count at which the horizon reaches [max_cycles]. *)
  let q_cap =
    if max_cycles <= 0 then 0 else (max_cycles + t.quantum - 1) / t.quantum
  in
  let rounds step_due =
    while !hn > 0 && t.quanta < q_cap do
      (* Jump to the first quantum boundary past the earliest event (at
         least one quantum ahead; never past the cycle budget). *)
      let q1 = min q_cap (max (t.quanta + 1) ((hcyc.(0) / t.quantum) + 1)) in
      let h_prev = t.quanta * t.quantum in
      t.quanta <- q1;
      let horizon = q1 * t.quantum in
      let n_due = ref 0 in
      while !hn > 0 && hcyc.(0) < horizon do
        due.(!n_due) <- pop ();
        incr n_due
      done;
      let ids = Array.sub due 0 !n_due in
      Array.sort compare ids;
      step_due ids horizon;
      Array.iter
        (fun id ->
          let n = t.nodes.(id) in
          if not n.finished then push (entry_cycle n) n.id)
        ids;
      (* Only stepped motes can have fresh events or TX bytes; draining
         and exchanging them in id order equals the full id-order scan
         with the idle (empty) motes skipped. *)
      Array.iter (fun id -> Trace.transfer ~into:t.trace t.nodes.(id).sink) ids;
      Array.iter (fun id -> exchange_node t t.nodes.(id)) ids;
      (match checkpoint_every with
       | Some every when every > 0 ->
         for k = (h_prev / every) + 1 to horizon / every do
           on_checkpoint (k * every) t
         done
       | Some _ | None -> ())
    done
  in
  (if d = 1 then
     rounds (fun ids h -> Array.iter (fun id -> step_node h t.nodes.(id)) ids)
   else begin
     let pool = Pool.create (d - 1) in
     Fun.protect
       ~finally:(fun () -> Pool.shutdown pool)
       (fun () ->
         rounds (fun ids h ->
             Pool.round pool (fun w ->
                 Array.iter
                   (fun id -> if id mod d = w then step_node h t.nodes.(id))
                   ids)))
   end);
  Array.fold_left (fun a n -> if n.finished then a else a + 1) 0 t.nodes

let node t i = t.nodes.(i)

(** Bytes a node has received and not yet consumed (diagnostics). *)
let pending_rx t i =
  List.length (node t i).kernel.m.io.radio_rx

(** Publish network-level counters plus each mote's kernel counters
    (under a ["mote<i>."] prefix) into the master trace registry.  Each
    kernel publishes into its own sink; the prefixed names are then
    copied across, so the master registry is complete and the copy is
    idempotent.  On a large fleet prefer aggregating yourself: this
    publishes O(motes) counter keys. *)
let publish_counters t =
  Trace.set_counter t.trace "net.routed" t.routed;
  Trace.set_counter t.trace "net.dropped" t.dropped;
  Trace.set_counter t.trace "net.quanta" t.quanta;
  Array.iteri
    (fun i c ->
      Trace.set_counter t.trace
        (Printf.sprintf "net.loss_streak_%d" (i + 1))
        c)
    t.streaks;
  drain_sinks t;
  Array.iter
    (fun n ->
      Kernel.publish_counters ~prefix:(Printf.sprintf "mote%d." n.id) n.kernel;
      List.iter
        (fun (name, v) -> Trace.set_counter t.trace name v)
        (Trace.counters n.sink))
    t.nodes

module Topology = Topology
