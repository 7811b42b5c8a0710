(* Deterministic snapshot & resume for the SenSmart reproduction.

   A snapshot captures the full deterministic state of a run — machine
   (registers, SP/SREG, SRAM, flash, cycle counters, pending I/O and
   timer/ADC latch state), kernel (task table, regions, accounting,
   post-mortem heap snapshots), network (topology, FIFOs, loss LFSR,
   lockstep position) and trace (events, counters, overflow) — into a
   plain-data value that serializes to a versioned, self-describing
   binary file.

   The structural state of a run (program images, kernel config, mote
   count) is NOT captured: a snapshot restores *onto* a host that was
   re-created the same way it was originally built (same images booted,
   same network shape).  {!restore_kernel}/{!restore_net} verify the
   obvious structural facts (task ids, node count, lockstep parameters)
   and raise {!Incompatible} with an actionable message otherwise; the
   snapshot does carry the program names ({!programs}) so a driver can
   re-create the host from the registry.

   The determinism contract (tested by test/test_snapshot.ml): capture
   at cycle c, restore, run to cycle d  ==  run uninterrupted to d —
   byte-identical counters, events and machine state, in both execution
   tiers and at any domain count.  Restoring flash routes through
   {!Machine.Cpu.adopt_flash}, which swaps in a fresh image with empty
   caches — stale closures compiled against the old image are rebuilt,
   never leaked.  {!restore_net} gives every mote restored from one
   flash array one image, re-establishing copy-on-write sharing of the
   words and of the caches, so a restored fleet compiles each block
   once. *)

exception Incompatible of string

let incompatible fmt = Printf.ksprintf (fun s -> raise (Incompatible s)) fmt

(* Version 2 (PR 6): network payloads store each distinct flash image
   once in a content-addressed "flash" section and per-mote indices into
   it, so a 10k-mote fleet of one program serializes one 64 K-word image
   instead of 10 000; the net record also carries the consecutive-loss
   histogram.  Version-1 files are refused (documented break). *)
let format_version = 2
let magic = "SENSNAP0"

(* --- captured-state records (plain data, no closures) -------------------- *)

type io = {
  adc_enabled : bool;
  adc_start : int option;
  adc_value : int;
  adc_seq : int;
  tov0_epoch : int;
  radio_busy_until : int;
  radio_tx : int list;  (* front of the FIFO first *)
  radio_rx : (int * int) list;
  radio_tx_count : int;
  temp : int;
}

type machine = {
  flash : int array;
  sram : Bytes.t;
  regs : int array;
  pc : int;
  sp : int;
  sreg : int;
  cycles : int;
  idle_cycles : int;
  insns : int;
  mem_reads : int;
  mem_writes : int;
  io_reads : int;
  io_writes : int;
  halted : Machine.Cpu.halt option;
  sleeping : bool;
  preempt_at : int;
  io : io;
}

type task_status = S_ready | S_sleeping of int | S_exited of string

type task = {
  t_id : int;
  t_name : string;
  t_status : task_status;
  t_p_l : int;
  t_p_h : int;
  t_p_u : int;
  t_sp : int;
  t_activations : int;
  t_grow_events : int;
  t_min_headroom : int;
  t_heap_snapshot : Bytes.t option;
  t_cycles_used : int;
  t_insns_used : int;
  t_mark_cycles : int;
  t_mark_insns : int;
}

type kstats = {
  s_traps : int;
  s_context_switches : int;
  s_relocations : int;
  s_relocated_bytes : int;
  s_grow_requests : int;
  s_translations : int;
  s_init_cycles : int;
  s_preempt_delay_total : int;
  s_preempt_delay_max : int;
  s_preempt_switches : int;
}

type kernel = {
  k_machine : machine;
  k_tasks : task list;  (* in the kernel's task-list order *)
  k_current : int option;
  k_slice_start : int;
  k_next_flash : int;
  k_stats : kstats;
}

type nnode = {
  n_id : int;
  n_kernel : kernel;
  n_sink : Trace.dump;
  n_neighbours : int list;
  n_finished : bool;
}

type net = {
  net_quantum : int;
  net_latency : int;
  net_loss_permille : int;
  net_nodes : nnode list;
  net_loss_state : int;
  net_routed : int;
  net_dropped : int;
  net_quanta : int;
  net_streak : int;
  net_streaks : int array;
  net_trace : Trace.dump;
}

type payload =
  | P_machine of machine
  | P_kernel of kernel * Trace.dump
  | P_net of net

type t = { at : int; programs : string list; payload : payload }

let at s = s.at
let programs s = s.programs

let kind_name s =
  match s.payload with
  | P_machine _ -> "machine"
  | P_kernel _ -> "kernel"
  | P_net _ -> "net"

let describe s =
  let extra =
    match s.payload with
    | P_machine _ -> ""
    | P_kernel (k, _) -> Printf.sprintf ", %d tasks" (List.length k.k_tasks)
    | P_net n -> Printf.sprintf ", %d motes" (List.length n.net_nodes)
  in
  let progs =
    match s.programs with
    | [] -> ""
    | ps -> Printf.sprintf ", programs: %s" (String.concat " " ps)
  in
  Printf.sprintf "%s snapshot at cycle %d%s%s" (kind_name s) s.at extra progs

(* --- capture -------------------------------------------------------------- *)

let capture_io (io : Machine.Io.t) : io =
  { adc_enabled = io.adc_enabled;
    adc_start = io.adc_start;
    adc_value = io.adc_value;
    adc_seq = io.adc_seq;
    tov0_epoch = io.tov0_epoch;
    radio_busy_until = io.radio_busy_until;
    radio_tx = List.rev (Queue.fold (fun acc b -> b :: acc) [] io.radio_tx);
    radio_rx = io.radio_rx;
    radio_tx_count = io.radio_tx_count;
    temp = io.temp }

let capture_machine (m : Machine.Cpu.t) : machine =
  (* A shared template flash is immutable by the copy-on-write contract
     ({!Machine.Cpu.create_shared}), so aliasing it is safe — and it is
     what lets the serializer emit each fleet-shared image once. *)
  { flash = (if m.flash_shared then m.flash else Array.copy m.flash);
    sram = Bytes.copy m.sram;
    regs = Array.copy m.regs;
    pc = m.pc;
    sp = m.sp;
    sreg = m.sreg;
    cycles = m.cycles;
    idle_cycles = m.idle_cycles;
    insns = m.insns;
    mem_reads = m.mem_reads;
    mem_writes = m.mem_writes;
    io_reads = m.io_reads;
    io_writes = m.io_writes;
    halted = m.halted;
    sleeping = m.sleeping;
    preempt_at = m.preempt_at;
    io = capture_io m.io }

let capture_task (t : Kernel.Task.t) : task =
  { t_id = t.id;
    t_name = t.name;
    t_status =
      (match t.status with
       | Ready -> S_ready
       | Sleeping w -> S_sleeping w
       | Exited r -> S_exited r);
    t_p_l = t.region.p_l;
    t_p_h = t.region.p_h;
    t_p_u = t.region.p_u;
    t_sp = t.region.sp;
    t_activations = t.activations;
    t_grow_events = t.grow_events;
    t_min_headroom = t.min_headroom;
    t_heap_snapshot = Option.map Bytes.copy t.heap_snapshot;
    t_cycles_used = t.cycles_used;
    t_insns_used = t.insns_used;
    t_mark_cycles = t.mark_cycles;
    t_mark_insns = t.mark_insns }

let capture_kernel_core (k : Kernel.t) : kernel =
  { k_machine = capture_machine k.m;
    k_tasks = List.map capture_task k.tasks;
    k_current = Option.map (fun (t : Kernel.Task.t) -> t.id) k.current;
    k_slice_start = k.slice_start;
    k_next_flash = k.next_flash;
    k_stats =
      { s_traps = k.stats.traps;
        s_context_switches = k.stats.context_switches;
        s_relocations = k.stats.relocations;
        s_relocated_bytes = k.stats.relocated_bytes;
        s_grow_requests = k.stats.grow_requests;
        s_translations = k.stats.translations;
        s_init_cycles = k.stats.init_cycles;
        s_preempt_delay_total = k.stats.preempt_delay_total;
        s_preempt_delay_max = k.stats.preempt_delay_max;
        s_preempt_switches = k.stats.preempt_switches } }

let of_machine ?(programs = []) (m : Machine.Cpu.t) : t =
  { at = m.cycles; programs; payload = P_machine (capture_machine m) }

let of_kernel ?(programs = []) (k : Kernel.t) : t =
  { at = k.m.cycles;
    programs;
    payload = P_kernel (capture_kernel_core k, Trace.dump k.trace) }

let of_net ?(programs = []) (n : Net.t) : t =
  let nodes =
    Array.to_list n.nodes
    |> List.map (fun (nd : Net.node) ->
           { n_id = nd.id;
             n_kernel = capture_kernel_core nd.kernel;
             n_sink = Trace.dump nd.sink;
             n_neighbours = nd.neighbours;
             n_finished = nd.finished })
  in
  { at = n.quanta * n.quantum;
    programs;
    payload =
      P_net
        { net_quantum = n.quantum;
          net_latency = n.latency;
          net_loss_permille = n.loss_permille;
          net_nodes = nodes;
          net_loss_state = n.loss_state;
          net_routed = n.routed;
          net_dropped = n.dropped;
          net_quanta = n.quanta;
          net_streak = n.streak;
          net_streaks = Array.copy n.streaks;
          net_trace = Trace.dump n.trace } }

(* --- restore -------------------------------------------------------------- *)

let restore_io (s : io) (io : Machine.Io.t) =
  io.adc_enabled <- s.adc_enabled;
  io.adc_start <- s.adc_start;
  io.adc_value <- s.adc_value;
  io.adc_seq <- s.adc_seq;
  io.tov0_epoch <- s.tov0_epoch;
  io.radio_busy_until <- s.radio_busy_until;
  Queue.clear io.radio_tx;
  List.iter (fun b -> Queue.push b io.radio_tx) s.radio_tx;
  io.radio_rx <- s.radio_rx;
  io.radio_tx_count <- s.radio_tx_count;
  io.temp <- s.temp

(* [image_of] turns the snapshot's flash array into the image the machine
   adopts. *)
let restore_machine_state ~image_of (s : machine) (m : Machine.Cpu.t) =
  if Array.length s.flash <> Array.length m.flash then
    incompatible "snapshot flash is %d words, machine has %d"
      (Array.length s.flash) (Array.length m.flash);
  if Bytes.length s.sram <> Bytes.length m.sram then
    incompatible "snapshot data space is %d bytes, machine has %d"
      (Bytes.length s.sram) (Bytes.length m.sram);
  if Array.length s.regs <> 32 then
    incompatible "snapshot register file has %d registers" (Array.length s.regs);
  (* Adopt the snapshot's flash copy-on-write, with fresh caches
     (stale closures are rebuilt, never leaked). *)
  Machine.Cpu.adopt_flash m (image_of s.flash);
  Bytes.blit s.sram 0 m.sram 0 (Bytes.length s.sram);
  Array.blit s.regs 0 m.regs 0 32;
  m.pc <- s.pc;
  m.sp <- s.sp;
  m.sreg <- s.sreg;
  m.cycles <- s.cycles;
  m.idle_cycles <- s.idle_cycles;
  m.insns <- s.insns;
  m.mem_reads <- s.mem_reads;
  m.mem_writes <- s.mem_writes;
  m.io_reads <- s.io_reads;
  m.io_writes <- s.io_writes;
  m.halted <- s.halted;
  m.sleeping <- s.sleeping;
  m.preempt_at <- s.preempt_at;
  restore_io s.io m.io

let restore_machine (s : t) (m : Machine.Cpu.t) =
  match s.payload with
  | P_machine ms -> restore_machine_state ~image_of:Machine.Cpu.image_of ms m
  | P_kernel _ | P_net _ ->
    incompatible "this is a %s snapshot; restore it onto a matching host"
      (kind_name s)

let restore_task (s : task) (t : Kernel.Task.t) =
  if s.t_id <> t.id || s.t_name <> t.name then
    incompatible
      "snapshot task %d is %S, target task %d is %S — boot the same images \
       in the same order"
      s.t_id s.t_name t.id t.name;
  t.status <-
    (match s.t_status with
     | S_ready -> Ready
     | S_sleeping w -> Sleeping w
     | S_exited r -> Exited r);
  t.region.p_l <- s.t_p_l;
  t.region.p_h <- s.t_p_h;
  t.region.p_u <- s.t_p_u;
  t.region.sp <- s.t_sp;
  t.activations <- s.t_activations;
  t.grow_events <- s.t_grow_events;
  t.min_headroom <- s.t_min_headroom;
  t.heap_snapshot <- Option.map Bytes.copy s.t_heap_snapshot;
  t.cycles_used <- s.t_cycles_used;
  t.insns_used <- s.t_insns_used;
  t.mark_cycles <- s.t_mark_cycles;
  t.mark_insns <- s.t_mark_insns

let restore_kernel_core ~image_of (s : kernel) (k : Kernel.t) =
  let snap_n = List.length s.k_tasks and have_n = List.length k.tasks in
  if snap_n <> have_n then
    incompatible
      "snapshot has %d tasks, target kernel has %d — boot the same images \
       (run-time spawns included) before restoring"
      snap_n have_n;
  restore_machine_state ~image_of s.k_machine k.m;
  List.iter2 restore_task s.k_tasks k.tasks;
  k.current <-
    Option.map
      (fun id ->
        match List.find_opt (fun (t : Kernel.Task.t) -> t.id = id) k.tasks with
        | Some t -> t
        | None -> incompatible "snapshot's current task %d not in target" id)
      s.k_current;
  k.slice_start <- s.k_slice_start;
  k.next_flash <- s.k_next_flash;
  k.stats.traps <- s.k_stats.s_traps;
  k.stats.context_switches <- s.k_stats.s_context_switches;
  k.stats.relocations <- s.k_stats.s_relocations;
  k.stats.relocated_bytes <- s.k_stats.s_relocated_bytes;
  k.stats.grow_requests <- s.k_stats.s_grow_requests;
  k.stats.translations <- s.k_stats.s_translations;
  k.stats.init_cycles <- s.k_stats.s_init_cycles;
  k.stats.preempt_delay_total <- s.k_stats.s_preempt_delay_total;
  k.stats.preempt_delay_max <- s.k_stats.s_preempt_delay_max;
  k.stats.preempt_switches <- s.k_stats.s_preempt_switches

let restore_kernel (s : t) (k : Kernel.t) =
  match s.payload with
  | P_kernel (ks, tr) ->
    restore_kernel_core ~image_of:Machine.Cpu.image_of ks k;
    Trace.restore k.trace tr
  | P_machine _ | P_net _ ->
    incompatible "this is a %s snapshot; restore it onto a matching host"
      (kind_name s)

let restore_net (s : t) (n : Net.t) =
  match s.payload with
  | P_machine _ | P_kernel _ ->
    incompatible "this is a %s snapshot; restore it onto a matching host"
      (kind_name s)
  | P_net ns ->
    let snap_n = List.length ns.net_nodes and have_n = Array.length n.nodes in
    if snap_n <> have_n then
      incompatible "snapshot has %d motes, target network has %d" snap_n have_n;
    if ns.net_quantum <> n.quantum || ns.net_latency <> n.latency
       || ns.net_loss_permille <> n.loss_permille
    then
      incompatible
        "lockstep parameters differ (snapshot quantum=%d latency=%d \
         loss=%d‰, target quantum=%d latency=%d loss=%d‰) — re-create the \
         network with the original parameters"
        ns.net_quantum ns.net_latency ns.net_loss_permille n.quantum n.latency
        n.loss_permille;
    (* One image per distinct flash array: motes restored from one
       decoded (or captured-shared) array share its words and caches,
       re-establishing the fleet's structural sharing instead of
       expanding it. *)
    let images = ref [] in
    let image_of flash =
      match List.assq_opt flash !images with
      | Some image -> image
      | None ->
        let image = Machine.Cpu.image_of flash in
        images := (flash, image) :: !images;
        image
    in
    List.iteri
      (fun i (nd : nnode) ->
        let target = n.nodes.(i) in
        if nd.n_id <> target.id then
          incompatible "snapshot node %d has id %d" i nd.n_id;
        restore_kernel_core ~image_of nd.n_kernel target.kernel;
        Trace.restore target.sink nd.n_sink;
        target.neighbours <- nd.n_neighbours;
        target.finished <- nd.n_finished)
      ns.net_nodes;
    n.loss_state <- ns.net_loss_state;
    n.routed <- ns.net_routed;
    n.dropped <- ns.net_dropped;
    n.quanta <- ns.net_quanta;
    n.streak <- ns.net_streak;
    if Array.length ns.net_streaks <> Array.length n.streaks then
      incompatible "snapshot loss-streak histogram has %d buckets, target %d"
        (Array.length ns.net_streaks) (Array.length n.streaks);
    Array.blit ns.net_streaks 0 n.streaks 0 (Array.length n.streaks);
    Trace.restore n.trace ns.net_trace

(* --- serialization -------------------------------------------------------- *)

open Wire

let w_halt b (h : Machine.Cpu.halt) =
  match h with
  | Break_hit -> W.u8 b 0
  | Invalid_opcode (pc, w) -> W.u8 b 1; W.int b pc; W.int b w
  | Fault s -> W.u8 b 2; W.string b s

let r_halt r : Machine.Cpu.halt =
  match R.u8 r with
  | 0 -> Break_hit
  | 1 ->
    let pc = R.int r in
    let w = R.int r in
    Invalid_opcode (pc, w)
  | 2 -> Fault (R.string r)
  | tag -> corrupt "bad halt tag %d" tag

let w_io b (io : io) =
  W.bool b io.adc_enabled;
  W.option b W.int io.adc_start;
  W.int b io.adc_value;
  W.int b io.adc_seq;
  W.int b io.tov0_epoch;
  W.int b io.radio_busy_until;
  W.list b W.int io.radio_tx;
  W.list b (fun b (c, v) -> W.int b c; W.int b v) io.radio_rx;
  W.int b io.radio_tx_count;
  W.int b io.temp

let r_io r : io =
  let adc_enabled = R.bool r in
  let adc_start = R.option r R.int in
  let adc_value = R.int r in
  let adc_seq = R.int r in
  let tov0_epoch = R.int r in
  let radio_busy_until = R.int r in
  let radio_tx = R.list r R.int in
  let radio_rx = R.list r (fun r -> let c = R.int r in let v = R.int r in (c, v)) in
  let radio_tx_count = R.int r in
  let temp = R.int r in
  { adc_enabled; adc_start; adc_value; adc_seq; tov0_epoch; radio_busy_until;
    radio_tx; radio_rx; radio_tx_count; temp }

(* Machine (de)serialization is parameterized over the flash codec:
   standalone payloads embed the image inline ([W.u16_array]), network
   payloads write an index into the snapshot's content-addressed flash
   table so each distinct image is emitted once. *)
let w_machine ?(w_flash = W.u16_array) b (m : machine) =
  w_flash b m.flash;
  W.bytes b m.sram;
  W.int_array b m.regs;
  W.int b m.pc;
  W.int b m.sp;
  W.int b m.sreg;
  W.int b m.cycles;
  W.int b m.idle_cycles;
  W.int b m.insns;
  W.int b m.mem_reads;
  W.int b m.mem_writes;
  W.int b m.io_reads;
  W.int b m.io_writes;
  W.option b w_halt m.halted;
  W.bool b m.sleeping;
  W.int b m.preempt_at;
  w_io b m.io

let r_machine ?(r_flash = R.u16_array) r : machine =
  let flash = r_flash r in
  let sram = R.bytes r in
  let regs = R.int_array r in
  let pc = R.int r in
  let sp = R.int r in
  let sreg = R.int r in
  let cycles = R.int r in
  let idle_cycles = R.int r in
  let insns = R.int r in
  let mem_reads = R.int r in
  let mem_writes = R.int r in
  let io_reads = R.int r in
  let io_writes = R.int r in
  let halted = R.option r r_halt in
  let sleeping = R.bool r in
  let preempt_at = R.int r in
  let io = r_io r in
  { flash; sram; regs; pc; sp; sreg; cycles; idle_cycles; insns; mem_reads;
    mem_writes; io_reads; io_writes; halted; sleeping; preempt_at; io }

let w_task b (t : task) =
  W.int b t.t_id;
  W.string b t.t_name;
  (match t.t_status with
   | S_ready -> W.u8 b 0
   | S_sleeping w -> W.u8 b 1; W.int b w
   | S_exited s -> W.u8 b 2; W.string b s);
  W.int b t.t_p_l;
  W.int b t.t_p_h;
  W.int b t.t_p_u;
  W.int b t.t_sp;
  W.int b t.t_activations;
  W.int b t.t_grow_events;
  W.int b t.t_min_headroom;
  W.option b W.bytes t.t_heap_snapshot;
  W.int b t.t_cycles_used;
  W.int b t.t_insns_used;
  W.int b t.t_mark_cycles;
  W.int b t.t_mark_insns

let r_task r : task =
  let t_id = R.int r in
  let t_name = R.string r in
  let t_status =
    match R.u8 r with
    | 0 -> S_ready
    | 1 -> S_sleeping (R.int r)
    | 2 -> S_exited (R.string r)
    | tag -> corrupt "bad task status tag %d" tag
  in
  let t_p_l = R.int r in
  let t_p_h = R.int r in
  let t_p_u = R.int r in
  let t_sp = R.int r in
  let t_activations = R.int r in
  let t_grow_events = R.int r in
  let t_min_headroom = R.int r in
  let t_heap_snapshot = R.option r R.bytes in
  let t_cycles_used = R.int r in
  let t_insns_used = R.int r in
  let t_mark_cycles = R.int r in
  let t_mark_insns = R.int r in
  { t_id; t_name; t_status; t_p_l; t_p_h; t_p_u; t_sp; t_activations;
    t_grow_events; t_min_headroom; t_heap_snapshot; t_cycles_used;
    t_insns_used; t_mark_cycles; t_mark_insns }

let w_stats b (s : kstats) =
  W.int_array b
    [| s.s_traps; s.s_context_switches; s.s_relocations; s.s_relocated_bytes;
       s.s_grow_requests; s.s_translations; s.s_init_cycles;
       s.s_preempt_delay_total; s.s_preempt_delay_max; s.s_preempt_switches |]

let r_stats r : kstats =
  match R.int_array r with
  | [| s_traps; s_context_switches; s_relocations; s_relocated_bytes;
       s_grow_requests; s_translations; s_init_cycles; s_preempt_delay_total;
       s_preempt_delay_max; s_preempt_switches |] ->
    { s_traps; s_context_switches; s_relocations; s_relocated_bytes;
      s_grow_requests; s_translations; s_init_cycles; s_preempt_delay_total;
      s_preempt_delay_max; s_preempt_switches }
  | a -> corrupt "bad stats block (%d fields)" (Array.length a)

let w_kernel ?w_flash b (k : kernel) =
  w_machine ?w_flash b k.k_machine;
  W.list b w_task k.k_tasks;
  W.option b W.int k.k_current;
  W.int b k.k_slice_start;
  W.int b k.k_next_flash;
  w_stats b k.k_stats

let r_kernel ?r_flash r : kernel =
  let k_machine = r_machine ?r_flash r in
  let k_tasks = R.list r r_task in
  let k_current = R.option r R.int in
  let k_slice_start = R.int r in
  let k_next_flash = R.int r in
  let k_stats = r_stats r in
  { k_machine; k_tasks; k_current; k_slice_start; k_next_flash; k_stats }

(* Trace dumps reuse the JSONL event codec from {!Trace}, so the binary
   format inherits its stability and its parser's error reporting. *)
let w_trace b (d : Trace.dump) =
  W.list b (fun b e -> W.string b (Trace.json_of_event e)) d.d_events;
  W.int b d.d_overflow;
  W.list b (fun b (k, v) -> W.string b k; W.int b v) d.d_counters

let r_trace r : Trace.dump =
  let d_events =
    R.list r (fun r ->
        let line = R.string r in
        match Trace.event_of_json line with
        | Ok e -> e
        | Error msg -> corrupt "bad event %S: %s" line msg)
  in
  let d_overflow = R.int r in
  let d_counters =
    R.list r (fun r ->
        let k = R.string r in
        let v = R.int r in
        (k, v))
  in
  { d_events; d_overflow; d_counters }

let w_nnode ?w_flash b (n : nnode) =
  W.int b n.n_id;
  w_kernel ?w_flash b n.n_kernel;
  w_trace b n.n_sink;
  W.list b W.int n.n_neighbours;
  W.bool b n.n_finished

let r_nnode ?r_flash r : nnode =
  let n_id = R.int r in
  let n_kernel = r_kernel ?r_flash r in
  let n_sink = r_trace r in
  let n_neighbours = R.list r R.int in
  let n_finished = R.bool r in
  { n_id; n_kernel; n_sink; n_neighbours; n_finished }

let w_net ?w_flash b (n : net) =
  W.int b n.net_quantum;
  W.int b n.net_latency;
  W.int b n.net_loss_permille;
  W.list b (w_nnode ?w_flash) n.net_nodes;
  W.int b n.net_loss_state;
  W.int b n.net_routed;
  W.int b n.net_dropped;
  W.int b n.net_quanta;
  W.int b n.net_streak;
  W.int_array b n.net_streaks;
  w_trace b n.net_trace

let r_net ?r_flash r : net =
  let net_quantum = R.int r in
  let net_latency = R.int r in
  let net_loss_permille = R.int r in
  let net_nodes = R.list r (r_nnode ?r_flash) in
  let net_loss_state = R.int r in
  let net_routed = R.int r in
  let net_dropped = R.int r in
  let net_quanta = R.int r in
  let net_streak = R.int r in
  let net_streaks = R.int_array r in
  let net_trace = r_trace r in
  { net_quantum; net_latency; net_loss_permille; net_nodes; net_loss_state;
    net_routed; net_dropped; net_quanta; net_streak; net_streaks; net_trace }

(* The content-addressed flash table of a network payload.  Capture
   aliases shared template images ({!capture_machine}), so a fleet of N
   same-program motes reaches here with N physically-equal flash
   pointers — the [==] probe dedups them in O(images); the structural
   fallback also merges images that were copied apart (e.g. a mote that
   triggered copy-on-write and then wrote the very same words back). *)
let flash_table (nodes : nnode list) : int array list * (int array -> int) =
  let images = ref [] and count = ref 0 in
  let index_of fl =
    (* Physical equality is the fast path (a fleet's shared template
       images all alias one array); the structural test also merges
       images copied apart whose words ended up identical.  The table
       never holds structural duplicates, so the first hit is the
       canonical entry. *)
    let rec scan i = function
      | [] -> None
      | x :: rest -> if x == fl || x = fl then Some i else scan (i + 1) rest
    in
    match scan 0 !images with
    | Some i -> i
    | None ->
      images := !images @ [ fl ];
      let i = !count in
      Stdlib.incr count;
      i
  in
  (* Walk in node order so image indices are deterministic. *)
  List.iter (fun (n : nnode) -> ignore (index_of n.n_kernel.k_machine.flash))
    nodes;
  (!images, index_of)

let to_string (s : t) : string =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b magic;
  W.int b format_version;
  w_section b "meta" (fun b ->
      W.int b s.at;
      W.list b W.string s.programs;
      W.u8 b
        (match s.payload with P_machine _ -> 0 | P_kernel _ -> 1 | P_net _ -> 2));
  (match s.payload with
   | P_machine m -> w_section b "machine" (fun b -> w_machine b m)
   | P_kernel (k, tr) ->
     w_section b "kernel" (fun b -> w_kernel b k);
     w_section b "trace" (fun b -> w_trace b tr)
   | P_net n ->
     (* Content-addressed flash: each distinct image once in its own
        section, motes hold indices.  A 10k-mote single-program fleet
        serializes one 64 K-word image instead of 10 000. *)
     let images, index_of = flash_table n.net_nodes in
     w_section b "flash" (fun b -> W.list b W.u16_array images);
     w_section b "net" (fun b ->
         w_net ~w_flash:(fun b fl -> W.int b (index_of fl)) b n));
  Buffer.contents b

(* Content address of a snapshot: the MD5 of its serialized bytes.  Two
   captures digest equal iff they serialize equal, which (diff being
   exhaustive) means the captured states are identical — the dedup key
   of the campaign service's shared snapshot store. *)
let digest (s : t) : string = Digest.to_hex (Digest.string (to_string s))

let of_string (data : string) : (t, string) result =
  try
    let mlen = String.length magic in
    if String.length data < mlen || String.sub data 0 mlen <> magic then
      corrupt "not a SenSmart snapshot (bad magic)";
    let r = R.of_string ~pos:mlen data in
    let v = R.int r in
    if v <> format_version then
      corrupt "snapshot format version %d; this build reads version %d" v
        format_version;
    let sections = r_sections r in
    let section name =
      match List.assoc_opt name sections with
      | Some payload -> R.of_string payload
      | None -> corrupt "missing %S section" name
    in
    let meta = section "meta" in
    let at = R.int meta in
    let programs = R.list meta R.string in
    let payload =
      match R.u8 meta with
      | 0 -> P_machine (r_machine (section "machine"))
      | 1 -> P_kernel (r_kernel (section "kernel"), r_trace (section "trace"))
      | 2 ->
        (* Decode the image table first; motes then read indices into
           it.  Same-index motes share the one decoded array, so restore
           re-establishes the fleet's structural flash sharing. *)
        let images =
          Array.of_list (R.list (section "flash") R.u16_array)
        in
        let r_flash r =
          let i = R.int r in
          if i < 0 || i >= Array.length images then
            corrupt "flash image index %d out of range (%d images)" i
              (Array.length images);
          images.(i)
        in
        P_net (r_net ~r_flash (section "net"))
      | k -> corrupt "unknown payload kind %d" k
    in
    Ok { at; programs; payload }
  with Corrupt msg -> Error msg

let save path s =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string s))

let load path : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | data -> of_string data

(* --- diff ------------------------------------------------------------------ *)

(* Component-level comparison for the bisection driver and the CLI: each
   line names one differing component.  Exhaustive over the captured
   state, so an empty diff means the two snapshots serialize
   identically. *)

let diff_scalar pfx name a b acc =
  if a = b then acc else Printf.sprintf "%s%s: %d <> %d" pfx name a b :: acc

let diff_array pfx name (a : int array) (b : int array) acc =
  if a = b then acc
  else if Array.length a <> Array.length b then
    Printf.sprintf "%s%s: length %d <> %d" pfx name (Array.length a)
      (Array.length b)
    :: acc
  else begin
    let first = ref (-1) and count = ref 0 in
    Array.iteri
      (fun i v ->
        if v <> b.(i) then begin
          if !first < 0 then first := i;
          Stdlib.incr count
        end)
      a;
    Printf.sprintf "%s%s: %d entries differ (first at 0x%04x: %d <> %d)" pfx
      name !count !first a.(!first) b.(!first)
    :: acc
  end

let diff_bytes pfx name (a : Bytes.t) (b : Bytes.t) acc =
  if Bytes.equal a b then acc
  else if Bytes.length a <> Bytes.length b then
    Printf.sprintf "%s%s: length %d <> %d" pfx name (Bytes.length a)
      (Bytes.length b)
    :: acc
  else begin
    let first = ref (-1) and count = ref 0 in
    Bytes.iteri
      (fun i c ->
        if c <> Bytes.get b i then begin
          if !first < 0 then first := i;
          Stdlib.incr count
        end)
      a;
    Printf.sprintf "%s%s: %d bytes differ (first at 0x%04x: %02x <> %02x)" pfx
      name !count !first
      (Char.code (Bytes.get a !first))
      (Char.code (Bytes.get b !first))
    :: acc
  end

let diff_str pfx name a b acc =
  if a = b then acc else Printf.sprintf "%s%s: %s <> %s" pfx name a b :: acc

let diff_io pfx (a : io) (b : io) acc =
  let s = diff_scalar pfx in
  acc
  |> diff_str pfx "io.adc_enabled" (string_of_bool a.adc_enabled)
       (string_of_bool b.adc_enabled)
  |> diff_str pfx "io.adc_start"
       (match a.adc_start with Some c -> string_of_int c | None -> "-")
       (match b.adc_start with Some c -> string_of_int c | None -> "-")
  |> s "io.adc_value" a.adc_value b.adc_value
  |> s "io.adc_seq" a.adc_seq b.adc_seq
  |> s "io.tov0_epoch" a.tov0_epoch b.tov0_epoch
  |> s "io.radio_busy_until" a.radio_busy_until b.radio_busy_until
  |> diff_str pfx "io.radio_tx"
       (String.concat "," (List.map string_of_int a.radio_tx))
       (String.concat "," (List.map string_of_int b.radio_tx))
  |> diff_str pfx "io.radio_rx"
       (String.concat ","
          (List.map (fun (c, v) -> Printf.sprintf "%d@%d" v c) a.radio_rx))
       (String.concat ","
          (List.map (fun (c, v) -> Printf.sprintf "%d@%d" v c) b.radio_rx))
  |> s "io.radio_tx_count" a.radio_tx_count b.radio_tx_count
  |> s "io.temp" a.temp b.temp

let diff_machine pfx (a : machine) (b : machine) acc =
  let s = diff_scalar pfx in
  acc
  |> diff_array pfx "flash" a.flash b.flash
  |> diff_bytes pfx "sram" a.sram b.sram
  |> diff_array pfx "regs" a.regs b.regs
  |> s "pc" a.pc b.pc
  |> s "sp" a.sp b.sp
  |> s "sreg" a.sreg b.sreg
  |> s "cycles" a.cycles b.cycles
  |> s "idle_cycles" a.idle_cycles b.idle_cycles
  |> s "insns" a.insns b.insns
  |> s "mem_reads" a.mem_reads b.mem_reads
  |> s "mem_writes" a.mem_writes b.mem_writes
  |> s "io_reads" a.io_reads b.io_reads
  |> s "io_writes" a.io_writes b.io_writes
  |> diff_str pfx "halted"
       (Fmt.str "%a" Fmt.(option Machine.Cpu.pp_halt) a.halted)
       (Fmt.str "%a" Fmt.(option Machine.Cpu.pp_halt) b.halted)
  |> diff_str pfx "sleeping" (string_of_bool a.sleeping)
       (string_of_bool b.sleeping)
  |> s "preempt_at" a.preempt_at b.preempt_at
  |> diff_io pfx a.io b.io

let string_of_status = function
  | S_ready -> "ready"
  | S_sleeping w -> Printf.sprintf "sleeping until %d" w
  | S_exited r -> "exited: " ^ r

let diff_task pfx (a : task) (b : task) acc =
  let pfx = Printf.sprintf "%stask%d." pfx a.t_id in
  let s = diff_scalar pfx in
  acc
  |> diff_str pfx "name" a.t_name b.t_name
  |> diff_str pfx "status" (string_of_status a.t_status)
       (string_of_status b.t_status)
  |> s "p_l" a.t_p_l b.t_p_l
  |> s "p_h" a.t_p_h b.t_p_h
  |> s "p_u" a.t_p_u b.t_p_u
  |> s "sp" a.t_sp b.t_sp
  |> s "activations" a.t_activations b.t_activations
  |> s "grow_events" a.t_grow_events b.t_grow_events
  |> s "min_headroom" a.t_min_headroom b.t_min_headroom
  |> (fun acc ->
       match a.t_heap_snapshot, b.t_heap_snapshot with
       | None, None -> acc
       | Some ha, Some hb -> diff_bytes pfx "heap_snapshot" ha hb acc
       | Some _, None | None, Some _ ->
         Printf.sprintf "%sheap_snapshot: presence differs" pfx :: acc)
  |> s "cycles_used" a.t_cycles_used b.t_cycles_used
  |> s "insns_used" a.t_insns_used b.t_insns_used
  |> s "mark_cycles" a.t_mark_cycles b.t_mark_cycles
  |> s "mark_insns" a.t_mark_insns b.t_mark_insns

let diff_trace pfx (a : Trace.dump) (b : Trace.dump) acc =
  let acc =
    if a.d_events = b.d_events then acc
    else begin
      let la = List.length a.d_events and lb = List.length b.d_events in
      let rec first i ea eb =
        match ea, eb with
        | x :: ra, y :: rb ->
          if Trace.equal_event x y then first (i + 1) ra rb
          else
            Printf.sprintf "%sevents: first mismatch at index %d: %s <> %s" pfx
              i
              (Fmt.str "%a" Trace.pp_event x)
              (Fmt.str "%a" Trace.pp_event y)
        | [], _ :: _ | _ :: _, [] ->
          Printf.sprintf "%sevents: lengths differ (%d <> %d)" pfx la lb
        | [], [] -> Printf.sprintf "%sevents: differ" pfx
      in
      first 0 a.d_events b.d_events :: acc
    end
  in
  let acc = diff_scalar pfx "trace.overflow" a.d_overflow b.d_overflow acc in
  if a.d_counters = b.d_counters then acc
  else begin
    let tbl = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k (Some v, None)) a.d_counters;
    List.iter
      (fun (k, v) ->
        let va = match Hashtbl.find_opt tbl k with Some (va, _) -> va | None -> None in
        Hashtbl.replace tbl k (va, Some v))
      b.d_counters;
    Hashtbl.fold
      (fun k vs acc ->
        match vs with
        | Some va, Some vb when va = vb -> acc
        | va, vb ->
          let show = function Some v -> string_of_int v | None -> "absent" in
          Printf.sprintf "%scounter %s: %s <> %s" pfx k (show va) (show vb)
          :: acc)
      tbl acc
  end

let diff_kernel pfx (a : kernel) (b : kernel) acc =
  let acc = diff_machine pfx a.k_machine b.k_machine acc in
  let acc =
    if List.length a.k_tasks <> List.length b.k_tasks then
      Printf.sprintf "%stasks: %d <> %d" pfx (List.length a.k_tasks)
        (List.length b.k_tasks)
      :: acc
    else List.fold_left2 (fun acc ta tb -> diff_task pfx ta tb acc) acc a.k_tasks b.k_tasks
  in
  let s = diff_scalar pfx in
  acc
  |> diff_str pfx "current"
       (match a.k_current with Some i -> string_of_int i | None -> "-")
       (match b.k_current with Some i -> string_of_int i | None -> "-")
  |> s "slice_start" a.k_slice_start b.k_slice_start
  |> s "next_flash" a.k_next_flash b.k_next_flash
  |> s "stats.traps" a.k_stats.s_traps b.k_stats.s_traps
  |> s "stats.context_switches" a.k_stats.s_context_switches
       b.k_stats.s_context_switches
  |> s "stats.relocations" a.k_stats.s_relocations b.k_stats.s_relocations
  |> s "stats.relocated_bytes" a.k_stats.s_relocated_bytes
       b.k_stats.s_relocated_bytes
  |> s "stats.grow_requests" a.k_stats.s_grow_requests b.k_stats.s_grow_requests
  |> s "stats.translations" a.k_stats.s_translations b.k_stats.s_translations
  |> s "stats.init_cycles" a.k_stats.s_init_cycles b.k_stats.s_init_cycles
  |> s "stats.preempt_delay_total" a.k_stats.s_preempt_delay_total
       b.k_stats.s_preempt_delay_total
  |> s "stats.preempt_delay_max" a.k_stats.s_preempt_delay_max
       b.k_stats.s_preempt_delay_max
  |> s "stats.preempt_switches" a.k_stats.s_preempt_switches
       b.k_stats.s_preempt_switches

let diff_net (a : net) (b : net) acc =
  let s = diff_scalar "" in
  let acc =
    acc
    |> s "net.quantum" a.net_quantum b.net_quantum
    |> s "net.latency" a.net_latency b.net_latency
    |> s "net.loss_permille" a.net_loss_permille b.net_loss_permille
    |> s "net.loss_state" a.net_loss_state b.net_loss_state
    |> s "net.routed" a.net_routed b.net_routed
    |> s "net.dropped" a.net_dropped b.net_dropped
    |> s "net.quanta" a.net_quanta b.net_quanta
    |> s "net.streak" a.net_streak b.net_streak
    |> diff_array "" "net.loss_streaks" a.net_streaks b.net_streaks
  in
  let acc =
    if List.length a.net_nodes <> List.length b.net_nodes then
      Printf.sprintf "net.nodes: %d <> %d" (List.length a.net_nodes)
        (List.length b.net_nodes)
      :: acc
    else
      List.fold_left2
        (fun acc (na : nnode) (nb : nnode) ->
          let pfx = Printf.sprintf "mote%d." na.n_id in
          let acc = diff_kernel pfx na.n_kernel nb.n_kernel acc in
          let acc = diff_trace (pfx ^ "sink.") na.n_sink nb.n_sink acc in
          let acc =
            diff_str pfx "neighbours"
              (String.concat "," (List.map string_of_int na.n_neighbours))
              (String.concat "," (List.map string_of_int nb.n_neighbours))
              acc
          in
          diff_str pfx "finished"
            (string_of_bool na.n_finished)
            (string_of_bool nb.n_finished)
            acc)
        acc a.net_nodes b.net_nodes
  in
  diff_trace "net." a.net_trace b.net_trace acc

(** Component-level differences between two snapshots of the same kind,
    one human-readable line per differing component; [[]] means the
    snapshots are identical.  Snapshots of different kinds differ by
    their kind. *)
let diff (a : t) (b : t) : string list =
  let lines =
    match a.payload, b.payload with
    | P_machine ma, P_machine mb -> diff_machine "" ma mb []
    | P_kernel (ka, ta), P_kernel (kb, tb) ->
      diff_trace "" ta tb (diff_kernel "" ka kb [])
    | P_net na, P_net nb -> diff_net na nb []
    | _ ->
      [ Printf.sprintf "payload kind: %s <> %s" (kind_name a) (kind_name b) ]
  in
  List.rev lines

let equal a b = diff a b = []

(* --- divergence bisection -------------------------------------------------- *)

module Bisect = struct
  (* Binary-search for the first cycle at which two engine
     configurations of the same workload disagree.

     A [subject] wraps one configuration of a world behind four hooks;
     the driver never looks inside the world, so kernels, bare machines
     and whole networks bisect through the same code path.  The one law
     a subject must obey is *segment invariance*: the state reached at
     an advance target must not depend on how the journey there was cut
     into [advance] calls.  Both engine tiers satisfy it (tier-1 blocks
     stop on exactly tier-0's cycle boundaries), and [Net.run] derives
     its lockstep position from [t.quanta], so restored worlds replay
     the very same horizon sequence. *)

  type 'w subject = {
    boot : unit -> 'w;
    advance : 'w -> int -> unit;
        (* run the world until its clock reaches the absolute target
           cycle (or it halts); repeated calls must compose *)
    capture : 'w -> t;
    restore : t -> 'w -> unit;
  }

  type verdict =
    | Identical of { ran_to : int; probes : int }
    | Diverged of {
        lo : int;  (* last probed cycle where the subjects agreed *)
        hi : int;  (* first probed cycle where they differed *)
        diff : string list;  (* component diff at [hi] *)
        probes : int;  (* snapshot comparisons performed *)
      }

  (* The coarse pass runs both worlds forward checkpoint by checkpoint,
     keeping the last agreeing snapshot pair; the refine pass
     binary-searches inside the first disagreeing interval, restoring
     both worlds from their last agreeing snapshots instead of
     re-running from boot — log(interval) probes, each costing only the
     interval's cycles.  The interval narrows until it is at most
     [granularity] cycles wide (subjects with coarser natural
     boundaries — a network's lockstep quantum — bottom out at their
     boundary spacing instead). *)
  let hunt ?(granularity = 64) ?checkpoint_every ~max_cycles (a : 'a subject)
      (b : 'b subject) : verdict =
    let step =
      match checkpoint_every with
      | Some s when s > 0 -> s
      | Some _ | None -> max granularity (max_cycles / 16)
    in
    let wa = a.boot () and wb = b.boot () in
    let probes = ref 0 in
    let compare_at target =
      a.advance wa target;
      b.advance wb target;
      incr probes;
      let ca = a.capture wa and cb = b.capture wb in
      (ca, cb, diff ca cb)
    in
    let rec refine lo hi snaps d =
      if hi - lo <= granularity then
        Diverged { lo; hi; diff = d; probes = !probes }
      else begin
        let mid = lo + ((hi - lo) / 2) in
        let sa, sb = snaps in
        a.restore sa wa;
        b.restore sb wb;
        match compare_at mid with
        | ca, cb, [] -> refine mid hi (ca, cb) d
        | _, _, d -> refine lo mid snaps d
      end
    in
    let rec coarse at snaps =
      if at >= max_cycles then Identical { ran_to = at; probes = !probes }
      else begin
        let target = min max_cycles (at + step) in
        match compare_at target with
        | ca, cb, [] -> coarse target (ca, cb)
        | _, _, d -> refine at target snaps d
      end
    in
    incr probes;
    let sa = a.capture wa and sb = b.capture wb in
    match diff sa sb with
    | [] -> coarse 0 (sa, sb)
    | d -> Diverged { lo = 0; hi = 0; diff = d; probes = !probes }

  let pp_verdict ppf = function
    | Identical { ran_to; probes } ->
      Format.fprintf ppf "no divergence up to cycle %d (%d probes)" ran_to
        probes
    | Diverged { lo; hi; diff; probes } ->
      Format.fprintf ppf
        "first divergence in cycles (%d, %d] (%d probes); state diff at %d:"
        lo hi probes hi;
      List.iter (fun l -> Format.fprintf ppf "@\n  %s" l) diff

  (* --- divergence injection (for exercising the driver) --------------- *)

  (* A poke plants a byte into a spare kernel cell once the world's
     clock passes [poke_at].  The address is deliberately one no
     program or kernel path ever writes, which makes the injection
     idempotent: re-applying it after a restore-and-re-run cannot
     disturb later state, so poked subjects keep segment invariance. *)

  type poke = { poke_at : int; poke_value : int }

  let poke_address = Rewriter.Kcells.cells_base + 13

  let apply_poke p (m : Machine.Cpu.t) =
    Bytes.set m.sram poke_address (Char.chr (p.poke_value land 0xFF))

  let kernel_subject ?tier ?poke boot : Kernel.t subject =
    { boot;
      advance =
        (fun k target ->
          (match poke with
           | Some p when k.m.cycles <= p.poke_at && p.poke_at <= target ->
             if k.m.cycles < p.poke_at then
               ignore (Kernel.run ?tier ~max_cycles:p.poke_at k);
             if k.m.cycles >= p.poke_at then apply_poke p k.m
           | Some _ | None -> ());
          ignore (Kernel.run ?tier ~max_cycles:target k));
      capture = (fun k -> of_kernel k);
      restore = (fun s k -> restore_kernel s k) }

  let net_subject ?(domains = 1) ?poke boot : Net.t subject =
    let horizon (n : Net.t) = n.quanta * n.quantum in
    { boot;
      advance =
        (fun n target ->
          (match poke with
           | Some p when horizon n <= p.poke_at && p.poke_at <= target ->
             if horizon n < p.poke_at then
               ignore (Net.run ~domains ~max_cycles:p.poke_at n);
             (* lands on the first quantum boundary at or after
                [poke_at] — deterministic for any advance segmentation *)
             apply_poke p n.nodes.(0).kernel.m
           | Some _ | None -> ());
          ignore (Net.run ~domains ~max_cycles:target n));
      capture = (fun n -> of_net n);
      restore = (fun s n -> restore_net s n) }
end
