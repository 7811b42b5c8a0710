(* The SenSmart kernel runtime.

   One instance owns one simulated mote and a set of naturalized tasks.
   Scheduling is round-robin over time slices counted on the global
   clock (Timer3); preemption happens only at software traps — the
   backward-branch counter maintained by the rewriter's trampolines —
   and at the other kernel entries (yield, stack checks), exactly as in
   Section IV-B: no clock interrupt is involved, so tasks that disable
   interrupts are still preempted.

   The kernel's own work (context copies, relocation memmoves) runs in
   OCaml against the simulated SRAM and charges cycles per the formulas
   in {!Costing}. *)

open Rewriter

(* Re-export the library's sibling modules through the root module. *)
module Task = Task
module Costing = Costing
module Relocation = Relocation

type config = {
  slice_cycles : int;  (** round-robin time slice (cycles) *)
  stack_budget : int option;
      (** total stack space across tasks; [None] uses everything left of
          the application area after the heaps (the paper's model: "the
          remaining space is the total available stack space").  Figure 8
          caps this to LiteOS's budget. *)
  min_stack : int;  (** smallest admissible initial stack per task *)
  min_grant : int;  (** smallest useful relocation grant *)
  donor_keep : int;  (** stack bytes a donor must keep for its own use *)
  trap_period : int;
      (** backward branches per software trap, 1..256; the counter cell
          is reloaded with this value on each trap, so the period is a
          kernel knob (used by the ablation bench) *)
  spare_tcbs : int;
      (** extra TCB slots reserved at boot so tasks can be spawned at
          run time (the paper's reprogramming-as-an-OS-service) *)
}

let default_config =
  { slice_cycles = 8192;
    stack_budget = None;
    min_stack = 32;
    min_grant = 16;
    donor_keep = Kcells.stack_reserve + 8;
    trap_period = Kcells.trap_period;
    spare_tcbs = 0 }

type stats = {
  mutable traps : int;  (** software-trap kernel entries *)
  mutable context_switches : int;
  mutable relocations : int;
  mutable relocated_bytes : int;
  mutable grow_requests : int;
  mutable translations : int;  (** indirect program-address lookups *)
  mutable init_cycles : int;
  mutable preempt_delay_total : int;
      (** cycles between slice expiry and the trap that honoured it,
          summed over trap-driven switches *)
  mutable preempt_delay_max : int;
  mutable preempt_switches : int;
}

type t = {
  m : Machine.Cpu.t;
  cfg : config;
  mutable tasks : Task.t list;  (** all tasks, in id order; exited ones remain *)
  mutable current : Task.t option;
  mutable slice_start : int;
  mutable next_flash : int;  (** next free flash word, for spawned tasks *)
  app_limit : int;  (** top of the application area for this boot *)
  stats : stats;
  trace : Trace.t;
      (** event stream + counters registry; standalone boots own their
          sink, networked boots share one across motes *)
  mote : int;  (** id stamped onto this kernel's trace events *)
}

exception Admission_failure of string

let live_tasks k = List.filter Task.is_live k.tasks
let live_regions k = List.map (fun (t : Task.t) -> t.region) (live_tasks k)

let find_task k id = List.find (fun (t : Task.t) -> t.id = id) k.tasks

(* Coarse kernel events: context switches, stack motion, task lifecycle.
   Software traps are deliberately not logged (too frequent); they are
   counted in {!stats}. *)
let log k kind = Trace.emit k.trace ~mote:k.mote ~at:k.m.cycles kind

(** The recorded events, oldest first (the whole sink's stream: for a
    networked kernel this includes sibling motes' events). *)
let event_log k = Trace.events k.trace

(* --- TCB and kernel-cell plumbing -------------------------------------- *)

let write_cell16 m addr v =
  Machine.Cpu.write8 m addr (v land 0xFF);
  Machine.Cpu.write8 m (addr + 1) ((v lsr 8) land 0xFF)

let read_cell16 m addr =
  Machine.Cpu.read8 m addr lor (Machine.Cpu.read8 m (addr + 1) lsl 8)

(* Refresh the displacement/bound cells the trampolines read. *)
let sync_cells k (t : Task.t) =
  let m = k.m in
  write_cell16 m Kcells.hdisp_lo (Task.hdisp t);
  write_cell16 m Kcells.sdisp_lo (Task.sdisp t);
  write_cell16 m Kcells.floor_log_lo (Task.floor_log t);
  write_cell16 m Kcells.floor_phys_lo (Task.floor_phys t)

let save_context k (t : Task.t) =
  let m = k.m in
  (* Close the task's accounting interval before charging kernel cost. *)
  Task.charge t ~cycles:m.cycles ~insns:m.insns;
  for r = 0 to 31 do
    Machine.Cpu.write8 m (t.tcb + r) m.regs.(r)
  done;
  Machine.Cpu.write8 m (t.tcb + 32) m.sreg;
  Machine.Cpu.write8 m (t.tcb + 33) (m.sp land 0xFF);
  Machine.Cpu.write8 m (t.tcb + 34) ((m.sp lsr 8) land 0xFF);
  Machine.Cpu.write8 m (t.tcb + 35) (m.pc land 0xFF);
  Machine.Cpu.write8 m (t.tcb + 36) ((m.pc lsr 8) land 0xFF);
  t.region.sp <- m.sp;
  m.cycles <- m.cycles + Costing.context_save

let restore_context k (t : Task.t) =
  let m = k.m in
  for r = 0 to 31 do
    m.regs.(r) <- Machine.Cpu.read8 m (t.tcb + r)
  done;
  m.sreg <- Machine.Cpu.read8 m (t.tcb + 32);
  m.sp <- read_cell16 m (t.tcb + 33);
  m.pc <- read_cell16 m (t.tcb + 35);
  sync_cells k t;
  m.cycles <- m.cycles + Costing.context_restore;
  (* The task's accounting interval opens after the restore cost, so
     switch overhead is not billed to either side. *)
  Task.mark t ~cycles:m.cycles ~insns:m.insns

(* Saved-SP cell of a suspended task, kept in step with region moves. *)
let sync_saved_sp k (t : Task.t) = write_cell16 k.m (t.tcb + 33) t.region.sp

(* --- scheduling --------------------------------------------------------- *)

let wake_sleepers k =
  let now = k.m.cycles in
  List.iter
    (fun (t : Task.t) ->
      match t.status with
      | Sleeping w when w <= now ->
        t.status <- Ready;
        t.activations <- t.activations + 1
      | Ready | Sleeping _ | Exited _ -> ())
    k.tasks

let next_wake_time k =
  List.fold_left
    (fun acc (t : Task.t) ->
      match t.status with Sleeping w -> min acc w | Ready | Exited _ -> acc)
    max_int k.tasks

(* Round-robin: first ready task after the current id, wrapping. *)
let pick_next k =
  let cur_id = match k.current with Some c -> c.id | None -> -1 in
  let ready = List.filter Task.is_ready k.tasks in
  match List.find_opt (fun (t : Task.t) -> t.id > cur_id) ready with
  | Some t -> Some t
  | None -> (match ready with t :: _ -> Some t | [] -> None)

let rec schedule k =
  k.m.cycles <- k.m.cycles + Costing.schedule_decision;
  wake_sleepers k;
  match pick_next k with
  | Some next ->
    let same = match k.current with Some c -> c == next | None -> false in
    if not same then begin
      (match k.current with
       | Some c when Task.is_live c -> save_context k c
       | Some _ | None -> ());
      log k
        (Trace.Switched
           { from_task = (match k.current with Some c -> Some c.id | None -> None);
             to_task = next.id });
      restore_context k next;
      k.current <- Some next;
      k.stats.context_switches <- k.stats.context_switches + 1
    end;
    k.slice_start <- k.m.cycles
  | None ->
    if List.exists Task.is_live k.tasks then begin
      (* Everyone is sleeping: idle until the earliest wake-up. *)
      let wake = next_wake_time k in
      (match k.current with
       | Some c when Task.is_live c -> save_context k c
       | Some _ | None -> ());
      k.current <- None;
      Machine.Cpu.fast_forward k.m (max wake (k.m.cycles + 1));
      schedule k
    end
    else k.m.halted <- Some Machine.Cpu.Break_hit (* all tasks done *)

(* --- termination and the released-memory hole --------------------------- *)

let charge_move k len =
  k.stats.relocated_bytes <- k.stats.relocated_bytes + len;
  k.m.cycles <- k.m.cycles + Costing.relocation_move (max 0 len)

let mem_move k ~src ~dst ~len =
  if len > 0 && src <> dst then
    Bytes.blit k.m.sram src k.m.sram dst len;
  charge_move k len

(* End [t], the current task, and schedule the next one. *)
let terminate k (t : Task.t) reason =
  Logs.debug (fun f -> f "task %s terminated: %s" t.name reason);
  log k (Trace.Terminated { task = t.id; reason });
  Task.charge t ~cycles:k.m.cycles ~insns:k.m.insns;
  t.status <- Exited reason;
  (* Preserve the heap for post-mortem inspection before the region is
     recycled. *)
  let heap_len = t.region.p_h - t.region.p_l in
  t.heap_snapshot <- Some (Bytes.sub k.m.sram t.region.p_l heap_len);
  let lo = t.region.p_l and hi = t.region.p_u in
  ignore
    (Relocation.absorb_hole ~regions:(live_regions k) ~lo ~hi
       ~move:(fun ~src ~dst ~len -> mem_move k ~src ~dst ~len));
  (* Region moves may have shifted suspended tasks' stacks. *)
  List.iter (fun t' -> if Task.is_live t' then sync_saved_sp k t') k.tasks;
  k.current <- None;
  k.m.cycles <- k.m.cycles + Costing.exit_body;
  schedule k

(* --- stack growth / relocation ------------------------------------------ *)

(* Attempt to enlarge the current task's stack; terminates it when no
   donor can help.  Returns true if the stack grew. *)
let grow_stack k (t : Task.t) =
  k.stats.grow_requests <- k.stats.grow_requests + 1;
  t.grow_events <- t.grow_events + 1;
  t.region.sp <- k.m.sp;
  let regions = live_regions k in
  match
    Relocation.pick_donor ~keep:k.cfg.donor_keep ~min_grant:k.cfg.min_grant
      ~regions ~needy:t.region
  with
  | Some (donor_region, delta) ->
    let moved =
      Relocation.donate ~regions ~donor:donor_region ~needy:t.region ~delta
        ~move:(fun ~src ~dst ~len -> mem_move k ~src ~dst ~len)
    in
    log k (Trace.Relocated { needy = t.id; delta; moved });
    k.stats.relocations <- k.stats.relocations + 1;
    (* Propagate adjusted SPs: live for the current task, saved for the
       suspended ones. *)
    k.m.sp <- t.region.sp;
    List.iter
      (fun t' -> if Task.is_live t' && not (t' == t) then sync_saved_sp k t')
      k.tasks;
    sync_cells k t;
    true
  | None ->
    terminate k t "stack overflow: no donor with surplus stack";
    false

(* --- syscall dispatch ---------------------------------------------------- *)

let current_exn k =
  match k.current with
  | Some t -> t
  | None -> failwith "kernel: syscall with no current task"

let handle_syscall k _m n =
  let m = k.m in
  let t = current_exn k in
  if n = Kcells.sys_trap then begin
    k.stats.traps <- k.stats.traps + 1;
    m.cycles <- m.cycles + Costing.trap_body;
    (* Reload the counter: a cell value of p traps after p decrements
       (0 stands for the full 256 period). *)
    Machine.Cpu.write8 m Kcells.cnt (k.cfg.trap_period land 0xFF);
    let deadline = k.slice_start + k.cfg.slice_cycles in
    if m.cycles >= deadline then begin
      (* Preemption latency: how far past the slice boundary the trap
         actually fired (the paper's "delay of the preemption"). *)
      let delay = m.cycles - deadline in
      k.stats.preempt_delay_total <- k.stats.preempt_delay_total + delay;
      k.stats.preempt_delay_max <- max k.stats.preempt_delay_max delay;
      k.stats.preempt_switches <- k.stats.preempt_switches + 1;
      schedule k
    end
  end
  else if n = Kcells.sys_yield then begin
    m.cycles <- m.cycles + Costing.yield_body;
    t.status <- Sleeping (Machine.Cpu.next_wake m);
    schedule k
  end
  else if n = Kcells.sys_exit then terminate k t "exit"
  else if n = Kcells.sys_fault then begin
    m.cycles <- m.cycles + Costing.fault_body;
    terminate k t "memory protection fault"
  end
  else if n = Kcells.sys_stack_grow then ignore (grow_stack k t)
  else if n = Kcells.sys_translate_z then begin
    k.stats.translations <- k.stats.translations + 1;
    let z = Machine.Cpu.zreg m in
    let nat = Shift_table.to_naturalized t.nat.shift z in
    Machine.Cpu.set_zreg m nat;
    m.cycles <- m.cycles + Shift_table.lookup_cycles t.nat.shift
  end
  else if n = Kcells.sys_ijmp then begin
    k.stats.translations <- k.stats.translations + 1;
    m.pc <- Shift_table.to_naturalized t.nat.shift (Machine.Cpu.zreg m) land 0xFFFF;
    m.cycles <- m.cycles + Shift_table.lookup_cycles t.nat.shift
  end
  else if n = Kcells.sys_getsp then begin
    m.cycles <- m.cycles + Costing.getsp_body;
    let logical = (m.sp - Task.sdisp t) land 0xFFFF in
    write_cell16 m Kcells.arg_lo logical
  end
  else if n = Kcells.sys_setsp16 || n = Kcells.sys_setspl || n = Kcells.sys_setsph
  then begin
    m.cycles <- m.cycles + Costing.setsp_body;
    let logical_now = (m.sp - Task.sdisp t) land 0xFFFF in
    let arg = read_cell16 m Kcells.arg_lo in
    let logical =
      if n = Kcells.sys_setsp16 then arg
      else if n = Kcells.sys_setspl then
        (logical_now land 0xFF00) lor (arg land 0xFF)
      else (logical_now land 0x00FF) lor ((arg land 0xFF) lsl 8)
    in
    let phys = (logical + Task.sdisp t) land 0xFFFF in
    if logical >= Machine.Layout.data_size then
      (* A logical SP above the address-space top would place the stack
         inside a sibling's region (the translation maps logical 0x1100
         to physical p_u); a hijacked task is the only code that asks. *)
      terminate k t "memory protection fault"
    else begin
      (* Grow until the requested SP leaves the reserve intact, or the
         task dies trying. *)
      let rec ensure phys =
        if phys - Kcells.stack_reserve <= Task.floor_phys t then begin
          if grow_stack k t then
            (* The stack moved: recompute the physical target. *)
            ensure ((logical + Task.sdisp t) land 0xFFFF)
          else -1
        end
        else phys
      in
      let phys = ensure phys in
      if phys >= 0 then begin
        m.sp <- phys;
        t.min_headroom <- min t.min_headroom (phys - Task.floor_phys t)
      end
    end
  end
  else if n = Kcells.sys_timer3 then begin
    m.cycles <- m.cycles + Costing.timer3_body;
    write_cell16 m Kcells.arg_lo ((m.cycles / Machine.Io.timer3_prescale) land 0xFFFF)
  end
  else m.halted <- Some (Machine.Cpu.Fault (Printf.sprintf "unknown syscall %d" n))

(* --- boot ----------------------------------------------------------------- *)

(** A prepared boot recipe: the naturalized programs and one flash
    image holding them, reusable across any number of motes.  The image
    is sized to its content: it ends at the 256-word chunk after
    [t_next_flash], and the rest of the flash reads as erased.
    {!boot_from} aliases the image and its caches copy-on-write
    ({!Machine.Cpu.create_shared}), so a 10 000-mote fleet of one
    program costs one flash array instead of 10 000 and compiles each
    tier-1 block once. *)
type template = {
  t_config : config;
  t_nats : Naturalized.t list;
  t_image : Machine.Cpu.image;  (** flash image, nats placed *)
  t_next_flash : int;  (** first free flash word after the placed nats *)
}

(** Naturalize [images] (sequential flash placement, as {!boot}) and
    bake the shared flash image.  Raises {!Admission_failure} when the
    naturalized code overflows flash. *)
let prepare ?(config = default_config) ?(rewrite = Rewrite.default_config)
    (images : Asm.Image.t list) : template =
  let nats, _ =
    List.fold_left
      (fun (acc, base) img ->
        let nat = Rewrite.run ~config:rewrite ~base img in
        (nat :: acc, base + Naturalized.total_words nat))
      ([], 0) images
  in
  let nats = List.rev nats in
  (match nats with
   | [] -> raise (Admission_failure "no tasks")
   | _ ->
     let last = List.nth nats (List.length nats - 1) in
     if last.base + Naturalized.total_words last > Machine.Layout.flash_words then
       raise (Admission_failure "program memory exhausted"));
  let next_flash =
    List.fold_left
      (fun a (nat : Naturalized.t) -> max a (nat.base + Naturalized.total_words nat))
      0 nats
  in
  let flash = Machine.Cpu.erased_flash next_flash in
  List.iter
    (fun (nat : Naturalized.t) ->
      Array.blit nat.words 0 flash nat.base (Array.length nat.words))
    nats;
  { t_config = config; t_nats = nats; t_image = Machine.Cpu.image_of flash;
    t_next_flash = next_flash }

(** Boot one mote from a prepared template.  Byte-identical to {!boot}
    with the template's config and images, except the mote's flash
    aliases the template image until the first runtime flash write
    (copy-on-write).  Raises {!Admission_failure} when the programs'
    heaps plus initial stacks do not fit the application area. *)
let boot_from ?trace ?(mote = 0) (tpl : template) : t =
  let config = tpl.t_config in
  let nats = tpl.t_nats in
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let m = Machine.Cpu.create_shared tpl.t_image in
  (* Carve out data regions. *)
  let stats =
    { traps = 0; context_switches = 0; relocations = 0; relocated_bytes = 0;
      grow_requests = 0; translations = 0; init_cycles = 0;
      preempt_delay_total = 0; preempt_delay_max = 0; preempt_switches = 0 }
  in
  (* The initial stack split: the configured budget (or all remaining
     application memory) divided evenly among the tasks. *)
  let n_tasks = List.length nats in
  let app_limit = Kcells.app_limit_for ~tasks:(n_tasks + config.spare_tcbs) in
  let total_heap =
    List.fold_left (fun a (nat : Naturalized.t) -> a + nat.source.data_size) 0 nats
  in
  let available = app_limit - Asm.Image.heap_base - total_heap in
  if available < 0 then raise (Admission_failure "data memory exhausted by heaps");
  let budget =
    match config.stack_budget with
    | Some b when b < available -> b
    | Some _ | None -> available
  in
  let per_task_stack = budget / n_tasks in
  if per_task_stack < config.min_stack then
    raise
      (Admission_failure
         (Printf.sprintf "per-task stack %d below minimum %d" per_task_stack
            config.min_stack));
  let next_p = ref Asm.Image.heap_base in
  let tasks =
    List.mapi
      (fun id (nat : Naturalized.t) ->
        let heap = nat.source.data_size in
        let stack = per_task_stack in
        let p_l = !next_p in
        let p_u = p_l + heap + stack in
        if p_u > app_limit then
          raise
            (Admission_failure
               (Printf.sprintf "data memory exhausted admitting task %d (%s)" id
                  nat.source.name));
        next_p := p_u;
        let region = { Relocation.id; p_l; p_h = p_l + heap; p_u; sp = p_u - 1 } in
        let tcb = app_limit + (id * Kcells.tcb_bytes) in
        { Task.id; name = nat.source.name; nat; region; tcb; status = Ready;
          activations = 0; grow_events = 0; min_headroom = stack;
          heap_snapshot = None; cycles_used = 0; insns_used = 0;
          mark_cycles = 0; mark_insns = 0 })
      nats
  in
  let k =
    { m; cfg = config; tasks; current = None; slice_start = 0;
      next_flash = tpl.t_next_flash; app_limit; stats; trace; mote }
  in
  (* Initialize each task's heap contents and TCB. *)
  List.iter
    (fun (t : Task.t) ->
      List.iter
        (fun (laddr, b) ->
          Machine.Cpu.write8 m (t.region.p_l + (laddr - Asm.Image.heap_base)) b)
        t.nat.source.data_init;
      for i = 0 to Kcells.tcb_bytes - 1 do
        Machine.Cpu.write8 m (t.tcb + i) 0
      done;
      write_cell16 m (t.tcb + 33) t.region.sp;
      write_cell16 m (t.tcb + 35) t.nat.entry;
      m.cycles <- m.cycles + Costing.init_per_task (t.region.p_u - t.region.p_l))
    tasks;
  Machine.Cpu.write8 m Kcells.cnt (config.trap_period land 0xFF);
  m.cycles <- m.cycles + Costing.init_fixed;
  stats.init_cycles <- m.cycles;
  m.on_syscall <- Some (handle_syscall k);
  schedule k;
  k

(** Naturalize and admit [images] onto a fresh mote ({!prepare} then
    {!boot_from}).  Raises {!Admission_failure} when the programs' heaps
    plus initial stacks do not fit the application area, or the
    naturalized code overflows flash. *)
let boot ?config ?rewrite ?trace ?mote (images : Asm.Image.t list) : t =
  boot_from ?trace ?mote (prepare ?config ?rewrite images)

(* --- crash and watchdog reboot ------------------------------------------- *)

(** Kill the whole mote: the machine halts with [Fault reason] and no
    task is current any more, so a subsequent {!run} returns the halt
    immediately — without blaming (and terminating) whichever task
    happened to be running.  Task records are left frozen as they were:
    a {!watchdog_reboot} revives the node by warm-restarting every task
    that was still live, which is how the crash+reboot pair composes in
    a fault plan.  Models a node crash — the paper's deployment reality
    of "numerous unreliable devices" — as opposed to {!terminate}, which
    contains a single task's death. *)
let crash k reason =
  log k (Trace.Cpu_fault { reason });
  k.current <- None;
  k.m.halted <- Some (Machine.Cpu.Fault reason)

(** Watchdog reset: the CPU restarts but the node survives.  As on a
    real AVR a watchdog reset does not power-cycle SRAM, and startup
    re-runs crt0, so every live task warm-restarts — context reset to
    its entry point, heap re-initialized from the load image, stack
    pointer back at the top of its (current) region.  Regions keep the
    boundaries relocation gave them, and exited tasks stay dead: their
    memory was already recycled, so there is nothing to restart them in.
    Charges the same init costs as {!boot} and reschedules. *)
let watchdog_reboot k =
  let m = k.m in
  m.halted <- None;
  m.sleeping <- false;
  k.current <- None;
  List.iter
    (fun (t : Task.t) ->
      if Task.is_live t then begin
        t.status <- Ready;
        t.activations <- t.activations + 1;
        t.region.sp <- t.region.p_u - 1;
        for a = t.region.p_l to t.region.p_h - 1 do
          Machine.Cpu.write8 m a 0
        done;
        List.iter
          (fun (laddr, b) ->
            Machine.Cpu.write8 m (t.region.p_l + (laddr - Asm.Image.heap_base)) b)
          t.nat.source.data_init;
        for i = 0 to Kcells.tcb_bytes - 1 do
          Machine.Cpu.write8 m (t.tcb + i) 0
        done;
        write_cell16 m (t.tcb + 33) t.region.sp;
        write_cell16 m (t.tcb + 35) t.nat.entry;
        m.cycles <- m.cycles + Costing.init_per_task (t.region.p_u - t.region.p_l)
      end)
    k.tasks;
  Machine.Cpu.write8 m Kcells.cnt (k.cfg.trap_period land 0xFF);
  m.cycles <- m.cycles + Costing.init_fixed;
  schedule k

(* --- run ------------------------------------------------------------------ *)

(** Run the multitasking workload until every task exits (or faults) or
    the cycle budget runs out.  [?tier] stores a new tier ceiling on
    the machine first ([~tier:0]: the reference interpreter, for
    differential testing and bisection).

    Machine-level faults are *contained*: when execution halts with an
    invalid opcode or a machine fault while a live task is current (a
    corrupted task jumped into garbage, or ran into an unknown-syscall
    trampoline), the kernel logs the fault, terminates that task alone,
    and keeps scheduling its siblings — Table I's isolation property
    under the adversarial conditions lib/fault creates.  Only when no
    live task can be blamed (e.g. an injected node crash) does the halt
    end the run. *)
let run ?tier ?(max_cycles = 2_000_000_000) k :
    Machine.Cpu.stop =
  (match tier with Some t -> k.m.tier <- t | None -> ());
  let rec loop () =
    match Machine.Cpu.run ~max_cycles k.m with
    | Halted h ->
      (match h with
       | Machine.Cpu.Break_hit -> Machine.Cpu.Halted h
       | Machine.Cpu.Invalid_opcode _ | Machine.Cpu.Fault _ ->
         log k (Trace.Cpu_fault { reason = Fmt.str "%a" Machine.Cpu.pp_halt h });
         (match k.current with
          | Some t when Task.is_live t ->
            k.m.halted <- None;
            terminate k t (Fmt.str "cpu fault: %a" Machine.Cpu.pp_halt h);
            (* terminate rescheduled; if that left no runnable task the
               machine is halted again (Break_hit) and the loop ends. *)
            loop ()
          | Some _ | None -> Machine.Cpu.Halted h))
    | Sleeping ->
      (* A native SLEEP can only appear in unrewritten code; treat it as
         a yield for robustness. *)
      (match k.current with
       | Some t -> t.status <- Sleeping (Machine.Cpu.next_wake k.m)
       | None -> ());
      schedule k;
      loop ()
    | Preempted -> loop ()
    | Out_of_fuel -> Out_of_fuel
  in
  loop ()

(* --- counter publishing ---------------------------------------------------- *)

(** Publish this kernel's statistics, the machine's counters, and the
    per-task accounting into the trace counters registry, under
    [prefix].  Pull-based: call it whenever a snapshot is wanted; values
    are overwritten, not accumulated.  The counter-name schema is
    documented in DESIGN.md. *)
let publish_counters ?(prefix = "") k =
  (* Close the running task's open accounting interval first. *)
  (match k.current with
   | Some c when Task.is_live c -> Task.charge c ~cycles:k.m.cycles ~insns:k.m.insns
   | _ -> ());
  let set name v = Trace.set_counter k.trace (prefix ^ name) v in
  let s = k.stats in
  set "kernel.traps" s.traps;
  set "kernel.context_switches" s.context_switches;
  set "kernel.relocations" s.relocations;
  set "kernel.relocated_bytes" s.relocated_bytes;
  set "kernel.grow_requests" s.grow_requests;
  set "kernel.translations" s.translations;
  set "kernel.init_cycles" s.init_cycles;
  set "kernel.preempt_delay_total" s.preempt_delay_total;
  set "kernel.preempt_delay_max" s.preempt_delay_max;
  set "kernel.preempt_switches" s.preempt_switches;
  let m = k.m in
  set "cpu.cycles" m.cycles;
  set "cpu.active_cycles" (Machine.Cpu.active_cycles m);
  set "cpu.insns" m.insns;
  set "cpu.mem_reads" m.mem_reads;
  set "cpu.mem_writes" m.mem_writes;
  set "cpu.io_reads" m.io_reads;
  set "cpu.io_writes" m.io_writes;
  set "radio.tx_bytes" m.io.radio_tx_count;
  List.iter
    (fun (t : Task.t) ->
      let task name v = set (Printf.sprintf "task.%d.%s" t.id name) v in
      task "active_cycles" t.cycles_used;
      task "insns" t.insns_used;
      task "activations" t.activations;
      task "grow_events" t.grow_events;
      task "stack_alloc" (Task.stack_alloc t);
      task "min_headroom" t.min_headroom)
    k.tasks

(** Read a byte of a task's heap by *logical* address, live or from the
    post-mortem snapshot if the task has exited. *)
let heap_byte k id laddr =
  let t = find_task k id in
  let off = laddr - Asm.Image.heap_base in
  match t.heap_snapshot with
  | Some b when off >= 0 && off < Bytes.length b -> Char.code (Bytes.get b off)
  | Some _ -> 0
  | None -> Machine.Cpu.read8 k.m (t.region.p_l + off)

(* --- run-time task admission ---------------------------------------------- *)

(* Common tail of spawn: load flash, set up the TCB and task record. *)
let finish_spawn k (nat : Naturalized.t) (region : Relocation.region) tcb =
  let m = k.m in
  Machine.Cpu.load ~at:nat.base m nat.words;
  k.next_flash <- nat.base + Naturalized.total_words nat;
  let t =
    { Task.id = region.id; name = nat.source.name; nat; region; tcb;
      status = Ready; activations = 0; grow_events = 0;
      min_headroom = region.p_u - region.p_h; heap_snapshot = None;
      cycles_used = 0; insns_used = 0; mark_cycles = 0; mark_insns = 0 }
  in
  List.iter
    (fun (laddr, b) ->
      Machine.Cpu.write8 m (region.p_l + (laddr - Asm.Image.heap_base)) b)
    nat.source.data_init;
  (* Zero the rest of the heap: the carved space is recycled memory. *)
  let inits = List.map fst nat.source.data_init in
  for a = region.p_l to region.p_h - 1 do
    if not (List.mem (a - region.p_l + Asm.Image.heap_base) inits) then
      Machine.Cpu.write8 m a 0
  done;
  for i = 0 to Kcells.tcb_bytes - 1 do
    Machine.Cpu.write8 m (tcb + i) 0
  done;
  write_cell16 m (tcb + 33) region.sp;
  write_cell16 m (tcb + 35) nat.entry;
  m.cycles <- m.cycles + Costing.init_per_task (region.p_u - region.p_l);
  k.tasks <- k.tasks @ [ t ];
  log k (Trace.Spawned { task = t.id; stack = region.p_u - region.p_h });
  t

(** Admit a new application while the system runs — the paper's note
    that "reprogramming can be performed as an OS service".  The program
    is naturalized into free flash, and its memory region is carved from
    the top of the application area by taking stack space from donor
    tasks, exactly like a relocation in reverse.  Requires a spare TCB
    slot (see [config.spare_tcbs]).  On failure the memory is rolled
    back and an [Error] explains why. *)
let spawn k (img : Asm.Image.t) : (Task.t, string) result =
  let id = List.length k.tasks in
  let tcb = k.app_limit + (id * Kcells.tcb_bytes) in
  if tcb + Kcells.tcb_bytes > Kcells.cells_base then Error "no spare TCB slot"
  else begin
    let nat = Rewrite.run ~base:k.next_flash img in
    if nat.base + Naturalized.total_words nat > Machine.Layout.flash_words then
      Error "program memory exhausted"
    else begin
      let heap = img.data_size in
      let need = heap + k.cfg.min_stack in
      (* Keep donor SPs coherent before moving memory. *)
      (match k.current with
       | Some c when Task.is_live c -> c.region.sp <- k.m.sp
       | _ -> ());
      let regions = live_regions k in
      let top =
        List.fold_left (fun a (r : Relocation.region) -> max a r.p_u)
          Asm.Image.heap_base regions
      in
      if top + need <= k.app_limit then begin
        (* Untouched space above the last region: take it directly. *)
        let region =
          { Relocation.id; p_l = top; p_h = top + heap; p_u = top + need;
            sp = top + need - 1 }
        in
        Ok (finish_spawn k nat region tcb)
      end
      else begin
        (* Carve the region out of donors' surplus stack space. *)
        let phantom = { Relocation.id; p_l = top; p_h = top; p_u = top; sp = top - 1 } in
        let rec grow () =
          let gap = phantom.sp - phantom.p_h + 1 in
          if gap >= need then true
          else
            match
              Relocation.pick_donor ~keep:k.cfg.donor_keep
                ~min_grant:k.cfg.min_grant ~regions ~needy:phantom
            with
            | Some (donor, delta) ->
              let wanted = min delta (need - gap) in
              ignore
                (Relocation.donate ~regions ~donor ~needy:phantom ~delta:wanted
                   ~move:(fun ~src ~dst ~len -> mem_move k ~src ~dst ~len));
              k.stats.relocations <- k.stats.relocations + 1;
              grow ()
            | None -> false
        in
        let ok = grow () in
        (* Region moves may have shifted live stacks either way. *)
        List.iter (fun t' -> if Task.is_live t' then sync_saved_sp k t') k.tasks;
        (match k.current with
         | Some c when Task.is_live c ->
           k.m.sp <- c.region.sp;
           sync_cells k c
         | _ -> ());
        if not ok then begin
          (* Roll back: return the carved space to a neighbour. *)
          ignore
            (Relocation.absorb_hole ~regions ~lo:phantom.p_h ~hi:phantom.p_u
               ~move:(fun ~src ~dst ~len -> mem_move k ~src ~dst ~len));
          List.iter (fun t' -> if Task.is_live t' then sync_saved_sp k t') k.tasks;
          (match k.current with
           | Some c when Task.is_live c -> k.m.sp <- c.region.sp; sync_cells k c
           | _ -> ());
          Error "insufficient free stack space for the new task"
        end
        else begin
          (* The carved gap is [phantom.p_h, phantom.p_u). *)
          let region =
            { Relocation.id; p_l = phantom.p_h; p_h = phantom.p_h + heap;
              p_u = phantom.p_u; sp = phantom.p_u - 1 }
          in
          Ok (finish_spawn k nat region tcb)
        end
      end
    end
  end

(** Read a task's 16-bit little-endian data variable by symbol name. *)
let read_var k id name =
  let t = find_task k id in
  match Asm.Image.find_symbol t.nat.source name with
  | Some (Data a) -> heap_byte k id a lor (heap_byte k id (a + 1) lsl 8)
  | _ -> invalid_arg (Printf.sprintf "no data symbol %s in task %d" name id)

(** Structural invariants of the memory layout; raises [Failure] with a
    description when violated.  Used by the test suite after every
    scenario: live regions must be disjoint, ordered, inside the
    application area, with heap <= stack bounds and SP inside the
    region's stack. *)
let check_invariants k =
  let regions = Relocation.by_address (live_regions k) in
  let rec go prev_end = function
    | [] -> ()
    | (r : Relocation.region) :: rest ->
      if r.p_l < prev_end then
        failwith (Printf.sprintf "region %d overlaps its predecessor" r.id);
      if r.p_l < Asm.Image.heap_base then
        failwith (Printf.sprintf "region %d below the application area" r.id);
      if r.p_u > k.app_limit then
        failwith (Printf.sprintf "region %d reaches the kernel area" r.id);
      if not (r.p_l <= r.p_h && r.p_h <= r.p_u) then
        failwith (Printf.sprintf "region %d bounds disordered" r.id);
      let sp =
        match k.current with
        | Some c when c.region == r -> k.m.sp
        | _ -> r.sp
      in
      if sp < r.p_h - 1 || sp >= r.p_u then
        failwith
          (Printf.sprintf "region %d SP 0x%04x outside its stack [0x%04x,0x%04x)"
             r.id sp r.p_h r.p_u);
      go r.p_u rest
  in
  go Asm.Image.heap_base regions;
  (* The displacement cells must describe the current task. *)
  match k.current with
  | Some t when Task.is_live t ->
    if read_cell16 k.m Kcells.hdisp_lo <> Task.hdisp t then
      failwith "stale heap displacement cell";
    if read_cell16 k.m Kcells.sdisp_lo <> Task.sdisp t then
      failwith "stale stack displacement cell"
  | _ -> ()

(** Name and exit reason of every task that has stopped. *)
let outcomes k =
  List.filter_map
    (fun (t : Task.t) ->
      match t.status with Exited r -> Some (t.name, r) | Ready | Sleeping _ -> None)
    k.tasks
