(** The SenSmart kernel runtime.

    One instance owns one simulated mote and a set of naturalized
    tasks.  Scheduling is round-robin over time slices counted on the
    global clock; preemption happens only at software traps (the
    backward-branch counter) and other kernel entries — no clock
    interrupt is involved, so tasks that disable interrupts are still
    preempted (Section IV-B).

    Kernel work that the real system implements in AVR (context copies,
    relocation memmoves) runs in OCaml against the simulated SRAM and
    charges cycles per {!Costing}. *)

module Task : module type of Task
module Costing : module type of Costing
module Relocation : module type of Relocation

type config = {
  slice_cycles : int;  (** round-robin time slice (cycles) *)
  stack_budget : int option;
      (** total stack space across tasks; [None] uses everything left of
          the application area after the heaps (the paper's model).
          Figure 8 caps this to LiteOS's budget. *)
  min_stack : int;  (** smallest admissible initial stack per task *)
  min_grant : int;  (** smallest useful relocation grant *)
  donor_keep : int;  (** stack bytes a donor must keep for its own use *)
  trap_period : int;  (** backward branches per software trap, 1..256 *)
  spare_tcbs : int;  (** TCB slots reserved for run-time {!spawn} *)
}

(** The paper's defaults (256-branch trap period, 4 spare TCBs). *)
val default_config : config

type stats = {
  mutable traps : int;  (** software-trap kernel entries *)
  mutable context_switches : int;
  mutable relocations : int;
  mutable relocated_bytes : int;
  mutable grow_requests : int;
  mutable translations : int;  (** indirect program-address lookups *)
  mutable init_cycles : int;
  mutable preempt_delay_total : int;
      (** cycles between slice expiry and the honouring trap, summed *)
  mutable preempt_delay_max : int;
  mutable preempt_switches : int;
}

type t = {
  m : Machine.Cpu.t;
  cfg : config;
  mutable tasks : Task.t list;  (** in id order; exited tasks remain listed *)
  mutable current : Task.t option;
  mutable slice_start : int;
  mutable next_flash : int;  (** next free flash word, for spawned tasks *)
  app_limit : int;  (** top of the application area for this boot *)
  stats : stats;
  trace : Trace.t;
      (** event stream + counters registry (see {!Trace}); standalone
          boots own their sink, networked boots share one across motes.
          Kernel events (switches, stack motion, task lifecycle, CPU
          faults) are recorded here; software traps are counted in
          {!stats} instead of logged. *)
  mote : int;  (** id stamped onto this kernel's trace events *)
}

exception Admission_failure of string

(** Tasks that have not exited. *)
val live_tasks : t -> Task.t list

(** Task by id; raises [Not_found] when no such task exists. *)
val find_task : t -> int -> Task.t

(** Recorded events, oldest first (the whole sink's stream: for a
    networked kernel this includes sibling motes' events). *)
val event_log : t -> Trace.event list

(** A prepared boot recipe: naturalized programs plus one flash image
    holding them, reusable across any number of motes.  The image is
    sized to its content — it ends at the 256-word chunk after the last
    placed word, and the rest of the flash reads as erased.
    {!boot_from} aliases the image copy-on-write (see
    {!Machine.Cpu.create_shared}), so a fleet of same-program motes
    shares a single flash array, decode cache and tier-1 block table
    until a mote first writes its flash. *)
type template

(** Naturalize the images (sequential flash placement, exactly as
    {!boot}) and bake the shared flash image once.  Raises
    {!Admission_failure} when the naturalized code overflows flash. *)
val prepare :
  ?config:config ->
  ?rewrite:Rewriter.Rewrite.config ->
  Asm.Image.t list ->
  template

(** Boot one mote from a prepared template — byte-identical to {!boot}
    with the same config and images, except the mote's flash aliases
    the shared template image (copy-on-write).  [trace] shares an
    existing sink (e.g. the network's); [mote] (default 0) stamps this
    kernel's events.  Raises {!Admission_failure} when heaps plus
    minimum stacks do not fit. *)
val boot_from : ?trace:Trace.t -> ?mote:int -> template -> t

(** Naturalize and admit the images onto a fresh mote ({!prepare} then
    {!boot_from}).  Raises {!Admission_failure} when heaps plus minimum
    stacks do not fit.  [trace] shares an existing sink (e.g. the
    network's); [mote] (default 0) stamps this kernel's events. *)
val boot :
  ?config:config ->
  ?rewrite:Rewriter.Rewrite.config ->
  ?trace:Trace.t ->
  ?mote:int ->
  Asm.Image.t list ->
  t

(** Run until every task exits (machine halts with [Break_hit]) or the
    cycle budget runs out.  [?tier] stores a new tier ceiling on the
    machine first, as in {!Machine.Cpu.run}: [0] = the tier-0
    reference interpreter (differential testing and divergence
    bisection), [2] = ahead-of-time compiled execution with graceful
    per-PC fallback; behaviour is bit-identical across tiers.

    Machine-level faults (invalid opcode, bounds-check kill) are
    contained: when a live task is current the kernel logs a
    [Cpu_fault] event, terminates that task alone, and keeps running
    its siblings — the Table I isolation property, checked adversarially
    by [lib/fault] campaigns.  The halt ends the run only when no live
    task can be blamed (e.g. after {!crash}). *)
val run : ?tier:int -> ?max_cycles:int -> t -> Machine.Cpu.stop

(** Kill the whole mote: logs a [Cpu_fault] event, clears the current
    task, and halts the machine with [Fault reason], so any subsequent
    {!run} returns the halt immediately without terminating anyone.
    Task records stay frozen, which lets {!watchdog_reboot} revive the
    node afterwards.  Models a node crash in a fault campaign. *)
val crash : t -> string -> unit

(** Watchdog reset: the CPU restarts but SRAM persists, as on a real
    AVR watchdog reset.  Every live task warm-restarts — context back at
    its entry point, heap re-initialized from the load image, stack
    pointer at the top of its current region (boundaries from past
    relocations are kept).  Exited tasks stay dead: their regions were
    already recycled.  Charges {!Costing.init_fixed} and per-task init
    costs, then reschedules. *)
val watchdog_reboot : t -> unit

(** Admit a new application at run time — "reprogramming as an OS
    service".  Needs a spare TCB slot; its memory region is carved from
    free space or donors' surplus stack.  Rolls back on failure. *)
val spawn : t -> Asm.Image.t -> (Task.t, string) result

(** Publish {!stats}, the machine's cycle/instruction/memory-access
    counters, and the per-task accounting into the trace counters
    registry under [prefix] (pull-based; values overwrite).  Counter
    names are documented in DESIGN.md. *)
val publish_counters : ?prefix:string -> t -> unit

(** Read a byte of a task's heap by logical address (live, or from the
    post-mortem snapshot after exit). *)
val heap_byte : t -> int -> int -> int

(** Read a task's 16-bit little-endian data variable by symbol name. *)
val read_var : t -> int -> string -> int

(** Check structural memory-layout invariants (region ordering,
    disjointness, bounds, SP containment, cell freshness); raises
    [Failure] on violation.  Cheap enough to call after every test
    scenario. *)
val check_invariants : t -> unit

(** Name and exit reason of every task that has stopped. *)
val outcomes : t -> (string * string) list
