(** Deterministic fault injection for single-mote and multi-mote runs.

    A fault {e plan} is a declarative list of injections, each firing at
    an exact point on the machine's cycle counter.  The engine advances
    the target with bounded [max_cycles] segments and mutates state
    between segments, so the same plan produces byte-identical traces,
    counters, and final machine state on the tier-0 interpreter, the
    tier-1 block engine, and at any network domain count — the same
    stop-point-equivalence contract the snapshot subsystem leans on
    (DESIGN.md, "Fault model & determinism").

    The injection law: an injection is {e applied} exactly when its
    [at] cycle is [<=] the subject's clock.  Engines treat injections
    already due on entry as applied (so a run resumed from a
    mid-campaign snapshot replays only the remaining injections), and
    injections still pending when the run ends never fire.

    Every applied injection is recorded as a {!Trace.Injected} event and
    counted under ["fault.*"] counters. *)

(** One fault.  Corruption faults model single-event upsets and channel
    noise; [Crash]/[Reboot]/[Clock_drift] model whole-node disruption. *)
type kind =
  | Sram_flip of { addr : int; bit : int }
      (** flip one bit of data memory (physical address) *)
  | Sram_burst of { addr : int; len : int; xor : int }
      (** XOR [len] consecutive data bytes with [xor] *)
  | Reg_flip of { reg : int; bit : int }  (** flip one bit of r0..r31 *)
  | Sreg_flip of { bit : int }  (** flip one SREG flag *)
  | Flash_flip of { waddr : int; xor : int }
      (** XOR one flash word; routed through {!Machine.Cpu.load} so both
          execution tiers observe the corrupted code *)
  | Radio_corrupt of { index : int; xor : int }
      (** XOR a pending received radio byte (0 = next to be read) *)
  | Radio_drop of { count : int }
      (** drop up to [count] pending received bytes — a loss burst,
          beyond the network's steady LFSR loss model *)
  | Radio_frame of { bytes : int list }
      (** deliver a crafted frame to this mote's radio: the bytes are
          queued back to back at the radio's reception rate
          ({!Machine.Io.radio_byte_cycles} apart), exactly as a
          neighbour's transmission would arrive through [Net.exchange].
          The delivery vector of [lib/attack]'s adversarial campaigns. *)
  | Adc_stuck of { value : int }
      (** the sensor reads [value]: any in-flight conversion is
          cancelled and the latched sample replaced (stuck until the
          task starts its next conversion) *)
  | Adc_noise of { xor : int }
      (** XOR the latched sample and skip one position in the sample
          sequence *)
  | Crash  (** kill the mote: all tasks exit, the machine halts *)
  | Reboot
      (** watchdog reset via {!Kernel.watchdog_reboot}: live tasks
          warm-restart, SRAM persists; revives a crashed mote *)
  | Clock_drift of { cycles : int }
      (** advance this mote's clock by [cycles] without executing —
          relative drift against its network neighbours *)

type injection = { at : int; mote : int; kind : kind }

(** Compact one-line description, e.g. ["sram_flip@0x0234.3"]; recorded
    in the {!Trace.Injected} event. *)
val describe : kind -> string

(** Counter name for a kind, e.g. ["fault.sram_flip"]. *)
val counter_name : kind -> string

module Plan : sig
  type t = { seed : int; injections : injection list }
  (** [seed] is recorded provenance (and drives {!random}); engines use
      only [injections], kept sorted by [at]. *)

  (** Sorts the injections by firing cycle (stable, so equal-cycle
      injections keep list order). *)
  val make : ?seed:int -> injection list -> t

  (** Draw [n] injections uniformly over the cycle [window] from a
      seeded deterministic generator (no [Random] state involved):
      the same arguments produce the same plan on every run, machine,
      and OCaml version.  [motes] (default 1) spreads injections over
      mote ids [0..motes-1].  The default kind population is corruption
      only; [disruptive] adds [Crash], [Reboot], and [Clock_drift]. *)
  val random :
    seed:int ->
    n:int ->
    window:int * int ->
    ?motes:int ->
    ?disruptive:bool ->
    unit ->
    t

  (** Parse one CLI injection spec, ["AT[@MOTE]:KIND[:ARG...]"] with
      numbers in decimal or [0x] hex:
      - ["120000:sram:0x234:3"] — bit 3 of data byte 0x234
      - ["120000:burst:0x400:32:0xFF"] — XOR 32 bytes from 0x400
      - ["120000:reg:27:7"] / ["120000:sreg:3"]
      - ["120000:flash:0x123:0xFF"] — XOR flash word 0x123
      - ["120000:radio_corrupt:0:0xFF"] / ["120000:radio_drop:3"]
      - ["120000:frame:a7 05 41 42 43 44 45"] — crafted radio frame,
        hex bytes with optional spaces
      - ["120000:adc_stuck:512"] / ["120000:adc_noise:0x155"]
      - ["200000@1:crash"] / ["250000@1:reboot"] / ["150000:drift:5000"]

      Every parsed injection is range-validated (addresses against the
      data/flash spaces, bit indices against register width, byte values
      against 0..255, lengths and counts against sane bounds); a bad
      field is a one-line typed [Error], never a raw exception. *)
  val injection_of_spec : string -> (injection, string) result

  (** The bytes of a crafted radio frame, spelled as the ["frame"] spec
      field and [sensmart_cli attack --packet] take them: hex digit
      pairs, spaces optional ("a7 05 41" or "a70541"), 1 to 4096 bytes.
      Anything else is an [Error] that quotes the string as given. *)
  val frame_of_hex : string -> (int list, string) result

  val pp : Format.formatter -> t -> unit
end

(** Apply one injection to a kernel's mote right now, regardless of its
    [at] field: mutate the state, emit {!Trace.Injected}, bump
    ["fault.injected"] and the per-kind counter.  [trace] chooses the
    sink for both (default the kernel's own); the network engine passes
    the master sink so multi-mote counters do not collide.  Exposed for
    tests; campaign code should use the engines below. *)
val inject : ?trace:Trace.t -> Kernel.t -> injection -> unit

(** {!Kernel.run} under a fault plan.  Runs in segments bounded by the
    next pending injection's [at] cycle, applying every due injection
    between segments (injections for other motes are ignored).  While
    the machine sits in an abnormal halt (an injected crash, an
    uncontainable fault) the CPU executes nothing but real time — and
    the watchdog — keep going: the clock fast-forwards to each pending
    injection, which is how a [Crash] at [c] and a [Reboot] at [c' > c]
    compose.  [Halted Break_hit] (every task exited) ends the run for
    good.  Returns the final stop: [Break_hit], [Out_of_fuel] at the
    cycle budget, or the halt the plan left behind.  [?tier] as in
    {!Kernel.run}. *)
val run_kernel :
  ?tier:int ->
  ?max_cycles:int ->
  plan:Plan.t ->
  Kernel.t ->
  Machine.Cpu.stop

(** {!Net.run} under a fault plan.  Injections are applied between
    lockstep segments on the coordinator — the first quantum boundary at
    or after [at] — so results are byte-identical at any [domains]
    count; events and counters go to the network's master sink.
    [Reboot] also revives a finished/crashed node.  Returns the number
    of motes still running.  When every mote has finished the lockstep
    clock stops, so injections due beyond that point never fire. *)
val run_net : ?domains:int -> ?max_cycles:int -> plan:Plan.t -> Net.t -> int

(** Seeded many-trial campaigns over a single-mote workload, producing
    the JSON-able report behind [sensmart_cli fault] and the
    EXPERIMENTS.md containment tables. *)
module Campaign : sig
  type trial = {
    index : int;
    plan : Plan.t;  (** the trial's derived plan, for replay *)
    injected : int;  (** injections actually applied *)
    stop : string;  (** printed {!Machine.Cpu.stop} of the run *)
    cycles : int;  (** final clock *)
    clean_exits : int;  (** tasks that exited with reason ["exit"] *)
    faulted : int;  (** tasks terminated by the kernel *)
    contained : bool;
        (** the mote survived: no residual machine halt other than
            normal termination, and {!Kernel.check_invariants} holds *)
    reason : string;
        (** the verdict's evidence: which check failed at what cycle
            (dead mote, violated invariant), or what contained the
            damage (first kernel kill, clean exits) *)
  }

  type report = {
    seed : int;
    trials : trial list;
    trace : Trace.t;
        (** aggregate ["fault.*"] counters over the whole campaign;
            {!Trace.counters_json} renders them as the JSON blob *)
  }

  (** Run [trials] independent trials of the images under [config].
      Trial [i] boots a fresh kernel and runs it under a plan of
      [faults] injections drawn from a seed mixed from [seed] and [i],
      over the window [(max_cycles/10, 9*max_cycles/10)], at execution
      tier [?tier] (as in {!Kernel.run}).  Fully deterministic: same
      arguments, same report, at every tier.

      [on_trial] is called with each finished trial, in index order —
      the campaign service streams per-trial progress through it and
      polls its job deadline there; an exception it raises aborts the
      campaign (the partial report is discarded by the raiser). *)
  val run :
    ?tier:int ->
    ?config:Kernel.config ->
    ?trials:int ->
    ?faults:int ->
    ?max_cycles:int ->
    ?disruptive:bool ->
    ?on_trial:(trial -> unit) ->
    seed:int ->
    Asm.Image.t list ->
    report

  val pp_report : Format.formatter -> report -> unit
end
