(* Tiered execution front-end for the AVR machine.

   All machine state and the tier-0 single-step reference interpreter
   live in {!State} (re-exported here, so callers see one [Cpu] module).
   This module owns the one run loop, [run].  While [stopped] says run
   on, each iteration does one of three things:

   - with a per-instruction [m.trace] hook, or at tier 0, it takes one
     [step], the only execution that fires the hook;
   - at tier 1, it runs one tier-1 iteration: the compiled basic block
     from {!Block} at the PC, entered only when its worst-case cycle
     cost fits under both the fuel and the preemption horizon, else one
     [step].  So every stop point (Preempted / Out_of_fuel / Sleeping /
     Halted) lands on exactly the cycle tier-0 would stop at;
   - at tier 2, it enters the machine's ahead-of-time compiled program
     from {!Aot}, which runs on the machine record itself and returns at
     the first PC it does not serve; then, unless [stopped] now says
     stop (compiled chaining may have run the clock to a horizon), one
     tier-1 iteration, which runs what compiled code left to the host
     and guarantees progress.

   [m.trace] and [m.tier] are read on every iteration, so a hook that a
   syscall handler installs mid-run is honoured from the next
   instruction on. *)

include State

(* Why a machine about to execute must stop instead — halted, a SLEEP
   just executed (consumed here: the caller decides how to wake), or a
   cycle horizon reached, fuel first — or [None] to keep running. *)
let[@inline] stopped ~max_cycles m : stop option =
  match m.halted with
  | Some h -> Some (Halted h)
  | None ->
    if m.sleeping then begin
      m.sleeping <- false;
      Some Sleeping
    end
    else if m.cycles >= max_cycles then Some Out_of_fuel
    else if m.cycles >= m.preempt_at then Some Preempted
    else None

(* One tier-1 iteration under the cycle [limit]: the block at the PC,
   cached or compiled once hot ({!Block.lookup}), when its worst case
   fits, else one [step]. *)
let[@inline] tier1 m limit =
  let pc = m.pc land 0xFFFF in
  match
    match Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF) with
    | Some _ as b -> b
    | None -> Block.lookup m pc
  with
  | Some b when m.cycles + b.worst <= limit -> b.exec m limit
  | _ -> step m

(* Enter the compiled program [p] at [m.pc], counting the instructions
   it retires. *)
let[@inline] enter p m limit =
  let insns = m.insns in
  p.enter m limit;
  if m.insns <> insns then ignore (Atomic.fetch_and_add Aot.t2_insns (m.insns - insns))

(** Run until halt, SLEEP, the preemption horizon, or [max_cycles].
    [?tier], when given, is stored as the machine's requested tier
    ceiling first.  Each iteration follows the tracing hook and
    [m.tier], each tier falling back to the one below wherever it
    cannot serve the current PC. *)
let run ?tier ?(max_cycles = max_int) m : stop =
  (match tier with Some t -> m.tier <- t | None -> ());
  let rec loop () =
    match stopped ~max_cycles m with
    | Some s -> s
    | None ->
      let limit = if max_cycles < m.preempt_at then max_cycles else m.preempt_at in
      if m.trace <> None || m.tier <= 0 then step m
      else if m.tier = 1 then tier1 m limit
      else begin
        (match m.t2 with
         | T2_ready p -> enter p m limit
         | T2_off -> ()
         | T2_unknown | T2_wait _ -> (
           match Aot.attempt m with Some p -> enter p m limit | None -> ()));
        (* Compiled chaining may have run the clock to [limit]; otherwise
           serve what compiled code left to the host. *)
        match stopped ~max_cycles m with
        | None -> tier1 m limit
        | Some _ -> ()
      end;
      loop ()
  in
  loop ()

(** Run a standalone program to completion: SLEEP fast-forwards to the
    next peripheral wake-up, exactly like a bare-metal TinyOS-style app.
    Returns the final halt and the consumed cycle count. *)
let run_native ?tier ?(max_cycles = 1_000_000_000) m : halt option =
  (match tier with Some t -> m.tier <- t | None -> ());
  let rec loop () =
    match run ~max_cycles m with
    | Halted h -> Some h
    | Sleeping ->
      let wake = next_wake m in
      if wake = max_int || wake > max_cycles then None
      else begin
        fast_forward m wake;
        loop ()
      end
    | Preempted ->
      (* No kernel is driving this run, so a stale horizon below the
         clock would make [run] return [Preempted] forever: clear it. *)
      m.preempt_at <- max_int;
      loop ()
    | Out_of_fuel -> None
  in
  loop ()
