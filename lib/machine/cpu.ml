(* Tiered execution front-end for the AVR machine.

   All machine state and the tier-0 single-step reference interpreter
   live in {!State} (re-exported here, so callers see one [Cpu] module).
   This module owns the run loops:

   - [run_interp] steps one instruction at a time through [step].  It is
     the reference tier and the only tier that fires the per-instruction
     [m.trace] hook.
   - [run_blocks] executes tier-1 compiled basic blocks from {!Block}:
     one cached closure per straight-line run, entered only when the
     block's worst-case cycle cost fits under both the fuel and the
     preemption horizon, so every stop point (Preempted / Out_of_fuel /
     Sleeping / Halted) lands on exactly the cycle tier-0 would stop at.
     Any miss — uncompilable entry, horizon too close, or a tracing
     hook installed — falls back to a single tier-0 [step].
   - [run_tier2] enters ahead-of-time compiled code from {!Aot}, falling
     back to one tier-1 iteration wherever it cannot serve the PC.

   All three decide when to stop through one check, [stopped].  [run]
   picks the tier: tracing (or [~tier:0]) forces tier-0, otherwise
   [m.tier] selects the engine and the per-instruction trace-option
   check disappears from the hot path entirely (the compiled closures
   never consult it). *)

include State

(* The cycle horizon a live machine has reached, if any: fuel first,
   then preemption. *)
let[@inline] horizon ~max_cycles m : stop option =
  if m.cycles >= max_cycles then Some Out_of_fuel
  else if m.cycles >= m.preempt_at then Some Preempted
  else None

(* Why a machine about to execute must stop instead — halted, a SLEEP
   just executed (consumed here: the caller decides how to wake), or a
   cycle horizon reached — or [None] to keep running.  Every run loop
   checks this on entry and after anything that can change those
   fields. *)
let[@inline] stopped ~max_cycles m : stop option =
  match m.halted with
  | Some h -> Some (Halted h)
  | None ->
    if m.sleeping then begin
      m.sleeping <- false;
      Some Sleeping
    end
    else horizon ~max_cycles m

(** Tier-0: run until halt, SLEEP, the preemption horizon, or
    [max_cycles], one [step] at a time. *)
let run_interp ?(max_cycles = max_int) m : stop =
  let rec loop () =
    match stopped ~max_cycles m with
    | Some s -> s
    | None ->
      step m;
      loop ()
  in
  loop ()

(** Tier-1: same contract as [run_interp], executing compiled basic
    blocks whenever the next block provably fits under both cycle
    limits.  The horizon guard makes the two tiers stop-point
    equivalent: a block is entered only if even its worst-case cost
    cannot overrun [max_cycles] or [m.preempt_at], and otherwise the
    machine single-steps right up to the limit exactly as tier-0
    would. *)
let run_blocks ?(max_cycles = max_int) m : stop =
  (* [loop] is entered with the machine known live: not halted, not
     sleeping, and strictly below both cycle limits.  A compiled block
     whose terminator is pure control flow returns [true] ("benign"),
     letting the loop skip the halted/sleeping/trace re-checks; only
     SYSCALL, BREAK and SLEEP terminators (and tier-0 fallback steps)
     can change those fields and route through [post]. *)
  let rec loop () =
    let pc = m.pc land 0xFFFF in
    match
      Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF)
    with
    | Some b ->
      (* The lower of the two horizons; [preempt_at] can only move while
         we are outside the benign path, so re-deriving it here is safe. *)
      let limit =
        if max_cycles < m.preempt_at then max_cycles else m.preempt_at
      in
      if m.cycles + b.worst <= limit then begin
        if b.exec m limit then
          (* Benign terminator: only the cycle horizons can trip. *)
          (match horizon ~max_cycles m with Some s -> s | None -> loop ())
        else post ()
      end
      else begin
        (* Worst case overruns a horizon: single-step to stay exactly
           on the stop point tier-0 would produce. *)
        step m;
        post ()
      end
    | None ->
      (match Block.lookup m pc with
       | Some _ -> loop ()
       | None ->
         (* Undecodable entry: let the reference step report the halt. *)
         step m;
         post ())
  and post () =
    match stopped ~max_cycles m with
    | Some s -> s
    | None when m.trace <> None ->
      (* A hook appeared mid-run (e.g. installed by a syscall handler):
         honour it instruction by instruction. *)
      run_interp ~max_cycles m
    | None -> loop ()
  in
  post ()

(** Tier-2: same contract again, entering ahead-of-time compiled code
    (see {!Aot}) whenever the machine's flash has a compiled program
    covering the current PC.  The compiled program chains superblocks
    internally and returns through {!Aot.enter}; any PC the program
    cannot serve — SLEEP, BREAK and SYSCALL included, or a horizon too
    close for even one block — falls back to one tier-1 iteration
    (which itself falls back to tier-0), guaranteeing forward progress
    and the lower tiers' stop points. *)
let run_tier2 ?(max_cycles = max_int) m : stop =
  let rec loop () =
    let ready =
      match m.t2 with
      | T2_ready (p, c) -> Some (p, c)
      | T2_off -> None
      | T2_unknown | T2_wait _ -> Aot.attempt m
    in
    match ready with
    | Some (p, c) when p.Aot_runtime.has (m.pc land 0xFFFF) ->
      let limit =
        if max_cycles < m.preempt_at then max_cycles else m.preempt_at
      in
      let s = Aot.enter m p c ~limit in
      (* Chaining may have run the clock right up to a limit. *)
      (match stopped ~max_cycles m with
       | Some stop -> stop
       | None when s = Aot_runtime.stop_horizon ->
         (* Next block's worst case overruns a horizon: single-step to
            stay exactly on the tier-0 stop point. *)
         step m;
         post ()
       | None ->
         (* PC left compiled coverage, or reached a SLEEP, BREAK or
            SYSCALL: serve one iteration from below. *)
         tier1_once ())
    | Some _ -> tier1_once ()
    | None -> (
      match m.t2 with
      | T2_off ->
        (* Off for this flash image (no toolchain, blank image, …):
           hand the rest of the run to tier-1 wholesale. *)
        run_blocks ~max_cycles m
      | _ -> tier1_once ())
  and tier1_once () =
    (* One [run_blocks] iteration: cached block if it fits, else
       compile-or-step via {!Block.lookup}'s heat gating. *)
    let pc = m.pc land 0xFFFF in
    let block =
      match
        Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF)
      with
      | Some _ as b -> b
      | None -> Block.lookup m pc
    in
    (match block with
     | Some b ->
       let limit =
         if max_cycles < m.preempt_at then max_cycles else m.preempt_at
       in
       if m.cycles + b.worst <= limit then ignore (b.exec m limit) else step m
     | None -> step m);
    post ()
  and post () =
    match stopped ~max_cycles m with
    | Some s -> s
    | None when m.trace <> None -> run_interp ~max_cycles m
    | None -> loop ()
  in
  post ()

(** Run until halt, SLEEP, the preemption horizon, or [max_cycles].
    [?tier], when given, is stored as the machine's requested tier
    ceiling first.  Dispatch: tracing forces tier-0; otherwise [m.tier]
    selects the engine, each tier falling back to the one below wherever
    it cannot serve the current PC. *)
let run ?tier ?(max_cycles = max_int) m : stop =
  (match tier with Some t -> m.tier <- t | None -> ());
  if m.trace <> None || m.tier <= 0 then run_interp ~max_cycles m
  else if m.tier = 1 then run_blocks ~max_cycles m
  else run_tier2 ~max_cycles m

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
