(* Tier-1 execution engine: a basic-block compiler for the simulated AVR.

   On first execution of a program point, the run of decoded
   instructions up to (and including) the next block-ending instruction
   (unconditional branch/call/ret, SYSCALL, SLEEP, BREAK — see
   {!Avr.Isa.ends_block}) is translated into a single closure that
   executes the whole run with none of tier-0's per-instruction
   overhead: no run-loop stop checks, no decode-cache lookup, no trace
   option check, no PC update, no [Isa.words]/[Cycles.base] dispatch,
   and a single batched update of the retired-instruction counter.  Only
   the terminator pays tier-0's bookkeeping: it runs through
   {!State.exec_insn}, as tier-0 [step] does.

   Conditional branches do not end a block.  The compiler keeps
   collecting the fall-through path and turns each BRBS/BRBC into an
   in-body side exit, so a branchy inner loop (the common sensor-node
   code shape) still compiles into one long superblock; a taken branch
   sets the PC and leaves the block early with exact cycle and
   instruction accounting.  {!form} builds this superblock; tier-2
   ({!Aot}) translates the very same value, so both compiling tiers
   partition flash identically.

   The body is a pre-decoded instruction array walked with direct
   (jump-table) dispatch; per-instruction cycle costs are pre-computed
   into a parallel array, and runs of instructions that cannot touch the
   data space (and cannot exit) have their costs pre-summed onto the
   run's first entry, so a load/store still observes exactly the cycle
   count tier-0 would have at that point (peripheral registers are
   clocked off [m.cycles]).

   Closures are cached in [m.blocks] (chunked, copy-on-write — see
   {!State}), keyed by entry PC.  That table belongs to the machine's
   flash image, so every mote booted from one template shares it and a
   fleet compiles each block once: a block reads only flash words when
   formed, and takes the machine it runs on as an argument.  Entries
   are invalidated by {!State.load} (the only path that writes flash —
   the kernel's trampoline/kcell patching and run-time task admission
   go through it; on a shared image it first detaches the writer onto
   private tables).  Each cached block
   carries [worst], an upper bound on the cycles one execution can
   consume; {!Cpu.run} only enters a compiled block when the whole run
   fits under the preemption/fuel horizon and falls back to
   single-stepping otherwise, which keeps tier-1 stop points
   bit-identical to tier-0's.

   Correctness contract: for any machine state, executing a compiled
   block leaves every architectural field (registers, SP, SREG, PC,
   SRAM, peripherals, cycle/instruction/access counters, halt reason)
   exactly as executing the same instructions with {!State.step} would.
   The differential harness in test/test_tiers.ml enforces this on all
   bundled programs and thousands of randomized ones. *)

open Avr
open State

(* Instructions per block body, capped so a block's flash span stays
   within [State.max_block_span] (each instruction is at most 2 words,
   plus a 2-word terminator). *)
let max_body = 48

let () = assert ((max_body * 2) + 2 <= max_block_span)

(* Raised (without a backtrace: they are on the hot path) when a taken
   conditional branch leaves a block early ([Side_exit]), or loops back
   to the block's own entry with the next iteration's worst case still
   under the horizon ([Loop_back]: [exec] restarts the walk without
   returning to the run loop, so a tight inner loop never pays the
   block-transition overhead on its back edge). *)
exception Side_exit
exception Loop_back

(* Walk a block body.  Data instructions run through
   {!State.exec_data}, the executor tier-0 [step] uses; PC, cycle and
   retired-count bookkeeping belong to the block closure.  [targets]
   holds, for each conditional branch, its pre-resolved taken-target
   word address; a taken branch sets the PC, charges its extra cycle,
   retires the instructions executed so far and raises {!Side_exit}.
   Release builds inline [exec_data], so a block execution makes no
   per-instruction calls of its own. *)
let exec_run m (ops : Isa.t array) (costs : int array) (targets : int array)
    (loopb : bool array) worst limit =
  for idx = 0 to Array.length ops - 1 do
    m.cycles <- m.cycles + Array.unsafe_get costs idx;
    match Array.unsafe_get ops idx with
    | Isa.Brbs (s, _) ->
      if (m.sreg lsr s) land 1 = 1 then begin
        m.cycles <- m.cycles + Cycles.branch_taken_extra;
        m.insns <- m.insns + idx + 1;
        if Array.unsafe_get loopb idx && m.cycles + worst <= limit then
          raise_notrace Loop_back
        else begin
          m.pc <- Array.unsafe_get targets idx;
          raise_notrace Side_exit
        end
      end
    | Isa.Brbc (s, _) ->
      if (m.sreg lsr s) land 1 = 0 then begin
        m.cycles <- m.cycles + Cycles.branch_taken_extra;
        m.insns <- m.insns + idx + 1;
        if Array.unsafe_get loopb idx && m.cycles + worst <= limit then
          raise_notrace Loop_back
        else begin
          m.pc <- Array.unsafe_get targets idx;
          raise_notrace Side_exit
        end
      end
    | insn -> exec_data m insn
  done

(* Pre-sum cycle costs: runs of instructions that cannot touch the data
   space charge their whole cost on the run's first entry (later entries
   cost 0), so every memory-touching instruction still executes with
   [m.cycles] exactly as under tier-0.  A conditional branch closes the
   run *after* contributing its own (not-taken) cost: cycles for
   instructions beyond a possible side exit are never pre-charged, so an
   early exit leaves the clock exact too. *)
let presum_costs (ops : Isa.t array) : int array =
  let n = Array.length ops in
  let costs = Array.make n 0 in
  let run_head = ref 0 in
  for i = 0 to n - 1 do
    let c = Cycles.base ops.(i) in
    if Isa.touches_data_memory ops.(i) then begin
      costs.(i) <- c;
      run_head := i + 1
    end
    else begin
      costs.(!run_head) <- costs.(!run_head) + c;
      if Isa.is_cond_branch ops.(i) then run_head := i + 1
    end
  done;
  costs

(* One superblock as both compiling tiers see it: the decoded run from
   an entry PC up to the next block-ending instruction (see
   {!Avr.Isa.ends_block}), with conditional branches kept in the body
   as side exits.  Tier-1 closes over it ({!compile}); tier-2 prints
   OCaml from it ({!Aot}). *)
type superblock = {
  body : (Isa.t * int) array;  (* (insn, own word address) *)
  term : Isa.t option;
      (* block-ending insn at [term_pc]; [None] when the [max_body] cap
         or an undecodable word ends the block first *)
  term_pc : int;
  worst : int;  (* upper bound on the cycles one execution consumes *)
  retired : int;  (* instructions retired by a full (non-side-exit) run *)
}

(* Form the superblock entered at [entry] from the flash words [fetch]
   returns.  [None] when the entry word itself is undecodable (tier-0
   [step] then reports the [Invalid_opcode] halt with the correct PC). *)
let form fetch entry : superblock option =
  let rec collect pc body n worst retired =
    if n >= max_body then finish pc body None worst retired
    else
      match Decode.at fetch pc with
      | exception Decode.Unknown_opcode _ ->
        if pc = entry then None else finish pc body None worst retired
      | insn, size ->
        if Isa.ends_block insn then
          finish pc body (Some insn) (worst + Cycles.base insn) (retired + 1)
        else
          let extra =
            if Isa.is_cond_branch insn then Cycles.branch_taken_extra else 0
          in
          collect (pc + size) ((insn, pc) :: body) (n + 1)
            (worst + Cycles.base insn + extra)
            (retired + 1)
  and finish pc body term worst retired =
    Some
      { body = Array.of_list (List.rev body); term; term_pc = pc; worst;
        retired }
  in
  collect entry [] 0 0 0

(* Compile and cache the block entered at [entry]; [None] as {!form}. *)
let compile m entry : block option =
  match form (flash_word m.flash) entry with
  | None -> None
  | Some sb ->
    let ops = Array.map fst sb.body in
    let targets =
      Array.map
        (fun (insn, p) ->
          match insn with
          | Isa.Brbs (_, k) | Isa.Brbc (_, k) ->
            (p + Isa.words insn + k) land 0xFFFF
          | _ -> 0)
        sb.body
    in
    let costs = presum_costs ops in
    let loopb = Array.map (fun t -> t = entry) targets in
    let worst = sb.worst and retired = sb.retired in
    let term = sb.term and term_pc = sb.term_pc in
    (* Block chaining: a benign exit (side exit or pure-control-flow
       terminator) transfers straight to the already-compiled target
       block when its worst case still fits the horizon, skipping the
       run-loop round trip entirely.  Every recursive call is a tail
       call (the handlers cover only the body walk), so a long chain
       runs in constant stack; non-benign exits (SYSCALL/SLEEP/BREAK,
       which may install hooks, patch flash or halt) always return
       [false] to the run loop first, so chaining never outruns a stop
       condition or a block-cache invalidation. *)
    let rec exec m limit =
      match exec_run m ops costs targets loopb worst limit with
      | () ->
        m.insns <- m.insns + retired;
        let benign =
          match term with
          | Some insn ->
            (* Out of line: inlined, the whole executor would bloat this
               chaining closure. *)
            (exec_insn [@inlined never]) m insn term_pc
          | None ->
            (* Block cap reached or an undecodable word ahead: fall
               through and let the run loop continue (or fault) there. *)
            m.pc <- term_pc land 0xFFFF;
            true
        in
        if benign then chain m limit else false
      | exception Side_exit ->
        (* A taken branch already set PC, cycles and the retired count;
           a branch is pure control flow (benign). *)
        chain m limit
      | exception Loop_back ->
        (* Back to our own entry with the horizon already re-checked. *)
        exec m limit
    and chain m limit =
      let pc = m.pc land 0xFFFF in
      match
        Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF)
      with
      | Some b when m.cycles + b.worst <= limit -> b.exec m limit
      | _ -> true (* not compiled yet or horizon too close: run loop *)
    in
    let b : block = { exec; worst } in
    let ci = entry lsr 8 in
    let chunk =
      let c = m.blocks.(ci) in
      if c != no_chunk then c
      else begin
        let c = Array.make chunk_words None in
        m.blocks.(ci) <- c;
        c
      end
    in
    chunk.(entry land 0xFF) <- Some b;
    Some b

(* Compile threshold: an entry PC must be looked up this many times
   before its block is compiled; below it the run loop single-steps via
   tier-0.  Cold straight-line code (boot paths, one-shot handlers, the
   whole body of a short run) is then never compiled at all — the
   "lfsr_default only 1.64x" overhead of BENCH_pr2.json — while a loop
   head reaches the threshold within its first iterations and steady
   state is untouched.  The counter bookkeeping lives entirely on the
   miss path: once compiled, lookups return the cached block without
   touching the heat table. *)
let threshold = 2

(** The compiled block entered at [pc], compiling and caching it once
    [pc] has been looked up [threshold] times.  [None] below the
    threshold (caller steps via tier-0) and when the entry instruction
    is undecodable. *)
let lookup m pc =
  let pc = pc land 0xFFFF in
  match Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF) with
  | Some _ as cached -> cached
  | None ->
    let ci = pc lsr 8 in
    let chunk =
      let c = Array.unsafe_get m.heat ci in
      if c != no_heat then c
      else begin
        let c = Array.make chunk_words 0 in
        m.heat.(ci) <- c;
        c
      end
    in
    let h = Array.unsafe_get chunk (pc land 0xFF) + 1 in
    if h >= threshold then begin
      Array.unsafe_set chunk (pc land 0xFF) 0;
      compile m pc
    end
    else begin
      Array.unsafe_set chunk (pc land 0xFF) h;
      None
    end
