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
   instruction accounting.  {!walk} finds this superblock, and {!form}
   collects it as the unit tier-2 ({!Aot}) translates.

   Tier-1 ({!compile}) walks the same superblocks with {!walk}, through
   the decode cache, and composes them through statically known control
   transfers: when a superblock ends in JMP, RJMP, CALL or RCALL, that
   terminator becomes a body op and the superblock at its target is
   appended, up to [max_ops] ops and never twice into one target.  A
   body CALL/RCALL pushes its return address; a body JMP/RJMP costs
   only its cycles.  In a block that branches back to its own entry, a
   RET whose call the block followed is followed too, as a guarded op:
   it pops, and side-exits to the popped address when that is not the
   one the call pushed.  Other RETs, indirect jumps, SYSCALL, SLEEP and
   BREAK still end the block, so a call into a shared service routine,
   its return and the jump back to the caller's loop run as one block.
   A composed block therefore covers flash that is not contiguous.

   Polling loops.  When exactly one conditional branch targets the
   block's own entry, the ops up to it are a loop path; when it reads a
   peripheral, {!check} decides at compile time whether it can be
   summarized: only register and flag ops, static-address
   IN/OUT/LDS/STS, balanced stack ops and conditional branches; no I/O
   write but SREG; and each static cell
   the path both loads and stores "carried" (loaded, changed by a
   constant, stored back, its value reaching nothing but one zero-test
   side exit).  Such a block's [exec] compares the written registers,
   SREG and SP at each back edge with the previous back edge's, and
   while they are equal {!summarize} retires the largest number n of
   further iterations that keeps each zero test untaken, each
   peripheral read inside its {!Io.stable_until} window and the next
   iteration under the horizon, adding n times the last iteration's
   deltas.  An iteration's reads are its own stack pushes, cells no
   iteration writes, carried cells that reach only their own exit, and
   peripherals that hold still, so equal start states give equal
   iterations, and by induction n more of them.

   The body is a pre-decoded instruction array walked with direct
   (jump-table) dispatch, next to one int array holding each op's
   pre-summed cycle cost and its operand address (a branch's taken
   target, a call's return address).  Runs of instructions that cannot
   touch the data space (and cannot exit) have their costs pre-summed
   onto the run's first entry, so a load/store still observes exactly
   the cycle count tier-0 would have at that point (peripheral
   registers are clocked off [m.cycles]).

   Closures are cached in [m.blocks] (chunked, copy-on-write — see
   {!State}), keyed by entry PC.  That table belongs to the machine's
   flash image, so every mote booted from one template shares it and a
   fleet compiles each block once: a block reads only flash words when
   formed, and takes the machine it runs on as an argument.  The whole
   table is dropped by {!State.load} (the only path that writes flash —
   the kernel's trampoline/kcell patching and run-time task admission
   go through it; on a shared image it first detaches the writer onto
   private tables).  Each cached block
   carries [worst], an upper bound on the cycles one execution can
   consume; {!Cpu.run} only enters a compiled block when the whole run
   fits under the preemption/fuel horizon and falls back to
   single-stepping otherwise, which keeps tier-1 stop points
   bit-identical to tier-0's.  A block returns to {!Cpu.run} after a
   SYSCALL, SLEEP or BREAK terminator, which may install a hook, patch
   flash or halt, and the run loop checks everything again before the
   next iteration.

   Correctness contract: for any machine state, executing a compiled
   block leaves every architectural field (registers, SP, SREG, PC,
   SRAM, peripherals, cycle/instruction/access counters, halt reason)
   exactly as executing the same instructions with {!State.step} would.
   The differential harness in test/test_tiers.ml enforces this on all
   bundled programs and thousands of randomized ones. *)

open Avr
open State

(* Instructions per superblock body: the unit tier-2 translates, and
   each part of a composed tier-1 block. *)
let max_body = 48

(* Ops per composed tier-1 block body, over all its parts. *)
let max_ops = 64

(* Raised (without a backtrace: they are on the hot path) when a taken
   conditional branch leaves a block early ([Side_exit]), or loops back
   to the block's own entry with the next iteration's worst case still
   under the horizon ([Loop_back]: [exec] restarts the walk without
   returning to the run loop, so a tight inner loop never pays the
   block-transition overhead on its back edge). *)
exception Side_exit
exception Loop_back

(* Each body op's entry in the [meta] array: its pre-summed cycle cost
   in the low [cost_bits] bits (at most [max_ops] times the costliest
   instruction), its operand address above them. *)
let cost_bits = 16
let cost_mask = (1 lsl cost_bits) - 1

(* A taken conditional branch to [target] after [idx + 1] ops. *)
let[@inline] taken m target idx entry worst limit =
  m.cycles <- m.cycles + Cycles.branch_taken_extra;
  m.insns <- m.insns + idx + 1;
  if target = entry && m.cycles + worst <= limit then raise_notrace Loop_back
  else begin
    m.pc <- target;
    raise_notrace Side_exit
  end

(* Walk a block body.  Data instructions run through
   {!State.exec_data}, the executor tier-0 [step] uses; PC, cycle and
   retired-count bookkeeping belong to the block closure.  A taken
   branch sets the PC, charges its extra cycle, retires the
   instructions executed so far and raises {!Side_exit}; a followed
   call pushes its return address, a followed jump does nothing, and a
   followed RET pops and leaves the same way when the address is not
   the one its call pushed.  Release builds inline [exec_data], so a block execution makes no
   per-instruction calls of its own. *)
let exec_run m (ops : Isa.t array) (meta : int array) entry worst limit =
  for idx = 0 to Array.length ops - 1 do
    let x = Array.unsafe_get meta idx in
    m.cycles <- m.cycles + (x land cost_mask);
    match Array.unsafe_get ops idx with
    | Isa.Brbs (s, _) ->
      if (m.sreg lsr s) land 1 = 1 then
        taken m (x lsr cost_bits) idx entry worst limit
    | Isa.Brbc (s, _) ->
      if (m.sreg lsr s) land 1 = 0 then
        taken m (x lsr cost_bits) idx entry worst limit
    | Isa.Call _ | Isa.Rcall _ -> push_pc m (x lsr cost_bits)
    | Isa.Jmp _ | Isa.Rjmp _ -> ()
    | Isa.Ret ->
      let a = pop_pc m in
      if a <> x lsr cost_bits then begin
        m.insns <- m.insns + idx + 1;
        m.pc <- a;
        raise_notrace Side_exit
      end
    | insn -> exec_data m insn
  done

(* One superblock: the decoded run from an entry PC up to the next
   block-ending instruction (see {!Avr.Isa.ends_block}), with
   conditional branches kept in the body as side exits.  Tier-2 prints
   OCaml from it ({!Aot}); each part of a tier-1 block ({!compile}) is
   the superblock at the part's entry. *)
type superblock = {
  body : (Isa.t * int) array;  (* (insn, own word address) *)
  term : Isa.t option;
      (* block-ending insn at [term_pc]; [None] when the [max_body] cap
         or an undecodable word ends the block first *)
  term_pc : int;
  worst : int;  (* upper bound on the cycles one execution consumes *)
  retired : int;  (* instructions retired by a full (non-side-exit) run *)
}

(* Walk the superblock entered at [p0], whose first op is op [n] of the
   body being built, decoding each word address with [decode] (which
   raises [Decode.Unknown_opcode] for an undecodable word) and handing
   each body instruction to [put i insn pc].  It ends at a block-ending
   instruction, after [max_body] body instructions, or in front of an
   undecodable word.  [None] when [p0] itself is undecodable (tier-0
   [step] then reports the [Invalid_opcode] halt with the correct PC),
   else (ops end, terminator, its address, worst case, retired). *)
let walk decode put p0 n =
  let rec go pc i worst retired =
    let pc = pc land 0xFFFF in
    if i - n >= max_body then Some (i, None, pc, worst, retired)
    else
      match decode pc with
      | exception Decode.Unknown_opcode _ ->
        if pc = p0 then None else Some (i, None, pc, worst, retired)
      | insn when Isa.ends_block insn ->
        Some (i, Some insn, pc, worst + Cycles.base insn, retired + 1)
      | insn ->
        put i insn pc;
        let extra =
          if Isa.is_cond_branch insn then Cycles.branch_taken_extra else 0
        in
        go (pc + Isa.words insn) (i + 1)
          (worst + Cycles.base insn + extra)
          (retired + 1)
  in
  go p0 n 0 0

(* The superblock entered at [entry], as {!walk} finds it. *)
let form decode entry : superblock option =
  let body = ref [] in
  walk decode (fun _ insn pc -> body := (insn, pc) :: !body) entry 0
  |> Option.map (fun (_, term, term_pc, worst, retired) ->
         { body = Array.of_list (List.rev !body); term; term_pc; worst; retired })

(* Pre-sum cycle costs into [meta]: runs of instructions that cannot
   touch the data space charge their whole cost on the run's first entry
   (later entries cost 0), so every memory-touching instruction — a
   followed call pushes — still executes with [m.cycles] exactly as
   under tier-0.  A conditional branch closes the run *after*
   contributing its own (not-taken) cost: cycles for instructions
   beyond a possible side exit are never pre-charged, so an early exit
   leaves the clock exact too. *)
let presum_costs (ops : Isa.t array) (meta : int array) =
  let run_head = ref 0 in
  Array.iteri
    (fun i op ->
      let c = Cycles.base op in
      let stack =
        match op with Isa.Call _ | Isa.Rcall _ | Isa.Ret -> true | _ -> false
      in
      if stack || Isa.touches_data_memory op then begin
        meta.(i) <- meta.(i) + c;
        run_head := i + 1
      end
      else begin
        meta.(!run_head) <- meta.(!run_head) + c;
        if Isa.is_cond_branch op then run_head := i + 1
      end)
    ops

(* --- Polling loops ----------------------------------------------------

   A block whose body has exactly one conditional branch back to its
   own entry is a loop; its path is the ops from the entry to that back
   edge.  {!analyze} decides at compile time whether the path can be
   summarized, and the block's [exec] then fast-forwards steady-state
   iterations at run time ({!summarize}).  See the preamble for the
   argument. *)

(* Why a loop was not summarized.  The first five are run-time verdicts
   at a back edge, the last three compile-time ones. *)
type bail =
  | Unequal  (* registers, SREG or SP differ from the previous back edge *)
  | Exit  (* a carried cell's zero test fires in the next iteration *)
  | Io_window  (* a peripheral read leaves its stable window next *)
  | Horizon  (* one more iteration would pass the cycle limit *)
  | Stack_window  (* the stack slots leave SRAM or meet a static cell *)
  | Memory  (* a pointer access, LPM, an I/O write or a non-SRAM cell *)
  | Stack  (* a pop above the entry SP, or a net SP change *)
  | Carried  (* a carried cell's value reaches more than its zero test *)

let bail_names =
  [ (Unequal, "unequal"); (Exit, "exit"); (Io_window, "io");
    (Horizon, "horizon"); (Stack_window, "stack-window");
    (Memory, "memory"); (Stack, "stack"); (Carried, "carried") ]

(* Host-side counters, never simulated state: under [Net.run ~domains]
   they depend on which domain compiles a shared block first. *)
let n_summarized = Atomic.make 0
let n_skipped = Atomic.make 0
let n_bails = List.map (fun (b, _) -> (b, Atomic.make 0)) bail_names
let count_bail b = Atomic.incr (List.assq b n_bails)

type stats = {
  summarized : int;  (** fast-forwards taken *)
  skipped : int;  (** iterations they retired *)
  bails : (string * int) list;  (** loops not summarized, by reason *)
}

(** Process-wide totals since start-up. *)
let stats () =
  { summarized = Atomic.get n_summarized;
    skipped = Atomic.get n_skipped;
    bails =
      List.map (fun (b, name) -> (name, Atomic.get (List.assq b n_bails))) bail_names }

let pp_stats fmt s =
  Format.fprintf fmt "tier-1 loops: %d summarized, %d iterations skipped; bails:"
    s.summarized s.skipped;
  List.iter (fun (name, n) -> Format.fprintf fmt " %s %d" name n) s.bails

(* What the compile-time check proves about a loop path, for the
   run-time check to complete. *)
type loop = {
  written : int array;  (* registers the path may write *)
  depth : int;  (* bytes of stack the path uses below the entry SP *)
  statics : int array;  (* SRAM addresses the path loads or stores *)
  cells : int array;  (* carried cells *)
  steps : int array;  (* each cell's change per iteration, mod 256 *)
  tested : bool array;  (* whether the cell has a zero-test exit *)
  reads : int array;  (* I/O addresses of the peripheral reads *)
  offsets : int array;  (* cycles from the entry to each read, included *)
}

(* A carried cell while the path is checked: its address, its step once
   stored back, and the change its zero test tests. *)
type cell = { addr : int; mutable step : int; mutable test : int }

exception Reject of bail

(* Registers an accepted op may write. *)
let writes : Isa.t -> int list = function
  | Movw (d, _) | Adiw (d, _) | Sbiw (d, _) -> [ d; d + 1 ]
  | Mul _ -> [ 0; 1 ]
  | Add (d, _) | Adc (d, _) | Sub (d, _) | Sbc (d, _) | And (d, _)
  | Or (d, _) | Eor (d, _) | Mov (d, _) | Sbci (d, _) | Subi (d, _)
  | Ori (d, _) | Andi (d, _) | Ldi (d, _) | Com d | Neg d | Swap d | Inc d
  | Dec d | Asr d | Lsr d | Ror d | Pop d | In (d, _) | Lds (d, _) -> [ d ]
  | _ -> []

(* Registers an accepted op reads. *)
let reads : Isa.t -> int list = function
  | Movw (_, r) -> [ r; r + 1 ]
  | Adiw (d, _) | Sbiw (d, _) -> [ d; d + 1 ]
  | Add (d, r) | Adc (d, r) | Sub (d, r) | Sbc (d, r) | And (d, r)
  | Or (d, r) | Eor (d, r) | Cp (d, r) | Cpc (d, r) | Mul (d, r) -> [ d; r ]
  | Mov (_, r) -> [ r ]
  | Cpi (d, _) | Sbci (d, _) | Subi (d, _) | Ori (d, _) | Andi (d, _) | Com d
  | Neg d | Swap d | Inc d | Dec d | Asr d | Lsr d | Ror d -> [ d ]
  | Push r | Out (_, r) | Sts (_, r) -> [ r ]
  | _ -> []

(* Whether an op's result depends on SREG (branches and IN/LDS of SREG
   are checked on their own). *)
let reads_flags : Isa.t -> bool = function
  | Adc _ | Sbc _ | Cpc _ | Sbci _ | Ror _ -> true
  | _ -> false

(* The SREG bits an op always overwrites. *)
let sets_flags : Isa.t -> int = function
  | Add _ | Adc _ | Sub _ | Sbc _ | Cp _ | Cpc _ | Cpi _ | Sbci _ | Subi _
  | Neg _ -> 0x3F
  | Com _ | Asr _ | Lsr _ | Ror _ | Adiw _ | Sbiw _ -> 0x1F
  | And _ | Or _ | Eor _ | Andi _ | Ori _ | Inc _ | Dec _ -> 0x1E
  | Mul _ -> 0x03
  | Bset s | Bclr s -> 1 lsl s
  | _ -> 0

(* Check the path [ops.(0..back)]; raises [Reject] when it is not
   summarizable.  One forward walk tracks the stack depth below the
   entry SP and, for the value loaded from each carried cell, which
   registers and SREG bits hold something computed from it.  Such a
   value may only be changed by SUBI/DEC/INC, stored back to its own
   cell once, and tested by one BREQ side exit; anything else that
   reads it rejects the loop, and none of it may be live at the back
   edge. *)
let check (ops : Isa.t array) (meta : int array) back =
  let reject b = raise_notrace (Reject b) in
  let sram a = a >= Layout.io_size && a < Layout.data_size in
  let stored = ref [] in
  for i = 0 to back do
    match ops.(i) with Isa.Sts (a, _) when sram a -> stored := a :: !stored | _ -> ()
  done;
  let written = ref 0 (* bit r: register r *) in
  let taint = Array.make 32 None and change = Array.make 32 0 in
  let flags = ref 0 (* SREG bits computed from a carried value *) in
  let zero = ref None (* the cell and change Z reflects, while tainted *) in
  let cells = ref [] and touched = ref [] and reads_ = ref [] in
  let depth = ref 0 and deepest = ref 0 and off = ref 0 in
  let def d = written := !written lor (1 lsl d); taint.(d) <- None in
  let use r = if taint.(r) <> None then reject Carried in
  let push n = depth := !depth + n; deepest := max !deepest !depth in
  let pop n = if !depth < n then reject Stack; depth := !depth - n in
  let load d a =
    if a = sreg_addr then (if !flags <> 0 then reject Carried; def d)
    else if a = spl_addr || a = sph_addr then def d
    else if a >= 0x20 && a < 0x60 then begin
      reads_ := (a - 0x20, !off) :: !reads_;
      def d
    end
    else if sram a then begin
      let first = not (List.mem a !touched) in
      touched := a :: !touched;
      def d;
      if List.mem a !stored then begin
        if not first then reject Carried;
        let c = { addr = a; step = 0; test = -1 } in
        cells := c :: !cells;
        taint.(d) <- Some c;
        change.(d) <- 0
      end
    end
    else reject Memory
  in
  let store a r =
    if a = sreg_addr then (use r; flags := 0)
    else if sram a then
      match taint.(r) with
      | Some c ->
        if c.addr <> a || c.step <> 0 || change.(r) land 0xFF = 0 then
          reject Carried;
        c.step <- change.(r) land 0xFF
      | None ->
        if List.exists (fun c -> c.addr = a) !cells then reject Carried;
        touched := a :: !touched
    else reject Memory
  in
  let step d k sets =
    match taint.(d) with
    | Some c ->
      change.(d) <- change.(d) + k;
      written := !written lor (1 lsl d);
      flags := !flags lor sets;
      zero := Some (c, change.(d) land 0xFF)
    | None -> assert false
  in
  for i = 0 to back do
    off := !off + (meta.(i) land cost_mask);
    match ops.(i) with
    | Isa.Brbs (s, _) | Isa.Brbc (s, _) ->
      if !flags land (1 lsl s) <> 0 then begin
        match (ops.(i), !zero) with
        | Isa.Brbs (1, _), Some (c, z) when i < back && c.test < 0 -> c.test <- z
        | _ -> reject Carried
      end
    | Isa.Call _ | Isa.Rcall _ -> push 2
    | Isa.Ret -> pop 2
    | Isa.Jmp _ | Isa.Rjmp _ -> ()
    | Isa.Push r -> use r; push 1
    | Isa.Pop d -> pop 1; def d
    | Isa.In (d, a) -> load d (Layout.io_data_addr a)
    | Isa.Lds (d, a) -> load d a
    | Isa.Out (a, r) -> store (Layout.io_data_addr a) r
    | Isa.Sts (a, r) -> store a r
    | Isa.Subi (d, k) when taint.(d) <> None -> step d (-k) 0x3F
    | Isa.Dec d when taint.(d) <> None -> step d (-1) 0x1E
    | Isa.Inc d when taint.(d) <> None -> step d 1 0x1E
    | Isa.Ld _ | Isa.Ldd _ | Isa.St _ | Isa.Std _ | Isa.Lpm _ -> reject Memory
    | op ->
      List.iter use (reads op);
      if reads_flags op && !flags <> 0 then reject Carried;
      flags := !flags land lnot (sets_flags op);
      List.iter def (writes op)
  done;
  if !depth <> 0 then reject Stack;
  if !flags <> 0 || Array.exists Option.is_some taint then reject Carried;
  let cells = Array.of_list (List.rev !cells) in
  Array.iter
    (fun c -> if c.step = 0 || (c.test >= 0 && c.test <> c.step) then reject Carried)
    cells;
  let reads = Array.of_list (List.rev !reads_) in
  let regs = ref [] in
  for r = 31 downto 0 do
    if !written land (1 lsl r) <> 0 then regs := r :: !regs
  done;
  { written = Array.of_list !regs;
    depth = !deepest;
    statics = Array.of_list (List.sort_uniq compare !touched);
    cells = Array.map (fun c -> c.addr) cells;
    steps = Array.map (fun c -> c.step) cells;
    tested = Array.map (fun c -> c.test >= 0) cells;
    reads = Array.map fst reads;
    offsets = Array.map snd reads }

(* The polling loop a compiled body holds, if any: [None] unless
   exactly one conditional branch targets [entry] and the path reads a
   peripheral and passes {!check}. *)
let analyze (ops : Isa.t array) (meta : int array) entry =
  let backs = ref [] in
  Array.iteri
    (fun i op ->
      if Isa.is_cond_branch op && meta.(i) lsr cost_bits = entry then
        backs := i :: !backs)
    ops;
  match !backs with
  | [ back ] -> (
    match check ops meta back with
    | lp when lp.reads = [||] ->
      (* Without a peripheral read the state can only repeat until a
         carried cell's exit or the horizon, which compute loops never
         do: watching them would cost every entry and save nothing. *)
      None
    | lp -> Some lp
    | exception Reject b -> count_bail b; None)
  | _ -> None

(* The state at a back edge, in [snap]: the six counters, SREG, SP,
   then the registers the path writes.  One loop at a time watches its
   back edges on a domain (a block's exec returns or tail-calls another
   before any other block runs), so each domain records into one
   buffer. *)
let snap_key = Domain.DLS.new_key (fun () -> Array.make (8 + 32) 0)

let record lp snap m =
  snap.(0) <- m.cycles;
  snap.(1) <- m.insns;
  snap.(2) <- m.mem_reads;
  snap.(3) <- m.mem_writes;
  snap.(4) <- m.io_reads;
  snap.(5) <- m.io_writes;
  snap.(6) <- m.sreg;
  snap.(7) <- m.sp;
  for k = 0 to Array.length lp.written - 1 do
    snap.(8 + k) <- rg m lp.written.(k)
  done

let unchanged lp snap m =
  let same = ref (m.sreg = snap.(6) && m.sp = snap.(7)) in
  for k = 0 to Array.length lp.written - 1 do
    if rg m lp.written.(k) <> snap.(8 + k) then same := false
  done;
  !same

(* Iterations of a cell stepping by [step] from [v] before it reads 0
   ([max_int]: never). *)
let until_zero v step =
  let i = ref 1 in
  while !i <= 256 && (v + (!i * step)) land 0xFF <> 0 do
    incr i
  done;
  if !i > 256 then max_int else !i - 1

(* At a back edge whose state equals the one [snap] recorded: retire the
   largest number of further iterations that keeps each carried cell's
   zero test untaken, each peripheral read inside its stable window
   (from its read in the iteration just run), and the next iteration's
   worst case under [limit], each as [n] times the last iteration's
   deltas.  [false], with the bail counted, when that number is 0.  It
   allocates nothing: a fleet summarizes tens of thousands of times,
   and garbage here moved the live heap into the major one early. *)
let summarize lp snap m ~worst ~limit =
  let dc = m.cycles - snap.(0) in
  let n = ref ((limit - worst - m.cycles) / dc) and why = ref Horizon in
  if lp.depth > 0 then begin
    let lo = m.sp - lp.depth + 1 in
    let clash = ref (lo < Layout.io_size || m.sp >= Layout.data_size) in
    for k = 0 to Array.length lp.statics - 1 do
      let a = lp.statics.(k) in
      if a >= lo && a <= m.sp then clash := true
    done;
    if !clash && !n > 0 then begin
      n := 0;
      why := Stack_window
    end
  end;
  for k = 0 to Array.length lp.cells - 1 do
    if lp.tested.(k) then begin
      let v = Char.code (Bytes.get m.sram lp.cells.(k)) in
      let c = until_zero v lp.steps.(k) in
      if c < !n then begin
        n := c;
        why := Exit
      end
    end
  done;
  for k = 0 to Array.length lp.reads - 1 do
    let off = lp.offsets.(k) in
    let until = Io.stable_until m.io ~cycles:(snap.(0) + off) lp.reads.(k) in
    if until <> max_int then begin
      let c =
        if m.cycles + off >= until then 0
        else ((until - 1 - m.cycles - off) / dc) + 1
      in
      if c < !n then begin
        n := c;
        why := Io_window
      end
    end
  done;
  let n = !n in
  if n <= 0 then begin
    count_bail !why;
    false
  end
  else begin
    m.cycles <- m.cycles + (n * dc);
    m.insns <- m.insns + (n * (m.insns - snap.(1)));
    m.mem_reads <- m.mem_reads + (n * (m.mem_reads - snap.(2)));
    m.mem_writes <- m.mem_writes + (n * (m.mem_writes - snap.(3)));
    m.io_reads <- m.io_reads + (n * (m.io_reads - snap.(4)));
    m.io_writes <- m.io_writes + (n * (m.io_writes - snap.(5)));
    for k = 0 to Array.length lp.cells - 1 do
      let a = lp.cells.(k) in
      let v = Char.code (Bytes.get m.sram a) in
      Bytes.set m.sram a (Char.unsafe_chr ((v + (n * lp.steps.(k))) land 0xFF))
    done;
    Atomic.incr n_summarized;
    ignore (Atomic.fetch_and_add n_skipped n);
    true
  end

(* Compile and cache the block entered at [entry]; [None] when the entry
   word is undecodable, as {!form}.

   Each part is a {!walk}, so it ends where {!form} ends a superblock
   (a block-ending instruction, [max_body] instructions, an undecodable
   word), and a JMP/RJMP/CALL/RCALL terminator is followed into the
   part at its target, and (when the block then loops to [entry]) a RET
   into the return address of the latest followed CALL/RCALL it has not
   yet returned from, unless that target was already entered, is
   undecodable, or its part would take the body past [max_ops] ops.  A
   first walk finds the parts, a second writes their ops; both read the
   decode cache, so a compile allocates little besides the block it
   keeps. *)
let compile m entry : block option =
  let part = walk (decode m) in
  (* Whether the parts walked so far branch back to [entry], and the
     parts and end the walk had before it first followed a RET. *)
  let loops = ref false and cut = ref None in
  let note _ insn pc =
    match insn with
    | Isa.Brbs (_, k) | Isa.Brbc (_, k) when (pc + 1 + k) land 0xFFFF = entry ->
      loops := true
    | _ -> ()
  in
  (* The parts as (entry, first op), last first, and the block's end;
     [calls] holds the return addresses of the followed calls. *)
  let rec follow parts calls ((n, term, term_pc, worst, retired) as last) =
    let target, calls =
      match term with
      | Some (Isa.Rjmp k) -> (Some (term_pc + 1 + k), calls)
      | Some (Isa.Rcall k) -> (Some (term_pc + 1 + k), (term_pc + 1) :: calls)
      | Some (Isa.Jmp a) -> (Some a, calls)
      | Some (Isa.Call a) -> (Some a, (term_pc + 2) :: calls)
      | Some Isa.Ret -> (
        match calls with r :: rest -> (Some r, rest) | [] -> (None, []))
      | _ -> (None, calls)
    in
    match Option.map (fun t -> t land 0xFFFF) target with
    | Some t when not (List.mem_assoc t parts) -> (
      let looped = !loops in
      match part note t (n + 1) with
      | Some (n', term', term_pc', w, r) when n' <= max_ops ->
        if term = Some Isa.Ret && !cut = None then cut := Some (parts, last);
        follow ((t, n + 1) :: parts) calls
          (n', term', term_pc', worst + w, retired + r)
      | _ ->
        loops := looped;
        (parts, last))
    | _ -> (parts, last)
  in
  match part note entry 0 with
  | None -> None
  | Some first ->
    (* Following RETs pays off in a loop, whose summary needs the whole
       iteration in one block; elsewhere it only lengthens blocks, so
       they end at their first RET. *)
    let parts, (n, term, term_pc, worst, retired) =
      match (follow [ (entry, 0) ] [] first, !cut) with
      | _, Some before when not !loops -> before
      | composed, _ -> composed
    in
    let ops = Array.make n Isa.Nop and meta = Array.make n 0 in
    let put i insn pc =
      ops.(i) <- insn;
      let operand =
        match insn with
        | Isa.Brbs (_, k) | Isa.Brbc (_, k) -> pc + 1 + k (* taken target *)
        | Isa.Call _ | Isa.Rcall _ -> pc + Isa.words insn (* return address *)
        | Isa.Ret ->
          (* the address it returns to: the next part's entry *)
          fst (List.find (fun (_, n0) -> n0 = i + 1) parts)
        | _ -> 0
      in
      meta.(i) <- (operand land 0xFFFF) lsl cost_bits
    in
    List.iter
      (fun (p0, n0) ->
        match part put p0 n0 with
        | Some (i, Some t, pc, _, _) when i < n -> put i t pc (* followed *)
        | _ -> ())
      parts;
    presum_costs ops meta;
    (* Block chaining: a benign exit (side exit or pure-control-flow
       terminator) transfers straight to the already-compiled target
       block when its worst case still fits the horizon, skipping the
       run-loop round trip entirely.  Every recursive call is a tail
       call (the handlers cover only the body walk), so a long chain
       runs in constant stack; non-benign exits (SYSCALL/SLEEP/BREAK,
       which may install hooks, patch flash or halt) always return to
       the run loop first, so chaining never outruns a stop condition
       or a block-cache invalidation. *)
    let rec exec m limit =
      match exec_run m ops meta entry worst limit with
      | () -> ended m limit
      | exception Side_exit ->
        (* A taken branch already set PC, cycles and the retired count;
           a branch is pure control flow (benign). *)
        chain m limit
      | exception Loop_back ->
        (* Back to our own entry with the horizon already re-checked. *)
        exec m limit
    and ended m limit =
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
      if benign then chain m limit
    and chain m limit =
      let pc = m.pc land 0xFFFF in
      match
        Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF)
      with
      | Some b when m.cycles + b.worst <= limit -> b.exec m limit
      | _ -> () (* not compiled yet or horizon too close: run loop *)
    in
    let exec =
      match analyze ops meta entry with
      | None -> exec
      | Some lp ->
        (* A summarizable loop: from its first back edge on, compare
           each back edge's state with the previous one's (none yet
           while [snap.(0)] is negative) and fast-forward while they
           are equal; after the first bail, loop as [exec] does. *)
        let rec watch m limit snap =
          match exec_run m ops meta entry worst limit with
          | () -> ended m limit
          | exception Side_exit -> chain m limit
          | exception Loop_back ->
            if snap.(0) < 0 then begin
              record lp snap m;
              watch m limit snap
            end
            else if not (unchanged lp snap m) then begin
              count_bail Unequal;
              exec m limit
            end
            else if summarize lp snap m ~worst ~limit then begin
              record lp snap m;
              watch m limit snap
            end
            else exec m limit
        in
        fun m limit ->
          let snap = Domain.DLS.get snap_key in
          snap.(0) <- -1;
          watch m limit snap
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
   whole body of a short run) is then never compiled at all — compiled
   on first sight, a default-length [lfsr] run never amortized its
   compiles and ran only 1.64x faster than tier-0 — while a loop head
   reaches the threshold within its first iterations and steady
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
