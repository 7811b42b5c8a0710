(* Tier-1 execution engine: direct-threaded blocks for the simulated AVR.

   On first execution of a program point, the run of decoded
   instructions up to (and including) the next block-ending instruction
   (unconditional branch/call/ret, SYSCALL, SLEEP, BREAK — see
   {!Avr.Isa.ends_block}) becomes one block: plain data
   ({!State.block}) holding one op per body instruction.  An op
   ({!op_of}) is a closure specialised to its instruction, built the
   first time a block uses the instruction and kept in its decode-cache
   entry, so every block and every mote of an image shares it.  It
   charges the instruction's own cycles, runs its effect through the
   primitives tier 0 uses, and tail-calls the next op: no run-loop stop
   check, decode-cache lookup, trace check, PC update or dispatch on
   the instruction between two ops.  Only the terminator pays tier-0's
   bookkeeping: the last op ({!finish}) retires the block's
   instructions and runs it through {!State.exec_insn}, as tier-0
   [step] does.

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
   RET whose call the block followed is followed too, as a guarded op
   of that block position ({!ret_guard}): it pops, and side-exits to
   the popped address when that is not the one the call pushed.  Other
   RETs, indirect jumps, SYSCALL, SLEEP and BREAK still end the block,
   so a call into a shared service routine, its return and the jump
   back to the caller's loop run as one block.  A composed block
   therefore covers flash that is not contiguous.

   Polling loops.  When exactly one conditional branch targets the
   block's own entry, the ops up to it are a loop path; when it reads a
   peripheral, {!check} decides at compile time whether it can be
   summarized: only register and flag ops, static-address
   IN/OUT/LDS/STS, balanced stack ops and conditional branches; no I/O
   write but SREG; and each static cell
   the path both loads and stores "carried" (loaded, changed by a
   constant, stored back, its value reaching nothing but one zero-test
   side exit).  Such a block's back edge ({!back}) compares the written
   registers, SREG and SP with the previous back edge's, and
   while they are equal {!summarize} retires the largest number n of
   further iterations that keeps each zero test untaken, each
   peripheral read inside its {!Io.stable_until} window and the next
   iteration under the horizon, adding n times the last iteration's
   deltas.  An iteration's reads are its own stack pushes, cells no
   iteration writes, carried cells that reach only their own exit, and
   peripherals that hold still, so equal start states give equal
   iterations, and by induction n more of them.

   Blocks are cached in [m.blocks] (chunked, copy-on-write — see
   {!State}), keyed by entry PC.  That table belongs to the machine's
   flash image, so every mote booted from one template shares it and a
   fleet compiles each block once: a block and its ops read only flash
   words when formed, and take the machine they run on as an argument.
   The whole table is dropped by {!State.load} (the only path that
   writes flash — the kernel's trampoline/kcell patching and run-time
   task admission go through it; on a shared image it first detaches
   the writer onto private tables), which also drops the decode entries
   it overwrites, ops included.  Each cached block
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
   test/test_machine.ml checks each op against [step] from random
   state ("tier1-ops"), and the differential harness in
   test/test_tiers.ml checks whole runs on all bundled programs and
   thousands of randomized ones. *)

open Avr
open State

(* Instructions per superblock body: the unit tier-2 translates, and
   each part of a composed tier-1 block. *)
let max_body = 48

(* Ops per composed tier-1 block body, over all its parts. *)
let max_ops = 64

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
let check (ops : Isa.t array) back : loop =
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
    off := !off + Cycles.base ops.(i);
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
   exactly one conditional branch, op [back] of [backs], targets the
   block's entry and the path reads a peripheral and passes {!check}. *)
let analyze (ops : Isa.t array) backs =
  match backs with
  | [ back ] -> (
    match check ops back with
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
   back edges on a domain (a block's ops return or tail-call another
   block before any other block runs), so each domain records into one
   buffer; [snap.(0)] is -1 before an entry's first back edge and -2
   after its first bail. *)
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

(* --- Threaded execution ---------------------------------------------

   Op [i] of block [b] runs as [b.fns.(i) m limit b i] and ends in a
   tail call of op [i + 1], a side exit into {!chain}, or a loop back
   into op 0; the last op is {!finish}.  Every call is a tail call, so a
   long chain of blocks runs in constant stack. *)

let[@inline] next m limit b i =
  let i = i + 1 in
  (Array.unsafe_get b.fns i) m limit b i

(* Enter [b]; a summarizable loop starts watching its back edges. *)
let run m limit b =
  (match b.loop with Some _ -> (Domain.DLS.get snap_key).(0) <- -1 | None -> ());
  (Array.unsafe_get b.fns 0) m limit b 0

(* Block chaining: a benign exit (side exit or pure-control-flow
   terminator) transfers straight to the already-compiled block at the
   PC when its worst case still fits the horizon, skipping the run-loop
   round trip; otherwise the run loop takes over. *)
let chain m limit =
  let pc = m.pc land 0xFFFF in
  match Array.unsafe_get (Array.unsafe_get m.blocks (pc lsr 8)) (pc land 0xFF) with
  | Some b when m.cycles + b.worst <= limit -> run m limit b
  | _ -> ()

(* Back to the block's own entry with the horizon already re-checked.  A
   summarizable loop compares this back edge's state with the previous
   one's and fast-forwards while they are equal; after its first bail
   it only loops, until the block is entered again. *)
let back m limit b =
  (match b.loop with
   | Some lp ->
     let snap = Domain.DLS.get snap_key in
     if snap.(0) = -1 then record lp snap m
     else if snap.(0) >= 0 then
       if not (unchanged lp snap m) then begin
         count_bail Unequal;
         snap.(0) <- -2
       end
       else if summarize lp snap m ~worst:b.worst ~limit then record lp snap m
       else snap.(0) <- -2
   | None -> ());
  (Array.unsafe_get b.fns 0) m limit b 0

(* A taken conditional branch, op [i], to [target]: exact cycles and
   retired count, then a loop back or a side exit. *)
let taken m limit (b : block) i target =
  m.cycles <- m.cycles + Cycles.branch_taken_extra;
  m.insns <- m.insns + i + 1;
  if target = b.entry && m.cycles + b.worst <= limit then back m limit b
  else begin
    m.pc <- target;
    chain m limit
  end

(* The last op: retire the block and run its terminator as tier 0 does
   (out of line: inlined, the whole executor would bloat it); a
   SYSCALL, SLEEP or BREAK, which may install a hook, patch flash or
   halt, returns to the run loop.  Without a terminator (the [max_body]
   cap or an undecodable word ahead), fall through to [term_pc]. *)
let finish m limit (b : block) _ =
  m.insns <- m.insns + b.retired;
  match b.term with
  | Some insn -> if (exec_insn [@inlined never]) m insn b.term_pc then chain m limit
  | None ->
    m.pc <- b.term_pc land 0xFFFF;
    chain m limit

(* A followed RET, which returns to [target] when its call's return
   address is still on the stack and side-exits to the popped address
   otherwise.  Its own op per block position. *)
let ret_guard target : op =
 fun m limit b i ->
  m.cycles <- m.cycles + Cycles.base Isa.Ret;
  let a = pop_pc m in
  if a <> target then begin
    m.insns <- m.insns + i + 1;
    m.pc <- a;
    chain m limit
  end
  else next m limit b i

(* The op of body instruction [insn] at word address [pc]: it charges
   the instruction's own cycles, so every memory access and exit sees
   tier 0's clock, runs its effect through the primitives of tier 0's
   {!State.exec_data} and tail-calls the next op.  A conditional branch
   may exit, a followed call pushes its return address and a followed
   jump only costs its cycles.  The costs are {!Cycles.base}'s, written
   as literals so that a closure holds only its operands (test_machine's
   "tier-1 op = tier-0 step" property checks them); rare instructions
   share one fallback over [exec_data]. *)
let op_of (insn : Isa.t) pc : op =
  match insn with
  | Ldi (d, k) -> fun m l b i -> m.cycles <- m.cycles + 1; rs m d k; next m l b i
  | Mov (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; rs m d (rg m r); next m l b i
  | Add (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; alu_add m d r ~carry:false; next m l b i
  | Adc (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; alu_add m d r ~carry:true; next m l b i
  | Sub (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; op_sub m d (rg m r) ~borrow:false; next m l b i
  | Sbc (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; op_sub m d (rg m r) ~borrow:true; next m l b i
  | Subi (d, k) -> fun m l b i -> m.cycles <- m.cycles + 1; op_sub m d k ~borrow:false; next m l b i
  | Sbci (d, k) -> fun m l b i -> m.cycles <- m.cycles + 1; op_sub m d k ~borrow:true; next m l b i
  | Cp (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; op_cp m d (rg m r) ~borrow:false; next m l b i
  | Cpc (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; op_cp m d (rg m r) ~borrow:true; next m l b i
  | Cpi (d, k) -> fun m l b i -> m.cycles <- m.cycles + 1; op_cp m d k ~borrow:false; next m l b i
  | And (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; alu_logic m d (rg m d land rg m r); next m l b i
  | Or (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; alu_logic m d (rg m d lor rg m r); next m l b i
  | Eor (d, r) -> fun m l b i -> m.cycles <- m.cycles + 1; alu_logic m d (rg m d lxor rg m r); next m l b i
  | Andi (d, k) -> fun m l b i -> m.cycles <- m.cycles + 1; alu_logic m d (rg m d land k); next m l b i
  | Ori (d, k) -> fun m l b i -> m.cycles <- m.cycles + 1; alu_logic m d (rg m d lor k); next m l b i
  | Inc d -> fun m l b i -> m.cycles <- m.cycles + 1; op_inc m d; next m l b i
  | Dec d -> fun m l b i -> m.cycles <- m.cycles + 1; op_dec m d; next m l b i
  | Lsr d -> fun m l b i -> m.cycles <- m.cycles + 1; op_lsr m d; next m l b i
  | Ror d -> fun m l b i -> m.cycles <- m.cycles + 1; op_ror m d; next m l b i
  | Adiw (d, k) -> fun m l b i -> m.cycles <- m.cycles + 2; alu_adiw m d k ~sub:false; next m l b i
  | Sbiw (d, k) -> fun m l b i -> m.cycles <- m.cycles + 2; alu_adiw m d k ~sub:true; next m l b i
  | Lds (d, a) -> fun m l b i -> m.cycles <- m.cycles + 2; rs m d (read8 m a); next m l b i
  | Sts (a, r) -> fun m l b i -> m.cycles <- m.cycles + 2; write8 m a (rg m r); next m l b i
  | In (d, a) ->
    let a = Layout.io_data_addr a in
    fun m l b i -> m.cycles <- m.cycles + 1; rs m d (read8 m a); next m l b i
  | Out (a, r) ->
    let a = Layout.io_data_addr a in
    fun m l b i -> m.cycles <- m.cycles + 1; write8 m a (rg m r); next m l b i
  | Push r -> fun m l b i -> m.cycles <- m.cycles + 2; push8 m (rg m r); next m l b i
  | Pop d -> fun m l b i -> m.cycles <- m.cycles + 2; rs m d (pop8 m); next m l b i
  | Ld (d, p) -> fun m l b i -> m.cycles <- m.cycles + 2; rs m d (read8 m (ptr_addr m p)); next m l b i
  | St (p, r) -> fun m l b i -> m.cycles <- m.cycles + 2; write8 m (ptr_addr m p) (rg m r); next m l b i
  | Ldd (d, base, q) ->
    let p = match base with Ybase -> 28 | Zbase -> 30 in
    fun m l b i -> m.cycles <- m.cycles + 2; rs m d (read8 m (pair m p + q)); next m l b i
  | Std (base, q, r) ->
    let p = match base with Ybase -> 28 | Zbase -> 30 in
    fun m l b i -> m.cycles <- m.cycles + 2; write8 m (pair m p + q) (rg m r); next m l b i
  | Brbs (s, k) ->
    let bit = 1 lsl s and target = (pc + 1 + k) land 0xFFFF in
    fun m l b i ->
      m.cycles <- m.cycles + 1;
      if m.sreg land bit <> 0 then taken m l b i target else next m l b i
  | Brbc (s, k) ->
    let bit = 1 lsl s and target = (pc + 1 + k) land 0xFFFF in
    fun m l b i ->
      m.cycles <- m.cycles + 1;
      if m.sreg land bit = 0 then taken m l b i target else next m l b i
  | Call _ -> let ret = pc + 2 in fun m l b i -> m.cycles <- m.cycles + 4; push_pc m ret; next m l b i
  | Rcall _ -> let ret = pc + 1 in fun m l b i -> m.cycles <- m.cycles + 3; push_pc m ret; next m l b i
  | Jmp _ -> fun m l b i -> m.cycles <- m.cycles + 3; next m l b i
  | Rjmp _ -> fun m l b i -> m.cycles <- m.cycles + 2; next m l b i
  | insn ->
    let c = Cycles.base insn in
    fun m l b i -> m.cycles <- m.cycles + c; exec_data m insn; next m l b i

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
    (* Each op is the one of its decode-cache entry, built on first use;
       a followed RET gets its own. *)
    let ops = Array.make n Isa.Nop and fns = Array.make (n + 1) finish in
    let backs = ref [] in
    let put i insn pc =
      ops.(i) <- insn;
      fns.(i) <-
        (match insn with
         | Isa.Ret ->
           (* the address it returns to: the next part's entry *)
           ret_guard (fst (List.find (fun (_, n0) -> n0 = i + 1) parts))
         | _ ->
           let e = decoded m pc in
           if e.op == unbuilt then e.op <- op_of insn pc;
           e.op);
      match insn with
      | (Isa.Brbs (_, k) | Isa.Brbc (_, k)) when (pc + 1 + k) land 0xFFFF = entry ->
        backs := i :: !backs
      | _ -> ()
    in
    List.iter
      (fun (p0, n0) ->
        match part put p0 n0 with
        | Some (i, Some t, pc, _, _) when i < n -> put i t pc (* followed *)
        | _ -> ())
      parts;
    let b = { fns; entry; worst; term; term_pc; retired; loop = analyze ops !backs } in
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
        let c = Bytes.make chunk_words '\000' in
        m.heat.(ci) <- c;
        c
      end
    in
    let h = Char.code (Bytes.unsafe_get chunk (pc land 0xFF)) + 1 in
    if h >= threshold then begin
      Bytes.unsafe_set chunk (pc land 0xFF) '\000';
      compile m pc
    end
    else begin
      Bytes.unsafe_set chunk (pc land 0xFF) (Char.unsafe_chr h);
      None
    end
