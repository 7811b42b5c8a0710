(* Table II: overhead of key operations, in cycles.

   Methodology: each operation class is measured differentially — a
   microbenchmark loop containing the operation versus the same loop
   without it, both naturalized and run under the kernel with preemption
   traps disabled (so the loop's own branch costs cancel exactly).  The
   difference divided by the iteration count is the operation's total
   cycle cost; subtracting the native instruction cost gives the
   overhead, which is what the paper tabulates.

   The context-switch, relocation and initialization rows are the
   kernel-service costs: initialization is measured from boot; context
   save/restore and relocation are the {!Kernel.Costing} formulas
   (documented in DESIGN.md as modeled costs), with relocation
   additionally validated against a live run's per-event average. *)

open Asm.Macros

let assemble = Asm.Assembler.assemble

let no_preempt = { Rewriter.Rewrite.default_config with preempt = false }

let iters = 400

(* Run a microbenchmark body under the kernel and return total cycles. *)
let run_micro ~setup ~body ~tail =
  let prog =
    Asm.Ast.program "micro"
      ~data:[ { dname = "v"; size = 8; init = [] } ]
      ((lbl "start" :: sp_init) @ setup
       @ loop16 20 21 iters body
       @ [ break ] @ tail)
  in
  (Kernel_bench.run_to_break ~rewrite:no_preempt "microbench" [ assemble prog ])
    .m.cycles

(* Per-operation total cycles, rounded. *)
let measure ?(setup = []) ?(tail = []) body =
  let w = run_micro ~setup ~body ~tail in
  let wo = run_micro ~setup ~body:[] ~tail in
  (w - wo + (iters / 2)) / iters

type row = {
  operation : string;
  paper : string;  (** cycles reported in the paper's Table II *)
  measured : int;  (** overhead measured here (total minus native cost) *)
  note : string;  (** how the cost arises; "modeled" rows are Costing formulas *)
}

let table () : row list =
  let open Avr.Isa in
  let direct_io = measure [ i (Lds (16, 0x40)) ] - 2 in
  let direct_heap = measure [ lds 16 "v" ] - 2 in
  let ind_io = measure ~setup:(ldi16 26 27 0x0040) [ ld 16 X ] - 2 in
  let ind_heap = measure ~setup:(ldi_data 26 27 "v" 0) [ ld 16 X ] - 2 in
  let ind_stack = measure ~setup:(ldi16 28 29 0x10E0) [ ldd 16 Ybase 1 ] - 2 in
  let stack_op = measure [ push 16; pop 16 ] - 4 in
  let prog_mem =
    measure
      ~setup:(ldi_text 30 31 "fn")
      ~tail:[ lbl "fn"; ret ]
      [ icall ]
    - 7
  in
  let get_sp = measure [ in_ 16 Machine.Io.spl; in_ 17 Machine.Io.sph ] - 2 in
  let set_sp =
    measure
      ~setup:[ in_ 16 Machine.Io.spl; in_ 17 Machine.Io.sph ]
      [ out Machine.Io.spl 16; out Machine.Io.sph 17 ]
    - 2
  in
  (* System initialization: boot cost of a minimal one-task system. *)
  let init =
    let img = assemble (Asm.Ast.program "nil" [ lbl "start"; break ]) in
    let k = Kernel.boot [ img ] in
    k.stats.init_cycles
  in
  let reloc = Kernel.Costing.relocation_move 260 in
  let save = Kernel.Costing.context_save in
  let restore = Kernel.Costing.context_restore in
  let full = save + restore + Kernel.Costing.schedule_decision in
  [ { operation = "System initialization"; paper = "5738"; measured = init; note = "measured at boot; scales with region size" };
    { operation = "Mem xlat: direct, I/O area"; paper = "2"; measured = direct_io; note = "unmodified instruction" };
    { operation = "Mem xlat: direct, others"; paper = "28"; measured = direct_heap; note = "displacement trampoline" };
    { operation = "Mem xlat: indirect, I/O area"; paper = "54"; measured = ind_io; note = "classification only, identity mapping" };
    { operation = "Mem xlat: indirect, heap"; paper = "~44-66"; measured = ind_heap; note = "classify + displace + bounds" };
    { operation = "Mem xlat: indirect, stack frame"; paper = "~44-66"; measured = ind_stack; note = "LDD through Y" };
    { operation = "Stack operation (push check)"; paper = "16-44"; measured = stack_op; note = "push check incl. shared service call" };
    { operation = "Program memory (indirect br)"; paper = "376"; measured = prog_mem; note = "shift-table binary search" };
    { operation = "Get stack pointer"; paper = "45"; measured = get_sp; note = "kernel service" };
    { operation = "Set stack pointer"; paper = "94"; measured = set_sp; note = "kernel service" };
    { operation = "Stack relocation (260 B)"; paper = "2326"; measured = reloc; note = "modeled: `Costing.relocation_move 260`" };
    { operation = "Context saving"; paper = "932"; measured = save; note = "modeled: `Costing.context_save`" };
    { operation = "Context restoring"; paper = "976"; measured = restore; note = "modeled: `Costing.context_restore`" };
    { operation = "Full context switch"; paper = "2298"; measured = full; note = "modeled: save + restore + schedule decision" } ]
