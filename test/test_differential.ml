(* Randomized differential testing: generate random (well-formed)
   programs and check that SenSmart naturalization and t-kernel
   rewriting preserve their semantics exactly — registers and heap
   contents must match the native run bit for bit.

   This is the fuzzing counterpart to the hand-written benchmark
   differentials and has the best power-to-weight ratio for catching
   rewriter bugs (trampoline register clobbers, flag corruption,
   shift-table off-by-ones).  The program generator is shared with the
   execution-tier differential (test_tiers) and lives in {!Gen}. *)

let assemble = Gen.assemble
let buf_size = Gen.buf_size

(* Observable state: r0..r25 (pointer/scratch registers above r25 are
   fair game for trampolines only if restored — X must be restored, so
   include r26/r27 too) and the data section. *)
let native_state img =
  let r = Workloads.Native.run ~max_cycles:50_000_000 img in
  (match r.halt with
   | Some Machine.Cpu.Break_hit -> ()
   | h -> Alcotest.failf "native fuzz: %a" Fmt.(option Machine.Cpu.pp_halt) h);
  let regs = Array.sub r.machine.regs 0 28 in
  let heap = List.init (buf_size + 4) (fun i -> Machine.Cpu.read8 r.machine (0x100 + i)) in
  (Array.to_list regs, heap)

let sensmart_state img =
  let k = Kernel.boot [ img ] in
  (match Kernel.run ~max_cycles:50_000_000 k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "sensmart fuzz: %a" Machine.Cpu.pp_stop s);
  Kernel.check_invariants k;
  let regs = Array.sub k.m.regs 0 28 in
  let heap = List.init (buf_size + 4) (fun i -> Kernel.heap_byte k 0 (0x100 + i)) in
  (Array.to_list regs, heap)

let tk_state img =
  let t = Tkernel.Rewrite.run img in
  let r = Tkernel.Run.run ~max_cycles:100_000_000 t in
  (match r.halt with
   | Some Machine.Cpu.Break_hit -> ()
   | h -> Alcotest.failf "tk fuzz: %a" Fmt.(option Machine.Cpu.pp_halt) h);
  let regs = Array.sub r.machine.regs 0 28 in
  let heap = List.init (buf_size + 4) (fun i -> Machine.Cpu.read8 r.machine (0x100 + i)) in
  (Array.to_list regs, heap)

let prop_sensmart =
  QCheck.Test.make ~name:"random programs: sensmart == native" ~count:120
    Gen.arb_program_calls
    (fun p ->
      let img = assemble p in
      native_state img = sensmart_state img)

let prop_tkernel =
  QCheck.Test.make ~name:"random programs: t-kernel == native" ~count:120
    Gen.arb_program
    (fun p ->
      let img = assemble p in
      native_state img = tk_state img)

let () =
  Alcotest.run "differential-fuzz"
    [ ("fuzz",
       List.map Gen.to_alcotest [ prop_sensmart; prop_tkernel ]) ]
