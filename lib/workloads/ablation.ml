(* Ablation studies for the design choices DESIGN.md calls out:

   1. the grouped-access / grouped-SP / grouped-push rewriting
      optimizations of Section IV-C2 (code size and execution cycles);
   2. the software-trap period (1 out of N backward branches): overhead
      versus preemption latency — the paper's claim that the delay of
      preemption is small enough to ignore;
   3. the round-robin time-slice length.

   Each returns typed rows; {!Experiments} prints them. *)

let assemble = Asm.Assembler.assemble

(* --- 1: rewriting optimizations ----------------------------------------- *)

type group_row = {
  variant : string;
  bytes : int;  (** naturalized size of the CRC benchmark *)
  cycles : int;  (** cycles to run it under the kernel *)
}

let grouping () : group_row list =
  (* A frame-heavy program shows the grouped LDD/STD and SP effects. *)
  let open Asm.Macros in
  let body =
    [ std Avr.Isa.Ybase 1 24; std Avr.Isa.Ybase 2 25;
      ldd 16 Avr.Isa.Ybase 1; ldd 17 Avr.Isa.Ybase 2;
      add 16 17; mov 24 16 ]
  in
  let prog =
    Asm.Ast.program "frames"
      ~data:[ Programs.Common.result_var ]
      ((lbl "start" :: sp_init)
       @ [ ldi 24 3; ldi 20 40; lbl "outer"; call "work"; dec 20; brne "outer" ]
       @ Programs.Common.store_result16 24 25
       @ [ break ]
       @ fn "work" ~frame:4 body)
  in
  let img = assemble prog in
  let variant name rewrite =
    let nat = Rewriter.Rewrite.run ~config:rewrite ~base:0 img in
    { variant = name;
      bytes = Rewriter.Naturalized.total_bytes nat;
      cycles = (Kernel_bench.run_to_break ~rewrite name [ img ]).m.cycles }
  in
  let d = Rewriter.Rewrite.default_config in
  [ variant "all groupings on" d;
    variant "no grouped LDD/STD" { d with group_accesses = false };
    variant "no grouped SP pairs" { d with group_sp = false };
    variant "no grouped pushes" { d with group_pushes = false };
    variant "all groupings off"
      { d with group_accesses = false; group_sp = false; group_pushes = false } ]

(* --- 2: software-trap period --------------------------------------------- *)

type trap_row = {
  period : int;
  cycles : int;  (** spinner+worker completion cycles: trap overhead *)
  avg_latency_us : float;  (** mean preemption delay *)
  max_latency_us : float;
}

let us c = 1e6 *. Avr.Cycles.to_seconds c

(* A branch-dense spinner competing with a finite worker: latency is how
   late slice boundaries are honoured; overhead shows in the worker's
   completion time. *)
let trap_period_sweep ?(periods = [ 16; 64; 128; 256 ]) () : trap_row list =
  List.map
    (fun period ->
      let spinner =
        Asm.Macros.(Asm.Ast.program "spin" [ lbl "start"; lbl "top"; rjmp "top" ])
      in
      let worker = Programs.Lfsr_bench.program ~iters:4000 () in
      let config = { Kernel.default_config with trap_period = period land 0xFF } in
      let k = Kernel.boot ~config [ assemble spinner; assemble worker ] in
      (* Run in small steps until the worker finishes, so the recorded
         cycle count approximates its completion time. *)
      let rec wait () =
        if Kernel.Task.is_live (Kernel.find_task k 1) then
          match Kernel.run ~max_cycles:(k.m.cycles + 20_000) k with
          | Machine.Cpu.Out_of_fuel -> wait ()
          | _ -> ()
      in
      wait ();
      let s = k.stats in
      { period;
        cycles = k.m.cycles;
        avg_latency_us =
          (if s.preempt_switches = 0 then 0.
           else us s.preempt_delay_total /. float_of_int s.preempt_switches);
        max_latency_us = us s.preempt_delay_max })
    periods

(* --- 3: slice length ------------------------------------------------------ *)

type slice_row = {
  slice : int;
  switches : int;
  total_cycles : int;
}

let slice_sweep ?(slices = [ 2048; 8192; 32768 ]) () : slice_row list =
  List.map
    (fun slice ->
      let imgs =
        [ assemble (Programs.Lfsr_bench.program ~iters:3000 ());
          assemble (Programs.Crc_bench.program ~passes:10 ()) ]
      in
      let config = { Kernel.default_config with slice_cycles = slice } in
      let k = Kernel_bench.run_to_break ~config "slice sweep" imgs in
      { slice; switches = k.stats.context_switches; total_cycles = k.m.cycles })
    slices
