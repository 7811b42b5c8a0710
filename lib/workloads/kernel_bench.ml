(* Figures 4 and 5: code inflation and execution time of the seven
   kernel benchmark programs (am, amplitude, crc, eventchain, lfsr,
   readadc, timer), under native execution, SenSmart with memory
   protection only, full SenSmart, and the t-kernel model. *)

let assemble = Asm.Assembler.assemble

(** Boot [images] under the kernel and run them to the final BREAK;
    any other stop fails, naming [what]. *)
let run_to_break ?config ?rewrite ?max_cycles what images =
  let k = Kernel.boot ?config ?rewrite images in
  match Kernel.run ?max_cycles k with
  | Machine.Cpu.Halted Break_hit -> k
  | s -> Fmt.failwith "%s stopped: %a" what Machine.Cpu.pp_stop s

(** The benchmark programs, in the paper's order.  [scale] multiplies
    iteration counts for longer, less noisy runs. *)
let programs ?(scale = 1) () : (string * Asm.Ast.program) list =
  [ ("am", Programs.Am_bench.program ~packets:(6 * scale) ());
    ("amplitude", Programs.Amplitude_bench.program ~windows:(10 * scale) ());
    ("crc", Programs.Crc_bench.program ~passes:(24 * scale) ());
    ("eventchain", Programs.Eventchain_bench.program ~rounds:(60 * scale) ());
    ("lfsr", Programs.Lfsr_bench.program ~iters:(2000 * scale) ());
    ("readadc", Programs.Readadc_bench.program ~samples:(40 * scale) ());
    ("timer", Programs.Timer_bench.program ~ticks:(48 * scale) ()) ]

(* --- Figure 4: code inflation ------------------------------------------- *)

type size_row = {
  name : string;
  native_bytes : int;
  rewritten_bytes : int;  (** patched text + relocated flash data *)
  shift_bytes : int;  (** shift table, 2 bytes per entry *)
  tramp_bytes : int;  (** shared services + trampolines *)
  tkernel_bytes : int;
}

let sensmart_total r = r.rewritten_bytes + r.shift_bytes + r.tramp_bytes

let size_row name img =
  let nat = Rewriter.Rewrite.run ~base:0 img in
  { name;
    native_bytes = Asm.Image.total_bytes img;
    rewritten_bytes = 2 * (nat.text_words + nat.rodata_words);
    shift_bytes = 2 * Rewriter.Shift_table.size nat.shift;
    tramp_bytes = 2 * nat.support_words;
    tkernel_bytes = Tkernel.Rewrite.total_bytes (Tkernel.Rewrite.run img) }

let fig4 ?scale () : size_row list =
  List.map (fun (name, prog) -> size_row name (assemble prog)) (programs ?scale ())

(* Compiler-scale inflation: the same benchmarks written in minic and
   compiled are several times larger than the hand-assembled versions —
   closer to the paper's nesC-built programs — and show how the fixed
   trampoline/service overhead amortizes as programs grow. *)
let fig4_minic () : size_row list =
  List.filter_map
    (fun (name, _) ->
      match Programs.Minic_suite.compile name with
      | exception _ -> None
      | img -> Some (size_row name img))
    Programs.Minic_suite.sources

(** Inflation on firmware as a base station receives it: the rewrite
    report of every avr-gcc-shaped fixture image, re-loaded from its
    Intel-HEX bytes without symbols. *)
let firmware () : Rewriter.Report.t list =
  List.map
    (fun f -> snd (Rewriter.Rewrite.pipeline ~base:0 (Loader.Firmware.load_hex f)))
    (Loader.Firmware.all ())

(* --- Figure 5: execution time -------------------------------------------- *)

type time_row = {
  name : string;
  native_s : float;
  mem_only_s : float;  (** SenSmart, memory protection only *)
  full_s : float;  (** SenSmart, memory protection + task scheduling *)
  tkernel_s : float;  (** steady state, warm-up excluded as in Fig. 5 *)
}

let seconds c = Avr.Cycles.to_seconds c

let fig5 ?scale () : time_row list =
  List.map
    (fun (name, prog) ->
      let img = assemble prog in
      let native = (Native.run img).cycles in
      let sensmart rewrite = (run_to_break ~rewrite name [ img ]).m.cycles in
      let mem_only =
        sensmart { Rewriter.Rewrite.default_config with preempt = false }
      in
      let full = sensmart Rewriter.Rewrite.default_config in
      let tk = Tkernel.Run.run (Tkernel.Rewrite.run img) in
      (match tk.halt with
       | Some Break_hit -> ()
       | h ->
         Fmt.failwith "t-kernel run of %s: %a" name
           Fmt.(option Machine.Cpu.pp_halt) h);
      { name;
        native_s = seconds native;
        mem_only_s = seconds mem_only;
        full_s = seconds full;
        tkernel_s = seconds (tk.cycles - tk.warmup_cycles) })
    (programs ?scale ())
