(* Figure 6: PeriodicTask execution time and CPU utilization versus
   computation size, across native, t-kernel, SenSmart and Maté. *)

type point = {
  insns : int;  (** computation size per activation, in instructions *)
  native_s : float;
  native_util : float;
  sensmart_s : float;
  sensmart_util : float;
  tkernel_s : float;  (** includes the on-node rewriting warm-up, as in Fig. 6(a) *)
  mate_s : float;
}

let seconds = Avr.Cycles.to_seconds

let assemble = Asm.Assembler.assemble

let run_point ~period ~activations insns : point =
  let comp_units = Programs.Periodic_task.units_for_insns insns in
  let prog = Programs.Periodic_task.program ~period ~activations ~comp_units () in
  let img = assemble prog in
  (* Native. *)
  let n = Native.run img in
  (* SenSmart. *)
  let k =
    Kernel_bench.run_to_break ~max_cycles:4_000_000_000 "sensmart periodic"
      [ img ]
  in
  (* t-kernel (fresh image: rewriting happens on node at load). *)
  let tk = Tkernel.Run.run (Tkernel.Rewrite.run img) in
  (* Maté bytecode equivalent. *)
  let vm =
    Matevm.create (Matevm.periodic_capsule ~period ~activations ~comp_units)
  in
  ignore (Matevm.run ~max_cycles:4_000_000_000 vm);
  { insns;
    native_s = seconds n.cycles;
    native_util = float_of_int n.active_cycles /. float_of_int (max 1 n.cycles);
    sensmart_s = seconds k.m.cycles;
    sensmart_util =
      float_of_int (Machine.Cpu.active_cycles k.m) /. float_of_int (max 1 k.m.cycles);
    tkernel_s = seconds tk.cycles;
    mate_s = seconds vm.cycles }

(** Sweep computation sizes (instructions per activation). *)
let sweep ?(period = Programs.Periodic_task.default_period) ?(activations = 20)
    (insn_points : int list) : point list =
  List.map (run_point ~period ~activations) insn_points

(* --- concurrent periodic tasks (Table I: "Concurrent Applications") ----- *)

type multi_point = {
  tasks : int;
  all_finished : bool;
  total_s : float;
  avg_current_ma : float;  (** energy view of the same run *)
}

(** Run [k] independent PeriodicTask applications concurrently under
    SenSmart — something none of the paper's comparison systems support
    (Table I) — and report completion and the mote's average current. *)
let multi ?(period = Programs.Periodic_task.default_period) ?(activations = 6)
    ?(comp_units = 800) (task_counts : int list) : multi_point list =
  List.map
    (fun k ->
      let images =
        List.init k (fun i ->
            assemble
              (Programs.Periodic_task.program
                 ~name:(Printf.sprintf "p%d" i)
                 ~period ~activations ~comp_units ()))
      in
      let kern = Kernel.boot images in
      let stop = Kernel.run ~max_cycles:4_000_000_000 kern in
      let all_finished =
        stop = Machine.Cpu.Halted Break_hit
        && List.for_all
             (fun (t : Kernel.Task.t) -> t.status = Kernel.Task.Exited "exit")
             kern.tasks
      in
      { tasks = k;
        all_finished;
        total_s = seconds kern.m.cycles;
        avg_current_ma = Machine.Energy.avg_current_ma kern.m })
    task_counts
