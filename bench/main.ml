(* Benchmark harness.

   Two things happen here:

   1. The paper-reproduction output: every table and figure of the
      evaluation section is regenerated and printed (simulated MICA2
      cycles/seconds — the reproduction's actual results).

   2. A machine-readable metrics snapshot (sensmart_metrics.json): the
      uniform counter registry from lib/trace, populated by a fixed
      multitasking + network workload.  `--smoke` emits only this blob.
      Every counter is simulated, so `dune runtest` diffs the blob
      against bench/baseline_metrics.json exactly (see bench/dune).

   Host time is measured by perfbench (BENCHMARK.json), not here.

   Usage: dune exec bench/main.exe [-- --quick] [-- --smoke] *)

let quick = Array.exists (( = ) "--quick") Sys.argv
let smoke = Array.exists (( = ) "--smoke") Sys.argv

(* --- part 1: regenerate the evaluation section -------------------------- *)

let section name f =
  Fmt.pr "@.=== %s ===@." name;
  f ();
  Format.pp_print_flush Format.std_formatter ()

let fig6_points =
  if quick then [ 2_000; 30_000; 90_000 ] else Workloads.Periodic.default_points

let fig7_sizes = if quick then [ 10; 40; 80 ] else [ 10; 20; 30; 40; 50; 60; 80 ]
let fig8_sizes = if quick then [ 10; 40 ] else [ 10; 20; 30; 40 ]

let reproduce () =
  section "Table I: feature comparison" (fun () ->
      Workloads.Features.print Format.std_formatter ());
  section "Table II: overhead of key operations (cycles)" (fun () ->
      Workloads.Overhead.print Format.std_formatter (Workloads.Overhead.table ()));
  section "Figure 4: code inflation of kernel benchmarks (bytes)" (fun () ->
      Workloads.Kernel_bench.print_fig4 Format.std_formatter
        (Workloads.Kernel_bench.fig4 ()));
  section "Figure 5: execution time of kernel benchmarks" (fun () ->
      Workloads.Kernel_bench.print_fig5 Format.std_formatter
        (Workloads.Kernel_bench.fig5 ()));
  section "Figure 6: PeriodicTask execution time and CPU utilization" (fun () ->
      Workloads.Periodic.print_fig6 Format.std_formatter
        (Workloads.Periodic.sweep fig6_points));
  section "Figure 7: stack versatility vs binary-tree size" (fun () ->
      Workloads.Versatility.print_fig7 Format.std_formatter
        (Workloads.Versatility.fig7 fig7_sizes));
  section "Figure 8: SenSmart vs LiteOS schedulable tasks" (fun () ->
      Workloads.Versatility.print_fig8 Format.std_formatter
        (Workloads.Versatility.fig8 fig8_sizes));
  section "Figure 4 at compiler scale: minic-built benchmarks" (fun () ->
      Workloads.Kernel_bench.print_fig4 Format.std_formatter
        (Workloads.Kernel_bench.fig4_minic ()));
  section "Concurrent PeriodicTask applications (Table I: SenSmart-only)" (fun () ->
      Workloads.Periodic.print_multi Format.std_formatter
        (Workloads.Periodic.multi (if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ])));
  section "Ablation: grouped-rewriting optimizations (Section IV-C2)" (fun () ->
      Workloads.Ablation.print_grouping Format.std_formatter
        (Workloads.Ablation.grouping ()));
  section "Ablation: software-trap period vs preemption latency" (fun () ->
      Workloads.Ablation.print_trap Format.std_formatter
        (Workloads.Ablation.trap_period_sweep ()));
  section "Ablation: time-slice length" (fun () ->
      Workloads.Ablation.print_slice Format.std_formatter
        (Workloads.Ablation.slice_sweep ()))

(* --- part 2: machine-readable metrics snapshot --------------------------- *)

(* The campaign-service sits above workloads in the library stack, so
   the smoke blob picks up its [service.*] counters here rather than
   inside [Metrics.collect]: a short seeded load test on one worker with
   no ingest stall, so every counter (steals included) is
   schedule-independent. *)
let service_metrics tr =
  let specs = Service.Engine.loadtest_mix ~seed:1 96 in
  let config =
    { Service.Pool.default_config with workers = 1; stall_us = 0 }
  in
  ignore (Service.Engine.serve ~config ~trace:tr ~emit:ignore specs)

let emit_metrics () =
  let tr = Workloads.Metrics.collect () in
  service_metrics tr;
  let json = Trace.counters_json tr in
  let path = Workloads.Metrics.write_file tr in
  Fmt.pr "@.=== metrics snapshot (%s) ===@.%s@." path json

let () =
  if smoke then emit_metrics ()
  else begin
    Fmt.pr "SenSmart reproduction benchmark harness%s@."
      (if quick then " (quick)" else "");
    reproduce ();
    emit_metrics ();
    Fmt.pr "@.done.@."
  end
