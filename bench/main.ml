(* Benchmark harness.

   Two things happen here:

   1. The paper-reproduction output: every entry of the experiment
      registry (Workloads.Experiments) is measured and printed as a
      markdown table (simulated MICA2 cycles/seconds — the
      reproduction's actual results).

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

let reproduce () =
  List.iter (Workloads.Experiments.print ~quick) Workloads.Experiments.all

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
