(* Machine-readable metrics snapshot for the benchmark harness and CLI.

   Runs one representative multitasking workload (the Figure 7 feeder +
   search tasks, which exercises traps, context switches, and stack
   relocation), a two-mote network exchange (the "am" sender against a
   compute mote), a seeded fault campaign, the attack matrix, a 100-mote
   fleet and the rewriting pipeline over the fixture firmware,
   publishing every layer's counters into a single trace registry.
   Every counter is simulated, so the snapshot is a pure function of
   the code: bench/baseline_metrics.json pins it exactly (see
   bench/dune), and host time is measured only by perfbench.  The
   counter-name schema is documented in DESIGN.md. *)

let assemble = Asm.Assembler.assemble

(** Run the metrics workloads and return the populated trace sink.
    [window] bounds each run's cycle budget.  Every counter is
    deterministic and machine-independent. *)
let collect ?(window = 2_000_000) () : Trace.t =
  let trace = Trace.create () in
  (* Multitasking + relocation: feeder + searchers under a tight stack
     budget, exactly the pressure pattern of Figure 7. *)
  let images =
    assemble (Programs.Bintree.feeder ~trees:4 ~nodes:16 ())
    :: List.init 3 (fun i ->
           assemble
             (Programs.Bintree.search
                ~name:(Printf.sprintf "search%d" i)
                ~nodes:16
                ~seed:(0x1357 + (i * 0x2467))
                ()))
  in
  let config = { Kernel.default_config with stack_budget = Some 700 } in
  let k = Kernel.boot ~config ~trace images in
  (match Kernel.run ~max_cycles:window k with
   | Machine.Cpu.Out_of_fuel | Machine.Cpu.Halted _ -> ()
   | Machine.Cpu.Sleeping | Machine.Cpu.Preempted -> ());
  Kernel.publish_counters k;
  (* Two-mote network: an active-message sender feeding a compute mote;
     routed/dropped and per-mote kernel counters land under "net." and
     "mote<i>.". *)
  let net =
    Net.create ~trace
      [ [ assemble (Programs.Am_bench.program ~packets:4 ()) ];
        [ assemble (Programs.Lfsr_bench.program ~iters:500 ()) ] ]
  in
  Net.chain net;
  ignore (Net.run ~max_cycles:window net);
  Net.publish_counters net;
  (* Serialized size of a whole-network capture. *)
  Trace.set_counter trace "snapshot.net_bytes"
    (String.length (Snapshot.to_string (Snapshot.of_net net)));
  (* Fault-injection campaign: a deterministic seeded campaign,
     publishing the engine's "fault.*" counters. *)
  let fault_images =
    [ assemble (Programs.Lfsr_bench.program ~iters:2_000 ());
      assemble (Programs.Timer_bench.program ()) ]
  in
  let report =
    Fault.Campaign.run ~trials:4 ~faults:5 ~max_cycles:(window / 4) ~seed:1
      (Kernel.prepare fault_images)
  in
  List.iter
    (fun (name, v) -> Trace.set_counter trace name v)
    (Trace.counters report.Fault.Campaign.trace);
  (* Adversarial attack campaign: one seeded packet variant of every
     attack class against every kernel (lib/attack), publishing the
     "attack.*" containment matrix — per-cell verdict ranks, probe fire
     counts, recovery totals. *)
  let attack_matrix = Attack.campaign ~trials:1 ~seed:1 () in
  List.iter
    (fun (name, v) -> Trace.set_counter trace name v)
    (Trace.counters attack_matrix.Attack.trace);
  (* Fleet-scale stepping: a 100-mote lossy sense-and-send campaign on
     a grid (shared copy-on-write flash, event-driven scheduler), plus
     the per-mote size of a whole-fleet snapshot (content-addressed
     flash makes it KBs, not the 141 KB a naive capture would take). *)
  let fleet_motes = 100 and fleet_periods = 4 in
  let fleet =
    Fleet.create ~loss_permille:100 ~periods:fleet_periods
      ~topology:(Fleet.Grid 10) fleet_motes
  in
  let live =
    Net.run ~max_cycles:(Fleet.horizon ~periods:fleet_periods) fleet
  in
  Fleet.publish trace (Fleet.stats ~live fleet);
  Trace.set_counter trace "snapshot.fleet_bytes_per_mote"
    (String.length (Snapshot.to_string (Snapshot.of_net fleet)) / fleet_motes);
  (* Rewriting pipeline over the fixture firmware set (lib/loader):
     avr-gcc-shaped images re-loaded from their Intel-HEX bytes,
     symbol-less — what a base station actually ingests.  The summed
     "rewrite.*" counters include rewrite.bytes_inflated_permille,
     Figure 4's inflation axis. *)
  Rewriter.Report.publish trace (Kernel_bench.firmware ());
  trace

(** Write the snapshot to [path] (default ["sensmart_metrics.json"] in
    the working directory); returns the path written. *)
let write_file ?(path = "sensmart_metrics.json") trace =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Trace.counters_json trace);
      Out_channel.output_char oc '\n');
  path
