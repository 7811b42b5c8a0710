(* Machine-readable metrics snapshot for the benchmark harness and CLI.

   Runs one representative multitasking workload (the Figure 7 feeder +
   search tasks, which exercises traps, context switches, and stack
   relocation) and one two-mote network exchange (the "am" sender
   against a compute mote), publishing every layer's counters into a
   single trace registry.  The resulting JSON blob is the perf baseline
   future PRs regress against; the counter-name schema is documented in
   DESIGN.md. *)

let assemble = Asm.Assembler.assemble

(* Host-side engine throughput: a sustained bare-metal workload (long
   enough that block compilation is amortized) timed under each
   execution tier, best of three so scheduler noise biases low.  The
   numbers are machine-dependent by nature — they are the counters
   scripts/bench_diff.sh gates on, not part of the deterministic
   simulated schema. *)
let host_throughput trace =
  let img = assemble (Programs.Lfsr_bench.program ~iters:60_000 ()) in
  let best_rate ~tier =
    let best = ref 0.0 in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = Native.run ~tier img in
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 0.0 then best := Float.max !best (float_of_int r.insns /. dt)
    done;
    int_of_float !best
  in
  let tier1 = best_rate ~tier:1 in
  let tier0 = best_rate ~tier:0 in
  Trace.set_counter trace "host.tier1_insns_per_sec" tier1;
  Trace.set_counter trace "host.tier0_insns_per_sec" tier0;
  if tier0 > 0 then
    Trace.set_counter trace "host.tier1_speedup_x100" (tier1 * 100 / tier0);
  (* Tier-2 versus tier-1 on an engine-bound spin: an endless LFSR loop
     bounded only by [max_cycles], so the rates measure the sustained
     engines with no boot/compile share.  Compilation (or the disk-cache
     hit) happens in [Aot.preload] and is reported separately as
     [host.tier2_compile_ms]; the speedup pair is what
     scripts/bench_diff.sh gates (< 5x tier-1 is a regression).  All
     three counters are published even when the toolchain is missing —
     tier-2 then degrades to tier-1 and the speedup reads ~100. *)
  let spin =
    let open Asm.Macros in
    assemble
      (Asm.Ast.program "metrics_spin"
         ((lbl "start" :: sp_init)
          @ Programs.Common.lfsr_seed 0x1234
          @ [ ldi 18 0xB4; lbl "loop" ]
          @ Programs.Common.lfsr_step ~creg:18
          @ [ rjmp "loop" ]))
  in
  let s0 = (Machine.Aot.stats ()).compile_ms in
  Machine.Aot.preload [ spin.words ];
  let s1 = (Machine.Aot.stats ()).compile_ms in
  Trace.set_counter trace "host.tier2_compile_ms" (int_of_float (s1 -. s0));
  let spin_rate tier =
    let best = ref 0.0 in
    for _ = 1 to 3 do
      let m = Machine.Cpu.create () in
      Machine.Cpu.load m spin.words;
      m.pc <- spin.entry;
      m.tier <- tier;
      (* Digest/bind and tier-1 warm-up land outside the timer. *)
      ignore (Machine.Cpu.run ~max_cycles:200_000 m);
      let i0 = m.insns in
      let t0 = Unix.gettimeofday () in
      ignore (Machine.Cpu.run ~max_cycles:40_000_000 m);
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 0.0 then
        best := Float.max !best (float_of_int (m.insns - i0) /. dt)
    done;
    int_of_float !best
  in
  let t2 = spin_rate 2 in
  let t1_spin = spin_rate 1 in
  Trace.set_counter trace "host.tier2_insns_per_sec" t2;
  if t1_spin > 0 then
    Trace.set_counter trace "host.tier2_speedup_vs_tier1_x100"
      (t2 * 100 / t1_spin);
  (* Short-run overhead: the default (2 000-iteration) LFSR bench is
     over in ~25 k instructions, the regime where eagerly compiling
     every block used to make tier-1 *slower* than tier-0
     (BENCH_pr2.json's lfsr_default).  The per-entry heat threshold
     fixes that; scripts/bench_diff.sh gates this ratio staying >= ~1x
     (x100, absolute).  Ten boots per timing sample keep the wall time
     measurable; boot cost is common to both tiers, which can only pull
     the ratio toward 100, never fake a pass. *)
  let short = assemble (Programs.Lfsr_bench.program ()) in
  let short_rate ~tier =
    let best = ref 0.0 in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      let insns = ref 0 in
      for _ = 1 to 10 do
        insns := !insns + (Native.run ~tier short).insns
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 0.0 then best := Float.max !best (float_of_int !insns /. dt)
    done;
    int_of_float !best
  in
  let short1 = short_rate ~tier:1 in
  let short0 = short_rate ~tier:0 in
  if short0 > 0 then
    Trace.set_counter trace "host.tier1_short_speedup_x100"
      (short1 * 100 / short0)

(** Run the metrics workloads and return the populated trace sink.
    [window] bounds each run's cycle budget.  Alongside the simulated
    counters (deterministic, machine-independent) the snapshot carries
    ["host.*"] counters: wall-clock of this collection and sustained
    engine throughput per tier. *)
let collect ?(window = 2_000_000) () : Trace.t =
  let started = Unix.gettimeofday () in
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
  (* Snapshot subsystem cost, host-side like the throughput numbers:
     serialized size of a whole-network capture, capture+encode rate,
     and the throughput tax of periodic auto-checkpointing on a fresh
     copy of the same network workload. *)
  let encoded = Snapshot.to_string (Snapshot.of_net net) in
  Trace.set_counter trace "host.snapshot_bytes" (String.length encoded);
  let reps = 10 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Snapshot.to_string (Snapshot.of_net net))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Trace.set_counter trace "host.snapshot_capture_us"
    (int_of_float (dt *. 1e6 /. float_of_int reps));
  if dt > 0.0 then
    Trace.set_counter trace "host.snapshot_capture_mb_per_sec"
      (int_of_float
         (float_of_int (reps * String.length encoded)
          /. (1024.0 *. 1024.0) /. dt));
  let net_workload () =
    let n =
      Net.create
        [ [ assemble (Programs.Am_bench.program ~packets:4 ()) ];
          [ assemble (Programs.Lfsr_bench.program ~iters:500 ()) ] ]
    in
    Net.chain n;
    n
  in
  let timed_run ?checkpoint_every ?(on_checkpoint = fun _ _ -> ()) () =
    let n = net_workload () in
    let t0 = Unix.gettimeofday () in
    ignore (Net.run ~max_cycles:window ?checkpoint_every ~on_checkpoint n);
    Unix.gettimeofday () -. t0
  in
  let plain = timed_run () in
  let checkpoints = ref 0 in
  let chk =
    timed_run
      ~checkpoint_every:(max 1 (window / 8))
      ~on_checkpoint:(fun _ n ->
        Stdlib.incr checkpoints;
        ignore (Snapshot.to_string (Snapshot.of_net n)))
      ()
  in
  Trace.set_counter trace "host.net_plain_us" (int_of_float (plain *. 1e6));
  Trace.set_counter trace "host.net_checkpointed_us"
    (int_of_float (chk *. 1e6));
  Trace.set_counter trace "host.checkpoints" !checkpoints;
  if plain > 0.0 then
    Trace.set_counter trace "host.checkpoint_overhead_pct"
      (int_of_float ((chk -. plain) *. 100.0 /. plain));
  (* Fault-injection campaign: a deterministic seeded campaign over the
     same pressure workload, publishing the engine's "fault.*" counters
     (simulated, machine-independent), plus the host-side overhead of
     running a plan through the injection engine versus plain. *)
  let fault_images =
    [ assemble (Programs.Lfsr_bench.program ~iters:2_000 ());
      assemble (Programs.Timer_bench.program ()) ]
  in
  let report =
    Fault.Campaign.run ~trials:4 ~faults:5 ~max_cycles:(window / 4) ~seed:1
      fault_images
  in
  List.iter
    (fun (name, v) -> Trace.set_counter trace name v)
    (Trace.counters report.Fault.Campaign.trace);
  let fault_plan =
    Fault.Plan.random ~seed:2 ~n:8 ~window:(window / 20, window / 2) ()
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let fault_plain =
    timed (fun () ->
        let k = Kernel.boot fault_images in
        ignore (Kernel.run ~max_cycles:(window / 2) k))
  in
  let fault_run =
    timed (fun () ->
        let k = Kernel.boot fault_images in
        ignore (Fault.run_kernel ~max_cycles:(window / 2) ~plan:fault_plan k))
  in
  Trace.set_counter trace "host.fault_plain_us"
    (int_of_float (fault_plain *. 1e6));
  Trace.set_counter trace "host.fault_run_us"
    (int_of_float (fault_run *. 1e6));
  if fault_plain > 0.0 then
    Trace.set_counter trace "host.fault_overhead_pct"
      (int_of_float ((fault_run -. fault_plain) *. 100.0 /. fault_plain));
  (* Adversarial attack campaign: one seeded packet variant of every
     attack class against every kernel (lib/attack), publishing the
     machine-readable "attack.*" containment matrix — per-cell verdict
     ranks, probe fire counts, recovery totals.  Deterministic and
     machine-independent, so bench_diff.sh flags any drift as a
     behavioural change. *)
  let attack_matrix = Attack.campaign ~trials:1 ~seed:1 () in
  List.iter
    (fun (name, v) -> Trace.set_counter trace name v)
    (Trace.counters attack_matrix.Attack.trace);
  (* Fleet-scale stepping: a 100-mote lossy sense-and-send campaign on
     a grid (shared copy-on-write flash, event-driven scheduler).  The
     "fleet.*" aggregates are deterministic and machine-independent;
     the "host.fleet_*" pair is what scripts/bench_diff.sh gates —
     sustained simulated mote-cycles per wall second, and the
     per-mote cost of a whole-fleet snapshot (content-addressed flash
     makes it KBs, not the 141 KB a naive capture would take). *)
  let fleet_motes = 100 and fleet_periods = 4 in
  let fleet =
    Fleet.create ~loss_permille:100 ~periods:fleet_periods
      ~topology:(Fleet.Grid 10) fleet_motes
  in
  let t0 = Unix.gettimeofday () in
  let live =
    Net.run ~max_cycles:(Fleet.horizon ~periods:fleet_periods) fleet
  in
  let fleet_wall = Unix.gettimeofday () -. t0 in
  Fleet.publish trace (Fleet.stats ~live fleet);
  let mote_cycles =
    Array.fold_left
      (fun acc (n : Net.node) -> acc + n.kernel.m.cycles)
      0 fleet.nodes
  in
  if fleet_wall > 0.0 then
    Trace.set_counter trace "host.fleet_mote_cycles_per_sec"
      (int_of_float (float_of_int mote_cycles /. fleet_wall));
  let fleet_snap = Snapshot.to_string (Snapshot.of_net fleet) in
  Trace.set_counter trace "host.fleet_snapshot_bytes_per_mote"
    (String.length fleet_snap / fleet_motes);
  (* Rewriting pipeline over the fixture firmware set (lib/loader):
     avr-gcc-shaped images re-loaded from their Intel-HEX bytes,
     symbol-less — what a base station actually ingests.  The summed
     "rewrite.*" counters are deterministic and machine-independent;
     scripts/bench_diff.sh gates the key set and treats
     rewrite.bytes_inflated_permille as lower-is-better (Figure 4's
     inflation axis). *)
  let rewrite_reports =
    List.map
      (fun f ->
        snd (Rewriter.Rewrite.pipeline ~base:0 (Loader.Firmware.load_hex f)))
      (Loader.Firmware.all ())
  in
  Rewriter.Report.publish trace rewrite_reports;
  host_throughput trace;
  Trace.set_counter trace "host.wall_ms"
    (int_of_float ((Unix.gettimeofday () -. started) *. 1000.0));
  trace

(** The counter snapshot as a JSON object. *)
let json trace = Trace.counters_json trace

(** Write the snapshot to [path] (default ["sensmart_metrics.json"] in
    the working directory); returns the path written. *)
let write_file ?(path = "sensmart_metrics.json") trace =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (json trace);
      Out_channel.output_char oc '\n');
  path
