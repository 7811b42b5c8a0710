(* Command-line front end: disassemble, rewrite, and run the bundled
   programs; regenerate the paper's tables and figures. *)

open Cmdliner

let lookup_image name =
  match Workloads.Registry.find_image name with
  | Some img -> img
  | None ->
    Fmt.epr "unknown program %s (try: %s)@." name
      (String.concat ", " Workloads.Registry.names);
    exit 1

let prog_arg =
  let doc = "Program name (see the list command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let progs_arg =
  let doc = "Program names to run concurrently." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"PROGRAM" ~doc)

let tier_arg =
  let doc =
    "Execution tier ceiling: 0 = reference interpreter, 1 = compiled \
     basic blocks, 2 = ahead-of-time compiled OCaml (requires a host \
     toolchain; falls back to tier 1 with a warning when unavailable). \
     All tiers are bit-identical."
  in
  let tier = Arg.enum [ ("0", 0); ("1", 1); ("2", 2) ] in
  Arg.(value & opt tier 1 & info [ "tier" ] ~docv:"N" ~doc)

(* list *)
let list_cmd =
  let experiments =
    Arg.(value & flag & info [ "experiments" ]
           ~doc:"List the paper experiments (NAME, a tab, TITLE) instead.")
  in
  let run experiments =
    if experiments then
      List.iter
        (fun (e : Workloads.Experiments.t) -> Printf.printf "%s\t%s\n" e.name e.title)
        Workloads.Experiments.all
    else List.iter print_endline Workloads.Registry.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled programs")
    Term.(const run $ experiments)

(* disasm *)
let disasm_cmd =
  let naturalized =
    Arg.(value & flag & info [ "naturalized"; "n" ]
           ~doc:"Disassemble the SenSmart-rewritten image instead of the original.")
  in
  let run name naturalized =
    let img = lookup_image name in
    if naturalized then begin
      let nat = Sensmart.rewrite img in
      Fmt.pr "; %s naturalized: %d -> %d bytes (x%.2f), %d shift entries, %d trampolines (%d merged)@."
        name (Asm.Image.total_bytes img)
        (Rewriter.Naturalized.total_bytes nat)
        (Rewriter.Naturalized.inflation nat)
        nat.stats.shift_entries nat.stats.trampolines nat.stats.merged;
      print_endline (Avr.Disasm.image nat.words)
    end
    else print_endline (Avr.Disasm.image img.words)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a program (original or naturalized)")
    Term.(const run $ prog_arg $ naturalized)

(* native *)
let native_cmd =
  let run name tier =
    let img = lookup_image name in
    let r = Sensmart.run_native ~tier img in
    Fmt.pr "%s: %a in %d cycles (%.3f s), %d instructions, %.1f%% active@." name
      Fmt.(option Machine.Cpu.pp_halt) r.halt r.cycles
      (Avr.Cycles.to_seconds r.cycles) r.insns
      (100. *. float_of_int r.active_cycles /. float_of_int (max 1 r.cycles));
    if tier = 2 then Fmt.epr "%a@." Machine.Aot.pp_stats (Machine.Aot.stats ())
  in
  Cmd.v (Cmd.info "native" ~doc:"Run one program bare-metal, no OS")
    Term.(const run $ prog_arg $ tier_arg)

(* Shared by run/resume: final stop, kernel counters, per-task lines. *)
let print_run_summary (k : Kernel.t) (stop : Machine.Cpu.stop) ~trace =
  Fmt.pr "stopped: %a after %d cycles (%.3f s)@." Machine.Cpu.pp_stop stop
    k.m.cycles (Avr.Cycles.to_seconds k.m.cycles);
  Fmt.pr "traps=%d switches=%d relocations=%d (%d bytes) translations=%d@."
    k.stats.traps k.stats.context_switches k.stats.relocations
    k.stats.relocated_bytes k.stats.translations;
  List.iter
    (fun (t : Kernel.Task.t) ->
      let status =
        match t.status with
        | Ready -> "ready"
        | Sleeping _ -> "sleeping"
        | Exited r -> "exited: " ^ r
      in
      Fmt.pr "task %d %-12s region [%04x,%04x) stack %4dB  %s@." t.id t.name
        t.region.p_l t.region.p_u (Kernel.Task.stack_alloc t) status)
    k.tasks;
  if trace then
    List.iter (fun e -> print_endline (Trace.json_of_event e))
      (Kernel.event_log k)

(* run (under SenSmart) *)
let run_cmd =
  let budget =
    Arg.(value & opt int 200_000_000
         & info [ "budget" ] ~doc:"Cycle budget for the whole run.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the kernel event log.")
  in
  let exec names budget trace tier =
    let images = List.map lookup_image names in
    let k = Sensmart.boot images in
    let stop = Sensmart.run ~tier ~max_cycles:budget k in
    print_run_summary k stop ~trace
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run programs concurrently under the SenSmart kernel")
    Term.(const exec $ progs_arg $ budget $ trace $ tier_arg)

(* snapshot: run to a cycle, save the full deterministic state *)
let snapshot_cmd =
  let at =
    Arg.(value & opt int 1_000_000
         & info [ "at" ] ~doc:"Capture after this many cycles.")
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Snapshot file to write.")
  in
  let exec names at out =
    let images = List.map lookup_image names in
    let k = Sensmart.boot images in
    ignore (Sensmart.run ~max_cycles:at k);
    let s = Snapshot.of_kernel ~programs:names k in
    Snapshot.save out s;
    Fmt.pr "%s: %s (%d bytes)@." out (Snapshot.describe s)
      (String.length (Snapshot.to_string s))
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Run programs under the kernel and save a deterministic \
             snapshot of the whole state")
    Term.(const exec $ progs_arg $ at $ out)

(* resume: restore a snapshot onto a freshly booted kernel, keep running *)
let resume_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Snapshot file written by the snapshot command.")
  in
  let budget =
    Arg.(value & opt int 200_000_000
         & info [ "budget" ] ~doc:"Total cycle budget (snapshot cycles included).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the kernel event log.")
  in
  let exec file budget trace tier =
    match Snapshot.load file with
    | Error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 1
    | Ok s ->
      if Snapshot.kind_name s = "net" then begin
        Fmt.epr
          "%s is a network snapshot; resume only reboots kernel snapshots. \
           Restore it with Snapshot.restore_net onto a network re-created \
           with the capture-time parameters@."
          file;
        exit 1
      end;
      (match Snapshot.programs s with
       | [] ->
         Fmt.epr "%s records no program names; cannot re-create the host@." file;
         exit 1
       | names ->
         let images = List.map lookup_image names in
         let k = Sensmart.boot images in
         (match Snapshot.restore_kernel s k with
          | exception Snapshot.Incompatible msg ->
            Fmt.epr "%s does not fit the rebooted host: %s@." file msg;
            exit 1
          | () ->
            Fmt.pr "resumed %s@." (Snapshot.describe s);
            let stop = Sensmart.run ~tier ~max_cycles:budget k in
            print_run_summary k stop ~trace))
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Restore a snapshot (rebooting its recorded programs) and \
             continue the run")
    Term.(const exec $ file $ budget $ trace $ tier_arg)

(* bisect: find the first cycle where two engine configurations diverge *)
let bisect_cmd =
  let budget =
    Arg.(value & opt int 2_000_000
         & info [ "budget" ] ~doc:"Cycle horizon to search up to.")
  in
  let granularity =
    Arg.(value & opt int 64
         & info [ "granularity" ]
             ~doc:"Stop narrowing when the divergence interval is at most \
                   this many cycles wide.")
  in
  let poke =
    Arg.(value & opt (some int) None
         & info [ "poke" ] ~docv:"CYCLE"
             ~doc:"Artificially corrupt one spare kernel cell on the \
                   tier-1 side once its clock passes this cycle (driver \
                   self-test: bisect must find it).")
  in
  let exec names budget granularity poke =
    let images = List.map lookup_image names in
    let boot () = Sensmart.boot images in
    let poke =
      Option.map
        (fun at -> { Snapshot.Bisect.poke_at = at; poke_value = 0xA5 })
        poke
    in
    let tier1 = Snapshot.Bisect.kernel_subject ?poke boot in
    let tier0 = Snapshot.Bisect.kernel_subject ~tier:0 boot in
    let verdict =
      Snapshot.Bisect.hunt ~granularity ~max_cycles:budget tier1 tier0
    in
    Fmt.pr "%a@." Snapshot.Bisect.pp_verdict verdict;
    match verdict with
    | Snapshot.Bisect.Identical _ -> ()
    | Snapshot.Bisect.Diverged _ -> exit 3
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:"Binary-search the first cycle where the tier-1 compiled-block \
             engine diverges from the tier-0 reference interpreter \
             (exit 3 when a divergence is found)")
    Term.(const exec $ progs_arg $ budget $ granularity $ poke)

(* trace: run programs, replay the event stream as JSONL *)
let trace_cmd =
  let budget =
    Arg.(value & opt int 200_000_000
         & info [ "budget" ] ~doc:"Cycle budget for the whole run.")
  in
  let exec names budget tier =
    let images = List.map lookup_image names in
    let k = Sensmart.boot images in
    ignore (Sensmart.run ~tier ~max_cycles:budget k);
    let tr = k.trace in
    if Trace.overflow tr > 0 then
      Fmt.epr "warning: event ring overflowed; %d oldest events lost@."
        (Trace.overflow tr);
    print_string (Trace.to_jsonl tr)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run programs under the kernel and dump the event stream as \
             JSON lines (one event per line)")
    Term.(const exec $ progs_arg $ budget $ tier_arg)

(* stats: run programs (or the default metrics workload), print counters *)
let stats_cmd =
  let progs =
    let doc =
      "Programs to run; with none, the default metrics workload \
       (multitasking + two-mote network) runs instead."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PROGRAM" ~doc)
  in
  let budget =
    Arg.(value & opt int 2_000_000
         & info [ "budget" ] ~doc:"Cycle budget for the run.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ]
             ~doc:"Also write the JSON snapshot to this file.")
  in
  let exec names budget out =
    let tr =
      match names with
      | [] -> Workloads.Metrics.collect ~window:budget ()
      | names ->
        let images = List.map lookup_image names in
        let k = Sensmart.boot images in
        ignore (Sensmart.run ~max_cycles:budget k);
        Kernel.publish_counters k;
        k.trace
    in
    print_endline (Trace.counters_json tr);
    Fmt.epr "%a@." Machine.Block.pp_stats (Machine.Block.stats ());
    match out with
    | None -> ()
    | Some path -> ignore (Workloads.Metrics.write_file ~path tr)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Emit the uniform counter snapshot (kernel, CPU, per-task, \
             network) as JSON")
    Term.(const exec $ progs $ budget $ out)

(* fault: deterministic fault-injection campaigns and explicit plans *)
let fault_cmd =
  let trials =
    Arg.(value & opt int 8
         & info [ "trials" ] ~doc:"Number of independent campaign trials.")
  in
  let faults =
    Arg.(value & opt int 6
         & info [ "faults" ] ~doc:"Injections drawn per trial plan.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"Campaign seed.  The same seed (and arguments) \
                   reproduces the same report, bit for bit.")
  in
  let disruptive =
    Arg.(value & flag
         & info [ "disruptive" ]
             ~doc:"Also draw crash, watchdog-reboot and clock-drift \
                   faults (default: corruption faults only).")
  in
  let budget =
    Arg.(value & opt int 1_500_000
         & info [ "budget" ]
             ~doc:"Cycle budget per trial (and for an --inject run).")
  in
  let injects =
    Arg.(value & opt_all string []
         & info [ "inject"; "i" ] ~docv:"SPEC"
             ~doc:"Apply one explicit injection, \
                   AT[@MOTE]:KIND[:ARG...] (repeatable), e.g. \
                   120000:sram:0x234:3 or 200000:crash.  With --inject \
                   the campaign is skipped: the programs boot once and \
                   run under exactly this plan.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"With --inject: print the kernel event log.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the run's counter snapshot as JSON.")
  in
  let exec names trials faults seed disruptive tier budget injects trace out =
    let images = List.map lookup_image names in
    match injects with
    | [] ->
      let report =
        Fault.Campaign.run ~tier ~trials ~faults ~max_cycles:budget
          ~disruptive ~seed (Kernel.prepare images)
      in
      Fmt.pr "%a@." Fault.Campaign.pp_report report;
      (match out with
       | None -> ()
       | Some path ->
         ignore
           (Workloads.Metrics.write_file ~path report.Fault.Campaign.trace))
    | specs ->
      let parsed =
        List.map
          (fun s ->
            match Fault.Plan.injection_of_spec s with
            | Ok i -> i
            | Error msg ->
              Fmt.epr "bad --inject %S: %s@." s msg;
              exit 1)
          specs
      in
      let plan = Fault.Plan.make ~seed parsed in
      let k = Sensmart.boot images in
      let stop = Fault.run_kernel ~tier ~max_cycles:budget ~plan k in
      Fmt.pr "plan: %a@." Fault.Plan.pp plan;
      print_run_summary k stop ~trace;
      Fmt.pr "injected: %d of %d@."
        (Trace.counter k.trace "fault.injected")
        (List.length parsed);
      (match out with
       | None -> ()
       | Some path ->
         Kernel.publish_counters k;
         ignore (Workloads.Metrics.write_file ~path k.trace))
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Run a deterministic fault-injection campaign (seeded random \
             plans, many trials, containment verdicts) or a single run \
             under an explicit --inject plan")
    Term.(const exec $ progs_arg $ trials $ faults $ seed $ disruptive
          $ tier_arg $ budget $ injects $ trace $ out)

(* attack: adversarial code-injection campaigns and raw-packet replay *)
let attack_cmd =
  let trials =
    Arg.(value & opt int 2
         & info [ "trials" ]
             ~doc:"Seeded packet variants per (system, class) cell.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"Campaign seed.  The same seed (and arguments) \
                   reproduces the same matrix, bit for bit.")
  in
  let systems =
    Arg.(value & opt_all string []
         & info [ "system" ] ~docv:"NAME"
             ~doc:"Target kernel (repeatable): sensmart, tkernel, liteos \
                   or matevm.  Default: all four.")
  in
  let packets =
    Arg.(value & opt_all string []
         & info [ "packet"; "p" ] ~docv:"HEX"
             ~doc:"Replay one raw radio packet (hex bytes, spaces \
                   optional; repeatable) against the SenSmart \
                   receiver+guard pair with the full probe battery.  \
                   With --packet the campaign is skipped.")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Also print the machine-readable counter snapshot \
                   (flat JSON, the attack.* counter schema).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the run's counter snapshot as JSON.")
  in
  let exec trials seed tier systems packets report out =
    match packets with
    | [] ->
      let systems =
        match systems with [] -> Attack.all_systems | l -> l
      in
      List.iter
        (fun s ->
          if not (List.mem s Attack.all_systems) then begin
            Fmt.epr "unknown system %S (expected one of: %s)@." s
              (String.concat ", " Attack.all_systems);
            exit 1
          end)
        systems;
      let m = Attack.campaign ~tier ~trials ~seed ~systems () in
      Fmt.pr "%a@." Attack.pp_matrix m;
      if report then Fmt.pr "%s@." (Trace.counters_json m.Attack.trace);
      (match out with
       | None -> ()
       | Some path ->
         ignore (Workloads.Metrics.write_file ~path m.Attack.trace))
    | specs ->
      let parsed =
        List.map
          (fun s ->
            match Attack.packet_of_spec s with
            | Ok bytes -> bytes
            | Error msg ->
              Fmt.epr "bad --packet %S: %s@." s msg;
              exit 1)
          specs
      in
      let t, trace = Attack.replay ~tier parsed in
      Fmt.pr "packet replay: %a (frames=%d, %s%s)@." Attack.pp_verdict
        t.Attack.verdict t.Attack.frames
        (if t.Attack.responsive then "responsive" else "unresponsive")
        (match t.Attack.recovery_cycles with
         | Some c -> Printf.sprintf ", recovered in %d cycles" c
         | None -> "");
      List.iter
        (fun (p : Attack.probe) ->
          Fmt.pr "  %s %s: %s@."
            (if p.Attack.ok then "ok" else "!!")
            p.Attack.pname p.Attack.detail)
        t.Attack.probes;
      (match out with
       | None -> ()
       | Some path -> ignore (Workloads.Metrics.write_file ~path trace))
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run the adversarial code-injection campaign (Harvard radio \
             packet attacks against every kernel, cross-kernel \
             containment matrix) or replay explicit raw --packet frames \
             against the SenSmart receiver")
    Term.(const exec $ trials $ seed $ tier_arg $ systems $ packets $ report
          $ out)

(* fleet: run the sense-and-send fleet workload at scale *)
let fleet_cmd =
  let motes =
    Arg.(value & opt int 100
         & info [ "motes"; "n" ] ~doc:"Number of motes in the fleet.")
  in
  let topology =
    Arg.(value
         & opt (enum [ ("line", `Line); ("grid", `Grid); ("rgg", `Rgg) ]) `Grid
         & info [ "topology" ]
             ~doc:"Deployment shape: line, grid, or rgg (seeded random \
                   geometric).")
  in
  let cols =
    Arg.(value & opt int 32
         & info [ "cols" ] ~doc:"Grid columns (grid topology).")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Placement seed (rgg topology).")
  in
  let radius =
    Arg.(value & opt int 60
         & info [ "radius" ]
             ~doc:"Connectivity radius on the 1000x1000 square (rgg \
                   topology).")
  in
  let loss =
    Arg.(value & opt int 100
         & info [ "loss" ] ~doc:"Per-byte loss rate in permille.")
  in
  let periods =
    Arg.(value & opt int 12
         & info [ "periods" ]
             ~doc:"Sense-and-send periods each mote runs (one per Timer0 \
                   overflow, 262144 cycles).")
  in
  let copies =
    Arg.(value & opt int 2
         & info [ "copies" ] ~doc:"Blind retransmissions per packet.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~doc:"Domains to step motes across.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Also save a whole-fleet snapshot (shared flash images \
                   are stored once).")
  in
  let exec motes topology cols seed radius loss periods copies domains tier out
      =
    let topology =
      match topology with
      | `Line -> Workloads.Fleet.Line
      | `Grid -> Workloads.Fleet.Grid cols
      | `Rgg -> Workloads.Fleet.Random_geometric { seed; radius }
    in
    let net =
      Workloads.Fleet.create ~loss_permille:loss ~periods ~copies ~topology
        motes
    in
    let t0 = Unix.gettimeofday () in
    let live =
      Net.run ~max_cycles:(Workloads.Fleet.horizon ~periods) ~domains ~tier net
    in
    let wall = Unix.gettimeofday () -. t0 in
    let stats = Workloads.Fleet.stats ~live net in
    Fmt.pr "%a@." Workloads.Fleet.pp_stats stats;
    let mote_cycles =
      Array.fold_left
        (fun acc (n : Net.node) -> acc + n.kernel.m.cycles)
        0 net.nodes
    in
    Fmt.pr "%.2f s wall, %.1fM mote-cycles/s@." wall
      (float_of_int mote_cycles /. wall /. 1e6);
    Fmt.epr "%a@." Machine.Block.pp_stats (Machine.Block.stats ());
    if tier = 2 then Fmt.epr "%a@." Machine.Aot.pp_stats (Machine.Aot.stats ());
    match out with
    | None -> ()
    | Some path ->
      let s = Snapshot.of_net ~programs:[ "fleet" ] net in
      Snapshot.save path s;
      let bytes = String.length (Snapshot.to_string s) in
      Fmt.pr "%s: %s (%d bytes, %d per mote)@." path (Snapshot.describe s)
        bytes (bytes / max 1 motes)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Run the sense-and-send fleet workload on a generated \
             topology")
    Term.(const exec $ motes $ topology $ cols $ seed $ radius $ loss
          $ periods $ copies $ domains $ tier_arg $ out)

(* serve: the campaign service — spec JSONL in, result JSONL out *)
let serve_cmd =
  let spec =
    Arg.(value & opt (some string) None
         & info [ "spec"; "s" ] ~docv:"FILE"
             ~doc:"Job spec file, one JSON object per line (defaults to \
                   stdin when no $(b,--loadtest) is given).")
  in
  let loadtest =
    Arg.(value & opt (some int) None
         & info [ "loadtest" ] ~docv:"N"
             ~doc:"Ignore the spec input and serve the seeded N-job \
                   load-test mix instead.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED" ~doc:"Load-test mix seed.")
  in
  let workers =
    Arg.(value & opt int Service.Pool.default_config.workers
         & info [ "workers"; "j" ] ~docv:"N"
             ~doc:"Worker domains serving jobs (default: the host's \
                   recommended domain count).")
  in
  let max_retries =
    Arg.(value & opt int 0
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"Extra attempts after a job's first failure.")
  in
  let job_timeout =
    Arg.(value & opt int 0
         & info [ "job-timeout" ] ~docv:"MS"
             ~doc:"Per-attempt cooperative deadline in milliseconds \
                   (0 = none).")
  in
  let progress =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Also stream per-job lifecycle events (start / trial / \
                   stolen / retry / done).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write result JSONL here instead of stdout.")
  in
  let exec spec loadtest seed workers max_retries job_timeout progress out =
    let specs =
      match loadtest with
      | Some n -> Service.Engine.loadtest_mix ~seed n
      | None ->
        let source, text =
          match spec with
          | Some file -> (file, In_channel.with_open_text file In_channel.input_all)
          | None -> ("<stdin>", In_channel.input_all In_channel.stdin)
        in
        (match Service.Spec.parse_lines text with
         | Ok specs -> specs
         | Error e ->
           Fmt.epr "%s: %s@." source e;
           exit 2)
    in
    let config =
      { Service.Pool.default_config with
        workers;
        max_retries;
        job_timeout_ms = (if job_timeout > 0 then Some job_timeout else None);
        progress }
    in
    let oc = match out with Some f -> open_out f | None -> stdout in
    let emit line =
      output_string oc line;
      flush oc
    in
    let outcome = Service.Engine.serve ~config ~sigint:true ~emit specs in
    if out <> None then close_out oc;
    Fmt.epr "%a@." Service.Engine.pp_summary outcome;
    if outcome.summary.failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve campaign/bisect/bench/attack/fleet jobs over a \
             work-stealing domain pool (spec JSONL in, result JSONL out)")
    Term.(const exec $ spec $ loadtest $ seed $ workers $ max_retries
          $ job_timeout $ progress $ out)

(* compile: minic source file -> run or disassemble *)
let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc"
           ~doc:"minic source file")
  in
  let action =
    Arg.(value & opt (enum [ ("run", `Run); ("native", `Native); ("disasm", `Disasm) ])
           `Run
         & info [ "action"; "a" ] ~doc:"What to do with the program: run (SenSmart), native, disasm.")
  in
  let go file action =
    let src = In_channel.with_open_text file In_channel.input_all in
    let name = Filename.remove_extension (Filename.basename file) in
    match Sensmart.compile_minic ~name src with
    | exception (Minic.Lexer.Error e | Minic.Parser.Error e | Minic.Codegen.Error e) ->
      Fmt.epr "%s: %s@." file e;
      exit 1
    | img ->
      (match action with
       | `Disasm -> print_endline (Avr.Disasm.image (Array.sub img.words 0 img.text_words))
       | `Native ->
         let r = Sensmart.run_native img in
         Fmt.pr "%a in %d cycles (%.3f s)@." Fmt.(option Machine.Cpu.pp_halt) r.halt
           r.cycles (Avr.Cycles.to_seconds r.cycles)
       | `Run ->
         let k = Sensmart.boot [ img ] in
         let stop = Sensmart.run k in
         Fmt.pr "%a after %d cycles; outcomes: %s@." Machine.Cpu.pp_stop stop
           k.m.cycles
           (String.concat ", "
              (List.map (fun (n, r) -> n ^ ":" ^ r) (Kernel.outcomes k))))
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile and run a minic source file")
    Term.(const go $ file $ action)

(* rewrite *)
let rewrite_cmd =
  let inputs =
    Arg.(value & pos_all string []
         & info [] ~docv:"INPUT"
             ~doc:"What to rewrite: a path to an Intel-HEX or AVR ELF file, \
                   a fixture firmware name (blink, sense, dispatch — loaded \
                   through the HEX path, symbol-less), or a bundled program \
                   name.  Default: the whole fixture set.")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Emit the machine-readable JSON report (schema \
                   sensmart.rewrite.report/1, one object per line; see \
                   DESIGN.md) instead of the human summary.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the rewritten (naturalized) image as Intel-HEX to \
                   $(docv).  Requires exactly one input.")
  in
  let text_bytes =
    Arg.(value & opt (some int) None
         & info [ "text-bytes" ] ~docv:"N"
             ~doc:"For HEX file inputs: byte offset where instructions end \
                   and flash data begins (a bare HEX carries no section \
                   metadata).  Default: the whole image is text.")
  in
  let data_size =
    Arg.(value & opt (some int) None
         & info [ "data-size" ] ~docv:"N"
             ~doc:"For HEX file inputs: the task's .data+.bss footprint in \
                   bytes (sizes the heap the rewriter bounds accesses \
                   against).  Default 1024.")
  in
  let base =
    Arg.(value & opt int 0
         & info [ "base" ] ~docv:"WORDS"
             ~doc:"Flash word address the rewritten image is placed at.")
  in
  let load_input ?text_bytes ?data_size name =
    if Sys.file_exists name && not (Sys.is_directory name) then begin
      let contents = In_channel.with_open_bin name In_channel.input_all in
      let parsed =
        if String.length contents >= 4 && String.sub contents 0 4 = "\x7fELF"
        then Loader.Load.of_elf ~name:(Filename.basename name) contents
        else
          Loader.Load.of_hex ~name:(Filename.basename name) ?text_bytes
            ?data_size contents
      in
      match parsed with
      | Ok img -> img
      | Error e ->
        Fmt.epr "%s: %s@." name (Loader.Load.error_message e);
        exit 1
    end
    else
      match Loader.Firmware.find name with
      | Some f -> Loader.Firmware.load_hex f
      | None -> lookup_image name
  in
  let exec inputs report out text_bytes data_size base =
    let inputs =
      match inputs with
      | [] ->
        List.map (fun (f : Loader.Firmware.t) -> f.name) (Loader.Firmware.all ())
      | l -> l
    in
    (match (out, inputs) with
     | Some _, _ :: _ :: _ ->
       Fmt.epr "--out requires exactly one input@.";
       exit 1
     | _ -> ());
    List.iter
      (fun name ->
        let img = load_input ?text_bytes ?data_size name in
        match Rewriter.Rewrite.pipeline ~base img with
        | nat, rep ->
          if report then print_endline (Rewriter.Report.to_json rep)
          else Fmt.pr "%a@." Rewriter.Report.pp rep;
          Option.iter
            (fun file ->
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_string oc
                    (Loader.Load.to_hex ~base:nat.Rewriter.Naturalized.base
                       nat.words));
              Fmt.pr "wrote %s (%d bytes of flash at word 0x%04x)@." file
                (2 * Array.length nat.words)
                nat.base)
            out
        | exception Rewriter.Rewrite.Error e ->
          Fmt.epr "%s: rewrite failed: %s@." name
            (Rewriter.Rewrite.error_message e);
          exit 1)
      inputs
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Run the rewriting pipeline over firmware (HEX/ELF file, fixture, \
             or bundled program) and report")
    Term.(const exec $ inputs $ report $ out $ text_bytes $ data_size $ base)

(* experiments: one subcommand per registry entry, plus [all] *)
let experiment_cmds =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps for a fast pass.")
  in
  let cmd name doc es =
    Cmd.v (Cmd.info name ~doc)
      Term.(const (fun quick -> List.iter (Workloads.Experiments.print ~quick) es)
            $ quick)
  in
  cmd "all" "Regenerate every table and figure" Workloads.Experiments.all
  :: List.map
       (fun (e : Workloads.Experiments.t) -> cmd e.name e.title [ e ])
       Workloads.Experiments.all

(* doc: refresh the generated blocks of EXPERIMENTS.md *)
let doc_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Markdown file with <!-- sensmart:NAME --> blocks.")
  in
  let run file =
    print_string
      (Workloads.Experiments.regenerate
         (In_channel.with_open_bin file In_channel.input_all))
  in
  Cmd.v
    (Cmd.info "doc"
       ~doc:"Print FILE with every experiment block regenerated at full size")
    Term.(const run $ file)

let () =
  let info =
    Cmd.info "sensmart" ~version:"1.0"
      ~doc:"SenSmart (ICDCS 2010) reproduction: versatile stack management \
            for multitasking sensor networks"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          ([ list_cmd; disasm_cmd; native_cmd; run_cmd; snapshot_cmd;
             resume_cmd; bisect_cmd; trace_cmd; stats_cmd; fault_cmd;
             attack_cmd; fleet_cmd; serve_cmd; compile_cmd; rewrite_cmd;
             doc_cmd ]
           @ experiment_cmds)))
