(* lib/fault's two laws, adversarially checked.

   Determinism: the same seed + plan produce byte-identical traces,
   counters, and final machine state on the tier-0 interpreter, the
   tier-1 block engine, and at any network domain count — and a run
   resumed from a mid-campaign snapshot replays exactly the remaining
   injections.  [Snapshot.diff] is exhaustive over machine, kernel,
   network, and trace state, so a [] diff covers all of it.

   Containment (the paper's Table I isolation properties): a fault
   injected into one task must be detected and terminated by the kernel
   without perturbing its siblings' memory, results, or completion. *)

let image name =
  match Workloads.Registry.find_image name with
  | Some img -> img
  | None -> Alcotest.failf "no bundled program %s" name

let kernel_images () = [ image "lfsr"; image "timer" ]

let check_identical what reference other =
  Alcotest.(check (list string)) what [] (Snapshot.diff reference other)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let exit_reason k id =
  match (Kernel.find_task k id).Kernel.Task.status with
  | Kernel.Task.Exited reason -> reason
  | Kernel.Task.Ready | Kernel.Task.Sleeping _ ->
    Alcotest.failf "task %d still live" id

(* Compare one task's final heap contents, byte for byte, by logical
   address — valid across relocation and post-mortem snapshots. *)
let check_same_heap what reference k id =
  let rt = Kernel.find_task reference id in
  let size = Kernel.Task.heap_size rt in
  Alcotest.(check int)
    (what ^ ": same heap size")
    size
    (Kernel.Task.heap_size (Kernel.find_task k id));
  for off = 0 to size - 1 do
    let laddr = Asm.Image.heap_base + off in
    if Kernel.heap_byte reference id laddr <> Kernel.heap_byte k id laddr then
      Alcotest.failf "%s: task %d heap differs at 0x%04X" what id laddr
  done

(* --- tier determinism ------------------------------------------------------ *)

(* One of every corruption kind, plus drift; cycle points chosen to land
   mid-run of the lfsr+timer pair. *)
let fixed_plan () =
  Fault.Plan.make ~seed:7
    [ { Fault.at = 20_000; mote = 0; kind = Fault.Sram_flip { addr = 0x0520; bit = 2 } };
      { Fault.at = 35_000; mote = 0; kind = Fault.Sram_burst { addr = 0x0700; len = 16; xor = 0xA5 } };
      { Fault.at = 52_000; mote = 0; kind = Fault.Reg_flip { reg = 20; bit = 1 } };
      { Fault.at = 61_000; mote = 0; kind = Fault.Sreg_flip { bit = 6 } };
      { Fault.at = 74_000; mote = 0; kind = Fault.Adc_noise { xor = 0x155 } };
      { Fault.at = 88_000; mote = 0; kind = Fault.Adc_stuck { value = 0x2A7 } };
      { Fault.at = 99_000; mote = 0; kind = Fault.Clock_drift { cycles = 4_321 } } ]

let run_fixed_plan ~tier =
  let k = Kernel.boot (kernel_images ()) in
  let stop = Fault.run_kernel ~tier ~max_cycles:400_000 ~plan:(fixed_plan ()) k in
  (k, stop)

let tiers_identical_under_fixed_plan () =
  let k1, s1 = run_fixed_plan ~tier:1 in
  let k0, s0 = run_fixed_plan ~tier:0 in
  Alcotest.(check string)
    "same stop"
    (Fmt.str "%a" Machine.Cpu.pp_stop s1)
    (Fmt.str "%a" Machine.Cpu.pp_stop s0);
  Alcotest.(check int)
    "all injections applied" 7
    (Trace.counter k1.Kernel.trace "fault.injected");
  check_identical "tier-0 equals tier-1 under a fault plan"
    (Snapshot.of_kernel k1) (Snapshot.of_kernel k0)

let prop_random_plans_tier_identical =
  QCheck.Test.make ~count:8 ~name:"random fault plans are tier-identical"
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, disruptive) ->
      let plan =
        Fault.Plan.random ~seed ~n:5 ~window:(15_000, 250_000) ~disruptive ()
      in
      let k1 = Kernel.boot (kernel_images ()) in
      ignore (Fault.run_kernel ~max_cycles:300_000 ~plan k1);
      let k0 = Kernel.boot (kernel_images ()) in
      ignore (Fault.run_kernel ~tier:0 ~max_cycles:300_000 ~plan k0);
      Snapshot.diff (Snapshot.of_kernel k1) (Snapshot.of_kernel k0) = [])

let random_plan_is_reproducible () =
  let mk () =
    Fault.Plan.random ~seed:1234 ~n:12 ~window:(1_000, 500_000) ~motes:3
      ~disruptive:true ()
  in
  let a = mk () and b = mk () in
  Alcotest.(check string)
    "same seed, same plan"
    (Fmt.str "%a" Fault.Plan.pp a)
    (Fmt.str "%a" Fault.Plan.pp b);
  Alcotest.(check int) "requested size" 12
    (List.length a.Fault.Plan.injections)

(* --- mid-campaign snapshot/resume ------------------------------------------ *)

let resume_replays_remaining_injections () =
  let plan =
    Fault.Plan.make
      [ { Fault.at = 30_000; mote = 0; kind = Fault.Sram_flip { addr = 0x0610; bit = 4 } };
        { Fault.at = 60_000; mote = 0; kind = Fault.Sram_burst { addr = 0x0580; len = 8; xor = 0x3C } };
        { Fault.at = 100_000; mote = 0; kind = Fault.Clock_drift { cycles = 2_500 } } ]
  in
  (* uninterrupted reference *)
  let k1 = Kernel.boot (kernel_images ()) in
  ignore (Fault.run_kernel ~max_cycles:70_000 ~plan k1);
  let snap = Snapshot.of_kernel k1 in
  ignore (Fault.run_kernel ~max_cycles:260_000 ~plan k1);
  let reference = Snapshot.of_kernel k1 in
  Alcotest.(check int)
    "reference saw all three injections" 3
    (Trace.counter k1.Kernel.trace "fault.injected");
  (* resumed run: the two injections before the capture must be treated
     as already applied, the one after must fire exactly once *)
  let k2 = Kernel.boot (kernel_images ()) in
  Snapshot.restore_kernel snap k2;
  ignore (Fault.run_kernel ~max_cycles:260_000 ~plan k2);
  check_identical "resume replays exactly the remaining injections"
    reference (Snapshot.of_kernel k2)

(* --- network: domain-count invariance -------------------------------------- *)

let net_plan () =
  Fault.Plan.make
    [ { Fault.at = 30_000; mote = 1; kind = Fault.Radio_corrupt { index = 0; xor = 0x41 } };
      { Fault.at = 45_000; mote = 1; kind = Fault.Radio_drop { count = 2 } };
      { Fault.at = 60_000; mote = 0; kind = Fault.Sram_flip { addr = 0x0420; bit = 5 } };
      { Fault.at = 80_000; mote = 2; kind = Fault.Clock_drift { cycles = 7_000 } };
      { Fault.at = 120_000; mote = 2; kind = Fault.Crash };
      { Fault.at = 160_000; mote = 2; kind = Fault.Reboot } ]

let run_net_with_plan domains =
  (* an active-message sender feeding a chain; motes 1 and 2 accumulate
     pending RX bytes for the radio faults to hit *)
  let n = Net.create [ [ image "am" ]; [ image "lfsr" ]; [ image "timer" ] ] in
  Net.chain n;
  ignore (Fault.run_net ~domains ~max_cycles:400_000 ~plan:(net_plan ()) n);
  n

let net_reference = lazy (run_net_with_plan 1)

let net_domains_identical domains () =
  let reference = Lazy.force net_reference in
  let n = run_net_with_plan domains in
  Alcotest.(check int)
    "all injections applied" 6
    (Trace.counter n.Net.trace "fault.injected");
  check_identical
    (Printf.sprintf "net fault run at %d domains" domains)
    (Snapshot.of_net reference) (Snapshot.of_net n)

(* --- containment ------------------------------------------------------------ *)

(* The adversarial Table I check.  Corrupt the victim's *own code* (the
   word its PC is about to execute becomes 0xFFFF, which decodes as an
   unknown-syscall trap) at a cycle the probe run proved the victim is
   running.  The kernel must kill the victim alone: both siblings still
   run to completion with heap contents byte-identical to a fault-free
   reference run. *)
let containment_of_corrupted_task () =
  let images = [ image "timer"; image "lfsr"; image "crc" ] in
  let victim = 0 in
  (* probe: find a stop point where the victim is current and executing
     its own patched text (not a shared trampoline) *)
  let probe = Kernel.boot images in
  let rec find at =
    if at > 300_000 then Alcotest.fail "probe never caught the victim running"
    else begin
      ignore (Kernel.run ~max_cycles:at probe);
      let t = Kernel.find_task probe victim in
      let base = t.Kernel.Task.nat.Rewriter.Naturalized.base in
      let text = t.Kernel.Task.nat.Rewriter.Naturalized.text_words in
      let in_text = probe.Kernel.m.pc >= base && probe.Kernel.m.pc < base + text in
      match probe.Kernel.current with
      | Some cur when cur.Kernel.Task.id = victim && in_text ->
        (probe.Kernel.m.cycles, probe.Kernel.m.pc)
      | _ -> find (at + 1_700)
    end
  in
  let fire_at, pc = find 15_000 in
  (* fault-free reference *)
  let reference = Kernel.boot images in
  (match Kernel.run ~max_cycles:3_000_000 reference with
   | Machine.Cpu.Halted Machine.Cpu.Break_hit -> ()
   | s -> Alcotest.failf "reference run ended in %a" Machine.Cpu.pp_stop s);
  (* faulted run *)
  let k = Kernel.boot images in
  let xor = k.Kernel.m.flash.(pc) lxor 0xFFFF in
  let plan =
    Fault.Plan.make
      [ { Fault.at = fire_at; mote = 0; kind = Fault.Flash_flip { waddr = pc; xor } } ]
  in
  (match Fault.run_kernel ~max_cycles:3_000_000 ~plan k with
   | Machine.Cpu.Halted Machine.Cpu.Break_hit -> ()
   | s -> Alcotest.failf "faulted run ended in %a (not contained)"
            Machine.Cpu.pp_stop s);
  Kernel.check_invariants k;
  (* the victim was terminated by the kernel, not by a clean exit *)
  let victim_reason = exit_reason k victim in
  Alcotest.(check bool)
    (Printf.sprintf "victim killed by the kernel (%s)" victim_reason)
    true
    (victim_reason <> "exit" && contains victim_reason "cpu fault");
  (* siblings: clean exits, results byte-identical to the reference *)
  List.iter
    (fun id ->
      Alcotest.(check string)
        (Printf.sprintf "sibling %d exits cleanly" id)
        "exit" (exit_reason k id);
      check_same_heap "sibling heap unperturbed" reference k id)
    [ 1; 2 ];
  (* the trace tells the whole story: injection, then termination *)
  let events = Kernel.event_log k in
  Alcotest.(check bool) "Injected event recorded" true
    (List.exists
       (fun (e : Trace.event) ->
         match e.kind with Trace.Injected _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "victim Terminated event recorded" true
    (List.exists
       (fun (e : Trace.event) ->
         match e.kind with
         | Trace.Terminated { task; _ } -> task = victim
         | _ -> false)
       events)

(* The containment branch itself, unit-tested: a machine-level fault
   with a live current task terminates that task only. *)
let cpu_fault_terminates_current_only () =
  let k = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~max_cycles:30_000 k);
  let victim =
    match k.Kernel.current with
    | Some t -> t.Kernel.Task.id
    | None -> Alcotest.fail "no current task at the stop point"
  in
  k.Kernel.m.halted <- Some (Machine.Cpu.Fault "test kill");
  (match Kernel.run ~max_cycles:3_000_000 k with
   | Machine.Cpu.Halted Machine.Cpu.Break_hit -> ()
   | s -> Alcotest.failf "run ended in %a" Machine.Cpu.pp_stop s);
  Kernel.check_invariants k;
  Alcotest.(check bool) "victim blames the cpu fault" true
    (contains (exit_reason k victim) "test kill");
  let other = 1 - victim in
  Alcotest.(check string) "sibling finishes cleanly" "exit"
    (exit_reason k other)

(* --- crash and watchdog reboot --------------------------------------------- *)

let reboot_restarts_live_tasks () =
  let images = [ image "lfsr"; image "crc" ] in
  let plain = Kernel.boot images in
  (match Kernel.run ~max_cycles:3_000_000 plain with
   | Machine.Cpu.Halted Machine.Cpu.Break_hit -> ()
   | s -> Alcotest.failf "plain run ended in %a" Machine.Cpu.pp_stop s);
  let k = Kernel.boot images in
  let plan =
    Fault.Plan.make [ { Fault.at = 30_000; mote = 0; kind = Fault.Reboot } ]
  in
  (match Fault.run_kernel ~max_cycles:3_000_000 ~plan k with
   | Machine.Cpu.Halted Machine.Cpu.Break_hit -> ()
   | s -> Alcotest.failf "rebooted run ended in %a" Machine.Cpu.pp_stop s);
  Kernel.check_invariants k;
  (* the restarted tasks redo their work and produce the same results *)
  List.iter
    (fun id ->
      Alcotest.(check string)
        (Printf.sprintf "task %d exits cleanly after the reboot" id)
        "exit" (exit_reason k id);
      check_same_heap "same results after reboot" plain k id)
    [ 0; 1 ];
  Alcotest.(check bool) "the redone work costs extra cycles" true
    (k.Kernel.m.cycles > plain.Kernel.m.cycles)

let crash_then_reboot_recovers () =
  let k = Kernel.boot (kernel_images ()) in
  let plan =
    Fault.Plan.make
      [ { Fault.at = 40_000; mote = 0; kind = Fault.Crash };
        { Fault.at = 90_000; mote = 0; kind = Fault.Reboot } ]
  in
  (match Fault.run_kernel ~max_cycles:3_000_000 ~plan k with
   | Machine.Cpu.Halted Machine.Cpu.Break_hit -> ()
   | s -> Alcotest.failf "run ended in %a" Machine.Cpu.pp_stop s);
  Kernel.check_invariants k;
  Alcotest.(check int) "both injections applied" 2
    (Trace.counter k.Kernel.trace "fault.injected");
  List.iter
    (fun id ->
      Alcotest.(check string)
        (Printf.sprintf "task %d survives crash+reboot" id)
        "exit" (exit_reason k id))
    [ 0; 1 ]

let crash_without_reboot_stays_down () =
  let k = Kernel.boot (kernel_images ()) in
  let plan =
    Fault.Plan.make [ { Fault.at = 40_000; mote = 0; kind = Fault.Crash } ]
  in
  (match Fault.run_kernel ~max_cycles:3_000_000 ~plan k with
   | Machine.Cpu.Halted (Machine.Cpu.Fault reason) ->
     Alcotest.(check bool) "halt blames the injected crash" true
       (contains reason "injected crash")
   | s -> Alcotest.failf "run ended in %a" Machine.Cpu.pp_stop s);
  (* no task is blamed: they are frozen, not terminated *)
  Alcotest.(check int) "tasks stay frozen, not exited" 2
    (List.length (Kernel.live_tasks k))

(* --- campaigns -------------------------------------------------------------- *)

let campaign_args = [ image "lfsr"; image "timer" ]

let run_campaign ~tier =
  Fault.Campaign.run ~tier ~trials:4 ~faults:5 ~max_cycles:400_000 ~seed:42
    (Kernel.prepare campaign_args)

let trial_fingerprint (t : Fault.Campaign.trial) =
  Fmt.str "#%d injected=%d stop=%s cycles=%d clean=%d faulted=%d contained=%b"
    t.index t.injected t.stop t.cycles t.clean_exits t.faulted t.contained

let campaign_deterministic_across_tiers () =
  let r1 = run_campaign ~tier:1 in
  let r0 = run_campaign ~tier:0 in
  Alcotest.(check (list string))
    "trial-by-trial identical across tiers"
    (List.map trial_fingerprint r1.Fault.Campaign.trials)
    (List.map trial_fingerprint r0.Fault.Campaign.trials);
  Alcotest.(check string) "identical aggregate counters"
    (Trace.counters_json r1.Fault.Campaign.trace)
    (Trace.counters_json r0.Fault.Campaign.trace);
  Alcotest.(check int) "every trial ran" 4
    (Trace.counter r1.Fault.Campaign.trace "fault.trials")

(* Every trial of a campaign boots from the one template, on its shared
   (and, after the first trial, warm) flash image.  Trial for trial, the
   report must equal booting each trial afresh with [Kernel.boot] and
   running it under the same plan; a second campaign on the now-warm
   template must return the same report again, and the template's own
   flash must be untouched.  Twelve disruptive trials draw Flash_flips,
   so some trials detach from the shared image while their successors
   keep running on it; with seed 1 one feeder/search trial flips a word
   of the image itself.  lfsr/timer exit early; feeder/search run to
   the budget, so every injection lands. *)
let campaign_template_equals_fresh_boots () =
  let trials = 12 and max_cycles = 400_000 in
  let fresh ~tier images (t : Fault.Campaign.trial) =
    let k = Kernel.boot images in
    let stop = Fault.run_kernel ~tier ~max_cycles ~plan:t.plan k in
    let outcomes = Kernel.outcomes k in
    let count p = List.length (List.filter (fun (_, r) -> p r) outcomes) in
    let survived =
      match stop with
      | Machine.Cpu.Halted Machine.Cpu.Break_hit | Machine.Cpu.Out_of_fuel -> true
      | _ -> false
    in
    let invariants_hold =
      match Kernel.check_invariants k with () -> true | exception Failure _ -> false
    in
    trial_fingerprint
      { t with
        injected = Trace.counter k.Kernel.trace "fault.injected";
        stop = Fmt.str "%a" Machine.Cpu.pp_stop stop;
        cycles = k.m.cycles;
        clean_exits = count (fun r -> r = "exit");
        faulted = count (fun r -> r <> "exit");
        contained = survived && invariants_hold }
  in
  (* Whether [t] flips a flash word below [limit] before it ends. *)
  let flips ~limit (t : Fault.Campaign.trial) =
    List.exists
      (fun (i : Fault.injection) ->
        match i.kind with
        | Fault.Flash_flip { waddr; _ } -> waddr < limit && i.at < t.cycles
        | _ -> false)
      t.plan.Fault.Plan.injections
  in
  let prints r = List.map trial_fingerprint r.Fault.Campaign.trials in
  let reasons r =
    List.map (fun (t : Fault.Campaign.trial) -> t.reason) r.Fault.Campaign.trials
  in
  let flash k = Machine.Cpu.canonical k.Kernel.m.flash in
  List.iter
    (fun (name, images, seed, flips_image) ->
      List.iter
        (fun tier ->
          let what fmt = Printf.sprintf ("%s, tier %d: " ^^ fmt) name tier in
          let tpl = Kernel.prepare images in
          let run () =
            Fault.Campaign.run ~tier ~trials ~faults:5 ~max_cycles
              ~disruptive:true ~seed tpl
          in
          let cold = run () in
          let limit = (Kernel.boot_from tpl).next_flash in
          Alcotest.(check bool) (what "some trial flips flash") true
            (List.exists (flips ~limit:0x10000) cold.Fault.Campaign.trials);
          Alcotest.(check bool) (what "some trial flips the image") flips_image
            (List.exists (flips ~limit) cold.Fault.Campaign.trials);
          Alcotest.(check (list string))
            (what "template trials = fresh boots")
            (List.map (fresh ~tier images) cold.Fault.Campaign.trials)
            (prints cold);
          let warm = run () in
          Alcotest.(check (list string)) (what "warm template, same trials")
            (prints cold) (prints warm);
          Alcotest.(check (list string)) (what "warm template, same reasons")
            (reasons cold) (reasons warm);
          Alcotest.(check string) (what "warm template, same counters")
            (Trace.counters_json cold.Fault.Campaign.trace)
            (Trace.counters_json warm.Fault.Campaign.trace);
          Alcotest.(check bool) (what "template flash untouched") true
            (flash (Kernel.boot_from tpl) = flash (Kernel.boot images)))
        [ 0; 1 ])
    [ ("lfsr/timer", campaign_args, 7, false);
      ("feeder/search", [ image "feeder"; image "search" ], 1, true) ]

(* --- plan parsing ----------------------------------------------------------- *)

let spec_round_trip () =
  let ok spec expected =
    match Fault.Plan.injection_of_spec spec with
    | Ok i ->
      Alcotest.(check string)
        spec expected
        (Fmt.str "%d@%d:%s" i.Fault.at i.Fault.mote (Fault.describe i.Fault.kind))
    | Error e -> Alcotest.failf "spec %S rejected: %s" spec e
  in
  ok "120000:sram:0x234:3" "120000@0:sram_flip@0x0234.3";
  ok "120000:burst:0x400:32:0xFF" "120000@0:sram_burst@0x0400+32^0xFF";
  ok "52000:reg:27:7" "52000@0:reg_flip r27.7";
  ok "61000:sreg:6" "61000@0:sreg_flip.6";
  ok "70000:flash:0x123:0xFF" "70000@0:flash_flip@0x0123^0x00FF";
  ok "30000@1:radio_corrupt:0:0x41" "30000@1:radio_corrupt[0]^0x41";
  ok "45000@1:radio_drop:2" "45000@1:radio_drop(2)";
  ok "80000:adc_stuck:512" "80000@0:adc_stuck=512";
  ok "81000:adc_noise:0x155" "81000@0:adc_noise^0x155";
  ok "200000@2:crash" "200000@2:crash";
  ok "250000@2:reboot" "250000@2:reboot";
  ok "150000:drift:5000" "150000@0:clock_drift+5000";
  List.iter
    (fun bad ->
      match Fault.Plan.injection_of_spec bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ ""; "abc"; "1000:frobnicate"; "1000:sram:xyz:1"; "1000@x:crash";
      (* frame bytes are hex digit pairs only: "0x"-literal parsing would
         also take an underscore *)
      "10:frame:f_"; "10:frame:_f"; "10:frame:a7 0_"; "10:frame:zz" ];
  ok "10:frame:a7 0F" "10@0:radio_frame[a70f]"

let () =
  Alcotest.run "fault"
    [ ("determinism",
       [ Alcotest.test_case "fixed plan, tier-0 = tier-1" `Quick
           tiers_identical_under_fixed_plan;
         Gen.to_alcotest prop_random_plans_tier_identical;
         Alcotest.test_case "random plans are reproducible" `Quick
           random_plan_is_reproducible;
         Alcotest.test_case "mid-campaign snapshot/resume" `Quick
           resume_replays_remaining_injections ]);
      ("net",
       [ Alcotest.test_case "1 domain (reference)" `Quick
           (net_domains_identical 1);
         Alcotest.test_case "2 domains identical" `Quick
           (net_domains_identical 2);
         Alcotest.test_case "4 domains identical" `Quick
           (net_domains_identical 4) ]);
      ("containment",
       [ Alcotest.test_case "corrupted task is contained" `Quick
           containment_of_corrupted_task;
         Alcotest.test_case "cpu fault terminates the current task only"
           `Quick cpu_fault_terminates_current_only ]);
      ("crash-reboot",
       [ Alcotest.test_case "reboot restarts live tasks" `Quick
           reboot_restarts_live_tasks;
         Alcotest.test_case "crash then reboot recovers" `Quick
           crash_then_reboot_recovers;
         Alcotest.test_case "crash without reboot stays down" `Quick
           crash_without_reboot_stays_down ]);
      ("campaign",
       [ Alcotest.test_case "deterministic across tiers" `Quick
           campaign_deterministic_across_tiers;
         Alcotest.test_case "one template = fresh boots" `Quick
           campaign_template_equals_fresh_boots ]);
      ("plan",
       [ Alcotest.test_case "CLI spec round-trip" `Quick spec_round_trip ]) ]
