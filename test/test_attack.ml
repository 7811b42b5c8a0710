(* Adversarial attack campaigns (lib/attack): the acceptance matrix and
   its probe evidence, campaign identity across execution tiers and
   network domain counts (over randomized payloads), and mid-attack
   snapshot/resume with radio bytes still in flight. *)

let assemble = Asm.Assembler.assemble

(* Tier-2 compiles are gated behind an executed-instruction threshold
   in normal use; the differential tests want them immediately. *)
let () = Machine.Aot.set_threshold 0

(* --- the containment matrix ------------------------------------------------ *)

let matrix_acceptance () =
  let m = Attack.campaign ~trials:1 ~seed:1 () in
  (* Full coverage: every (system, class) cell was exercised. *)
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "cell %s/%s tested" s (Attack.cls_name c))
            true
            (Attack.cell m s c <> None))
        Attack.all_classes)
    Attack.all_systems;
  (* SenSmart shrugs off the blunt stack smash: the protection kill is
     clean and the rest of the mote keeps serving. *)
  Alcotest.(check bool) "sensmart contains flood" true
    (Attack.cell m "sensmart" Attack.Flood = Some Attack.Contained);
  (* And contains strictly more attack classes than at least one
     comparator. *)
  let contained s = List.length (Attack.contained_classes m s) in
  Alcotest.(check bool)
    "sensmart contains strictly more classes than some comparator" true
    (List.exists
       (fun s -> contained "sensmart" > contained s)
       [ "tkernel"; "liteos"; "matevm" ]);
  (* Every verdict is probe-backed: each trial consulted a non-empty
     probe battery, and every consulted probe was mirrored into the
     campaign trace as a Trace.Probe event. *)
  let probe_events =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           match e.kind with Trace.Probe _ -> true | _ -> false)
         (Trace.events m.Attack.trace))
  in
  let consulted =
    List.fold_left
      (fun acc (t : Attack.trial) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s#%d has probes" t.system
             (Attack.cls_name t.cls) t.index)
          true
          (t.probes <> []);
        acc + List.length t.probes)
      0 m.Attack.trials
  in
  Alcotest.(check int) "every probe mirrored as a trace event" consulted
    probe_events;
  (* Aggregates stayed consistent. *)
  Alcotest.(check int) "attack.trials counter" (List.length m.Attack.trials)
    (Trace.counter m.Attack.trace "attack.trials");
  Alcotest.(check int) "verdict counters sum to the trial count"
    (List.length m.Attack.trials)
    (List.fold_left
       (fun acc v ->
         acc + Trace.counter m.Attack.trace ("attack." ^ Attack.verdict_name v))
       0
       [ Attack.Contained; Attack.Degraded; Attack.Escaped; Attack.Bricked ])

(* Graceful degradation: a damaged SenSmart receiver composes with the
   watchdog — some non-contained trial must restore service within the
   recovery budget, and the campaign accounts for it. *)
let recovery_measured () =
  let m = Attack.campaign ~trials:1 ~seed:1 ~systems:[ "sensmart" ] () in
  let recovered =
    List.filter (fun (t : Attack.trial) -> t.recovery_cycles <> None)
      m.Attack.trials
  in
  Alcotest.(check bool) "some sensmart trial measured recovery" true
    (recovered <> []);
  List.iter
    (fun (t : Attack.trial) ->
      Alcotest.(check bool) "recovery only on non-contained verdicts" true
        (t.verdict <> Attack.Contained))
    recovered;
  Alcotest.(check int) "attack.recovered counter" (List.length recovered)
    (Trace.counter m.Attack.trace "attack.recovered")

(* The campaign's trace carries its probe events and "attack.*"
   counters, nothing else: the SenSmart trials deliver packets through
   the fault injector, whose "fault.*" counters must not leak into the
   campaign and from there over the fault campaign's in the metrics
   snapshot. *)
let trace_only_attack () =
  let m = Attack.campaign ~trials:1 ~seed:1 () in
  Alcotest.(check (list string)) "counters outside attack.*" []
    (List.filter_map
       (fun (name, _) ->
         if String.starts_with ~prefix:"attack." name then None else Some name)
       (Trace.counters m.Attack.trace));
  Alcotest.(check bool) "every event is a probe" true
    (List.for_all
       (fun (e : Trace.event) ->
         match e.kind with Trace.Probe _ -> true | _ -> false)
       (Trace.events m.Attack.trace));
  (* the fault campaign of Workloads.Metrics.collect, run alone *)
  let alone =
    Fault.Campaign.run ~trials:4 ~faults:5 ~max_cycles:500_000 ~seed:1
      (Kernel.prepare
         [ assemble (Programs.Lfsr_bench.program ~iters:2_000 ());
           assemble (Programs.Timer_bench.program ()) ])
  in
  let faults tr =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"fault." name)
      (Trace.counters tr)
  in
  Alcotest.(check (list (pair string int)))
    "metrics fault.* = the fault campaign's"
    (faults alone.Fault.Campaign.trace)
    (faults (Workloads.Metrics.collect ()))

(* --- pinned campaign output ------------------------------------------------ *)

(* The campaign's fingerprint (every verdict, probe detail, cycle count
   and packet byte) is pinned by length and MD5: two trials of every
   class against every system, and a two-packet raw replay.  Any change
   to what a trial does shows here. *)
let campaign_pinned () =
  let pinned what (len, md5) s =
    Alcotest.(check (pair int string))
      (what ^ " fingerprint length and MD5") (len, md5)
      (String.length s, Digest.to_hex (Digest.string s))
  in
  pinned "campaign ~trials:2 ~seed:1" (8981, "cd88394cbb7d589277b9ecb85066de51")
    (Attack.fingerprint (Attack.campaign ~trials:2 ~seed:1 ()));
  let flood = Attack.Packet.flood ~len:120 ~fill:(fun i -> (i * 37) land 0xFF) in
  let t, trace = Attack.replay [ Attack.Packet.benign; flood ] in
  pinned "replay [benign; flood]" (566, "0c86fd592e4c0ab1f97491e754d01064")
    (Attack.fingerprint { Attack.seed = 0; trials = [ t ]; trace })

(* --- identity across execution tiers --------------------------------------- *)

let fingerprint ~tier ~seed =
  Attack.fingerprint (Attack.campaign ~tier ~trials:1 ~seed ())

let tier2_identity () =
  let f0 = fingerprint ~tier:0 ~seed:1 in
  Alcotest.(check string) "tier-1 campaign" f0 (fingerprint ~tier:1 ~seed:1);
  Alcotest.(check string) "tier-2 campaign" f0 (fingerprint ~tier:2 ~seed:1)

(* Randomized payloads: the flood lengths, filler bytes and chain
   payloads all derive from the seed, so sweeping seeds sweeps packet
   variety through every engine. *)
let prop_tier_identity =
  QCheck.Test.make ~name:"campaign: tier-1 == tier-0 over random payloads"
    ~count:8
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed -> fingerprint ~tier:0 ~seed = fingerprint ~tier:1 ~seed)

(* --- identity across network domain counts --------------------------------- *)

(* One attack class per mote, packets crafted from the victims' own
   tables, delivered as Radio_frame injections through the lockstep
   coordinator: 1, 2 and 4 domains must leave every mote byte-identical. *)
let net_domains_identity () =
  let images () =
    [ assemble (Programs.Rx_vuln.receiver ());
      assemble (Programs.Rx_vuln.guard ()) ]
  in
  let probe_kernel = Kernel.boot (images ()) in
  let plan ~seed =
    let rng = Attack.rng_of seed in
    let attack_of cls = Attack.sensmart_packet ~cls ~rng probe_kernel in
    Fault.Plan.make
      (List.concat
         (List.mapi
            (fun mote cls ->
              [ { Fault.at = Attack.t_attack; mote;
                  kind = Fault.Radio_frame { bytes = attack_of cls } };
                { Fault.at = Attack.t_benign; mote;
                  kind = Fault.Radio_frame { bytes = Attack.Packet.benign } } ])
            Attack.all_classes))
  in
  List.iter
    (fun seed ->
      let run ~domains =
        let net = Net.create [ images (); images (); images () ] in
        ignore
          (Fault.run_net ~domains ~max_cycles:Attack.t_end ~plan:(plan ~seed)
             net);
        Snapshot.of_net net
      in
      let reference = run ~domains:1 in
      List.iter
        (fun domains ->
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d: %d domains == 1 domain" seed domains)
            []
            (Snapshot.diff reference (run ~domains)))
        [ 2; 4 ])
    [ 1; 77 ]

(* --- mid-attack snapshot/resume -------------------------------------------- *)

(* Cut the run while the flood's radio bytes are still in flight: the
   snapshot carries the pending rx queue and the plan's already-applied
   prefix, so the resumed run must land exactly where the uninterrupted
   one does. *)
let snapshot_resume_mid_attack () =
  let images () =
    [ assemble (Programs.Rx_vuln.receiver ());
      assemble (Programs.Rx_vuln.guard ()) ]
  in
  let flood =
    Attack.Packet.flood ~len:180 ~fill:(fun i -> ((i * 7) + 3) land 0xFF)
  in
  let plan =
    Fault.Plan.make
      [ { Fault.at = Attack.t_attack; mote = 0;
          kind = Fault.Radio_frame { bytes = flood } };
        { Fault.at = Attack.t_benign; mote = 0;
          kind = Fault.Radio_frame { bytes = Attack.Packet.benign } } ]
  in
  let cut = 600_000 in
  (* 180 radio bytes span ~690k cycles from t_attack: still arriving. *)
  let k1 = Kernel.boot (images ()) in
  ignore (Fault.run_kernel ~max_cycles:cut ~plan k1);
  let snap = Snapshot.of_kernel k1 in
  ignore (Fault.run_kernel ~max_cycles:Attack.t_end ~plan k1);
  let reference = Snapshot.of_kernel k1 in
  let k2 = Kernel.boot (images ()) in
  Snapshot.restore_kernel snap k2;
  ignore (Fault.run_kernel ~max_cycles:Attack.t_end ~plan k2);
  Alcotest.(check (list string))
    "mid-attack resume lands identically" []
    (Snapshot.diff reference (Snapshot.of_kernel k2))

(* --- raw-packet specs ------------------------------------------------------- *)

let packet_specs () =
  (match Attack.packet_of_spec "a7 04 11 22 33 44" with
   | Ok bytes ->
     Alcotest.(check (list int)) "hex bytes parse"
       [ 0xA7; 0x04; 0x11; 0x22; 0x33; 0x44 ] bytes
   | Error e -> Alcotest.failf "spec rejected: %s" e);
  (* Only hex digit pairs: OCaml's "0x" literals would also take "_". *)
  List.iter
    (fun bad ->
      match Attack.packet_of_spec bad with
      | Ok bytes ->
        Alcotest.failf "bad spec %S accepted as %d byte(s)" bad
          (List.length bytes)
      | Error _ -> ())
    [ "zz"; "a_"; "a7 0_"; "_a"; "a7:01"; ""; String.make 8194 'a' ];
  Alcotest.(check int) "4096-byte packet accepted" 4096
    (match Attack.packet_of_spec (String.make 8192 'a') with
     | Ok bytes -> List.length bytes
     | Error e -> Alcotest.failf "4096 bytes rejected: %s" e);
  (* The error quotes what the user typed, not an internal spec. *)
  (match Attack.packet_of_spec "a7:01" with
   | Ok _ -> Alcotest.fail "a7:01 accepted"
   | Error e ->
     let contains sub =
       let n = String.length e and m = String.length sub in
       let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) (Printf.sprintf "error %S names the input" e) true
       (contains "\"a7:01\"" && not (contains "0:frame")));
  (* Replaying the benign frame is a clean bill of health. *)
  let t, _trace = Attack.replay [ Attack.Packet.benign ] in
  Alcotest.(check bool) "benign replay contained" true
    (t.Attack.verdict = Attack.Contained && t.Attack.responsive);
  Alcotest.(check bool) "benign replay probes all clean" true
    (List.for_all (fun (p : Attack.probe) -> p.ok) t.Attack.probes)

let () =
  Alcotest.run "attack"
    [ ("matrix",
       [ Alcotest.test_case "acceptance" `Quick matrix_acceptance;
         Alcotest.test_case "recovery measured" `Quick recovery_measured;
         Alcotest.test_case "packet specs + replay" `Quick packet_specs;
         Alcotest.test_case "campaign pinned" `Quick campaign_pinned;
         Alcotest.test_case "trace only attack" `Quick trace_only_attack ]);
      ("identity",
       [ Alcotest.test_case "tiers 0/1/2" `Quick tier2_identity;
         Alcotest.test_case "net 1/2/4 domains" `Quick net_domains_identity;
         Alcotest.test_case "mid-attack snapshot/resume" `Quick
           snapshot_resume_mid_attack ]);
      ("fuzz", List.map Gen.to_alcotest [ prop_tier_identity ]) ]
