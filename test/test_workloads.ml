(* The paper's shape claims, one named case each (EXPERIMENTS.md cites
   them by name; the full-size ones use the registry's sweeps), smoke
   tests of the experiment drivers at fast parameters, and cross-checks
   that Table I's SenSmart claims reflect the implementation. *)

let assemble = Asm.Assembler.assemble

(* Fails unless the labelled values strictly rise along the list. *)
let check_rising what xs =
  ignore
    (List.fold_left
       (fun (pl, px) (l, x) ->
         if x <= px then Alcotest.failf "%s: %s %g -> %s %g" what pl px l x;
         (l, x))
       ("start", neg_infinity) xs)

(* --- Table II ----------------------------------------------------------- *)

let overhead_sane () =
  let rows = Workloads.Overhead.table () in
  let get name =
    (List.find (fun (r : Workloads.Overhead.row) -> r.operation = name) rows)
      .measured
  in
  Alcotest.(check int) "direct I/O is free" 0 (get "Mem xlat: direct, I/O area");
  Alcotest.(check bool) "direct heap costs tens of cycles" true
    (let c = get "Mem xlat: direct, others" in
     c > 10 && c < 80);
  Alcotest.(check bool) "indirect heap >= indirect io" true
    (get "Mem xlat: indirect, heap" >= get "Mem xlat: indirect, I/O area");
  Alcotest.(check bool) "indirect branch is the expensive one" true
    (get "Program memory (indirect br)" > get "Mem xlat: indirect, heap");
  Alcotest.(check bool) "init in the thousands" true
    (get "System initialization" > 1000)

(* The Table II shape claim: free direct I/O < direct heap < every
   indirect access < indirect branch < full context switch < 260-B
   relocation < system initialization. *)
let overhead_ordering () =
  let rows = Workloads.Overhead.table () in
  let get name =
    (List.find (fun (r : Workloads.Overhead.row) -> r.operation = name) rows)
      .measured
  in
  let rec check = function
    | (a, ca) :: ((b, cb) :: _ as rest) ->
      let hi = List.fold_left max min_int (List.map get ca)
      and lo = List.fold_left min max_int (List.map get cb) in
      if hi >= lo then Alcotest.failf "%s (%d) >= %s (%d)" a hi b lo;
      check rest
    | _ -> ()
  in
  check
    [ ("direct I/O", [ "Mem xlat: direct, I/O area" ]);
      ("direct heap", [ "Mem xlat: direct, others" ]);
      ("indirect accesses",
       [ "Mem xlat: indirect, I/O area"; "Mem xlat: indirect, heap";
         "Mem xlat: indirect, stack frame" ]);
      ("indirect branch", [ "Program memory (indirect br)" ]);
      ("full context switch", [ "Full context switch" ]);
      ("260-B relocation", [ "Stack relocation (260 B)" ]);
      ("system initialization", [ "System initialization" ]) ]

(* --- Figures 4 and 5 ------------------------------------------------------ *)

(* Both systems inflate every benchmark, hand-assembled or compiled;
   SenSmart by more than the paper's 200%, because trampolines plus
   shared services outweigh the rewritten text. *)
let fig4_invariants () =
  List.iter
    (fun (r : Workloads.Kernel_bench.size_row) ->
      Alcotest.(check bool) (r.name ^ ": sensmart > 3x native") true
        (Workloads.Kernel_bench.sensmart_total r > 3 * r.native_bytes);
      Alcotest.(check bool) (r.name ^ ": tkernel > native") true
        (r.tkernel_bytes > r.native_bytes);
      Alcotest.(check bool) (r.name ^ ": trampolines > rewritten text") true
        (r.tramp_bytes > r.rewritten_bytes && r.rewritten_bytes > 0))
    (Workloads.Kernel_bench.fig4 () @ Workloads.Kernel_bench.fig4_minic ())

(* At compiler scale every benchmark inflates less than its
   hand-assembled version, and the t-kernel model is larger than
   SenSmart on exactly these five programs; readadc and eventchain are
   dominated by direct LDS/STS, which t-kernel validates statically. *)
let fig4_minic_tkernel_larger () =
  let ratio (r : Workloads.Kernel_bench.size_row) =
    float_of_int (Workloads.Kernel_bench.sensmart_total r)
    /. float_of_int r.native_bytes
  in
  let hand = Workloads.Kernel_bench.fig4 () in
  let minic = Workloads.Kernel_bench.fig4_minic () in
  List.iter
    (fun (r : Workloads.Kernel_bench.size_row) ->
      let h =
        List.find (fun (h : Workloads.Kernel_bench.size_row) -> h.name = r.name) hand
      in
      Alcotest.(check bool) (r.name ^ ": compiled inflates less") true
        (ratio r < ratio h))
    minic;
  Alcotest.(check (list string)) "t-kernel larger on"
    [ "lfsr"; "crc"; "am"; "amplitude"; "timer" ]
    (List.filter_map
       (fun (r : Workloads.Kernel_bench.size_row) ->
         if r.tkernel_bytes > Workloads.Kernel_bench.sensmart_total r then
           Some r.name
         else None)
       minic)

(* Only the computed-jump firmware needs conservative recovery, and it
   pays the highest inflation of the set for it. *)
let fig4_firmware_conservative () =
  let reports = Workloads.Kernel_bench.firmware () in
  let ratio (r : Rewriter.Report.t) =
    float_of_int r.total_bytes /. float_of_int r.native_bytes
  in
  let conservative =
    List.filter (fun (r : Rewriter.Report.t) -> r.conservative) reports
  in
  Alcotest.(check (list string)) "conservative images" [ "dispatch" ]
    (List.map (fun (r : Rewriter.Report.t) -> r.program) conservative);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Rewriter.Report.program ^ " inflates less") true
        (r.conservative || ratio r < ratio (List.hd conservative)))
    reports

let fig5_rows = lazy (Workloads.Kernel_bench.fig5 ())

let fig5_ordering () =
  List.iter
    (fun (r : Workloads.Kernel_bench.time_row) ->
      Alcotest.(check bool) (r.name ^ ": native fastest") true
        (r.native_s <= r.mem_only_s +. 1e-9 && r.native_s <= r.full_s +. 1e-9);
      Alcotest.(check bool) (r.name ^ ": scheduling adds cost") true
        (r.full_s >= r.mem_only_s -. 1e-9))
    (Lazy.force fig5_rows)

let fig5_row name =
  List.find
    (fun (r : Workloads.Kernel_bench.time_row) -> r.name = name)
    (Lazy.force fig5_rows)

(* CPU-bound programs order native < t-kernel < SenSmart-full and pay
   several times native; I/O-bound ones pay little under any system. *)
let fig5_cpu_vs_io () =
  List.iter
    (fun name ->
      let r = fig5_row name in
      Alcotest.(check bool) (name ^ ": native < t-kernel < SenSmart full") true
        (r.native_s < r.tkernel_s && r.tkernel_s < r.full_s);
      Alcotest.(check bool) (name ^ ": SenSmart full > 3x native") true
        (r.full_s > 3. *. r.native_s))
    [ "crc"; "lfsr"; "eventchain" ];
  List.iter
    (fun name ->
      let r = fig5_row name in
      Alcotest.(check bool) (name ^ ": every system within 25% of native") true
        (r.full_s < 1.25 *. r.native_s && r.tkernel_s < 1.25 *. r.native_s))
    [ "am"; "amplitude"; "readadc"; "timer" ]

(* --- Figure 6 -------------------------------------------------------------- *)

let fig6_shape () =
  let pts = Workloads.Periodic.sweep ~activations:4 [ 2_000; 120_000 ] in
  match pts with
  | [ small; big ] ->
    Alcotest.(check bool) "native tracks the period at small sizes" true
      (small.native_s < small.mate_s);
    Alcotest.(check bool) "utilization grows" true
      (big.native_util > small.native_util);
    Alcotest.(check bool) "sensmart util above native" true
      (small.sensmart_util > small.native_util);
    Alcotest.(check bool) "sensmart saturates at large sizes" true
      (big.sensmart_s > 1.5 *. big.native_s);
    Alcotest.(check bool) "mate is the slowest" true
      (big.mate_s > big.sensmart_s && big.mate_s > big.tkernel_s)
  | _ -> Alcotest.fail "expected two points"

(* The full-size sweep, shared by the claims below. *)
let fig6_full =
  lazy (Workloads.Periodic.sweep Workloads.Experiments.fig6_points.full)

(* A system's knee: the first computation size whose execution time
   exceeds native's by more than 25%. *)
let knee time =
  match
    List.find_opt
      (fun (p : Workloads.Periodic.point) -> time p > 1.25 *. p.native_s)
      (Lazy.force fig6_full)
  with
  | Some p -> p.insns
  | None -> Alcotest.fail "no knee in the sweep"

let fig6_knees () =
  Alcotest.(check int) "SenSmart knee" 60_000 (knee (fun p -> p.sensmart_s));
  Alcotest.(check int) "t-kernel knee" 90_000 (knee (fun p -> p.tkernel_s))

(* Fig. 6(b): SenSmart's utilization stays above native's, is near
   saturation just before its knee, and native sits below 30% there. *)
let fig6_utilization () =
  let pts = Lazy.force fig6_full in
  List.iter
    (fun (p : Workloads.Periodic.point) ->
      Alcotest.(check bool) (Printf.sprintf "%d: SenSmart util > native" p.insns)
        true (p.sensmart_util > p.native_util))
    pts;
  let k = knee (fun p -> p.sensmart_s) in
  let before =
    List.fold_left
      (fun acc (p : Workloads.Periodic.point) -> if p.insns < k then Some p else acc)
      None pts
  in
  let at = List.find (fun (p : Workloads.Periodic.point) -> p.insns = k) pts in
  (match before with
   | Some p ->
     Alcotest.(check bool) "SenSmart util >= 80% before the knee" true
       (p.sensmart_util >= 0.8)
   | None -> Alcotest.fail "knee at the first point");
  Alcotest.(check bool) "native util < 30% at the knee" true
    (at.native_util < 0.3)

(* Fig. 6(c): Maté is the slowest system at every size, and its
   slowdown over native grows at every step of the sweep. *)
let fig6_mate_slowdown () =
  check_rising "Maté slowdown over native"
    (List.map
       (fun (p : Workloads.Periodic.point) ->
         Alcotest.(check bool) (Printf.sprintf "%d: Maté slowest" p.insns) true
           (p.mate_s > p.sensmart_s && p.mate_s > p.tkernel_s);
         (string_of_int p.insns, p.mate_s /. p.native_s))
       (Lazy.force fig6_full))

(* --- Figures 7 and 8 -------------------------------------------------------- *)

let fig7_monotone () =
  let rows = Workloads.Versatility.fig7 ~window:1_000_000 ~k_cap:16 [ 10; 80 ] in
  match rows with
  | [ small; big ] ->
    Alcotest.(check bool) "more tasks with small trees" true
      (small.max_tasks >= big.max_tasks);
    Alcotest.(check bool) "some tasks schedulable" true (big.max_tasks > 0)
  | _ -> Alcotest.fail "expected two rows"

(* Fig. 7 at full size: fewer schedulable tasks as trees grow, every
   task's average allocation below one search's peak need, and the
   survivors' average stack highest at the largest trees. *)
let fig7_versatility () =
  let rows = Workloads.Versatility.fig7 Workloads.Experiments.fig7_sizes.full in
  let tasks = List.map (fun (r : Workloads.Versatility.fig7_row) -> r.max_tasks) rows in
  Alcotest.(check (list int)) "tasks never rise with tree size"
    (List.sort (fun a b -> compare b a) tasks) tasks;
  let last = List.nth rows (List.length rows - 1) in
  List.iter
    (fun (r : Workloads.Versatility.fig7_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d nodes: avg stack below the search peak" r.nodes)
        true
        (r.avg_stack
         < float_of_int (Programs.Bintree.search_peak_stack ~nodes:r.nodes));
      Alcotest.(check bool) "avg stack highest at the largest trees" true
        (r.avg_stack <= last.avg_stack))
    rows

(* Fig. 8 at full size: SenSmart schedules at least 3x LiteOS's tasks
   at every size, and the ratio grows with the tree size. *)
let fig8_sensmart_wins () =
  check_rising "SenSmart/LiteOS task ratio"
    (List.map
       (fun (r : Workloads.Versatility.fig8_row) ->
         Alcotest.(check bool)
           (Printf.sprintf "%d nodes: sensmart %d >= 3x liteos %d" r.nodes
              r.sensmart_tasks r.liteos_tasks)
           true
           (r.sensmart_tasks >= 3 * r.liteos_tasks);
         ( string_of_int r.nodes,
           float_of_int r.sensmart_tasks /. float_of_int r.liteos_tasks ))
       (Workloads.Versatility.fig8 Workloads.Experiments.fig8_sizes.full))

(* --- Table I cross-checks --------------------------------------------------- *)

let sensmart_claims_tested () =
  (* Every SenSmart "Yes" in Table I corresponds to a feature this
     implementation demonstrates; this test pins the registry rows so a
     claim cannot silently change. *)
  let yes feature =
    let row =
      List.find (fun (r : Workloads.Features.row) -> r.feature = feature)
        Workloads.Features.rows
    in
    Alcotest.(check string) feature "Yes" (Workloads.Features.show row.sensmart)
  in
  List.iter yes
    [ "Preemptive Multitasking"; "Concurrent Applications";
      "Interrupt-free Preemption"; "Memory Protection";
      "Logical Memory Address"; "Stack Relocation" ]

let interrupt_free_preemption () =
  (* The CLI-starvation scenario behind the Table I row: a selfish task
     disables interrupts; SenSmart preempts it anyway, the clock-driven
     baseline does not. *)
  let open Asm.Macros in
  let selfish sp_top =
    Asm.Ast.program "selfish"
      ((lbl "start" :: sp_init_at sp_top)
       @ [ i (Avr.Isa.Bclr 7); lbl "spin"; rjmp "spin" ])
  in
  let victim sp_top =
    Asm.Ast.program "victim"
      ~data:[ { dname = "r"; size = 1; init = [] } ]
      ((lbl "start" :: sp_init_at sp_top)
       @ [ ldi 16 7; sts "r" 16; break ])
  in
  let top = Machine.Layout.data_size - 1 in
  (* LiteOS: victim starves. *)
  let sys =
    Liteos.boot
      [ ("selfish", fun ~data_base:_ ~sp_top -> selfish sp_top);
        ("victim", fun ~data_base:_ ~sp_top -> victim sp_top) ]
  in
  ignore (Liteos.run ~max_cycles:3_000_000 sys);
  Alcotest.(check bool) "liteos victim starves" true
    (not (List.exists (fun (n, r) -> n = "victim" && r = "exit")
            (Liteos.casualties sys)));
  (* SenSmart: victim completes. *)
  let k =
    Kernel.boot [ assemble (selfish top); assemble (victim top) ]
  in
  ignore (Kernel.run ~max_cycles:3_000_000 k);
  Alcotest.(check bool) "sensmart victim completes" true
    (List.exists (fun (n, r) -> n = "victim" && r = "exit") (Kernel.outcomes k))

let concurrent_periodic_scales () =
  (* The Table I "Concurrent Applications" row, quantified at full
     size: every count of periodic applications finishes in under 1.5x
     the time of one, because they interleave within the shared
     periods, while the average current rises with every added task. *)
  match
    Workloads.Periodic.multi Workloads.Experiments.concurrent_tasks.full
  with
  | [] -> Alcotest.fail "no points"
  | one :: _ as pts ->
    check_rising "average current"
      (List.map
         (fun (p : Workloads.Periodic.multi_point) ->
           Alcotest.(check bool) (Printf.sprintf "%d finish" p.tasks) true
             p.all_finished;
           Alcotest.(check bool)
             (Printf.sprintf "%d tasks take < 1.5x one task (%.2f vs %.2f)"
                p.tasks p.total_s one.total_s)
             true
             (p.total_s < 1.5 *. one.total_s);
           (string_of_int p.tasks, p.avg_current_ma))
         pts)

let energy_model_sane () =
  (* An idle-heavy run must draw far less than a busy one. *)
  let busy = assemble (Programs.Lfsr_bench.program ~iters:20000 ()) in
  let idle = assemble (Programs.Periodic_task.program ~activations:3 ~comp_units:10 ()) in
  let run img =
    let r = Workloads.Native.run img in
    Machine.Energy.avg_current_ma r.machine
  in
  let i_busy = run busy and i_idle = run idle in
  Alcotest.(check bool)
    (Printf.sprintf "busy %.3f mA >> idle %.3f mA" i_busy i_idle)
    true
    (i_busy > 10. *. i_idle);
  Alcotest.(check bool) "busy is ~the active draw" true
    (i_busy > 0.9 *. Machine.Energy.i_active_ma)

(* --- ablations ----------------------------------------------------------- *)

(* Switching any grouping off grows both the image and the run, and
   LDD/STD grouping is the largest single contributor to each. *)
let grouping_ablation_ordering () =
  let rows = Workloads.Ablation.grouping () in
  let get v =
    List.find (fun (r : Workloads.Ablation.group_row) -> r.variant = v) rows
  in
  let on = get "all groupings on" and ldd = get "no grouped LDD/STD" in
  List.iter
    (fun (r : Workloads.Ablation.group_row) ->
      if r != on then begin
        Alcotest.(check bool) (r.variant ^ " grows bytes") true (r.bytes > on.bytes);
        Alcotest.(check bool) (r.variant ^ " grows cycles") true
          (r.cycles > on.cycles)
      end)
    rows;
  List.iter
    (fun v ->
      let r = get v in
      Alcotest.(check bool) ("LDD/STD outweighs " ^ v) true
        (ldd.bytes > r.bytes && ldd.cycles > r.cycles))
    [ "no grouped SP pairs"; "no grouped pushes" ]

let trap_sweep_latency_monotone () =
  check_rising "max preemption latency"
    (List.map
       (fun (r : Workloads.Ablation.trap_row) ->
         (string_of_int r.period, r.max_latency_us))
       (Workloads.Ablation.trap_period_sweep ()))

(* Longer slices never add context switches, and total cycles stay
   within 5% across the sweep for this compute-bound mix. *)
let slice_sweep_switches () =
  let rows = Workloads.Ablation.slice_sweep () in
  let switches = List.map (fun (r : Workloads.Ablation.slice_row) -> r.switches) rows in
  let cycles = List.map (fun (r : Workloads.Ablation.slice_row) -> r.total_cycles) rows in
  Alcotest.(check (list int)) "switches never rise"
    (List.sort (fun a b -> compare b a) switches) switches;
  let lo = List.fold_left min max_int cycles and hi = List.fold_left max 0 cycles in
  Alcotest.(check bool) "total cycles within 5%" true (hi * 100 < lo * 105)

(* --- attack containment ----------------------------------------------------- *)

(* EXPERIMENTS.md "attack containment": in the generated matrix at full
   size, SenSmart contains 2 attack classes, t-kernel 0 and LiteOS 1. *)
let attack_contained_counts () =
  let e = Option.get (Workloads.Experiments.find "attack-matrix") in
  let rows = (e.table ~quick:false).rows in
  List.iter
    (fun (system, n) ->
      match List.find_opt (fun row -> List.hd row = system) rows with
      | Some (_ :: cells) ->
        Alcotest.(check int) (system ^ " contained classes") n
          (List.length (List.filter (( = ) "contained") cells))
      | _ -> Alcotest.failf "no %s row" system)
    [ ("sensmart", 2); ("tkernel", 0); ("liteos", 1) ]

(* --- the experiment registry ----------------------------------------------- *)

let experiment_names_unique () =
  let names =
    List.map (fun (e : Workloads.Experiments.t) -> e.name) Workloads.Experiments.all
  in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* [regenerate] rewrites only what lies between an experiment's markers,
   is a fixed point, and rejects a marker it cannot resolve. *)
let doc_regenerate () =
  let e = Option.get (Workloads.Experiments.find "table1") in
  let doc =
    "intro\n<!-- sensmart:table1 -->\nstale\n<!-- /sensmart:table1 -->\nend"
  in
  let want =
    String.concat "\n"
      ([ "intro"; "<!-- sensmart:table1 -->"; "" ]
       @ Workloads.Experiments.lines (e.table ~quick:false)
       @ [ ""; "<!-- /sensmart:table1 -->"; "end" ])
  in
  let got = Workloads.Experiments.regenerate doc in
  Alcotest.(check string) "block replaced" want got;
  Alcotest.(check string) "fixed point" got (Workloads.Experiments.regenerate got);
  Alcotest.(check string) "plain text untouched" "a\nb"
    (Workloads.Experiments.regenerate "a\nb");
  List.iter
    (fun bad ->
      match Workloads.Experiments.regenerate bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [ "<!-- sensmart:nope -->\n<!-- /sensmart:nope -->";
      "<!-- sensmart:table1 -->\nno end" ]

let registry_complete () =
  List.iter
    (fun name ->
      match Workloads.Registry.find_image name with
      | Some _ -> ()
      | None -> Alcotest.failf "registry lost %s" name)
    Workloads.Registry.names;
  Alcotest.(check bool) "has the seven kernel benchmarks" true
    (List.for_all
       (fun n -> List.mem n Workloads.Registry.names)
       [ "am"; "amplitude"; "crc"; "eventchain"; "lfsr"; "readadc"; "timer" ])

(* The metrics file must survive a disk round-trip through its own
   parser: what [Metrics.write_file] writes, [Trace.counters_of_json]
   reads back as exactly the registry's sorted counter snapshot. *)
let metrics_file_round_trip () =
  let tr = Trace.create () in
  (* A small but representative registry: dotted schema names, a zero,
     and a negative value. *)
  Trace.set_counter tr "kernel.traps" 12;
  Trace.set_counter tr "mote0.cpu.cycles" 123_456;
  Trace.set_counter tr "net.dropped" 0;
  Trace.set_counter tr "host.delta" (-3);
  let path = Filename.temp_file "sensmart_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check string) "write_file returns the path" path
        (Workloads.Metrics.write_file ~path tr);
      let data = In_channel.with_open_text path In_channel.input_all in
      match Trace.counters_of_json data with
      | Ok kvs ->
        Alcotest.(check (list (pair string int)))
          "parses back to the sorted counter snapshot" (Trace.counters tr)
          kvs
      | Error msg -> Alcotest.failf "parse of %s: %s" path msg)

let () =
  Alcotest.run "workloads"
    [ ("table2",
       [ Alcotest.test_case "overhead sane" `Quick overhead_sane;
         Alcotest.test_case "cost ordering" `Quick overhead_ordering ]);
      ("metrics",
       [ Alcotest.test_case "file round-trip" `Quick metrics_file_round_trip ]);
      ("fig4-5",
       [ Alcotest.test_case "fig4 invariants" `Quick fig4_invariants;
         Alcotest.test_case "fig4 compiler scale" `Quick
           fig4_minic_tkernel_larger;
         Alcotest.test_case "fig4 firmware conservative" `Quick
           fig4_firmware_conservative;
         Alcotest.test_case "fig5 ordering" `Quick fig5_ordering;
         Alcotest.test_case "fig5 cpu-bound vs io-bound" `Quick fig5_cpu_vs_io ]);
      ("fig6",
       [ Alcotest.test_case "shape" `Quick fig6_shape;
         Alcotest.test_case "knees" `Quick fig6_knees;
         Alcotest.test_case "utilization" `Quick fig6_utilization;
         Alcotest.test_case "mate slowdown grows" `Quick fig6_mate_slowdown ]);
      ("fig7-8",
       [ Alcotest.test_case "fig7 monotone" `Quick fig7_monotone;
         Alcotest.test_case "fig7 versatility" `Quick fig7_versatility;
         Alcotest.test_case "fig8 sensmart wins" `Quick fig8_sensmart_wins ]);
      ("ablation",
       [ Alcotest.test_case "grouping ordering" `Quick grouping_ablation_ordering;
         Alcotest.test_case "trap sweep monotone" `Quick trap_sweep_latency_monotone;
         Alcotest.test_case "slice switches" `Quick slice_sweep_switches ]);
      ("attack",
       [ Alcotest.test_case "contained classes" `Quick attack_contained_counts ]);
      ("experiments",
       [ Alcotest.test_case "names unique" `Quick experiment_names_unique;
         Alcotest.test_case "doc regenerate" `Quick doc_regenerate ]);
      ("concurrency & energy",
       [ Alcotest.test_case "periodic tasks scale" `Quick concurrent_periodic_scales;
         Alcotest.test_case "energy model" `Quick energy_model_sane ]);
      ("table1",
       [ Alcotest.test_case "claims pinned" `Quick sensmart_claims_tested;
         Alcotest.test_case "interrupt-free preemption" `Quick interrupt_free_preemption;
         Alcotest.test_case "registry" `Quick registry_complete ]) ]
