(* Smoke and sanity tests for the experiment drivers (fast parameters),
   plus cross-checks that Table I's SenSmart claims reflect the
   implementation. *)

let assemble = Asm.Assembler.assemble

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

(* --- Figures 4 and 5 ------------------------------------------------------ *)

let fig4_invariants () =
  List.iter
    (fun (r : Workloads.Kernel_bench.size_row) ->
      Alcotest.(check bool) (r.name ^ ": sensmart > native") true
        (Workloads.Kernel_bench.sensmart_total r > r.native_bytes);
      Alcotest.(check bool) (r.name ^ ": tkernel > native") true
        (r.tkernel_bytes > r.native_bytes);
      Alcotest.(check bool) (r.name ^ ": breakdown positive") true
        (r.rewritten_bytes > 0 && r.tramp_bytes > 0))
    (Workloads.Kernel_bench.fig4 ())

let fig5_ordering () =
  List.iter
    (fun (r : Workloads.Kernel_bench.time_row) ->
      Alcotest.(check bool) (r.name ^ ": native fastest") true
        (r.native_s <= r.mem_only_s +. 1e-9 && r.native_s <= r.full_s +. 1e-9);
      Alcotest.(check bool) (r.name ^ ": scheduling adds cost") true
        (r.full_s >= r.mem_only_s -. 1e-9))
    (Workloads.Kernel_bench.fig5 ())

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

(* --- Figures 7 and 8 -------------------------------------------------------- *)

let fig7_monotone () =
  let rows = Workloads.Versatility.fig7 ~window:1_000_000 ~k_cap:16 [ 10; 80 ] in
  match rows with
  | [ small; big ] ->
    Alcotest.(check bool) "more tasks with small trees" true
      (small.max_tasks >= big.max_tasks);
    Alcotest.(check bool) "some tasks schedulable" true (big.max_tasks > 0)
  | _ -> Alcotest.fail "expected two rows"

let fig8_sensmart_wins () =
  let rows = Workloads.Versatility.fig8 ~window:1_000_000 ~k_cap:16 [ 20 ] in
  match rows with
  | [ r ] ->
    Alcotest.(check bool)
      (Printf.sprintf "sensmart %d > liteos %d" r.sensmart_tasks r.liteos_tasks)
      true
      (r.sensmart_tasks > r.liteos_tasks)
  | _ -> Alcotest.fail "expected one row"

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
  (* The Table I "Concurrent Applications" row, quantified: several
     periodic applications finish in (almost) the same wall-clock time
     as one, because they interleave within the shared periods. *)
  match Workloads.Periodic.multi ~activations:4 ~comp_units:600 [ 1; 4 ] with
  | [ one; four ] ->
    Alcotest.(check bool) "one finishes" true one.all_finished;
    Alcotest.(check bool) "four finish" true four.all_finished;
    Alcotest.(check bool)
      (Printf.sprintf "4 tasks take < 1.5x one task (%.2f vs %.2f)"
         four.total_s one.total_s)
      true
      (four.total_s < 1.5 *. one.total_s);
    Alcotest.(check bool) "current rises with load" true
      (four.avg_current_ma > one.avg_current_ma)
  | _ -> Alcotest.fail "expected two points"

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
    [ ("table2", [ Alcotest.test_case "overhead sane" `Quick overhead_sane ]);
      ("metrics",
       [ Alcotest.test_case "file round-trip" `Quick metrics_file_round_trip ]);
      ("fig4-5",
       [ Alcotest.test_case "fig4 invariants" `Quick fig4_invariants;
         Alcotest.test_case "fig5 ordering" `Quick fig5_ordering ]);
      ("fig6", [ Alcotest.test_case "shape" `Quick fig6_shape ]);
      ("fig7-8",
       [ Alcotest.test_case "fig7 monotone" `Quick fig7_monotone;
         Alcotest.test_case "fig8 sensmart wins" `Quick fig8_sensmart_wins ]);
      ("concurrency & energy",
       [ Alcotest.test_case "periodic tasks scale" `Quick concurrent_periodic_scales;
         Alcotest.test_case "energy model" `Quick energy_model_sane ]);
      ("table1",
       [ Alcotest.test_case "claims pinned" `Quick sensmart_claims_tested;
         Alcotest.test_case "interrupt-free preemption" `Quick interrupt_free_preemption;
         Alcotest.test_case "registry" `Quick registry_complete ]) ]
