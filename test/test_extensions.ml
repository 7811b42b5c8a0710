(* Tests for the extension features: run-time task spawning, the
   configurable trap period, preemption-latency accounting, and content
   preservation across stack relocation. *)

open Asm.Macros

let assemble = Asm.Assembler.assemble

let sum_prog ?(name = "sum") n =
  Asm.Ast.program name
    ~data:[ { dname = "result"; size = 2; init = [] } ]
    ((lbl "start" :: sp_init)
     @ [ ldi 24 0; ldi 25 0; ldi 16 n ]
     @ [ lbl "top"; add 24 16; brcc "nc"; inc 25; lbl "nc"; dec 16; brne "top" ]
     @ [ sts "result" 24; sts_off "result" 1 25; break ])

(* --- spawn ------------------------------------------------------------ *)

let spawn_into_free_space () =
  let config = { Kernel.default_config with spare_tcbs = 1; stack_budget = Some 256 } in
  let k = Kernel.boot ~config [ assemble (sum_prog ~name:"first" 10) ] in
  (* Admit a second task while the first runs. *)
  (match Kernel.spawn k (assemble (sum_prog ~name:"late" 20)) with
   | Ok t -> Alcotest.(check string) "name" "late" t.name
   | Error e -> Alcotest.failf "spawn failed: %s" e);
  (match Kernel.run k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "run: %a" Machine.Cpu.pp_stop s);
  Alcotest.(check int) "first" 55 (Kernel.read_var k 0 "result");
  Alcotest.(check int) "late" 210 (Kernel.read_var k 1 "result")

let spawn_needs_tcb_slot () =
  let k = Kernel.boot [ assemble (sum_prog 5) ] in
  match Kernel.spawn k (assemble (sum_prog ~name:"late" 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "spawn without spare TCB should fail"

let spawn_carves_from_donors () =
  (* With the whole area given to the first task, the spawn must take
     space back from it via relocation. *)
  let config = { Kernel.default_config with spare_tcbs = 1 } in
  let k = Kernel.boot ~config [ assemble (sum_prog ~name:"fat" 10) ] in
  let before = Kernel.Task.stack_alloc (Kernel.find_task k 0) in
  (match Kernel.spawn k (assemble (sum_prog ~name:"late" 20)) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "spawn failed: %s" e);
  let after = Kernel.Task.stack_alloc (Kernel.find_task k 0) in
  Alcotest.(check bool) "donor shrank" true (after < before);
  (match Kernel.run k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "run: %a" Machine.Cpu.pp_stop s);
  Alcotest.(check int) "fat" 55 (Kernel.read_var k 0 "result");
  Alcotest.(check int) "late" 210 (Kernel.read_var k 1 "result")

let spawn_rejects_when_full () =
  (* A tiny budget leaves no surplus to carve a big heap from. *)
  let fat =
    Asm.Ast.program "fat"
      ~data:[ { dname = "blob"; size = 3000; init = [] } ]
      [ lbl "start"; break ]
  in
  let config = { Kernel.default_config with spare_tcbs = 1 } in
  let k = Kernel.boot ~config [ assemble (sum_prog 5) ] in
  (* First fill memory with a fat task, then try again: no room. *)
  (match Kernel.spawn k (assemble fat) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "first spawn should fit: %s" e);
  match Kernel.spawn k (assemble (sum_prog ~name:"x" 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure (no TCB or no memory)"

(* --- trap period and preemption latency -------------------------------- *)

let trap_period_controls_overhead () =
  let run period =
    let config = { Kernel.default_config with trap_period = period } in
    let k = Kernel.boot ~config [ assemble (Programs.Lfsr_bench.program ()) ] in
    (match Kernel.run k with
     | Machine.Cpu.Halted Break_hit -> ()
     | s -> Alcotest.failf "run: %a" Machine.Cpu.pp_stop s);
    (k.m.cycles, k.stats.traps)
  in
  let c16, t16 = run 16 in
  let c256, t256 = run 256 in
  Alcotest.(check bool) "denser traps" true (t16 > 4 * t256);
  Alcotest.(check bool) "more kernel entries cost cycles" true (c16 > c256)

let preemption_latency_recorded () =
  let spinner = Asm.Ast.program "spin" [ lbl "start"; lbl "top"; rjmp "top" ] in
  let k = Kernel.boot [ assemble spinner; assemble (sum_prog 50) ] in
  ignore (Kernel.run ~max_cycles:2_000_000 k);
  Alcotest.(check bool) "preemptions recorded" true (k.stats.preempt_switches > 0);
  Alcotest.(check bool) "max >= avg > 0" true
    (k.stats.preempt_delay_max * k.stats.preempt_switches
     >= k.stats.preempt_delay_total);
  (* Latency is bounded by the trap spacing of the densest loop. *)
  Alcotest.(check bool) "bounded" true
    (k.stats.preempt_delay_max < 256 * 64)

(* --- relocation preserves stack contents --------------------------------- *)

(* Each recursion level stores a distinctive byte pattern in its frame
   and validates it after the recursive call returns.  Any relocation
   that corrupted moved stack bytes (or mis-adjusted SP) breaks it. *)
let pattern_prog depth =
  Asm.Ast.program "pattern"
    ~data:[ { dname = "ok"; size = 1; init = [] };
            { dname = "bad"; size = 1; init = [] } ]
    ((lbl "start" :: sp_init)
     @ [ ldi 24 depth; call "rec"; ldi 16 1; sts "ok" 16; break;
         lbl "rec"; cpi 24 0; brne "go"; ret; lbl "go" ]
     (* Frame: push 8 copies of a level-dependent pattern. *)
     @ [ mov 18 24; swap 18; eor 18 24 ]
     @ List.init 8 (fun _ -> push 18)
     @ [ push 24; subi 24 1; call "rec"; pop 24 ]
     (* Validate the pattern on unwind. *)
     @ [ mov 18 24; swap 18; eor 18 24 ]
     @ List.concat
         (List.init 8 (fun _ -> [ pop 17; cp 17 18; brne "corrupt" ]))
     @ [ ret; lbl "corrupt"; ldi 16 1; sts "bad" 16; break ])

let relocation_preserves_contents () =
  let shallow = sum_prog ~name:"shallow" 20 in
  let config = { Kernel.default_config with stack_budget = Some 360 } in
  let k = Kernel.boot ~config [ assemble (pattern_prog 18); assemble shallow ] in
  (match Kernel.run k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "run: %a" Machine.Cpu.pp_stop s);
  Alcotest.(check bool) "relocations happened" true (k.stats.relocations > 0);
  Alcotest.(check int) "no corruption" 0 (Kernel.read_var k 0 "bad" land 0xFF);
  Alcotest.(check int) "completed" 1 (Kernel.read_var k 0 "ok" land 0xFF)

(* --- kernel event log ----------------------------------------------------- *)

let event_log_records_lifecycle () =
  let shallow = sum_prog ~name:"shallow" 20 in
  let config = { Kernel.default_config with stack_budget = Some 360 } in
  let k = Kernel.boot ~config [ assemble (pattern_prog 18); assemble shallow ] in
  (match Kernel.run k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "run: %a" Machine.Cpu.pp_stop s);
  let events = Kernel.event_log k in
  let has p = List.exists (fun (e : Trace.event) -> p e.kind) events in
  Alcotest.(check bool) "switch recorded" true
    (has (function Trace.Switched _ -> true | _ -> false));
  Alcotest.(check bool) "relocation recorded" true
    (has (function Trace.Relocated _ -> true | _ -> false));
  Alcotest.(check bool) "exit recorded" true
    (has (function Trace.Terminated { reason = "exit"; _ } -> true | _ -> false));
  (* Timestamps must be non-decreasing. *)
  let ts = List.map (fun (e : Trace.event) -> e.at) events in
  Alcotest.(check bool) "monotone timestamps" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts));
  (* Counters published from this run land in the shared registry. *)
  Kernel.publish_counters k;
  Alcotest.(check bool) "relocation counter" true
    (Trace.counter k.trace "kernel.relocations" > 0);
  Alcotest.(check bool) "per-task cycles accounted" true
    (Trace.counter k.trace "task.0.active_cycles" > 0
     && Trace.counter k.trace "task.1.active_cycles" > 0)

let () =
  Alcotest.run "extensions"
    [ ("spawn",
       [ Alcotest.test_case "into free space" `Quick spawn_into_free_space;
         Alcotest.test_case "needs tcb slot" `Quick spawn_needs_tcb_slot;
         Alcotest.test_case "carves from donors" `Quick spawn_carves_from_donors;
         Alcotest.test_case "rejects when full" `Quick spawn_rejects_when_full ]);
      ("scheduling",
       [ Alcotest.test_case "trap period" `Quick trap_period_controls_overhead;
         Alcotest.test_case "preemption latency" `Quick preemption_latency_recorded ]);
      ("relocation",
       [ Alcotest.test_case "contents preserved" `Quick relocation_preserves_contents ]);
      ("events",
       [ Alcotest.test_case "lifecycle log" `Quick event_log_records_lifecycle ]) ]
