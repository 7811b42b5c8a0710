(* End-to-end tests of the SenSmart kernel: naturalized programs running
   with logical addressing, preemptive scheduling, memory isolation, and
   stack relocation. *)

open Asm.Macros

let assemble = Asm.Assembler.assemble

let heap_byte = Kernel.heap_byte

let boot = Kernel.boot
let run = Kernel.run

let expect_all_exit k =
  (match run k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "kernel stopped unexpectedly: %a" Machine.Cpu.pp_stop s);
  Kernel.check_invariants k

(* A program that computes sum 1..n and stores it (16-bit) to "result". *)
let sum_prog ?(name = "sum") n =
  Asm.Ast.program name
    ~data:[ { dname = "result"; size = 2; init = [] } ]
    ((lbl "start" :: sp_init)
     @ [ ldi 24 0; ldi 25 0; ldi 16 n ]
     @ [ lbl "top"; add 24 16; brcc "nc"; inc 25; lbl "nc"; dec 16; brne "top" ]
     @ [ sts "result" 24; sts_off "result" 1 25; break ])

let single_task_runs () =
  let k = boot [ assemble (sum_prog 10) ] in
  expect_all_exit k;
  Alcotest.(check int) "sum lo" 55 (heap_byte k 0 0x100);
  Alcotest.(check int) "sum hi" 0 (heap_byte k 0 0x101)

let two_tasks_isolated () =
  (* Both programs use the same logical data address; isolation means
     they must not interfere. *)
  let k = boot [ assemble (sum_prog ~name:"a" 10); assemble (sum_prog ~name:"b" 20) ] in
  expect_all_exit k;
  Alcotest.(check int) "task a" 55 (heap_byte k 0 0x100);
  Alcotest.(check int) "task b" 210 (heap_byte k 1 0x100)

let frames_under_kernel () =
  (* Function frames exercise get/set-SP translation and stack-frame
     indirect accesses. *)
  let body =
    [ std Avr.Isa.Ybase 1 24; ldd 16 Avr.Isa.Ybase 1; add 16 16; mov 24 16 ]
  in
  let prog =
    Asm.Ast.program "frames"
      ~data:[ { dname = "out"; size = 1; init = [] } ]
      ((lbl "start" :: sp_init)
       @ [ ldi 24 21; call "double"; sts "out" 24; break ]
       @ fn "double" ~frame:4 body)
  in
  let k = boot [ assemble prog ] in
  expect_all_exit k;
  Alcotest.(check int) "doubled" 42 (heap_byte k 0 0x100)

let heap_pointer_walk () =
  (* Write 8 bytes through X with post-increment, then read them back
     through Z and sum. *)
  let prog =
    Asm.Ast.program "walk"
      ~data:[ { dname = "buf"; size = 8; init = [] };
              { dname = "out"; size = 1; init = [] } ]
      ((lbl "start" :: sp_init)
       @ ldi_data 26 27 "buf" 0
       @ [ ldi 16 1 ]
       @ loop_n 17 8 [ st Avr.Isa.X_inc 16; inc 16 ]
       @ ldi_data 30 31 "buf" 0
       @ [ ldi 24 0 ]
       @ loop_n 17 8 [ ld 18 Avr.Isa.Z_inc; add 24 18 ]
       @ [ sts "out" 24; break ])
  in
  let k = boot [ assemble prog ] in
  expect_all_exit k;
  (* 1+2+...+8 = 36 *)
  Alcotest.(check int) "sum of walked bytes" 36 (heap_byte k 0 0x108)

let recursion_under_kernel () =
  let prog =
    Asm.Ast.program "fact"
      ~data:[ { dname = "out"; size = 1; init = [] } ]
      ((lbl "start" :: sp_init)
       @ [ ldi 24 5; call "fact"; sts "out" 24; break ]
       @ [ lbl "fact"; cpi 24 0; brne "rec"; ldi 24 1; ret;
           lbl "rec"; push 24; subi 24 1; call "fact";
           pop 16; mul 24 16; mov 24 0; ret ])
  in
  let k = boot [ assemble prog ] in
  expect_all_exit k;
  Alcotest.(check int) "fact 5" 120 (heap_byte k 0 0x100)

let out_of_bounds_faults () =
  (* A wild store far above the heap and outside the stack region must
     be caught and the task terminated, not silently corrupt memory. *)
  let prog =
    Asm.Ast.program "wild"
      ~data:[ { dname = "x"; size = 2; init = [] } ]
      ((lbl "start" :: sp_init)
       (* Store through a pointer into the untouched middle of the
          logical space: below the stack floor -> fault. *)
       @ ldi16 26 27 0x0800
       @ [ ldi 16 0xEE; st Avr.Isa.X 16; break ])
  in
  let config = { Kernel.default_config with stack_budget = Some 64 } in
  let k = boot ~config [ assemble prog ] in
  (match run k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "unexpected stop: %a" Machine.Cpu.pp_stop s);
  match Kernel.outcomes k with
  | [ (_, reason) ] ->
    Alcotest.(check bool) "fault reason" true
      (String.length reason > 0 && reason <> "exit")
  | _ -> Alcotest.fail "expected one outcome"

let preemption_lets_finite_task_finish () =
  (* An infinite spinner plus a finite task: without preemptive traps the
     finite task would starve. *)
  let spinner = Asm.Ast.program "spin" [ lbl "start"; lbl "top"; rjmp "top" ] in
  let k = boot [ assemble spinner; assemble (sum_prog 10) ] in
  (match run ~max_cycles:50_000_000 k with
   | Machine.Cpu.Out_of_fuel -> ()
   | s -> Alcotest.failf "unexpected stop: %a" Machine.Cpu.pp_stop s);
  Kernel.check_invariants k;
  Alcotest.(check int) "finite task finished" 55 (heap_byte k 1 0x100);
  Alcotest.(check bool) "traps occurred" true (k.stats.traps > 0)

(* Recursive stack eater: recurse [depth] times, 17 bytes of frame per
   level, then unwind; store a marker at the end. *)
let deep_prog ?(name = "deep") depth =
  Asm.Ast.program name
    ~data:[ { dname = "done_"; size = 1; init = [] } ]
    ((lbl "start" :: sp_init)
     @ [ ldi 24 depth; call "eat"; ldi 16 0xAA; sts "done_" 16; break ]
     @ [ lbl "eat"; cpi 24 0; breq "eat_done" ]
     @ fn "eat_inner" ~frame:0 []  (* placeholder to keep labels unique *)
     )

let deep_recursion_prog depth =
  (* eat(n): if n == 0 return; else allocate a 13-byte frame via pushes
     and recurse. Total stack ~ (13+2) * depth bytes. *)
  Asm.Ast.program "deep"
    ~data:[ { dname = "done_"; size = 1; init = [] } ]
    ((lbl "start" :: sp_init)
     @ [ ldi 24 depth; call "eat"; ldi 16 0xAA; sts "done_" 16; break;
         lbl "eat"; cpi 24 0; brne "go"; ret; lbl "go" ]
     @ List.init 13 (fun _ -> push 24)
     @ [ subi 24 1; call "eat" ]
     @ List.init 13 (fun _ -> pop 16)
     @ [ ret ])

let stack_relocation_grows_stack () =
  (* Two tasks under a tight total stack budget: the deep one (peak need
     ~260 B) starts with only 160 B and must take stack from the shallow
     one via relocation, then both complete. *)
  let shallow = sum_prog ~name:"shallow" 20 in
  let config =
    { Kernel.default_config with stack_budget = Some 320 }
  in
  let k =
    boot ~config [ assemble (deep_recursion_prog 12); assemble shallow ]
  in
  expect_all_exit k;
  Alcotest.(check int) "deep completed" 0xAA (heap_byte k 0 0x100);
  Alcotest.(check int) "shallow completed" 210 (heap_byte k 1 0x100);
  Alcotest.(check bool) "relocations happened" true (k.stats.relocations > 0)

(* Deep recursion preceded by [phase] sleep/wake rounds, staggering the
   tasks' stack peaks in time. *)
let staggered_deep_prog name phase depth =
  Asm.Ast.program name
    ~data:[ { dname = "done_"; size = 1; init = [] } ]
    ((lbl "start" :: sp_init)
     @ List.concat (List.init phase (fun _ -> [ sleep ]))
     @ [ ldi 24 depth; call "eat"; ldi 16 0xAA; sts "done_" 16; break;
         lbl "eat"; cpi 24 0; brne "go"; ret; lbl "go" ]
     @ List.init 13 (fun _ -> push 24)
     @ [ subi 24 1; call "eat" ]
     @ List.init 13 (fun _ -> pop 16)
     @ [ ret ])

let overcommit_headline () =
  (* The paper's headline: the total needed stack (3 x ~260 B) exceeds
     the total available stack space (400 B), yet all tasks complete
     because their peaks are staggered in time and relocation moves the
     space to whoever needs it. *)
  let mk i = staggered_deep_prog (Printf.sprintf "deep%d" i) i 12 in
  let config = { Kernel.default_config with stack_budget = Some 400 } in
  let k = boot ~config [ assemble (mk 0); assemble (mk 1); assemble (mk 2) ] in
  expect_all_exit k;
  List.iteri
    (fun i _ ->
      Alcotest.(check int) (Printf.sprintf "deep%d done" i) 0xAA (heap_byte k i 0x100))
    [ (); (); () ];
  Alcotest.(check bool) "relocations happened" true (k.stats.relocations > 0)

let icall_function_pointer () =
  let prog =
    Asm.Ast.program "fptr"
      ~data:[ { dname = "out"; size = 1; init = [] } ]
      ((lbl "start" :: sp_init)
       @ ldi_text 30 31 "callee"
       @ [ icall; sts "out" 24; break; lbl "callee"; ldi 24 0x5C; ret ])
  in
  let k = boot [ assemble prog ] in
  expect_all_exit k;
  Alcotest.(check int) "via icall" 0x5C (heap_byte k 0 0x100)

let lpm_flash_data () =
  let prog =
    Asm.Ast.program "flash"
      ~data:[ { dname = "out"; size = 2; init = [] } ]
      ~flash_data:[ { fname = "tab"; fwords = [ 0xBBAA ] } ]
      ((lbl "start" :: sp_init)
       @ ldi_flash 30 31 "tab"
       @ [ lpm 24 ~inc:true; lpm 25 ~inc:false;
           sts "out" 24; sts_off "out" 1 25; break ])
  in
  let k = boot [ assemble prog ] in
  expect_all_exit k;
  Alcotest.(check int) "lo" 0xAA (heap_byte k 0 0x100);
  Alcotest.(check int) "hi" 0xBB (heap_byte k 0 0x101)

let getsp_logical () =
  (* Immediately after sp_init the logical SP read back must be 0x10FF
     regardless of where the region physically sits. *)
  let prog =
    Asm.Ast.program "getsp"
      ~data:[ { dname = "out"; size = 2; init = [] } ]
      ((lbl "start" :: sp_init)
       @ [ in_ 16 Machine.Io.spl; in_ 17 Machine.Io.sph;
           sts "out" 16; sts_off "out" 1 17; break ])
  in
  (* Put a first task in front so the region is displaced. *)
  let k = boot [ assemble (sum_prog ~name:"first" 3); assemble prog ] in
  expect_all_exit k;
  Alcotest.(check int) "logical SPL" 0xFF (heap_byte k 1 0x100);
  Alcotest.(check int) "logical SPH" 0x10 (heap_byte k 1 0x101)

let admission_failure () =
  (* A task with a huge heap cannot be admitted. *)
  let prog =
    Asm.Ast.program "fat"
      ~data:[ { dname = "big"; size = 4200; init = [] } ]
      [ lbl "start"; break ]
  in
  match boot [ assemble prog ] with
  | exception Kernel.Admission_failure _ -> ()
  | _ -> Alcotest.fail "expected admission failure"

let logical_sp_stable_across_relocation () =
  (* A task reads its (logical) SP, then another task's growth relocates
     its stack; reading SP again must give the same logical value even
     though the physical stack moved. *)
  let observer =
    Asm.Ast.program "observer"
      ~data:[ { dname = "sp1"; size = 2; init = [] };
              { dname = "sp2"; size = 2; init = [] };
              { dname = "same"; size = 1; init = [] } ]
      ((lbl "start" :: sp_init)
       @ [ in_ 16 Machine.Io.spl; in_ 17 Machine.Io.sph;
           sts "sp1" 16; sts_off "sp1" 1 17 ]
       (* Let the deep task run and trigger relocations. *)
       @ [ sleep; sleep; sleep ]
       @ [ in_ 16 Machine.Io.spl; in_ 17 Machine.Io.sph;
           sts "sp2" 16; sts_off "sp2" 1 17;
           lds 18 "sp1"; cp 16 18; brne "diff";
           lds_off 18 "sp1" 1; cp 17 18; brne "diff";
           ldi 16 1; sts "same" 16; break; lbl "diff"; break ])
  in
  let config = { Kernel.default_config with stack_budget = Some 400 } in
  let k = boot ~config [ assemble observer; assemble (deep_recursion_prog 16) ] in
  expect_all_exit k;
  Alcotest.(check bool) "relocations happened" true (k.stats.relocations > 0);
  Alcotest.(check int) "logical SP unchanged" 1 (Kernel.read_var k 0 "same")

let twenty_tasks_boot_and_finish () =
  let imgs = List.init 20 (fun i -> assemble (sum_prog ~name:(Printf.sprintf "t%d" i) (i + 1))) in
  let k = boot imgs in
  expect_all_exit k;
  List.iteri
    (fun i _ ->
      Alcotest.(check int) (Printf.sprintf "t%d" i) ((i + 1) * (i + 2) / 2)
        (Kernel.read_var k i "result"))
    imgs

let spawned_task_can_grow () =
  (* A task admitted at run time participates fully in relocation.  The
     resident runs long enough that the spawned task must grow while the
     resident still owns its stack. *)
  let config =
    { Kernel.default_config with spare_tcbs = 1; stack_budget = Some 500 }
  in
  let resident = Programs.Crc_bench.program ~passes:40 () in
  let k = boot ~config [ assemble resident ] in
  (match Kernel.spawn k (assemble (deep_recursion_prog 14)) with
   | Ok t -> Alcotest.(check int) "starts at the minimum stack"
               Kernel.default_config.min_stack (Kernel.Task.stack_alloc t)
   | Error e -> Alcotest.failf "spawn: %s" e);
  expect_all_exit k;
  Alcotest.(check int) "spawned deep task finished" 0xAA (heap_byte k 1 0x100);
  Alcotest.(check int) "resident computed its result"
    (Programs.Crc_bench.expected ()) (Kernel.read_var k 0 "bench_result");
  Alcotest.(check bool) "it grew via relocation" true (k.stats.grow_requests > 0)

(* Pure relocation-algorithm tests. *)
let mk_region id p_l heap stack used =
  { Kernel.Relocation.id; p_l; p_h = p_l + heap; p_u = p_l + heap + stack;
    sp = p_l + heap + stack - 1 - used }

let relocation_donate_up () =
  (* Needy below, donor above. *)
  let needy = mk_region 0 0x100 16 32 30 in
  let donor = mk_region 1 (0x100 + 48) 16 100 4 in
  let moves = ref [] in
  let move ~src ~dst ~len = moves := (src, dst, len) :: !moves in
  let regions = [ needy; donor ] in
  let _ = Kernel.Relocation.donate ~regions ~donor ~needy ~delta:40 ~move in
  Alcotest.(check int) "needy grew" (32 + 40) (needy.p_u - needy.p_h);
  Alcotest.(check int) "donor shrank" (100 - 40) (donor.p_u - donor.p_h);
  Alcotest.(check int) "donor heap intact" 16 (donor.p_h - donor.p_l);
  Alcotest.(check bool) "still contiguous" true (needy.p_u = donor.p_l)

let relocation_donate_down () =
  let donor = mk_region 0 0x100 16 100 4 in
  let needy = mk_region 1 (0x100 + 116) 16 32 30 in
  let move ~src:_ ~dst:_ ~len:_ = () in
  let regions = [ donor; needy ] in
  let _ = Kernel.Relocation.donate ~regions ~donor ~needy ~delta:40 ~move in
  Alcotest.(check int) "needy grew" 72 (needy.p_u - needy.p_h);
  Alcotest.(check int) "donor shrank" 60 (donor.p_u - donor.p_h);
  Alcotest.(check bool) "still contiguous" true (donor.p_u = needy.p_l)

let relocation_preserves_invariants =
  QCheck.Test.make ~name:"relocation preserves region invariants" ~count:300
    QCheck.(quad (int_range 8 60) (int_range 8 60) (int_range 0 7) (int_range 1 20))
    (fun (stack_a, stack_b, used_a, delta) ->
      let a = mk_region 0 0x100 10 stack_a used_a in
      let b = mk_region 1 (0x100 + 10 + stack_a) 12 stack_b 2 in
      let regions = [ a; b ] in
      QCheck.assume (Kernel.Relocation.surplus ~keep:4 b >= delta);
      let _ =
        Kernel.Relocation.donate ~regions ~donor:b ~needy:a ~delta
          ~move:(fun ~src:_ ~dst:_ ~len -> if len < 0 then failwith "neg")
      in
      a.p_l <= a.p_h && a.p_h <= a.sp + 1 && a.sp < a.p_u && a.p_u = b.p_l
      && b.p_l <= b.p_h && b.p_h <= b.sp + 1 && b.sp < b.p_u)

(* Flash is sized to its content: booting a small program allocates
   kilobytes, not a 512 KiB flash array per template or machine.  The
   bounds leave room for the kernel's own allocation; the full-length
   flash alone would exceed both. *)
let allocation_bounded () =
  let crc = Option.get (Workloads.Registry.find_image "crc") in
  let allocated f =
    let before = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. before
  in
  let within what bound bytes =
    if bytes > bound then
      Alcotest.failf "%s allocated %.0f KiB, bound %.0f KiB" what (bytes /. 1024.)
        (bound /. 1024.)
  in
  within "prepare + boot_from + run of crc" (256. *. 1024.)
    (allocated (fun () -> expect_all_exit (Kernel.boot_from (Kernel.prepare [ crc ]))));
  within "Cpu.create + load of crc" (16. *. 1024.)
    (allocated (fun () -> Machine.Cpu.load (Machine.Cpu.create ()) crc.words))

let () =
  ignore deep_prog;
  Alcotest.run "kernel"
    [ ("execution",
       [ Alcotest.test_case "single task" `Quick single_task_runs;
         Alcotest.test_case "two tasks isolated" `Quick two_tasks_isolated;
         Alcotest.test_case "function frames" `Quick frames_under_kernel;
         Alcotest.test_case "heap pointer walk" `Quick heap_pointer_walk;
         Alcotest.test_case "recursion" `Quick recursion_under_kernel;
         Alcotest.test_case "icall" `Quick icall_function_pointer;
         Alcotest.test_case "lpm flash data" `Quick lpm_flash_data;
         Alcotest.test_case "getsp logical" `Quick getsp_logical;
         Alcotest.test_case "allocation bounded" `Quick allocation_bounded ]);
      ("protection",
       [ Alcotest.test_case "out of bounds faults" `Quick out_of_bounds_faults;
         Alcotest.test_case "admission failure" `Quick admission_failure ]);
      ("scheduling",
       [ Alcotest.test_case "preemption" `Quick preemption_lets_finite_task_finish;
         Alcotest.test_case "twenty tasks" `Quick twenty_tasks_boot_and_finish ]);
      ("relocation",
       [ Alcotest.test_case "stack grows via relocation" `Quick stack_relocation_grows_stack;
         Alcotest.test_case "logical SP stable" `Quick logical_sp_stable_across_relocation;
         Alcotest.test_case "spawned task grows" `Quick spawned_task_can_grow;
         Alcotest.test_case "overcommit headline" `Quick overcommit_headline;
         Alcotest.test_case "donate up" `Quick relocation_donate_up;
         Alcotest.test_case "donate down" `Quick relocation_donate_down ]
       @ [ QCheck_alcotest.to_alcotest relocation_preserves_invariants ]) ]
