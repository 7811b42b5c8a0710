(* Tests for the MCU simulator: ALU flag semantics, stack/call behaviour,
   cycle accounting, peripherals, and sleep fast-forwarding. *)

open Avr

(* Build a machine preloaded with an instruction sequence. *)
let boot is =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m (Encode.program is);
  m

let run_insns m n = for _ = 1 to n do Machine.Cpu.step m done

let flags m =
  let f b = Machine.Cpu.flag m b in
  (f 0 (* C *), f 1 (* Z *), f 2 (* N *), f 3 (* V *), f 4 (* S *), f 5 (* H *))

let add_flags () =
  let m = boot [ Ldi (16, 0x80); Ldi (17, 0x80); Add (16, 17) ] in
  run_insns m 3;
  Alcotest.(check int) "result" 0x00 m.regs.(16);
  let c, z, n, v, s, _h = flags m in
  Alcotest.(check (list int)) "CZNVS" [ 1; 1; 0; 1; 1 ] [ c; z; n; v; s ]

let add_half_carry () =
  let m = boot [ Ldi (16, 0x0F); Ldi (17, 0x01); Add (16, 17) ] in
  run_insns m 3;
  Alcotest.(check int) "result" 0x10 m.regs.(16);
  let _, _, _, _, _, h = flags m in
  Alcotest.(check int) "H" 1 h

let sub_borrow_chain () =
  (* 16-bit subtraction 0x0100 - 0x0001 = 0x00FF through SUB/SBC. *)
  let m =
    boot [ Ldi (24, 0x00); Ldi (25, 0x01); Ldi (16, 0x01); Ldi (17, 0x00);
           Sub (24, 16); Sbc (25, 17) ]
  in
  run_insns m 6;
  Alcotest.(check int) "lo" 0xFF m.regs.(24);
  Alcotest.(check int) "hi" 0x00 m.regs.(25);
  let c, z, _, _, _, _ = flags m in
  Alcotest.(check int) "C clear" 0 c;
  (* SBC keeps Z clear because the low byte was non-zero. *)
  Alcotest.(check int) "Z clear" 0 z

let sbc_z_propagation () =
  (* 0x0100 - 0x0100 = 0: SBC must leave Z set from the SUB. *)
  let m =
    boot [ Ldi (24, 0x00); Ldi (25, 0x01); Ldi (16, 0x00); Ldi (17, 0x01);
           Sub (24, 16); Sbc (25, 17) ]
  in
  run_insns m 6;
  let _, z, _, _, _, _ = flags m in
  Alcotest.(check int) "Z set" 1 z

let signed_compare () =
  (* -1 (0xFF) < 1 signed: S must be set after CP. *)
  let m = boot [ Ldi (16, 0xFF); Ldi (17, 0x01); Cp (16, 17) ] in
  run_insns m 3;
  let _, _, _, _, s, _ = flags m in
  Alcotest.(check int) "S set (less)" 1 s

let mul_works () =
  let m = boot [ Ldi (16, 200); Ldi (17, 100); Mul (16, 17) ] in
  run_insns m 3;
  Alcotest.(check int) "r1:r0" 20000 (m.regs.(0) lor (m.regs.(1) lsl 8))

let adiw_sbiw () =
  let m = boot [ Ldi (26, 0xFF); Ldi (27, 0x00); Adiw (26, 1); Sbiw (26, 2) ] in
  run_insns m 4;
  Alcotest.(check int) "X" 0x00FE (Machine.Cpu.xreg m)

let push_pop_stack () =
  let m = boot [ Ldi (16, 0xAB); Push 16; Ldi (16, 0); Pop 17 ] in
  let sp0 = m.sp in
  run_insns m 2;
  Alcotest.(check int) "sp after push" (sp0 - 1) m.sp;
  run_insns m 2;
  Alcotest.(check int) "sp restored" sp0 m.sp;
  Alcotest.(check int) "value" 0xAB m.regs.(17)

let call_ret () =
  (* call f; break; f: ldi r16, 7; ret *)
  let is = [ Isa.Call 3; Break; Nop; Ldi (16, 7); Ret ] in
  let m = boot is in
  (match Machine.Cpu.run_native m with
   | Some Break_hit -> ()
   | other -> Alcotest.failf "unexpected stop: %a" Fmt.(option Machine.Cpu.pp_halt) other);
  Alcotest.(check int) "r16" 7 m.regs.(16);
  Alcotest.(check int) "sp balanced" Machine.Layout.initial_sp m.sp

let rcall_ret () =
  let is = [ Isa.Rcall 1; Break; Ldi (16, 9); Ret ] in
  let m = boot is in
  ignore (Machine.Cpu.run_native m);
  Alcotest.(check int) "r16" 9 m.regs.(16)

let ijmp_icall () =
  (* Load Z with the word address of f, icall it. *)
  let is = [ Isa.Ldi (30, 4); Ldi (31, 0); Icall; Break; Ldi (16, 5); Ret ] in
  let m = boot is in
  ignore (Machine.Cpu.run_native m);
  Alcotest.(check int) "r16" 5 m.regs.(16)

let cycle_costs () =
  (* Layout: ldi@0 add@1 ld@2 call@3-4 break@5 ret@6. *)
  let m = boot [ Ldi (16, 1); Add (16, 16); Ld (17, X); Isa.Call 6; Break; Ret ] in
  run_insns m 1;
  Alcotest.(check int) "ldi 1 cycle" 1 m.cycles;
  run_insns m 1;
  Alcotest.(check int) "add 1 cycle" 2 m.cycles;
  run_insns m 1;
  Alcotest.(check int) "ld 2 cycles" 4 m.cycles;
  run_insns m 1;
  Alcotest.(check int) "call 4 cycles" 8 m.cycles;
  run_insns m 1;
  Alcotest.(check int) "ret 4 cycles" 12 m.cycles

let branch_cycles () =
  let m = boot [ Ldi (16, 0); Cpi (16, 0); Brbs (1, 1); Nop; Break ] in
  run_insns m 3;
  (* ldi(1) + cpi(1) + taken branch(2). *)
  Alcotest.(check int) "taken branch costs 2" 4 m.cycles

let data_memory () =
  let m = boot [ Isa.Ldi (16, 0x5A); Sts (0x0200, 16); Lds (17, 0x0200) ] in
  run_insns m 3;
  Alcotest.(check int) "r17" 0x5A m.regs.(17);
  Alcotest.(check int) "mem" 0x5A (Machine.Cpu.read8 m 0x0200)

let sp_via_io () =
  let m = boot [ Isa.Ldi (16, 0x34); Out (Machine.Io.spl, 16);
                 Ldi (16, 0x02); Out (Machine.Io.sph, 16);
                 In (17, Machine.Io.spl); In (18, Machine.Io.sph) ] in
  run_insns m 6;
  Alcotest.(check int) "sp" 0x0234 m.sp;
  Alcotest.(check int) "spl read" 0x34 m.regs.(17);
  Alcotest.(check int) "sph read" 0x02 m.regs.(18)

let timer3_advances () =
  let m = boot [ Isa.In (16, Machine.Io.tcnt3l) ] in
  m.cycles <- 800;
  run_insns m 1;
  Alcotest.(check int) "tcnt3l = cycles/8" ((801 / 8) land 0xFF) m.regs.(16)

let adc_conversion () =
  let m = Machine.Cpu.create () in
  let io = m.io in
  Machine.Io.write io ~cycles:0 Machine.Io.adcsra (Machine.Io.aden_bit lor Machine.Io.adsc_bit);
  let busy = Machine.Io.read io ~cycles:10 Machine.Io.adcsra in
  Alcotest.(check bool) "converting" true (busy land Machine.Io.adsc_bit <> 0);
  let done_ = Machine.Io.read io ~cycles:(Machine.Io.adc_conversion_cycles + 1) Machine.Io.adcsra in
  Alcotest.(check bool) "done" true (done_ land Machine.Io.adsc_bit = 0);
  let v = Machine.Io.read io ~cycles:2000 Machine.Io.adcl
          lor (Machine.Io.read io ~cycles:2000 Machine.Io.adch lsl 8) in
  Alcotest.(check bool) "10-bit sample" true (v >= 0 && v < 1024)

let radio_tx () =
  let io = Machine.Io.create () in
  Machine.Io.write io ~cycles:0 Machine.Io.radio_data 0x42;
  Alcotest.(check int) "one byte sent" 1 io.radio_tx_count;
  (* Busy until the byte time elapses; a second write during busy is dropped. *)
  Machine.Io.write io ~cycles:10 Machine.Io.radio_data 0x43;
  Alcotest.(check int) "still one byte" 1 io.radio_tx_count;
  let st = Machine.Io.read io ~cycles:(Machine.Io.radio_byte_cycles + 1) Machine.Io.radio_status in
  Alcotest.(check bool) "tx ready again" true (st land Machine.Io.tx_ready_bit <> 0)

let radio_rx () =
  let io = Machine.Io.create () in
  Machine.Io.inject_rx io ~cycles:0 ~after:100 0x99;
  let st0 = Machine.Io.read io ~cycles:50 Machine.Io.radio_status in
  Alcotest.(check int) "not yet" 0 (st0 land Machine.Io.rx_avail_bit);
  let st1 = Machine.Io.read io ~cycles:150 Machine.Io.radio_status in
  Alcotest.(check bool) "avail" true (st1 land Machine.Io.rx_avail_bit <> 0);
  Alcotest.(check int) "byte" 0x99 (Machine.Io.read io ~cycles:150 Machine.Io.radio_data)

(* Regression: a 16-bit timer read spanning a high-byte increment must
   not tear.  Reading TCNT3L latches the high byte (AVR TEMP register);
   TCNT3H returns the latch even if the counter moved in between. *)
let timer3_read_no_tear () =
  let io = Machine.Io.create () in
  let p = Machine.Io.timer3_prescale in
  let c1 = 0x12FF * p in
  let lo = Machine.Io.read io ~cycles:c1 Machine.Io.tcnt3l in
  (* Two ticks later the counter is 0x1301; an unlatched high read would
     compose the impossible value 0x13FF. *)
  let hi = Machine.Io.read io ~cycles:(c1 + (2 * p)) Machine.Io.tcnt3h in
  Alcotest.(check int) "latched 16-bit read" 0x12FF ((hi lsl 8) lor lo)

(* Regression: same latch discipline for the ADC data register pair. *)
let adc_read_no_tear () =
  let io = Machine.Io.create () in
  io.adc_value <- 0x2FF;
  let lo = Machine.Io.read io ~cycles:0 Machine.Io.adcl in
  (* A new conversion lands between the two reads. *)
  io.adc_value <- 0x100;
  let hi = Machine.Io.read io ~cycles:0 Machine.Io.adch in
  Alcotest.(check int) "latched sample" 0x2FF ((hi lsl 8) lor lo)

(* Regression: patching only the operand word of a 2-word instruction
   must invalidate the decode cache entry of its opcode word too. *)
let load_invalidates_two_word_decode () =
  let m = Machine.Cpu.create () in
  (* ldi@0, sts@1-2 (opcode word 1, address operand word 2), break@3. *)
  Machine.Cpu.load m (Encode.program [ Ldi (16, 0x5A); Sts (0x0200, 16); Break ]);
  ignore (Machine.Cpu.run_native m);
  Alcotest.(check int) "first run wrote 0x0200" 0x5A (Machine.Cpu.read8 m 0x0200);
  (* Overwrite just the operand word: the STS now targets 0x0300. *)
  Machine.Cpu.load ~at:2 m [| 0x0300 |];
  m.pc <- 0;
  m.halted <- None;
  ignore (Machine.Cpu.run_native m);
  Alcotest.(check int) "patched run wrote 0x0300" 0x5A
    (Machine.Cpu.read8 m 0x0300)

(* Regression: run_native with a stale preemption horizon (below the
   current clock) must clear it rather than spin forever. *)
let run_native_clears_stale_horizon () =
  let m = boot [ Isa.Nop; Break ] in
  m.preempt_at <- 1;
  (match Machine.Cpu.run_native ~max_cycles:10_000 m with
   | Some Break_hit -> ()
   | other ->
     Alcotest.failf "unexpected stop: %a"
       Fmt.(option Machine.Cpu.pp_halt) other);
  Alcotest.(check bool) "horizon cleared" true (m.preempt_at = max_int)

(* The new access counters tick on data-space and I/O traffic. *)
let access_counters_tick () =
  let m = boot [ Isa.Ldi (16, 0x11); Sts (0x0200, 16); Lds (17, 0x0200);
                 Out (Machine.Io.spl, 16); In (18, Machine.Io.spl) ] in
  run_insns m 5;
  Alcotest.(check int) "mem writes" 2 m.mem_writes;
  Alcotest.(check int) "mem reads" 2 m.mem_reads;
  Alcotest.(check int) "io writes" 1 m.io_writes;
  Alcotest.(check int) "io reads" 1 m.io_reads

let sleep_fast_forward () =
  (* SLEEP should skip ahead to the next timer0 overflow and count the
     gap as idle. *)
  let m = boot [ Isa.Sleep; Break ] in
  (match Machine.Cpu.run_native m with
   | Some Break_hit -> ()
   | _ -> Alcotest.fail "expected break");
  Alcotest.(check bool) "idle accounted" true (m.idle_cycles > 0);
  Alcotest.(check bool) "woke at overflow" true
    (m.cycles >= Machine.Io.timer0_overflow_period)

let invalid_opcode_halts () =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m [| 0xFF00 |] (* reserved, not our syscall pattern *);
  (match Machine.Cpu.run ~max_cycles:100 m with
   | Halted (Invalid_opcode _) -> ()
   | s -> Alcotest.failf "unexpected: %a" Machine.Cpu.pp_stop s)

let syscall_dispatch () =
  let m = boot [ Isa.Syscall 42; Break ] in
  let seen = ref (-1) in
  m.on_syscall <- Some (fun _ k -> seen := k);
  ignore (Machine.Cpu.run_native m);
  Alcotest.(check int) "syscall arg" 42 !seen

let lpm_reads_flash () =
  let m = Machine.Cpu.create () in
  (* Word 5 = 0xBEEF; LPM with byte address 10 (low) then 11 (high). *)
  let code = Encode.program
      [ Ldi (30, 10); Ldi (31, 0); Lpm (16, true); Lpm (17, false); Break ] in
  Machine.Cpu.load m code;
  (* through [load], the only flash-write path *)
  Machine.Cpu.load ~at:5 m [| 0xBEEF |];
  ignore (Machine.Cpu.run_native m);
  Alcotest.(check int) "low byte" 0xEF m.regs.(16);
  Alcotest.(check int) "high byte" 0xBE m.regs.(17)

let preemption_horizon () =
  (* An infinite loop must stop at the preempt horizon. *)
  let m = boot [ Isa.Rjmp (-1) ] in
  m.preempt_at <- 1000;
  (match Machine.Cpu.run m with
   | Preempted -> ()
   | s -> Alcotest.failf "unexpected: %a" Machine.Cpu.pp_stop s);
  Alcotest.(check bool) "cycles past horizon" true (m.cycles >= 1000)

(* Independent oracle for the arithmetic flag semantics: random operand
   pairs for ADC/SBC checked against a bit-level OCaml model transcribed
   from the datasheet equations. *)
let model_add a b cin =
  let sum = a + b + cin in
  let res = sum land 0xFF in
  let h = (a land 0xF) + (b land 0xF) + cin > 0xF in
  let c = sum > 0xFF in
  let v = (a lxor res) land (b lxor res) land 0x80 <> 0 in
  let n = res land 0x80 <> 0 in
  (res, h, c, v, n, res = 0)

let model_sub a b cin =
  let diff = a - b - cin in
  let res = diff land 0xFF in
  let h = (a land 0xF) - (b land 0xF) - cin < 0 in
  let c = diff < 0 in
  let v = (a lxor b) land (a lxor res) land 0x80 <> 0 in
  let n = res land 0x80 <> 0 in
  (res, h, c, v, n, res = 0)

let prop_alu_flags =
  QCheck.Test.make ~name:"ALU flags match the datasheet model" ~count:3000
    QCheck.(quad (int_range 0 255) (int_range 0 255) bool bool)
    (fun (a, b, carry_in, is_sub) ->
      let m = boot [ (if is_sub then Isa.Sbc (16, 17) else Isa.Adc (16, 17)) ] in
      m.regs.(16) <- a;
      m.regs.(17) <- b;
      Machine.Cpu.set_flag m 0 carry_in;
      (* SBC's Z only stays set if the prior Z was set; seed it set. *)
      Machine.Cpu.set_flag m 1 true;
      Machine.Cpu.step m;
      let cin = if carry_in then 1 else 0 in
      let res, h, c, v, n, z =
        if is_sub then model_sub a b cin else model_add a b cin
      in
      m.regs.(16) = res
      && (Machine.Cpu.flag m 5 = 1) = h
      && (Machine.Cpu.flag m 0 = 1) = c
      && (Machine.Cpu.flag m 3 = 1) = v
      && (Machine.Cpu.flag m 2 = 1) = n
      && (Machine.Cpu.flag m 1 = 1) = z)

let prop_inc_dec_roundtrip =
  QCheck.Test.make ~name:"inc then dec is identity (no C clobber)" ~count:500
    QCheck.(pair (int_range 0 255) bool)
    (fun (a, carry) ->
      let m = boot [ Isa.Inc 16; Dec 16 ] in
      m.regs.(16) <- a;
      Machine.Cpu.set_flag m 0 carry;
      run_insns m 2;
      m.regs.(16) = a && (Machine.Cpu.flag m 0 = 1) = carry)


(* --- Tier-1 block-cache / decode-cache invalidation and load bounds --- *)

let flash_overflow_rejected () =
  let m = Machine.Cpu.create () in
  let img = Array.make 8 0 in
  (match Machine.Cpu.load ~at:(Machine.Layout.flash_words - 4) m img with
   | () -> Alcotest.fail "oversized load accepted"
   | exception Machine.Cpu.Flash_overflow { at; words } ->
     Alcotest.(check int) "at" (Machine.Layout.flash_words - 4) at;
     Alcotest.(check int) "words" 8 words);
  match Machine.Cpu.load ~at:(-1) m img with
  | () -> Alcotest.fail "negative load address accepted"
  | exception Machine.Cpu.Flash_overflow _ -> ()

(* Reloading flash over already-executed (and therefore block-compiled)
   code must be observed by the next run — in both tiers. *)
let reload_invalidates_blocks tier () =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m
    (Encode.program [ Ldi (16, 5); Isa.Dec 16; Brbc (1, -2); Break ]);
  (match Machine.Cpu.run ~tier m with
   | Halted Break_hit -> ()
   | s -> Alcotest.failf "first run: %a" Machine.Cpu.pp_stop s);
  Alcotest.(check int) "loop ran" 0 m.regs.(16);
  (* Patch the whole program in place; stale blocks would still run the
     old loop (or fall through at the old BREAK). *)
  Machine.Cpu.load m (Encode.program [ Ldi (16, 42); Break ]);
  m.halted <- None;
  m.pc <- 0;
  (match Machine.Cpu.run ~tier m with
   | Halted Break_hit -> ()
   | s -> Alcotest.failf "second run: %a" Machine.Cpu.pp_stop s);
  Alcotest.(check int) "patched code ran" 42 m.regs.(16)

(* The kernel's trampoline patching in miniature: a syscall handler
   rewrites a function body that was already executed and compiled, on
   the very machine it is running on.  The second call must execute the
   new code — in every tier, with identical final state.  Tier-2 leaves
   the SYSCALL to the host, so its handler runs through the same path;
   at threshold 0 (as in test_tiers) the image compiles before it runs. *)
let syscall_patches_code tier () =
  Machine.Aot.set_threshold 0;
  let f_addr = 6 in
  (* start: rcall f; syscall 0; rcall f; break;  f: ldi r17 1; ret *)
  let code =
    [ Isa.Rcall 5; Isa.Syscall 0; Isa.Rcall 3; Isa.Nop; Isa.Nop; Break;
      (* f at word 6: *) Ldi (17, 1); Isa.Ret ]
  in
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m (Encode.program code);
  m.on_syscall <-
    Some
      (fun m _ ->
        Machine.Cpu.load ~at:f_addr m (Encode.program [ Ldi (17, 99); Isa.Ret ]));
  (match Machine.Cpu.run ~tier m with
   | Halted Break_hit -> ()
   | s -> Alcotest.failf "run: %a" Machine.Cpu.pp_stop s);
  Alcotest.(check int) "second call saw patched body" 99 m.regs.(17)

(* Every architectural field a run can change, as one comparable value. *)
let arch_state (m : Machine.Cpu.t) =
  ( (Array.to_list m.regs, m.pc, m.sp, m.sreg),
    (m.cycles, m.insns, m.mem_reads, m.mem_writes),
    Bytes.to_string m.sram )

(* Load each [(at, code)] of [loads], then run to BREAK at [tier] with
   [on_syscall] as the handler. *)
let run_loaded tier loads ~on_syscall =
  let m = Machine.Cpu.create () in
  List.iter (fun (at, code) -> Machine.Cpu.load ~at m (Encode.program code)) loads;
  m.on_syscall <- Some on_syscall;
  (match Machine.Cpu.run ~tier m with
   | Halted Break_hit -> ()
   | s -> Alcotest.failf "tier %d run: %a" tier Machine.Cpu.pp_stop s);
  m

(* --- Tier-1 polling-loop summaries ------------------------------------ *)

(* Everything a run can change, the peripherals included. *)
let full_state (m : Machine.Cpu.t) =
  let io = m.io in
  ( arch_state m,
    (m.io_reads, m.io_writes, m.halted, m.idle_cycles),
    ( (io.adc_enabled, io.adc_start, io.adc_value, io.adc_seq, io.temp),
      (io.tov0_epoch, io.radio_busy_until, io.radio_rx, io.radio_tx_count),
      List.of_seq (Queue.to_seq io.radio_tx) ) )

(* A bare-metal program: [body] then BREAK, then [tail]; SP starts at
   the top of SRAM unless [sp] is false. *)
let poll_program ?(sp = true) ?(tail = []) body =
  let open Asm.Macros in
  Asm.Assembler.assemble
    (Asm.Ast.program "poll"
       ~data:
         [ { dname = "cnt"; size = 1; init = [] };
           { dname = "traps"; size = 1; init = [] } ]
       ((lbl "start" :: (if sp then sp_init else [])) @ body @ [ break ] @ tail))

(* Run [words] from reset at [tier], after [setup]. *)
let run_words ?(setup = ignore) ?max_cycles tier words =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m words;
  setup m;
  let stop = Machine.Cpu.run ~tier ?max_cycles m in
  (m, stop)

(* Run [words] at tier 0 and at tier 1, check that they stop alike in
   the same state, and return the iterations tier-1 skipped and its
   bails by reason. *)
let summarized ?setup ?max_cycles words =
  let m0, stop0 = run_words ?setup ?max_cycles 0 words in
  let before = Machine.Block.stats () in
  let m1, stop1 = run_words ?setup ?max_cycles 1 words in
  let after = Machine.Block.stats () in
  let pp = Fmt.str "%a" Machine.Cpu.pp_stop in
  Alcotest.(check string) "tier-1 stop = tier-0" (pp stop0) (pp stop1);
  Alcotest.(check bool) "tier-1 state = tier-0" true (full_state m0 = full_state m1);
  ( after.skipped - before.skipped,
    List.map2 (fun (k, a) (_, b) -> (k, b - a)) before.bails after.bails )

let adc_poll =
  let open Asm.Macros in
  [ ldi 16 (Machine.Io.aden_bit lor Machine.Io.adsc_bit);
    out Machine.Io.adcsra 16; lbl "w"; in_ 16 Machine.Io.adcsra;
    andi 16 Machine.Io.adsc_bit; brne "w"; in_ 24 Machine.Io.adcl;
    in_ 25 Machine.Io.adch ]

(* The loop ends when the conversion does: the last skipped read comes
   before the read that latches the sample. *)
let adc_completes_mid_window () =
  let skipped, _ = summarized (poll_program adc_poll).words in
  Alcotest.(check bool) "iterations skipped" true (skipped > 0)

(* An RX byte lands while the loop polls the radio status. *)
let rx_arrives_mid_window () =
  let open Asm.Macros in
  let prog =
    poll_program
      [ lbl "w"; in_ 16 Machine.Io.radio_status;
        andi 16 Machine.Io.rx_avail_bit; breq "w";
        in_ 17 Machine.Io.radio_data ]
  in
  let setup (m : Machine.Cpu.t) =
    Machine.Io.inject_rx m.io ~cycles:0 ~after:5000 0x5A
  in
  let skipped, _ = summarized ~setup prog.words in
  Alcotest.(check bool) "iterations skipped" true (skipped > 0)

(* A Timer0-overflow poll in SenSmart's shape: the loop branch goes to
   a call of the counter-service-shaped countdown [routine], which
   decrements [cnt] (starting at [start]) and counts its zeros in
   [traps]; ~8700 iterations, so the countdown wraps many times. *)
let countdown_poll ?sp ?(routine = Gen.Service) start =
  let open Asm.Macros in
  poll_program ?sp
    ~tail:(Gen.countdown_routine routine "svc")
    [ ldi 16 start; sts "cnt" 16; ldi 16 1; out Machine.Io.tifr 16; lbl "w";
      in_ 16 Machine.Io.tifr; andi 16 1; breq "again"; rjmp "done";
      lbl "again"; call "svc"; rjmp "w"; lbl "done" ]

let countdown_starts start () =
  let skipped, _ = summarized (countdown_poll start).words in
  Alcotest.(check bool) "iterations skipped" true (skipped > 0)

(* Fuel or a preemption horizon inside a skipped stretch: both tiers
   stop on the same cycle in the same state, and resume alike. *)
let horizon_in_window () =
  let words = (countdown_poll 0).words in
  List.iter
    (fun (fuel, preempt) ->
      let setup (m : Machine.Cpu.t) = m.preempt_at <- preempt in
      let skipped, _ = summarized ~setup ~max_cycles:fuel words in
      Alcotest.(check bool) "iterations skipped" true (skipped > 0);
      let resume tier =
        let m, _ = run_words ~setup ~max_cycles:fuel tier words in
        m.preempt_at <- max_int;
        ignore (Machine.Cpu.run ~tier m);
        full_state m
      in
      Alcotest.(check bool) "resumed alike" true (resume 0 = resume 1))
    [ (100_003, max_int); (max_int, 150_001); (200_000, 123_457) ]

(* Every reason tier-1 declines to summarize a loop, each on a loop
   that shows it; the state always matches tier-0. *)
let bails_by_reason () =
  let open Asm.Macros in
  let tifr_poll extra =
    poll_program
      ([ ldi 16 1; out Machine.Io.tifr 16 ] @ ldi_data 26 27 "traps" 0
      @ (lbl "w" :: extra) @ [ in_ 16 Machine.Io.tifr; andi 16 1; breq "w" ])
  in
  let expect what ?setup ?(skips = false) reason (prog : Asm.Image.t) =
    let skipped, bails = summarized ?setup prog.words in
    Alcotest.(check bool) (what ^ ": bails for " ^ reason) true
      (List.assoc reason bails > 0);
    if not skips then Alcotest.(check int) (what ^ ": nothing skipped") 0 skipped
  in
  expect "carried register" "unequal" (tifr_poll [ inc 20 ]);
  (* From 4: the first iteration runs before the loop's block
     compiles, and the block's second back edge leaves [cnt] at 1, so
     the next iteration takes the zero test. *)
  expect "countdown about to reach zero" ~skips:true "exit" (countdown_poll 4);
  expect "side-effect read" "io" (tifr_poll [ in_ 17 Machine.Io.adcl ]);
  expect "pointer store" "memory" (tifr_poll [ st Avr.Isa.X 17 ]);
  expect "I/O write" "memory" (tifr_poll [ out Machine.Io.tccr0 17 ]);
  expect "pop above the entry SP" "stack" (tifr_poll [ pop 17; push 17 ]);
  expect "countdown compared with a constant" "carried"
    (countdown_poll ~routine:(Gen.Compare 3) 0);
  expect "flags leak past the zero test" "carried"
    (countdown_poll ~routine:Gen.Leak 0);
  (* SP two bytes above [cnt]: the service's pushes land on it. *)
  let prog = countdown_poll ~sp:false 0 in
  let cnt =
    match Asm.Image.find_symbol prog "cnt" with
    | Some (Data a) -> a
    | _ -> Alcotest.fail "no cnt"
  in
  let setup (m : Machine.Cpu.t) = m.sp <- cnt + 2 in
  expect "stack over a carried cell" ~setup "stack-window" prog;
  (* Fuel at every cycle of the first iterations: some runs run out just
     after the first equal back edge, with no room for one more. *)
  let words = (poll_program adc_poll).words in
  let horizon = ref 0 in
  for fuel = 20 to 80 do
    let _, bails = summarized ~max_cycles:fuel words in
    horizon := !horizon + List.assoc "horizon" bails
  done;
  Alcotest.(check bool) "horizon bails" true (!horizon > 0)

(* Tier-1 blocks follow direct jumps and calls, so a block covers the
   code it reaches far from its entry.  A loop calls (or jumps to and
   back from) [f] 0x200 words away; by the third pass the loop head's
   block holds [f]'s body, and the second SYSCALL has patched it.  The
   third pass must run the patch: a load drops every block, not only
   those entered near the written words. *)
let far_patch_seen via_call () =
  let f = 0x200 in
  (* 0: ldi r18 3; 1: call/jmp f; 3: add r20 r17; 4: syscall 0;
     5: dec r18; 6: brne 1; 7: break *)
  let main =
    [ Isa.Ldi (18, 3); (if via_call then Isa.Call f else Isa.Jmp f);
      Add (20, 17); Syscall 0; Dec 18; Brbc (1, -6); Break ]
  in
  let far = [ Isa.Ldi (17, 1); (if via_call then Isa.Ret else Isa.Jmp 3) ] in
  let run tier =
    let n = ref 0 in
    run_loaded tier [ (0, main); (f, far) ] ~on_syscall:(fun m _ ->
        incr n;
        if !n = 2 then Machine.Cpu.load ~at:f m (Encode.program [ Ldi (17, 99) ]))
  in
  let m0 = run 0 and m1 = run 1 in
  Alcotest.(check int) "tier-0 saw the patch once" (1 + 1 + 99) m0.regs.(20);
  Alcotest.(check int) "tier-1 r20" m0.regs.(20) m1.regs.(20);
  Alcotest.(check bool) "tier-1 state = tier-0" true (arch_state m0 = arch_state m1)

(* A word inside a hot loop body, not a block entry, patched after the
   loop ran at tier 1: the next pass must run the new instruction, not
   the op the old one left in the decode cache.  On a shared image the
   load detaches the patched mote first, and an unpatched sibling keeps
   running the old instruction. *)
let body_word_patched shared () =
  (* 0: ldi r16 4; 1: nop; 2: inc r17; 3: dec r16; 4: brne 1; 5: break *)
  let prog = Encode.program [ Isa.Ldi (16, 4); Nop; Inc 17; Dec 16; Brbc (1, -4); Break ] in
  let pass (m : Machine.Cpu.t) =
    m.halted <- None;
    m.pc <- 0;
    match Machine.Cpu.run ~tier:1 m with
    | Halted Break_hit -> ()
    | s -> Alcotest.failf "run: %a" Machine.Cpu.pp_stop s
  in
  let boot () =
    if shared then
      Machine.Cpu.create_shared
        (Machine.Cpu.image_of (Machine.Cpu.canonical_init 6 (Array.get prog)))
    else Machine.Cpu.create ~flash:prog ()
  in
  let m = boot () in
  let sibling = if shared then Machine.Cpu.create_shared m.image else boot () in
  pass m;
  pass sibling;
  Alcotest.(check bool) "loop compiled" true (m.blocks.(0).(1) <> None);
  Alcotest.(check bool) "one block table" shared (m.blocks == sibling.blocks);
  Machine.Cpu.load ~at:2 m (Encode.program [ Isa.Inc 18 ]);
  pass m;
  pass sibling;
  Alcotest.(check (pair int int)) "patched r17, r18" (4, 4) (m.regs.(17), m.regs.(18));
  Alcotest.(check (pair int int)) "sibling r17, r18" (8, 0)
    (sibling.regs.(17), sibling.regs.(18))

(* A callee that replaces its return address: pops the pushed one and
   pushes word 3, skipping the [inc r21] after the call.  The loop's
   block follows the RET to the pushed address, so its guard must see
   the other one and leave the block where the stack says. *)
let callee_redirects_return () =
  (* 0: ldi r18 3; 1: rcall f; 2: inc r21; 3: inc r20; 4: dec r18;
     5: brne 1; 6: break;  f at 7 *)
  let main =
    [ Isa.Ldi (18, 3); Rcall 5; Inc 21; Inc 20; Dec 18; Brbc (1, -5); Break;
      Pop 0; Pop 1; Ldi (30, 3); Ldi (31, 0); Push 30; Push 31; Ret ]
  in
  let run tier = run_loaded tier [ (0, main) ] ~on_syscall:(fun _ _ -> ()) in
  let m0 = run 0 and m1 = run 1 in
  Alcotest.(check (pair int int)) "tier-0 r20, r21" (3, 0) (m0.regs.(20), m0.regs.(21));
  Alcotest.(check bool) "tier-1 state = tier-0" true (arch_state m0 = arch_state m1)

(* A hook that appears mid-run: the syscall handler installs a counting
   trace hook at the first SYSCALL and removes it at the third.  Every
   tier's run loop must step, and count, exactly the instructions from
   the first SYSCALL's successor to the third SYSCALL, and resume its
   own engine around them: tier 1 its blocks, tier 2 its compiled
   code. *)
let hook_mid_run () =
  Machine.Aot.set_threshold 0;
  (* 0: ldi r16 5; 1: ldi r17 200; 2: dec r17; 3: brne 2; 4: syscall 1;
     5: dec r16; 6: brne 1; 7: break *)
  let main =
    [ Isa.Ldi (16, 5); Ldi (17, 200); Dec 17; Brbc (1, -2); Syscall 1; Dec 16;
      Brbc (1, -6); Break ]
  in
  let run tier =
    let calls = ref 0 and hooked = ref 0 in
    let m =
      run_loaded tier [ (0, main) ] ~on_syscall:(fun m _ ->
          incr calls;
          if !calls = 1 then m.trace <- Some (fun _ _ -> incr hooked)
          else if !calls = 3 then m.trace <- None)
    in
    (!hooked, arch_state m)
  in
  let hooked0, m0 = run 0 in
  (* dec, brne; ldi, 200 x (dec, brne), syscall; twice *)
  Alcotest.(check int) "tier-0 hooked" 808 hooked0;
  List.iter
    (fun tier ->
      let t2_insns = (Machine.Aot.stats ()).t2_insns in
      let hooked, m = run tier in
      Alcotest.(check int) (Printf.sprintf "tier-%d hooked" tier) hooked0 hooked;
      Alcotest.(check bool) (Printf.sprintf "tier-%d state = tier-0" tier) true (m = m0);
      let s = Machine.Aot.stats () in
      if tier = 2 && s.disabled = None then
        Alcotest.(check bool) "tier-2 ran compiled code" true (s.t2_insns > t2_insns))
    [ 1; 2 ]

(* The same redirect inside a loop that tier-1 summarizes: the callee
   returns past the [inc r21] to an ADC poll loop.  The block at the
   RCALL follows the RET to the pushed address, so its guard sees the
   other address and leaves the block there. *)
let ret_guard_mismatch () =
  (* 0: ldi r18 3; 1: rcall f; 2: inc r21; 3: ldi r16 0xC0;
     4: out ADCSRA r16; 5: in r16 ADCSRA; 6: andi r16 0x40; 7: brne 5;
     8: inc r20; 9: dec r18; 10: brne 1; 11: break;  f at 12 *)
  let main =
    [ Isa.Ldi (18, 3); Rcall 10; Inc 21; Ldi (16, 0xC0);
      Out (Machine.Io.adcsra, 16); In (16, Machine.Io.adcsra); Andi (16, 0x40);
      Brbc (1, -3); Inc 20; Dec 18; Brbc (1, -10); Break;
      Pop 0; Pop 1; Ldi (30, 3); Ldi (31, 0); Push 30; Push 31; Ret ]
  in
  let skipped, _ = summarized (Encode.program main) in
  Alcotest.(check bool) "iterations skipped" true (skipped > 0)

(* --- Tier-1 ops against tier-0 steps ----------------------------------- *)

(* Tier 1 runs each instruction through an op of its own
   ({!Machine.Block.op_of}), not through tier 0's dispatch, so every
   instruction a block body or terminator can hold is checked against
   tier 0 from random state.  The instruction sits at word [op_at]
   among BREAKs, so its block is its op and a BREAK terminator (a call
   or jump is followed into a BREAK), or the terminator alone. *)
let op_at = 0x100

(* Data addresses of each class the primitives tell apart: SREG, SPL,
   SPH, a peripheral register, other I/O, SRAM, and past the data
   space. *)
let gen_addr =
  QCheck.Gen.(
    oneof
      [ oneofl [ 0x5F; 0x5D; 0x5E ]; int_range 0x20 0x5F;
        oneof [ int_range 0 0x1F; int_range 0x60 0xFF ]; int_range 0x100 0x10FF;
        int_range 0x1100 0xFFFF ])

let gen_op =
  let open QCheck.Gen in
  let reg = int_range 0 31 and hi = int_range 16 31 and byte = int_range 0 255 in
  let even = map (fun r -> 2 * r) (int_range 0 15) and bit = int_range 0 7 in
  let rel = int_range (-64) 63 and q = int_range 0 63 in
  (* SREG, SPL and SPH half the time *)
  let io = oneof [ oneofl [ 0x3F; 0x3D; 0x3E ]; int_range 0 63 ] in
  let ptr = oneofl Isa.[ X; X_inc; X_dec; Y_inc; Y_dec; Z_inc; Z_dec ] in
  let base = oneofl Isa.[ Ybase; Zbase ] in
  let one fs arg = map2 (fun f x -> f x) (oneofl fs) arg in
  let two fs a b = map3 (fun f x y -> f x y) (oneofl fs) a b in
  oneof
    [ oneofl Isa.[ Nop; Wdr; Ijmp; Icall; Ret; Reti; Sleep; Break ];
      map2 (fun d r -> Isa.Movw (d, r)) even even;
      two
        Isa.
          [ (fun d r -> Add (d, r)); (fun d r -> Adc (d, r)); (fun d r -> Sub (d, r));
            (fun d r -> Sbc (d, r)); (fun d r -> And (d, r)); (fun d r -> Or (d, r));
            (fun d r -> Eor (d, r)); (fun d r -> Mov (d, r)); (fun d r -> Cp (d, r));
            (fun d r -> Cpc (d, r)); (fun d r -> Mul (d, r)) ]
        reg reg;
      two
        Isa.
          [ (fun d k -> Cpi (d, k)); (fun d k -> Sbci (d, k)); (fun d k -> Subi (d, k));
            (fun d k -> Ori (d, k)); (fun d k -> Andi (d, k)); (fun d k -> Ldi (d, k)) ]
        hi byte;
      two Isa.[ (fun d k -> Adiw (d, k)); (fun d k -> Sbiw (d, k)) ]
        (oneofl [ 24; 26; 28; 30 ]) q;
      one
        Isa.
          [ (fun d -> Com d); (fun d -> Neg d); (fun d -> Swap d); (fun d -> Inc d);
            (fun d -> Dec d); (fun d -> Asr d); (fun d -> Lsr d); (fun d -> Ror d);
            (fun d -> Push d); (fun d -> Pop d) ]
        reg;
      map2 (fun d p -> Isa.Ld (d, p)) reg ptr;
      map2 (fun p r -> Isa.St (p, r)) ptr reg;
      map3 (fun d b k -> Isa.Ldd (d, b, k)) reg base q;
      map3 (fun b k r -> Isa.Std (b, k, r)) base q reg;
      map2 (fun d a -> Isa.Lds (d, a)) reg gen_addr;
      map2 (fun a r -> Isa.Sts (a, r)) gen_addr reg;
      map2 (fun d inc -> Isa.Lpm (d, inc)) reg bool;
      map2 (fun d a -> Isa.In (d, a)) reg io;
      map2 (fun a r -> Isa.Out (a, r)) io reg;
      one Isa.[ (fun k -> Rjmp k); (fun k -> Rcall k) ] rel;
      one Isa.[ (fun a -> Jmp a); (fun a -> Call a) ] (int_range 0 0x1FF);
      two Isa.[ (fun s k -> Brbs (s, k)); (fun s k -> Brbc (s, k)) ] bit rel;
      one Isa.[ (fun s -> Bset s); (fun s -> Bclr s) ] bit;
      map (fun k -> Isa.Syscall k) (int_range 0 127) ]

(* An instruction, SP (the bottom and top of SRAM, wrapping either way,
   or anywhere), X, Y and Z, and the seed of the other state. *)
let arb_op =
  QCheck.make
    ~print:(fun (insn, sp, (x, y, z), seed) ->
      Printf.sprintf "%s sp=%04x x=%04x y=%04x z=%04x seed=%d" (Isa.show insn) sp x y
        z seed)
    QCheck.Gen.(
      quad gen_op
        (oneof [ oneofl [ 0x100; 0x10FF; 0; 0xFFFF ]; int_range 0 0xFFFF ])
        (triple gen_addr gen_addr gen_addr) int)

let op_machine (insn, sp, (x, y, z), seed) =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m (Encode.program (List.init 0x200 (fun _ -> Isa.Break)));
  Machine.Cpu.load ~at:op_at m (Encode.program [ insn ]);
  let rs = Random.State.make [| seed |] in
  Array.iteri (fun r _ -> m.regs.(r) <- Random.State.int rs 256) m.regs;
  Bytes.iteri (fun a _ -> Bytes.set m.sram a (Char.chr (Random.State.int rs 256))) m.sram;
  List.iteri
    (fun k p -> m.regs.(26 + (2 * k)) <- p land 0xFF; m.regs.(27 + (2 * k)) <- p lsr 8)
    [ x; y; z ];
  m.sreg <- Random.State.int rs 256;
  m.cycles <- Random.State.int rs 1_000_000;
  m.sp <- sp;
  m.pc <- op_at;
  m

(* Both runs stop on a small fuel budget: a RET, IJMP or jump may land
   anywhere, the instruction itself included. *)
let prop_tier1_ops =
  QCheck.Test.make ~name:"tier-1 op = tier-0 step" ~count:3000 arb_op (fun case ->
      let m0 = op_machine case and m1 = op_machine case in
      let max_cycles = m0.cycles + 64 in
      let s0 = Machine.Cpu.run ~tier:0 ~max_cycles m0 in
      ignore (Machine.Block.compile m1 op_at);
      let s1 = Machine.Cpu.run ~tier:1 ~max_cycles m1 in
      s0 = s1 && (full_state m0, m0.sleeping) = (full_state m1, m1.sleeping))

(* --- Tier-2 translator output pinned ----------------------------------- *)

(* MD5 of the generated OCaml for every registry program and every
   fixture firmware image.  The translator's output is a pure function
   of the flash image and salts the on-disk artifact digest only through
   [Aot.generator_version]: a change to the shared superblock former
   (or the emitter) that alters generated code without bumping the
   version would otherwise load stale cached artifacts silently. *)
let pinned_translations =
  [ ("am", "b49b08a7c2e37ea44c18a79d7935c050");
    ("amplitude", "82356ee414280d0941208be93feb106c");
    ("crc", "0ba6b5b594b6d162541d786b73c1d29d");
    ("eventchain", "a6474ff01725ee16a0000f35ebacbbf3");
    ("lfsr", "6a68d08fb9f496810eda3a30b221e6fe");
    ("readadc", "6f1e7f035df30366ee8646154688fd95");
    ("timer", "2eb65c2060ed9cd785e3f3513c5e7c56");
    ("periodic", "57839a1f6a35ef3feb176b0cc6fff895");
    ("feeder", "01d411cb4f60872bc3ea2d48eacf8b62");
    ("search", "779223f0ec1f41abfb346675ca1a90c6");
    ("rx_vuln", "7b2af978e6b59dc10c3e0ddd1de440d6");
    ("guard", "cadf63fc3525679adbecf3b8ecfa6d69");
    ("lfsr_mc", "b353d497468fa3ec76e6338927b9d6ef");
    ("crc_mc", "ac476af7dc3b6bdfe6238495c2957a43");
    ("am_mc", "793f8fb5d9fc3eb063fae3dbe1d56c99");
    ("amplitude_mc", "4cbbec73ff18f114fa9cd83d47abd280");
    ("readadc_mc", "6ce6b3087097a5838aa53207338aea07");
    ("eventchain_mc", "05c6b269bc1641f681dbe1189a0b83a4");
    ("timer_mc", "e62b7caf620103c1648d2f02e5eac860");
    ("sensmart:am", "1f602aed3a574567cb69dca4d7a7f957");
    ("sensmart:amplitude", "ce250caef434c2e3dd1834f15415f518");
    ("sensmart:crc", "90b3918509088cb96af980998d3eeae3");
    ("sensmart:eventchain", "dbb44f3c72126b8d82e95d1b0a1ad7c6");
    ("sensmart:lfsr", "18496285000879eeb755b56bdd3e0a5e");
    ("sensmart:readadc", "587c9f95b2f982515b31db8232a77e0f");
    ("sensmart:timer", "a65ea8a48c793f9ec3ad6060e2b39485");
    ("sensmart:periodic", "02c96be457ecd819a37fcce032baa1b7");
    ("sensmart:feeder", "d40c339b25db7dac5870a36a25861f4f");
    ("sensmart:search", "9444641a3ba4b19eca2cf291bceb90a4");
    ("sensmart:rx_vuln", "5917e5722d2a0a6801b4bcf229a9bb16");
    ("sensmart:guard", "b8520a1b6173b70e948a8d3887849bbd");
    ("sensmart:lfsr_mc", "677d70bc22a4cc170a7f47918b65a75a");
    ("sensmart:crc_mc", "e0af89a3f81ecf8ca306ca8fe2bc1e86");
    ("sensmart:am_mc", "5bc93c50c6962efcbf03a771dba359ed");
    ("sensmart:amplitude_mc", "5464e54c5b8ae99aef1ac095a536e2a3");
    ("sensmart:readadc_mc", "bbd47f67b237f0cdc5d9d28e88c4d168");
    ("sensmart:eventchain_mc", "d61b2494db6ae4f59ebfe12962f1caa2");
    ("sensmart:timer_mc", "46c09a8ecaa8dd525c628b3bc01e9f3e");
    ("fixture:blink", "73d4b55880a14e81866bf5c55ffbc523");
    ("fixture:sense", "321c08e1c89937029dfa4842e003fa51");
    ("fixture:dispatch", "b2d735230789b3b31c40eb05e959adbb") ]

let translation_digests () =
  let flash_of (img : Asm.Image.t) =
    let flash = Array.make Machine.Layout.flash_words 0xFFFF in
    Array.blit img.words 0 flash 0 (Array.length img.words);
    flash
  in
  let programs =
    List.map
      (fun n -> (n, Option.get (Workloads.Registry.find_image n)))
      Workloads.Registry.names
  in
  let flashes =
    List.map (fun (n, img) -> (n, flash_of img)) programs
    (* naturalized under the SenSmart kernel: trampolines and syscalls *)
    @ List.map
        (fun (n, img) -> ("sensmart:" ^ n, (Kernel.boot [ img ]).m.flash))
        programs
    @ List.map
        (fun (f : Loader.Firmware.t) ->
          ("fixture:" ^ f.name, flash_of (Loader.Firmware.load_hex f)))
        (Loader.Firmware.all ())
  in
  List.map
    (fun (name, flash) ->
      match Machine.Aot.translate ~digest:"pinned" flash with
      | Some src -> (name, Digest.to_hex (Digest.string src))
      | None -> (name, "blank"))
    flashes

let translator_output_pinned () =
  Alcotest.(check int) "generator version" 8 Machine.Aot.generator_version;
  let got = translation_digests () in
  if got <> pinned_translations then
    Alcotest.failf "translator output changed.  If aot.ml or Block.form \
                    changed, bump Aot.generator_version; if only the \
                    images changed (programs, fixtures, Kernel.boot, the \
                    rewriter), their flash digests changed too, so just \
                    re-pin:@.%s"
      (String.concat "\n"
         (List.map (fun (n, d) -> Printf.sprintf "    (%S, %S);" n d) got))

let () =
  Alcotest.run "machine"
    [ ("alu",
       [ Alcotest.test_case "add flags" `Quick add_flags;
         Alcotest.test_case "half carry" `Quick add_half_carry;
         Alcotest.test_case "16-bit sub borrow" `Quick sub_borrow_chain;
         Alcotest.test_case "sbc Z propagation" `Quick sbc_z_propagation;
         Alcotest.test_case "signed compare" `Quick signed_compare;
         Alcotest.test_case "mul" `Quick mul_works;
         Alcotest.test_case "adiw/sbiw" `Quick adiw_sbiw ]);
      ("control",
       [ Alcotest.test_case "push/pop" `Quick push_pop_stack;
         Alcotest.test_case "call/ret" `Quick call_ret;
         Alcotest.test_case "rcall/ret" `Quick rcall_ret;
         Alcotest.test_case "ijmp/icall" `Quick ijmp_icall;
         Alcotest.test_case "preemption horizon" `Quick preemption_horizon;
         Alcotest.test_case "invalid opcode" `Quick invalid_opcode_halts;
         Alcotest.test_case "syscall hook" `Quick syscall_dispatch;
         Alcotest.test_case "trace hook installed mid-run" `Quick hook_mid_run ]);
      ("timing",
       [ Alcotest.test_case "cycle costs" `Quick cycle_costs;
         Alcotest.test_case "branch cycles" `Quick branch_cycles;
         Alcotest.test_case "sleep fast-forward" `Quick sleep_fast_forward ]);
      ("invalidation",
       [ Alcotest.test_case "flash overflow" `Quick flash_overflow_rejected;
         Alcotest.test_case "reload invalidates blocks (tier-1)" `Quick
           (reload_invalidates_blocks 1);
         Alcotest.test_case "reload invalidates blocks (tier-0)" `Quick
           (reload_invalidates_blocks 0);
         Alcotest.test_case "syscall self-patch (tier-1)" `Quick
           (syscall_patches_code 1);
         Alcotest.test_case "syscall self-patch (tier-0)" `Quick
           (syscall_patches_code 0);
         Alcotest.test_case "syscall self-patch (tier-2)" `Quick
           (syscall_patches_code 2);
         Alcotest.test_case "far call target patched (tier-1)" `Quick
           (far_patch_seen true);
         Alcotest.test_case "far jump target patched (tier-1)" `Quick
           (far_patch_seen false);
         Alcotest.test_case "word patched inside a hot loop body (tier-1)" `Quick
           (body_word_patched false);
         Alcotest.test_case "word patched inside a hot loop body (tier-1, shared)"
           `Quick (body_word_patched true);
         Alcotest.test_case "callee replaces its return address" `Quick
           callee_redirects_return;
         Alcotest.test_case "RET guard mismatch in a summarized loop" `Quick
           ret_guard_mismatch ]);
      ("loops",
       [ Alcotest.test_case "ADC completes mid-window" `Quick
           adc_completes_mid_window;
         Alcotest.test_case "RX byte arrives mid-window" `Quick
           rx_arrives_mid_window;
         Alcotest.test_case "countdown from 0 wraps" `Quick (countdown_starts 0);
         Alcotest.test_case "countdown from 1" `Quick (countdown_starts 1);
         Alcotest.test_case "countdown from 2" `Quick (countdown_starts 2);
         Alcotest.test_case "countdown from 255" `Quick (countdown_starts 255);
         Alcotest.test_case "fuel and preemption mid-window" `Quick
           horizon_in_window;
         Alcotest.test_case "bails by reason" `Quick bails_by_reason ]);
      ("memory",
       [ Alcotest.test_case "data rw" `Quick data_memory;
         Alcotest.test_case "sp via io" `Quick sp_via_io;
         Alcotest.test_case "lpm" `Quick lpm_reads_flash;
         Alcotest.test_case "2-word decode invalidation" `Quick
           load_invalidates_two_word_decode;
         Alcotest.test_case "access counters" `Quick access_counters_tick ]);
      ("regressions",
       [ Alcotest.test_case "timer3 read tearing" `Quick timer3_read_no_tear;
         Alcotest.test_case "adc read tearing" `Quick adc_read_no_tear;
         Alcotest.test_case "run_native stale horizon" `Quick
           run_native_clears_stale_horizon ]);
      ("tier1-ops", [ Gen.to_alcotest prop_tier1_ops ]);
      ("tier2",
       [ Alcotest.test_case "translator output pinned" `Quick
           translator_output_pinned ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_alu_flags; prop_inc_dec_roundtrip ]);
      ("peripherals",
       [ Alcotest.test_case "timer3" `Quick timer3_advances;
         Alcotest.test_case "adc" `Quick adc_conversion;
         Alcotest.test_case "radio tx" `Quick radio_tx;
         Alcotest.test_case "radio rx" `Quick radio_rx ]) ]
