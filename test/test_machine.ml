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

(* --- Tier-2 translator output pinned ----------------------------------- *)

(* MD5 of the generated OCaml for every registry program and every
   fixture firmware image.  The translator's output is a pure function
   of the flash image and salts the on-disk artifact digest only through
   [Aot.generator_version]: a change to the shared superblock former
   (or the emitter) that alters generated code without bumping the
   version would otherwise load stale cached artifacts silently. *)
let pinned_translations =
  [ ("am", "d3490e61a8f555d04af827dfcd3dfbeb");
    ("amplitude", "6336cb5dca8ef6ca02c55d5319869a0f");
    ("crc", "e77ef55dd3d2f3d57a8d94563a813671");
    ("eventchain", "f2f4ade41ccd58cd18f2a76af892b30d");
    ("lfsr", "a505535c0223fc16a9f365b9e3c8d72f");
    ("readadc", "4ef118e44440fb3b644c85b684523d12");
    ("timer", "ba1a2e5773fd320fe0ad6f17305710fb");
    ("periodic", "98cedc5ad095e62aaf8cf9f552de1397");
    ("feeder", "0d6ec7902fd2720be6000daf0e24baca");
    ("search", "bb93a06f6f197fc4615ad8fa9a6b9979");
    ("rx_vuln", "ecc5463639a4ed2f4057a8d6843c42a4");
    ("guard", "e094e889ebc67ae8cca07cfb65f566dc");
    ("lfsr_mc", "574d39e486c9569283e016949bf70db6");
    ("crc_mc", "66f73a3fedb2ffdec9dabfc64ea5adf5");
    ("am_mc", "bd529a6a84c1c4fd7909005c4702662a");
    ("amplitude_mc", "4511bebb69a3464952216f46291e7993");
    ("readadc_mc", "ea02d428c1cb6c627152acd5ec165239");
    ("eventchain_mc", "0ca307646b95ad4fa7e4de1f6cd0d7d5");
    ("timer_mc", "d3b7a8fc8aa60ad98566383c48a43d8c");
    ("sensmart:am", "c7397abeadd3361d3fa6c6508b1317d6");
    ("sensmart:amplitude", "1929fed420e8faef936fb6c2f8f0742b");
    ("sensmart:crc", "23af7a4be8575fea8f1560c609db816d");
    ("sensmart:eventchain", "9af73eebaac86fd8665bdc1b61159c9e");
    ("sensmart:lfsr", "66bf90926cf0bbcf7b267527a96a6ef5");
    ("sensmart:readadc", "0a8fdb38ed41e1ac72129c38860d344d");
    ("sensmart:timer", "1bdd27effd1ee098b6362b2f147e81e3");
    ("sensmart:periodic", "8a770107442723d852ac4b1670381d8a");
    ("sensmart:feeder", "622d4a9a7ebc273a17186ae79883a466");
    ("sensmart:search", "8d6b13d4da1fe3bbe602ae183b9a6219");
    ("sensmart:rx_vuln", "234038b79b6af6d4b80a5f07084604a6");
    ("sensmart:guard", "5e989cf586b3d3d13fb5117fc8881e61");
    ("sensmart:lfsr_mc", "a9b551bd88e41732b166da2fbf385ee7");
    ("sensmart:crc_mc", "d00deb95720a69c1975235f534d70f0c");
    ("sensmart:am_mc", "c6c1fbcb2942e569998ec723ced9e765");
    ("sensmart:amplitude_mc", "7fccea3a61f37b40612b62d2346673b4");
    ("sensmart:readadc_mc", "8ba13d048e4d6da7c0c8aeaed0889aa1");
    ("sensmart:eventchain_mc", "db7370862ab88f9ad30467763f80ef0f");
    ("sensmart:timer_mc", "082977dcad38b2f0ff1bb198418c28b5");
    ("fixture:blink", "e1ec4073f0f5b9853321f3aab2871091");
    ("fixture:sense", "bf3eadfcda8d400afba91a22555e99f6");
    ("fixture:dispatch", "149714dd8fb3af565d20c26e57100dbc") ]

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
  Alcotest.(check int) "generator version" 6 Machine.Aot.generator_version;
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
         Alcotest.test_case "syscall hook" `Quick syscall_dispatch ]);
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
           (syscall_patches_code 2) ]);
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
