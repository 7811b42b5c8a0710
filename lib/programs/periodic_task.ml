(* The PeriodicTask program of Section V-C: periodic events trigger a
   computational task of configurable size.  The task polls the global
   clock (Timer3 — intercepted by the kernel under SenSmart), sleeps
   between checks, and on each period boundary runs [comp_units]
   iterations of a small compute kernel.

   [comp_units] calibrates the paper's x-axis: each unit executes
   {!insns_per_unit} instructions, so a paper point of "60,000
   instructions" is [comp_units = 60_000 / insns_per_unit]. *)

open Asm.Macros

(** Instructions executed per compute unit (LFSR step 4 + loop overhead 3). *)
let insns_per_unit = 7

(** Default period: one Timer0 overflow span, so a sleeping task wakes
    exactly once per period (32768 Timer3 ticks = 262144 cycles). *)
let default_period = 32768

let units_for_insns insns = max 1 (insns / insns_per_unit)

let program ?(name = "periodic") ?(period = default_period)
    ?(activations = 20) ?(comp_units = 1000) () =
  if period land (period - 1) <> 0 then
    invalid_arg "periodic: period must be a power of two (epoch alignment)";
  let wait = fresh "p_wait" and work = fresh "p_work" and outer = fresh "p_outer" in
  Asm.Ast.program name
    ~data:[ { dname = "t_last"; size = 2; init = [] };
            { dname = "acts"; size = 2; init = [] };
            Common.result_var ]
    ((lbl "start" :: sp_init)
     @ Common.lfsr_seed 0x7777
     @ [ ldi 22 0xB4 ]
     (* t_last = now, anchored to the period grid *)
     @ Common.read_timer3 16 17
     @ [ andi 16 ((lnot (period - 1)) land 0xFF);
         andi 17 (((lnot (period - 1)) lsr 8) land 0xFF);
         sts "t_last" 16; sts_off "t_last" 1 17 ]
     @ ldi16 20 21 activations
     @ [ lbl outer; lbl wait ]
     (* delta = timer3 - t_last; proceed when delta >= period *)
     @ Common.read_timer3 16 17
     @ [ lds 18 "t_last"; sub 16 18; lds_off 18 "t_last" 1; sbc 17 18;
         cpi 16 (period land 0xFF); ldi 19 ((period lsr 8) land 0xFF);
         cpc 17 19; brcc work; sleep; rjmp wait;
         lbl work ]
     (* Re-anchor t_last to the period grid (t AND ~(period-1)): phase-
        offset tasks would otherwise overshoot deadlines by a whole
        sleep quantum and alternate hit/miss on the 16-bit delta. *)
     @ Common.read_timer3 16 18
     @ [ andi 16 ((lnot (period - 1)) land 0xFF); sts "t_last" 16;
         andi 18 (((lnot (period - 1)) lsr 8) land 0xFF);
         sts_off "t_last" 1 18 ]
     (* the computational task *)
     @ loop16 18 19 comp_units (Common.lfsr_step ~creg:22)
     (* count the activation *)
     @ [ lds 16 "acts"; subi 16 0xFF; sts "acts" 16;
         lds_off 16 "acts" 1; sbci 16 0xFF; sts_off "acts" 1 16 ]
     @ [ subi 20 1; sbci 21 0; brne outer ]
     @ [ lds 24 "acts"; lds_off 25 "acts" 1 ]
     @ Common.store_result16 24 25
     @ [ break ])

(** Ideal duration: [activations] periods, in cycles. *)
let nominal_cycles ?(period = default_period) ~activations () =
  activations * period * Machine.Io.timer3_prescale
