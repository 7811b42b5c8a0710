(* Shared randomized-program generator for the differential test
   harnesses (test_differential: rewriters vs native; test_tiers:
   tier-1 blocks vs the tier-0 interpreter).

   A generated program is a list of blocks; each block is straight-line
   code that leaves the machine in a well-formed state (balanced stack,
   in-bounds pointers), so every program terminates at BREAK and can be
   compared bit-for-bit across execution strategies.  A call/jump block
   reaches code of its own placed after the BREAK (subroutines, far
   jump targets) or hops forward over dead code, so tier-1 composes
   blocks through JMP, RJMP, CALL and RCALL.

   The optional I/O blocks ([~io:true]) read cycle-clocked peripheral
   registers (timers, ADC) and so make the comparison sensitive to the
   exact cycle count at every access — exactly what the tier-1 block
   compiler's pre-summed cycle accounting must preserve.  Among them,
   poll blocks busy-wait on a peripheral the way TinyOS drivers do,
   optionally through a countdown call shaped like SenSmart's shared
   counter service, so tier-1 fast-forwards their steady state; some
   variants carry a register, store through a pointer, write an I/O
   register, compare the countdown with a constant or let its flags
   leak, and must run every iteration instead.  They are OFF
   for the rewriter differentials: SenSmart naturalization inserts
   trampoline instructions, so a rewritten program reads the timer at
   different cycle counts than the native one by design. *)

open Asm.Macros

(* --- seeded randomness ---------------------------------------------------- *)

(* Every randomized suite draws from a run-wide seed: fresh entropy by
   default, pinned by [SENSMART_SEED] for reproduction.  A failing
   property prints the seed, so any counterexample found in CI can be
   replayed locally with [SENSMART_SEED=<n> dune runtest]. *)
let seed =
  match Sys.getenv_opt "SENSMART_SEED" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> n
     | None ->
       Printf.eprintf "SENSMART_SEED=%S is not an integer\n%!" s;
       exit 2)
  | None -> Random.State.bits (Random.State.make_self_init ())

let rand_state () = Random.State.make [| seed |]

(** [QCheck_alcotest.to_alcotest] seeded with {!seed}; on failure the
    seed (and how to replay it) is printed alongside the counterexample. *)
let to_alcotest test =
  let name, speed, f = QCheck_alcotest.to_alcotest ~rand:(rand_state ()) test in
  ( name, speed,
    fun x ->
      try f x
      with e ->
        Printf.eprintf
          "\nrandomized test %S failed; replay with SENSMART_SEED=%d\n%!" name
          seed;
        raise e )

let assemble = Asm.Assembler.assemble
let buf_size = 16

type block =
  | Alu of Asm.Ast.stmt list
  | Direct of Asm.Ast.stmt list
  | Walk of Asm.Ast.stmt list  (* pointer reset + bounded post-inc run *)
  | Pushpop of Asm.Ast.stmt list
  | Branchy of Asm.Ast.stmt list  (* a small loop *)
  | Io of Asm.Ast.stmt list  (* cycle-sensitive peripheral accesses *)
  | Calls of Asm.Ast.stmt list * Asm.Ast.stmt list
      (* in-line part, out-of-line part placed after the BREAK *)
  | Poll of Asm.Ast.stmt list * Asm.Ast.stmt list
      (* a busy-wait loop, and its countdown routine if it calls one *)

let stmts_of = function
  | Alu s | Direct s | Walk s | Pushpop s | Branchy s | Io s | Calls (s, _)
  | Poll (s, _) ->
    s

let out_of_line = function Calls (_, s) | Poll (_, s) -> s | _ -> []

(* The countdown routine a poll loop may call: SenSmart's shared
   counter service (save r16 and SREG, decrement the [cnt] cell, branch
   on zero), with the kernel trap replaced by a count of zeros in
   [traps].  [Compare] tests the countdown with CPI instead of the
   decrement's own Z flag, [Leak] skips the SREG save so the
   decrement's flags outlive the call. *)
type countdown = Service | Compare of int | Leak

let countdown_routine kind name =
  let zero = fresh "cnt_zero" in
  let bump = [ lds 16 "traps"; inc 16; sts "traps" 16 ] in
  match kind with
  | Service | Compare _ ->
    let test =
      match kind with Compare k -> [ cpi 16 k; breq zero ] | _ -> [ breq zero ]
    in
    let restore = [ pop 16; out Machine.Io.sreg 16; pop 16; ret ] in
    ([ lbl name; push 16; in_ 16 Machine.Io.sreg; push 16; lds 16 "cnt";
       subi 16 1; sts "cnt" 16 ]
    @ test @ restore @ (lbl zero :: bump) @ restore)
  | Leak ->
    [ lbl name; push 16; lds 16 "cnt"; subi 16 1; sts "cnt" 16; breq zero;
      pop 16; ret; lbl zero ]
    @ bump @ [ pop 16; ret ]

let poll_block =
  let open QCheck.Gen in
  (* Start a peripheral, then poll it until it is done: an ADC
     conversion (ADSC clears), a Timer0 overflow after clearing TOV0,
     or the end of a radio byte (TX ready).  With a countdown call the
     loop takes the shape SenSmart gives it: the loop branch jumps to
     the call, and a jump goes back to the poll. *)
  let device =
    oneofl
      [ ( [ ldi 16 (Machine.Io.aden_bit lor Machine.Io.adsc_bit);
            out Machine.Io.adcsra 16 ],
          Machine.Io.adcsra, Machine.Io.adsc_bit, `Set );
        ( [ ldi 16 1; out Machine.Io.tifr 16 ], Machine.Io.tifr, 1, `Clear );
        ( [ out Machine.Io.radio_data 17 ], Machine.Io.radio_status,
          Machine.Io.tx_ready_bit, `Clear ) ]
  in
  let extra =
    frequency
      [ (6, return []);
        (1, map (fun r -> [ inc r ]) (int_range 18 25));
        (1, return [ st Avr.Isa.X 17 ]);
        (1, return [ out Machine.Io.tccr0 17 ]) ]
  in
  let countdown =
    frequency
      [ (2, return None); (4, return (Some Service));
        (1, map (fun k -> Some (Compare k)) (oneofl [ 0; 3; 200 ]));
        (1, return (Some Leak)) ]
  in
  map4
    (fun (start, reg, mask, wait_while) extra countdown k ->
      let wait = fresh "poll" in
      let spin = match wait_while with `Set -> brne | `Clear -> breq in
      let setup = ldi_data 26 27 "buf" 0 @ [ ldi 16 k; sts "cnt" 16 ] @ start in
      let test = extra @ [ in_ 16 reg; andi 16 mask ] in
      match countdown with
      | None -> Poll (setup @ (lbl wait :: test) @ [ spin wait ], [])
      | Some kind ->
        let again = fresh "again" and done_ = fresh "polled" and f = fresh "cnt" in
        Poll
          ( setup @ (lbl wait :: test)
            @ [ spin again; rjmp done_; lbl again; call f; rjmp wait;
                lbl done_ ],
            countdown_routine kind f ))
    device extra countdown (oneofl [ 0; 1; 2; 255; 7; 100 ])

let rec gen_block ~io ~calls =
  let open QCheck.Gen in
  let reg = int_range 0 25 in
  let hreg = int_range 16 25 in
  let imm = int_range 0 255 in
  (* [alu_op_bounded] never touches r25 so counted loops stay counted. *)
  let alu_op_for reg hreg =
    oneof
      [ map2 (fun d r -> add d r) reg reg;
        map2 (fun d r -> sub d r) reg reg;
        map2 (fun d r -> adc d r) reg reg;
        map2 (fun d r -> and_ d r) reg reg;
        map2 (fun d r -> or_ d r) reg reg;
        map2 (fun d r -> eor d r) reg reg;
        map2 (fun d r -> mov d r) reg reg;
        map2 (fun d k -> ldi d k) hreg imm;
        map2 (fun d k -> subi d k) hreg imm;
        map2 (fun d k -> andi d k) hreg imm;
        map2 (fun d k -> ori d k) hreg imm;
        map (fun d -> inc d) reg;
        map (fun d -> dec d) reg;
        map (fun d -> com d) reg;
        map (fun d -> swap d) reg;
        map (fun d -> lsr_ d) reg;
        map (fun d -> ror d) reg;
        map2 (fun d r -> cp d r) reg reg;
        map2 (fun d r -> mul d r) reg reg ]
  in
  let alu_op = alu_op_for reg hreg in
  let alu_op_bounded = alu_op_for (int_range 0 24) (int_range 16 24) in
  let alu = map (fun ops -> Alu ops) (list_size (int_range 1 8) alu_op) in
  let direct =
    let var = map (Printf.sprintf "v%d") (int_range 0 3) in
    map
      (fun ops -> Direct ops)
      (list_size (int_range 1 4)
         (oneof
            [ map2 (fun r v -> lds r v) hreg var;
              map2 (fun r v -> sts v r) hreg var ]))
  in
  let walk =
    (* Reset X to the buffer, then up to buf_size post-inc accesses. *)
    let acc =
      oneof
        [ map (fun r -> st Avr.Isa.X_inc r) (int_range 0 25);
          map (fun r -> ld r Avr.Isa.X_inc) (int_range 0 25) ]
    in
    map
      (fun accs -> Walk (ldi_data 26 27 "buf" 0 @ accs))
      (list_size (int_range 1 buf_size) acc)
  in
  let pushpop =
    map2
      (fun rs inner ->
        Pushpop
          (List.map push rs
          @ List.concat_map stmts_of [ Alu inner ]
          @ List.rev_map pop rs))
      (list_size (int_range 1 4) reg)
      (list_size (int_range 0 3) alu_op)
  in
  let branchy =
    (* A bounded counted loop exercising backward branches. *)
    map2
      (fun n body ->
        let top = fresh "fz" in
        Branchy ((ldi 25 n :: lbl top :: body) @ [ dec 25; brne top ]))
      (int_range 1 6)
      (list_size (int_range 1 4) alu_op_bounded)
  in
  let ioblk =
    (* Reads of cycle-clocked registers pin the exact cycle count at the
       access; the radio write exercises a stateful peripheral.  SREG
       (across a flag-clobbering CP), SPL and SPH are read and written
       back: the CPU-state arms that IN/OUT share with LDS/STS. *)
    let one f = map (fun r -> [ f r ]) hreg in
    map
      (fun ops -> Io (List.concat ops))
      (list_size (int_range 1 4)
         (oneof
            [ one (fun r -> in_ r Machine.Io.tcnt0);
              one (fun r -> in_ r Machine.Io.tcnt3l);
              one (fun r -> in_ r Machine.Io.tcnt3h);
              one (fun r -> in_ r Machine.Io.adcl);
              one (fun r -> in_ r Machine.Io.radio_status);
              one (fun r -> out Machine.Io.radio_data r);
              map3
                (fun r a b ->
                  [ in_ r Machine.Io.sreg; cp a b; out Machine.Io.sreg r ])
                hreg reg reg;
              map
                (fun r ->
                  [ in_ r Machine.Io.spl; out Machine.Io.spl r;
                    in_ r Machine.Io.sph; out Machine.Io.sph r ])
                hreg ]))
  in
  let calls_blk () =
    (* Straight-line blocks of the other kinds as callee bodies and jump
       destinations: side exits, stack traffic and I/O inside code that
       tier-1 reaches through a followed call or jump. *)
    let inner = map stmts_of (gen_block ~io ~calls:false) in
    let call_to = oneofl [ rcall; call ] and jump_to = oneofl [ rjmp; jmp ] in
    let sub_call =
      map2
        (fun call body ->
          let s = fresh "sub" in
          Calls ([ call s ], (lbl s :: body) @ [ ret ]))
        call_to inner
    in
    let nested_call =
      (* A callee that calls another: two return addresses stacked. *)
      map3
        (fun (c1, c2) b1 b2 ->
          let s1 = fresh "sub" and s2 = fresh "sub" in
          Calls ([ c1 s1 ], (lbl s1 :: b1) @ [ c2 s2; ret; lbl s2 ] @ b2 @ [ ret ]))
        (pair call_to call_to) inner inner
    in
    let far_and_back =
      map3
        (fun (j1, j2) body after ->
          let far = fresh "far" and back = fresh "back" in
          Calls ((j1 far :: lbl back :: after), (lbl far :: body) @ [ j2 back ]))
        (pair jump_to jump_to) inner (list_size (int_range 0 2) alu_op)
    in
    let hop =
      (* A forward hop over code that never runs. *)
      map2
        (fun j dead ->
          let over = fresh "over" in
          Calls ((j over :: dead) @ [ lbl over ], []))
        jump_to (list_size (int_range 0 3) alu_op)
    in
    let looped =
      (* A counted loop around a call or a far jump and back: its head
         runs often enough to compile, so tier-1 composes the loop body
         with the code it reaches.  Its counter, r28, is one no other
         block touches. *)
      map4
        (fun n via_call (call, (j1, j2)) body ->
          let top = fresh "lc" and s = fresh "sub" and back = fresh "back" in
          let site, tail =
            if via_call then ([ call s ], (lbl s :: body) @ [ ret ])
            else ([ j1 s; lbl back ], (lbl s :: body) @ [ j2 back ])
          in
          Calls ((ldi 28 n :: lbl top :: site) @ [ dec 28; brne top ], tail))
        (int_range 2 4) bool (pair call_to (pair jump_to jump_to)) inner
    in
    frequency
      [ (3, sub_call); (1, nested_call); (2, far_and_back); (2, hop);
        (4, looped) ]
  in
  frequency
    ((if io then [ (2, ioblk) ] else [])
    (* Not inside a call block, whose bodies keep only in-line code. *)
    @ (if io && calls then [ (1, poll_block) ] else [])
    @ (if calls then [ (3, calls_blk ()) ] else [])
    @ [ (4, alu); (2, direct); (2, walk); (1, pushpop); (2, branchy) ])

let program_of blocks =
  QCheck.Gen.(
    map
      (fun blocks ->
        Asm.Ast.program "fuzz"
          ~data:
            [ { dname = "buf"; size = buf_size; init = [] };
              { dname = "v0"; size = 1; init = [] };
              { dname = "v1"; size = 1; init = [] };
              { dname = "v2"; size = 1; init = [] };
              { dname = "v3"; size = 1; init = [] };
              { dname = "cnt"; size = 1; init = [] };
              { dname = "traps"; size = 1; init = [] } ]
          ((lbl "start" :: sp_init)
           @ List.concat_map stmts_of blocks
           @ [ break ]
           @ List.concat_map out_of_line blocks))
      blocks)

let gen_program_with ~io ~calls =
  program_of QCheck.Gen.(list_size (int_range 1 10) (gen_block ~io ~calls))

let gen_program ~io = gen_program_with ~io ~calls:true

(* Programs of poll blocks only, for the loop summaries' own check. *)
let gen_poll_program =
  program_of QCheck.Gen.(list_size (int_range 1 3) poll_block)

let print_program p =
  let img = assemble p in
  Avr.Disasm.image (Array.sub img.words 0 img.text_words)

(* Rewriter-safe programs: no raw I/O (trampolines legitimately shift
   the cycle count at which a peripheral register is read). *)
let arb_program_calls = QCheck.make ~print:print_program (gen_program ~io:false)

(* The same without call/jump blocks, for the t-kernel model: its
   kernel cells (including the trap counter it decrements on every
   taken backward branch) sit in the top 16 bytes of SRAM, where a
   program's stack starts, so a loop under two nested calls overwrites
   a return address there. *)
let arb_program =
  QCheck.make ~print:print_program (gen_program_with ~io:false ~calls:false)

(* Tier-differential programs: I/O blocks included, making the property
   sensitive to exact per-access cycle counts. *)
let arb_program_io = QCheck.make ~print:print_program (gen_program ~io:true)
