(* Shared randomized-program generator for the differential test
   harnesses (test_differential: rewriters vs native; test_tiers:
   tier-1 blocks vs the tier-0 interpreter).

   A generated program is a list of blocks; each block is straight-line
   code that leaves the machine in a well-formed state (balanced stack,
   in-bounds pointers), so every program terminates at BREAK and can be
   compared bit-for-bit across execution strategies.

   The optional I/O blocks ([~io:true]) read cycle-clocked peripheral
   registers (timers, ADC) and so make the comparison sensitive to the
   exact cycle count at every access — exactly what the tier-1 block
   compiler's pre-summed cycle accounting must preserve.  They are OFF
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

let stmts_of = function
  | Alu s | Direct s | Walk s | Pushpop s | Branchy s | Io s -> s

let gen_block ~io =
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
  frequency
    ((if io then [ (2, ioblk) ] else [])
    @ [ (4, alu); (2, direct); (2, walk); (1, pushpop); (2, branchy) ])

let gen_program ~io =
  QCheck.Gen.(
    map
      (fun blocks ->
        Asm.Ast.program "fuzz"
          ~data:
            [ { dname = "buf"; size = buf_size; init = [] };
              { dname = "v0"; size = 1; init = [] };
              { dname = "v1"; size = 1; init = [] };
              { dname = "v2"; size = 1; init = [] };
              { dname = "v3"; size = 1; init = [] } ]
          ((lbl "start" :: sp_init)
           @ List.concat_map stmts_of blocks
           @ [ break ]))
      (list_size (int_range 1 10) (gen_block ~io)))

let print_program p =
  let img = assemble p in
  Avr.Disasm.image (Array.sub img.words 0 img.text_words)

(* Rewriter-safe programs: no raw I/O (trampolines legitimately shift
   the cycle count at which a peripheral register is read). *)
let arb_program = QCheck.make ~print:print_program (gen_program ~io:false)

(* Tier-differential programs: I/O blocks included, making the property
   sensitive to exact per-access cycle counts. *)
let arb_program_io = QCheck.make ~print:print_program (gen_program ~io:true)
