(* AVR (ATmega128L) instruction-set subset used throughout the
   reproduction.  The subset is rich enough to express every benchmark
   program of the paper (recursion, pointer walks, I/O polling) while
   excluding the skip instructions (CPSE/SBRC/SBRS) whose interaction with
   variable-length successors the paper does not define for rewriting. *)

type reg = int [@@deriving show { with_path = false }, eq, ord]
(** General-purpose register index, [0..31]. *)

type ptr =
  | X
  | X_inc
  | X_dec
  | Y_inc
  | Y_dec
  | Z_inc
  | Z_dec
      (** Indirect pointer addressing modes for [Ld]/[St].  Plain [Y] and
          [Z] (no post-inc/pre-dec) are expressed as [Ldd]/[Std] with
          displacement 0, exactly as the AVR encoder does. *)
[@@deriving show { with_path = false }, eq, ord]

type base =
  | Ybase
  | Zbase  (** Base register of a displacement ([Ldd]/[Std]) access. *)
[@@deriving show { with_path = false }, eq, ord]

(* Status-register bit numbers, for [Brbs]/[Brbc]/[Bset]/[Bclr]. *)
let bit_c = 0
let bit_z = 1
let bit_n = 2
let bit_v = 3
let bit_s = 4
let bit_h = 5
let bit_t = 6
let bit_i = 7

type t =
  | Nop
  | Movw of reg * reg  (** [Movw (d, r)]: move register pair; both even. *)
  | Add of reg * reg
  | Adc of reg * reg
  | Sub of reg * reg
  | Sbc of reg * reg
  | And of reg * reg
  | Or of reg * reg
  | Eor of reg * reg
  | Mov of reg * reg
  | Cp of reg * reg
  | Cpc of reg * reg
  | Mul of reg * reg  (** Unsigned multiply into r1:r0. *)
  | Cpi of reg * int  (** d in [16..31], immediate in [0..255]. *)
  | Sbci of reg * int
  | Subi of reg * int
  | Ori of reg * int
  | Andi of reg * int
  | Ldi of reg * int
  | Adiw of reg * int  (** d in {24,26,28,30}, immediate in [0..63]. *)
  | Sbiw of reg * int
  | Com of reg
  | Neg of reg
  | Swap of reg
  | Inc of reg
  | Dec of reg
  | Asr of reg
  | Lsr of reg
  | Ror of reg
  | Ld of reg * ptr
  | Ldd of reg * base * int  (** Displacement in [0..63]. *)
  | St of ptr * reg
  | Std of base * int * reg
  | Lds of reg * int  (** 32-bit: direct load, data address in [0..65535]. *)
  | Sts of int * reg  (** 32-bit: direct store. *)
  | Lpm of reg * bool  (** [Lpm (d, post_inc)]: load from program memory at Z. *)
  | Push of reg
  | Pop of reg
  | In of reg * int  (** I/O address in [0..63]. *)
  | Out of int * reg
  | Rjmp of int  (** Signed word offset in [-2048..2047], relative to PC+1. *)
  | Rcall of int
  | Jmp of int  (** 32-bit: absolute word address. *)
  | Call of int  (** 32-bit: absolute word address. *)
  | Ijmp  (** Jump to the word address held in Z. *)
  | Icall
  | Ret
  | Reti
  | Brbs of int * int  (** [Brbs (bit, off)]: branch if SREG bit set; signed word offset in [-64..63]. *)
  | Brbc of int * int
  | Bset of int
  | Bclr of int
  | Sleep
  | Break
  | Wdr
  | Syscall of int
      (** Reserved encoding ([1111 1111 kkkk 1kkk], unused on real AVR)
          that the simulator routes to the installed kernel.  Stands in
          for the fixed kernel entry points the real SenSmart trampolines
          jump into; argument in [0..127]. *)
[@@deriving show { with_path = false }, eq, ord]

(** Number of 16-bit program words the instruction occupies. *)
let words = function
  | Lds _ | Sts _ | Jmp _ | Call _ -> 2
  | Nop | Movw _ | Add _ | Adc _ | Sub _ | Sbc _ | And _ | Or _ | Eor _
  | Mov _ | Cp _ | Cpc _ | Mul _ | Cpi _ | Sbci _ | Subi _ | Ori _ | Andi _
  | Ldi _ | Adiw _ | Sbiw _ | Com _ | Neg _ | Swap _ | Inc _ | Dec _ | Asr _
  | Lsr _ | Ror _ | Ld _ | Ldd _ | St _ | Std _ | Lpm _ | Push _ | Pop _
  | In _ | Out _ | Rjmp _ | Rcall _ | Ijmp | Icall | Ret | Reti | Brbs _
  | Brbc _ | Bset _ | Bclr _ | Sleep | Break | Wdr | Syscall _ -> 1

(* Well-formedness of operand ranges; the encoder asserts this. *)
let valid = function
  | Movw (d, r) -> d land 1 = 0 && r land 1 = 0 && d < 32 && r < 32
  | Add (d, r) | Adc (d, r) | Sub (d, r) | Sbc (d, r) | And (d, r)
  | Or (d, r) | Eor (d, r) | Mov (d, r) | Cp (d, r) | Cpc (d, r)
  | Mul (d, r) -> d >= 0 && d < 32 && r >= 0 && r < 32
  | Cpi (d, k) | Sbci (d, k) | Subi (d, k) | Ori (d, k) | Andi (d, k)
  | Ldi (d, k) -> d >= 16 && d < 32 && k >= 0 && k < 256
  | Adiw (d, k) | Sbiw (d, k) ->
    (d = 24 || d = 26 || d = 28 || d = 30) && k >= 0 && k < 64
  | Com d | Neg d | Swap d | Inc d | Dec d | Asr d | Lsr d | Ror d
  | Push d | Pop d -> d >= 0 && d < 32
  | Ld (d, _) | Lpm (d, _) -> d >= 0 && d < 32
  | St (_, r) -> r >= 0 && r < 32
  | Ldd (d, _, q) -> d >= 0 && d < 32 && q >= 0 && q < 64
  | Std (_, q, r) -> r >= 0 && r < 32 && q >= 0 && q < 64
  | Lds (d, a) -> d >= 0 && d < 32 && a >= 0 && a < 0x10000
  | Sts (a, r) -> r >= 0 && r < 32 && a >= 0 && a < 0x10000
  | In (d, a) -> d >= 0 && d < 32 && a >= 0 && a < 64
  | Out (a, r) -> r >= 0 && r < 32 && a >= 0 && a < 64
  | Rjmp k | Rcall k -> k >= -2048 && k < 2048
  | Jmp a | Call a -> a >= 0 && a < 0x400000
  | Brbs (s, k) | Brbc (s, k) -> s >= 0 && s < 8 && k >= -64 && k < 64
  | Bset s | Bclr s -> s >= 0 && s < 8
  | Syscall k -> k >= 0 && k < 128
  | Nop | Ijmp | Icall | Ret | Reti | Sleep | Break | Wdr -> true

(** Classification used by the rewriter (Section IV-A of the paper). *)

(* Relative control-flow target, in words, relative to the address *after*
   this instruction — [Some off] for PC-relative branches and jumps. *)
let relative_target = function
  | Rjmp k | Rcall k | Brbs (_, k) | Brbc (_, k) -> Some k
  | _ -> None

(** Classification used by the tier-1 block compiler (see DESIGN.md,
    "Execution tiers").  SenSmart's rewriter already cuts programs into
    straight-line runs bounded by control transfers; the simulator's
    block engine compiles exactly those runs. *)

(* Does the instruction end a basic block?  Unconditional control
   transfers, the kernel-entry gate, and the halt/sleep instructions all
   hand control back to the run loop.  Conditional branches do NOT end a
   block: the compiler keeps collecting the fall-through path and turns
   the branch into an in-body early exit, so branchy loops still compile
   into long superblocks. *)
let ends_block = function
  | Rjmp _ | Rcall _ | Jmp _ | Call _ | Ijmp | Icall | Ret | Reti
  | Sleep | Break | Syscall _ -> true
  | _ -> false

(* Conditional branch: a superblock side exit (see {!ends_block}). *)
let is_cond_branch = function Brbs _ | Brbc _ -> true | _ -> false
