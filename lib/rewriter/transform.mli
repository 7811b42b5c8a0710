(** Stage 2 of the rewriting pipeline: the naturalizing transform.

    Decides, for every recovered instruction, how it is patched
    (Section IV-A of the paper): kept, replaced in place, or redirected
    into a trampoline.  Grouping optimizations (Section IV-C2) run
    first so the per-instruction classification can skip group members;
    a group is only formed when {!Recovery} proves control cannot enter
    its middle.

    The transform never moves code — it only chooses patches.  Laying
    the patched text out (shift table, trampoline pool, emission) is
    stage 3, {!Redirection}. *)

type config = {
  group_accesses : bool;
      (** Section IV-C2: translate grouped LDD/STD runs once.  Exposed
          so the ablation bench can measure the optimization. *)
  group_sp : bool;  (** group IN/OUT SPL..SPH pairs into one kernel call *)
  group_pushes : bool;  (** one stack check per PUSH run *)
  preempt : bool;
      (** patch backward branches with the software-trap counter;
          [false] gives the "memory protection only" build of Figure 5 *)
}

val default_config : config

(** How one site is rewritten. *)
type patch =
  | Keep  (** re-emitted unchanged *)
  | Inline of Avr.Isa.t  (** same-size or +1-word replacement emitted in place *)
  | Jmp_to of Trampoline.key  (** replaced with JMP trampoline *)
  | Call_to of Trampoline.key  (** replaced with CALL trampoline *)
  | Skip  (** member of a group, bypassed by the head's back-jump *)
  | Cond of int * bool * int
      (** forward conditional branch: bit, branch-if-set, original target *)
  | Fwd_rjmp of int  (** forward rjmp/jmp: original target *)
  | Verbatim  (** undecodable gap copied word-for-word *)

type site = {
  addr : int;  (** original flash word address *)
  insn : Avr.Isa.t;  (** decoded instruction ([Nop] for [Verbatim] gaps) *)
  size : int;  (** original size in words *)
  mutable patch : patch;
}

(** [classify ~config ~recovery ~heap_end img] assigns a patch to every
    site (recovered instructions interleaved with verbatim gaps, in
    program order).  Raises {!Rewrite_error.E} ([Out_of_heap]) when a
    direct access escapes the task's static heap bound.  Also returns
    the stage's diagnostics (one [Info] summarizing the groups formed,
    when any were). *)
val classify :
  config:config ->
  recovery:Recovery.t ->
  heap_end:int ->
  Asm.Image.t ->
  site array * Diagnostic.t list

(** Patched size of a site in words (before any fixpoint promotion in
    {!Redirection}). *)
val patched_size : site -> int
