(** Execution harness for a t-kernel-rewritten program: one application,
    kernel-only protection, software traps, and the on-node rewriting
    warm-up charged at load time. *)

type report = {
  halt : Machine.Cpu.halt option;
  cycles : int;  (** total, warm-up included *)
  active_cycles : int;
  warmup_cycles : int;
  traps : int;
  translations : int;
  machine : Machine.Cpu.t;
}

val run : ?max_cycles:int -> Rewrite.t -> report

(** {2 Segmented execution}

    [start] loads and arms the machine (warm-up charged, syscall hook
    installed); [continue_] runs it to an {e absolute} cycle horizon,
    like {!Machine.Cpu.run_native}, and may be called repeatedly — a
    caller can mutate peripherals between segments (fault and attack
    injection) and the composition equals one monolithic {!run}. *)

type t = {
  rw : Rewrite.t;
  machine : Machine.Cpu.t;
  traps : int ref;
  translations : int ref;
}

val start : Rewrite.t -> t
val continue_ : ?max_cycles:int -> t -> Machine.Cpu.halt option

(** Read a 16-bit data variable (placement unchanged by rewriting). *)
val read_var : Rewrite.t -> report -> string -> int

(** The benchmark programs' "bench_result" variable. *)
val result : Rewrite.t -> report -> int
