(** t-kernel-like on-node rewriter: in-line expansion (no merged
    trampolines), kernel-only memory protection, page-granular layout
    with inter-page transfer gates, and a warm-up charge for the on-node
    rewriting pass.  See the module implementation header for the
    modeling rationale. *)

exception Unsupported of string

(* Syscall numbers of the t-kernel model. *)
val sys_trap : int
val sys_translate : int
val sys_fault : int
val sys_exit : int
val sys_ijmp : int

(** SRAM cells the generated code uses. *)
val cnt_cell : int

val page_cell : int

type t = {
  source : Asm.Image.t;
  image : Asm.Image.t;  (** the rewritten, reassembled program *)
  addr_map : (int, int) Hashtbl.t;  (** original -> rewritten word address *)
  warmup_cycles : int;
  padded_words : int;  (** page-granular flash footprint *)
}

val run : Asm.Image.t -> t

(** Flash bytes of the page-granular layout (Figure 4's t-kernel bars). *)
val total_bytes : t -> int

val inflation : t -> float
