(** Stage 1 of the rewriting pipeline: block recovery.

    Decodes the text segment tolerantly (undecodable words become
    verbatim-copied {e gaps} rather than aborting the rewrite), collects
    the static branch-target set, runs a reachability sweep from the
    entry point and the exported text symbols, and partitions the
    decoded instructions into basic blocks.

    Two properties of the result drive the later stages:

    - {b the target set} bounds where control can enter, which is what
      makes grouped patches (one trampoline covering several
      instructions) sound.  For images without symbols that contain
      computed jumps ([IJMP]/[ICALL]) no such bound exists, so recovery
      falls back to the {e conservative} over-approximation — every
      instruction start is a potential target — which disables grouping
      but keeps the rewrite correct.
    - {b unrelocatable terms} — static branches whose target does not
      begin a recovered instruction — have no naturalized address.
      Redirection refuses to rewrite them when the branch is reachable
      (typed {!Rewrite_error.Misaligned_target}) and downgrades them to
      [Error]-severity diagnostics when they sit in unreachable code. *)

(** One recovered basic block of the original text. *)
type block = {
  b_start : int;  (** original flash word address of the first instruction *)
  b_words : int;  (** size in words *)
  b_insns : int;  (** number of instructions *)
  b_reachable : bool;  (** head reachable from entry / exported symbols *)
}

(** Blocks with at most this many instructions count as {e small}
    (renovate's [riSmallBlockCount] heuristic: a high ratio of small
    blocks usually means recovery mis-sliced the text). *)
val small_block_insns : int

type t = {
  sites : (int * Avr.Isa.t * int) array;
      (** decoded instructions in program order: (address, instruction,
          size in words) *)
  gaps : (int * int) array;
      (** undecodable runs as (start address, words); copied verbatim
          into the naturalized text *)
  targets : (int, unit) Hashtbl.t;
      (** every address where control may enter: explicit branch
          targets, exported text symbols, and — in conservative mode —
          every instruction start *)
  explicit_targets : (int * int) list;
      (** (branch address, target address) for every static branch of
          the program — the terms redirection must fix up *)
  reachable : (int, unit) Hashtbl.t;
      (** instruction starts reachable from the entry and the exported
          text symbols *)
  blocks : block array;  (** recovered blocks in program order *)
  small_blocks : int;  (** blocks with at most {!small_block_insns} instructions *)
  unreachable_insns : int;
      (** decoded instructions the sweep never reached (still patched —
          the rewriter is conservative about dead code) *)
  conservative : bool;
      (** no symbol information and computed jumps present: every
          instruction start was added to [targets] *)
  unrelocatable : (int * int) list;
      (** (branch address, target) terms whose target begins no
          recovered instruction *)
  diags : Diagnostic.t list;  (** stage diagnostics, program order *)
}

(** Recover blocks from the text segment of [img]. *)
val run : Asm.Image.t -> t
