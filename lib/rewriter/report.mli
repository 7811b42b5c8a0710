(** The machine-readable rewrite report.

    One {!t} summarizes one trip through the pipeline: size accounting
    (the paper's Figure 4 axes), recovery statistics, trampoline-pool
    behaviour, the old → new block mapping, and every stage diagnostic.
    The JSON layout produced by {!to_json} is specified normatively in
    DESIGN.md ("Rewriting pipeline & report schema"); the [rewrite.*]
    counters {!publish} emits are part of the metrics-blob schema,
    pinned exactly by [bench/baseline_metrics.json]. *)

type t = {
  program : string;  (** image name *)
  base : int;  (** flash word address the image was linked for *)
  entry : int;  (** naturalized entry point (absolute flash word) *)
  native_bytes : int;  (** original image size: text + flash data *)
  text_bytes : int;  (** original text segment only *)
  rewritten_text_bytes : int;  (** patched text (= original + shift growth) *)
  rodata_bytes : int;  (** relocated flash data *)
  support_bytes : int;  (** shared services + trampolines *)
  total_bytes : int;  (** whole naturalized image *)
  bytes_inflated : int;  (** [total_bytes - native_bytes] *)
  inflation_permille : int;
      (** [total_bytes * 1000 / native_bytes] — Figure 4's ratio in
          integer permille (e.g. 2410 = 2.41x) *)
  blocks_recovered : int;
  small_blocks : int;  (** blocks of at most {!Recovery.small_block_insns} instructions *)
  unreachable_insns : int;
  reused_bytes : int;  (** patched-text bytes identical to the original in place *)
  insns_patched : int;
  trampolines : int;  (** distinct trampoline bodies emitted *)
  trampolines_merged : int;  (** requests satisfied by an existing body *)
  shift_entries : int;  (** 16→32-bit inflations (shift-table rows) *)
  unrelocatable_terms : int;
  conservative : bool;  (** recovery fell back to every-insn-is-a-target *)
  mapping : (int * int) array;  (** (original block start, naturalized address) *)
  diagnostics : Diagnostic.t list;  (** all three stages, pipeline order *)
}

(** Assemble the report from the three stage results. *)
val make :
  recovery:Recovery.t ->
  transform_diags:Diagnostic.t list ->
  outcome:Redirection.outcome ->
  Asm.Image.t ->
  t

(** The report as one JSON object (schema
    ["sensmart.rewrite.report/1"]; see DESIGN.md). *)
val to_json : t -> string

(** Human-readable multi-line summary (the CLI's default output). *)
val pp : Format.formatter -> t -> unit

(** [publish ?prefix tr reports] sums the reports' numeric fields into
    [tr]'s counter registry under [prefix] (default ["rewrite."]);
    [<prefix>bytes_inflated_permille] is recomputed from the summed
    sizes so it stays a ratio. *)
val publish : ?prefix:string -> Trace.t -> t list -> unit
