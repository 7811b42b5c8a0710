(** Typed diagnostics emitted by the three rewriting stages.

    Every stage of the pipeline ({!Recovery}, {!Transform},
    {!Redirection}) reports noteworthy-but-non-fatal observations as
    values of {!t}; the driver aggregates them into the
    {!Report.t} handed back to callers and serialized by
    [sensmart_cli rewrite --report].  Fatal conditions use
    {!Rewrite_error} instead — a diagnostic never aborts a rewrite. *)

(** Pipeline stage that produced the diagnostic. *)
type stage =
  | Recovery  (** block recovery / reachability *)
  | Transform  (** naturalization decisions (grouping, patch selection) *)
  | Redirection  (** relocation fixup and emission *)

(** How seriously the consumer should take it.  [Error]-severity
    diagnostics mark constructs the rewriter handled conservatively but
    whose runtime behaviour may differ from the native image (e.g. an
    unrelocatable branch term in unreachable code). *)
type severity = Info | Warning | Error

type t = {
  stage : stage;
  severity : severity;
  addr : int option;
      (** original flash word address the diagnostic refers to, when it
          refers to one place *)
  kind : string;
      (** stable machine-readable tag, e.g. ["gap"], ["conservative"],
          ["unrelocatable"]; the full set is documented in DESIGN.md *)
  message : string;  (** human-readable explanation *)
}

(** [make stage severity ?addr kind fmt ...] builds a diagnostic with a
    printf-formatted message. *)
val make :
  stage ->
  severity ->
  ?addr:int ->
  string ->
  ('a, unit, string, t) format4 ->
  'a

val stage_name : stage -> string
val severity_name : severity -> string

(** Render as ["recovery:warning[0x0012] gap: ..."]. *)
val pp : Format.formatter -> t -> unit

(** One diagnostic as a JSON object (fields [stage], [severity],
    [addr] (or null), [kind], [message]) — the element type of the
    report's [diagnostics] array. *)
val to_json : t -> string

(** Number of diagnostics at [Error] severity. *)
val errors : t list -> int
