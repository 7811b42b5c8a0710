(** Structured observability shared by the machine, kernel, network, and
    workload layers: a bounded ring-buffer event stream plus a flat
    counters registry, with JSONL / JSON export and a matching parser.

    One {!t} is one sink.  A standalone kernel owns its own sink; a
    multi-mote network shares one sink across all its kernels, with
    every event stamped by the emitting mote's id and cycle count.  The
    counter-name schema is documented in DESIGN.md.

    This module is event-level observability and costs nothing per
    executed instruction.  Per-instruction tracing is a different
    mechanism — the machine's [trace] hook ({!Machine.Cpu.t}) — and
    installing that hook forces the tier-0 interpreter; leave it unset
    and the tier-1 block engine never consults it (see DESIGN.md,
    "Execution tiers"). *)

(** What happened.  One sum type spans all layers: machine faults,
    kernel scheduling and stack motion, and network routing. *)
type kind =
  | Cpu_fault of { reason : string }
      (** the machine halted abnormally (invalid opcode, kernel kill) *)
  | Switched of { from_task : int option; to_task : int }
  | Relocated of { needy : int; delta : int; moved : int }
  | Terminated of { task : int; reason : string }
  | Spawned of { task : int; stack : int }
  | Routed of { src : int; dst : int; byte : int }
  | Dropped of { src : int; dst : int; byte : int }
  | Injected of { fault : string }
      (** a fault-injection engine mutated this mote's state; [fault] is
          the compact description [Fault.describe] produces *)
  | Probe of { name : string; detail : string }
      (** a containment probe fired ([lib/attack]): [name] identifies
          the probe (e.g. ["canary"], ["pc_bounds"], ["liveness"]),
          [detail] says what it observed *)
  | Job of { id : int; phase : string; detail : string }
      (** campaign-service job lifecycle ([lib/service]): [phase] is
          ["start"], ["stolen"], ["retry"], ["trial"], ["done"] or
          ["failed"]; the event's [mote] field carries the worker index
          and [at] the attempt number *)

type event = { mote : int; at : int; kind : kind }

type t

(** Ring capacity when {!create} is not told otherwise (4096). *)
val default_capacity : int

(** [create ?capacity ()] makes an empty sink whose ring holds at most
    [capacity] events (default {!default_capacity}); older events are
    overwritten and counted in {!overflow}. *)
val create : ?capacity:int -> unit -> t

(** The sink's fixed ring capacity. *)
val capacity : t -> int

(** Events currently held (at most the capacity). *)
val length : t -> int

(** Events lost to ring overwrite since creation/{!clear}. *)
val overflow : t -> int

(** Reset the sink: drop all recorded events, the overflow count, and
    every counter. *)
val clear : t -> unit

(** [emit t ~mote ~at kind] appends one event to the ring. *)
val emit : t -> mote:int -> at:int -> kind -> unit

(** Recorded events, oldest first. *)
val events : t -> event list

(** [transfer ~into src] moves every event of [src] into [into] (oldest
    first, through the normal ring-buffer path), folds [src]'s overflow
    count into [into]'s, and empties [src]'s event stream.  Counters are
    untouched on both sides.  The multi-mote network uses this to merge
    per-mote sinks into its master sink deterministically: sinks are
    transferred in node-id order once per lockstep quantum. *)
val transfer : into:t -> t -> unit

(** {2 Snapshotting}

    A {!dump} is the sink's full serializable state: the event stream
    (oldest first), the overflow count, and the counter registry.
    {!restore} replays a dump into a sink (after clearing it), so a
    capture/restore round trip leaves {!events}, {!overflow}, and
    {!counters} byte-identical when the capacities match.  Used by
    [lib/snapshot]. *)

type dump = {
  d_events : event list;  (** oldest first *)
  d_overflow : int;
  d_counters : (string * int) list;  (** sorted by name *)
}

(** Capture the sink's full state. *)
val dump : t -> dump

(** Replace [t]'s entire state with the dump's.  Events replay through
    the normal ring path, so a target ring smaller than the dump keeps
    only the newest events; the dump's overflow count wins either way. *)
val restore : t -> dump -> unit

(** {2 Counters} *)

(** [incr ?by t name] adds [by] (default 1) to counter [name],
    creating it at 0 first. *)
val incr : ?by:int -> t -> string -> unit

(** [set_counter t name v] overwrites counter [name] with [v]. *)
val set_counter : t -> string -> int -> unit

(** Current value, 0 if never written. *)
val counter : t -> string -> int

(** Snapshot of every counter, sorted by name. *)
val counters : t -> (string * int) list

(** {2 Export} *)

(** The body of a JSON string literal holding [s] (quotes, backslashes
    and control characters escaped); the one escaper every JSON emitter
    in the tree uses. *)
val escape_string : string -> string

(** One event as a single-line JSON object. *)
val json_of_event : event -> string

(** Parse one line produced by {!json_of_event}. *)
val event_of_json : string -> (event, string) result

(** The whole event stream as JSONL, oldest first. *)
val to_jsonl : t -> string

(** The counter snapshot as a JSON object. *)
val counters_json : t -> string

(** Parse a {!counters_json} object back into the sorted association
    list {!counters} returns. *)
val counters_of_json : string -> ((string * int) list, string) result

(** {2 Flat JSON}

    The emitter's dialect — one flat object of integer / string / null
    fields, no nesting — is also the wire format of the campaign
    service's job specs ([lib/service]); the parser is exported so spec
    files are rejected with the same error text this module produces. *)

type jvalue = J_int of int | J_str of string | J_null

(** Parse one flat JSON object line into its fields, in order.
    [Error _] carries the position of the first offence; a repeated
    key, a number with a leading zero and a [\u] escape that is not
    four hex digits are offences. *)
val parse_flat_json : string -> ((string * jvalue) list, string) result

(** {2 Pretty-printing and equality} *)

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit
val equal_event : event -> event -> bool
