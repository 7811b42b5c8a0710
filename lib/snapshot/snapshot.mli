(** Deterministic snapshot & resume.

    A snapshot captures the full deterministic state of a run — machine,
    kernel, network and trace — as a plain-data value that serializes to
    a versioned, self-describing binary format (see DESIGN.md, "Snapshot
    format & determinism contract").

    The contract: capture at cycle [c], restore onto a freshly re-created
    host (same images, same config, same topology), run to cycle [d] —
    the result is byte-identical to an uninterrupted run to [d], in all
    execution tiers and at any domain count.  Restores hand flash to
    {!Machine.Cpu.adopt_flash}.  A host machine on a shared image (one
    booted from a {!Kernel.template}, say) whose words equal the
    captured flash keeps that image with its decode and block caches,
    which are a function of those words alone; any other gets an image
    of the captured words with empty caches.  Either way the machine's
    tier-2 binding is dropped, so compiled code is never stale.

    Every captured field is declared once, in a table that drives
    capture, restore, encoding, decoding and {!diff} alike.  Structural
    state (program images, kernel config, topology) is not captured;
    the [restore_*] functions check its keys (task ids and names, mote
    ids and count, lockstep parameters, memory sizes) before writing
    anything and raise {!Incompatible} otherwise.  The snapshot carries
    {!programs} so a driver can re-create the host from the workload
    registry. *)

type t

(** Raised by the [restore_*] functions when the snapshot does not fit
    the target host (different task set, node count, lockstep
    parameters, memory geometry).  The message says what differed and
    how to re-create a compatible host. *)
exception Incompatible of string

(** Simulated cycle at which the snapshot was captured (for a network
    snapshot: the lockstep horizon). *)
val at : t -> int

(** Workload names recorded at capture ([?programs] of the capture
    functions); lets a driver re-boot the matching host. *)
val programs : t -> string list

(** ["machine"], ["kernel"] or ["net"]. *)
val kind_name : t -> string

(** One human-readable line: kind, cycle, task/mote count, programs. *)
val describe : t -> string

(** {2 Capture}

    Capture functions copy all mutable state; the snapshot stays valid
    however the live host advances afterwards. *)

val of_machine : ?programs:string list -> Machine.Cpu.t -> t

(** Captures the kernel's machine, task table, accounting, and its whole
    trace sink (events, counters, overflow). *)
val of_kernel : ?programs:string list -> Kernel.t -> t

(** Captures every mote's kernel and private sink, the topology, routing
    counters, loss-LFSR state, the lockstep position and the master
    trace.  Capture between quanta (e.g. from [Net.run]'s
    [?on_checkpoint]) so the network is coordinator-consistent. *)
val of_net : ?programs:string list -> Net.t -> t

(** {2 Restore}

    The target must be structurally compatible: build it the way the
    captured host was built (boot the same images / re-create the same
    network), then restore over it.  Raises {!Incompatible} otherwise —
    including when the snapshot kind does not match the target. *)

val restore_machine : t -> Machine.Cpu.t -> unit

(** Restore over a freshly booted kernel built from the same images.
    Booted from a template and restored from a capture whose flash is
    the template's, the kernel keeps the template's image and every
    block compiled on it; a capture whose flash differs (a flipped
    word, a spawned task) gets an image of its own words. *)
val restore_kernel : t -> Kernel.t -> unit

(** Restore over a freshly created network of the same shape.  Motes
    restored from one flash image share one {!Machine.Cpu.image} (the
    host fleet's own template image when its words match), so the
    restored fleet compiles each block once. *)
val restore_net : t -> Net.t -> unit

(** {2 Serialization}

    Binary format: an 8-byte magic, a format-version varint, then named
    length-prefixed sections (["meta"], then one of ["machine"] /
    ["kernel"]+["trace"] / ["net"]).  Unknown sections are skipped, so
    the format can grow within a version; integers are signed-LEB128
    varints, dense memory uses fixed-width little-endian fields. *)

val to_string : t -> string

(** Content address: the MD5 hex digest of {!to_string}.  Equal digests
    mean identical captured state ({!diff} is exhaustive over the
    serialization), so the campaign service's snapshot store can share
    one blob between jobs that captured the same world. *)
val digest : t -> string

(** Inverse of {!to_string}; [Error _] on corrupt or foreign input,
    including any value outside its field's valid range (e.g. a PC
    beyond the 64 K-word flash).  Never raises, and never allocates by
    a length the input cannot back. *)
val of_string : string -> (t, string) result

(** [save path s] writes {!to_string} to [path]. *)
val save : string -> t -> unit

(** [Error _] covers both I/O failures and corrupt/mismatched files. *)
val load : string -> (t, string) result

(** {2 Comparison} *)

(** Component-level differences, one human-readable line per differing
    value, labelled by its path of field names (e.g.
    [net.motes[1].kernel.tasks[0].sp], [meta.programs]).  Exhaustive
    over the serialized state: [diff a b = []] iff
    [to_string a = to_string b]. *)
val diff : t -> t -> string list

(** [diff a b = []]. *)
val equal : t -> t -> bool

(** Divergence bisection: binary-search for the first cycle at which two
    engine configurations of the same workload disagree, using snapshot
    capture/restore to avoid re-running from boot. *)
module Bisect : sig
  (** One engine configuration of a world (a kernel, a bare machine, a
      network) behind four hooks.  Subjects must be *segment-invariant*:
      the state reached at an [advance] target must not depend on how
      the journey was cut into calls.  Both execution tiers and
      [Net.run] satisfy this. *)
  type 'w subject = {
    boot : unit -> 'w;
    advance : 'w -> int -> unit;
        (** run until the world's clock reaches the absolute target
            cycle, or it halts; repeated calls compose *)
    capture : 'w -> t;
    restore : t -> 'w -> unit;
  }

  type verdict =
    | Identical of { ran_to : int; probes : int }
    | Diverged of {
        lo : int;  (** last probed cycle where the subjects agreed *)
        hi : int;  (** first probed cycle where they differed *)
        diff : string list;  (** component diff at [hi] *)
        probes : int;  (** snapshot comparisons performed *)
      }

  (** [hunt ~max_cycles a b] advances both subjects checkpoint by
      checkpoint ([checkpoint_every] cycles, default [max_cycles/16]),
      then binary-searches the first disagreeing interval by restoring
      from the last agreeing snapshots, narrowing until it is at most
      [granularity] (default 64) cycles wide.  Subjects with coarser
      natural boundaries (a network's lockstep quantum) bottom out at
      their boundary spacing instead. *)
  val hunt :
    ?granularity:int ->
    ?checkpoint_every:int ->
    max_cycles:int ->
    'a subject ->
    'b subject ->
    verdict

  val pp_verdict : Format.formatter -> verdict -> unit

  (** Inject a single-point divergence: plant [poke_value] into a spare
      kernel cell once the world's clock passes [poke_at].  The cell is
      never otherwise written, so the injection is idempotent and poked
      subjects stay segment-invariant. *)
  type poke = { poke_at : int; poke_value : int }

  (** [kernel_subject boot] wraps a kernel boot thunk; [?tier] is passed
      to every {!Kernel.run} ([~tier:0]: the tier-0 reference
      interpreter). *)
  val kernel_subject :
    ?tier:int -> ?poke:poke -> (unit -> Kernel.t) -> Kernel.t subject

  (** [net_subject boot] wraps a network; a poke lands on mote 0 at the
      first quantum boundary at or after [poke_at]. *)
  val net_subject :
    ?domains:int -> ?poke:poke -> (unit -> Net.t) -> Net.t subject
end
