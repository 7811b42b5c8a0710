(** Deterministic adversarial attack campaigns: Harvard code-injection
    workloads (Francillon & Castelluccia, arXiv:0901.3482) delivered
    through the radio against a deliberately vulnerable frame receiver
    ({!Programs.Rx_vuln}), with a cross-kernel containment matrix over
    SenSmart, t-kernel, LiteOS-like partitions and the Maté-like VM.

    Verdicts come from containment {e probes} only (canary sweeps,
    sampled PC bounds, benign-frame liveness, sibling progress,
    kill-reason classification, kernel invariants) — never from
    knowledge of the attack class; every probe is mirrored into the
    campaign trace as a {!Trace.Probe} event.  Campaigns are
    byte-identical across execution tiers and network domain counts. *)

(** The containment lattice, weakest to worst. *)
type verdict = Contained | Degraded | Escaped | Bricked

val verdict_rank : verdict -> int
val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
val worst : verdict -> verdict -> verdict

(** Attack classes: the oversized-frame stack smash, the exact saved
    frame-pointer/return-address overwrite, and the two-stage gadget
    bootstrap that turns the receiver's copy loop into a
    write-anywhere primitive fed by the radio stream. *)
type cls = Flood | Clobber | Chain

val cls_name : cls -> string
val all_classes : cls list

(** ["sensmart"; "tkernel"; "liteos"; "matevm"]. *)
val all_systems : string list

(** Splitmix-style deterministic generator (no [Random] state). *)
type rng

val rng_of : int -> rng
val next : rng -> int
val next_byte : rng -> int

(** Packet crafting.  Addresses are in the target system's own
    coordinates; return addresses are flash {e word} addresses, as RET
    pops them. *)
module Packet : sig
  val frame : int list -> int list
  val benign : int list
  val flood : len:int -> fill:(int -> int) -> int list

  val clobber :
    ?extra:int list -> y:int -> ret:int -> fill:(int -> int) -> unit -> int list

  val chain :
    target:int -> rf_ldx:int -> payload:int list -> fill:(int -> int) -> int list

  val pp_bytes : Format.formatter -> int list -> unit
end

(** Trial schedule, absolute cycles (identical for every system). *)

val t_attack : int
val t_benign : int
val t_end : int

type probe = { pname : string; detail : string; ok : bool }

type trial = {
  system : string;
  cls : cls;
  index : int;
  packet : int list;
  verdict : verdict;
  probes : probe list;  (** every probe consulted, fired or clean *)
  frames : int;
  responsive : bool;
  recovery_cycles : int option;
      (** watchdog-reboot-to-restored-service time (SenSmart trials
          whose verdict was not [Contained]) *)
  cycles : int;
}

type matrix = {
  seed : int;
  trials : trial list;
  trace : Trace.t;  (** probe events plus the ["attack.*"] counters *)
}

(** Craft the per-class SenSmart packet from a booted kernel's own
    address tables (exposed for the identity tests and the network
    delivery path). *)
val sensmart_packet : cls:cls -> rng:rng -> Kernel.t -> int list

(** Run the full campaign: [trials] seeded packet variants of every
    attack class against every system in [systems].  Deterministic:
    same arguments, same matrix — at any [tier] and on any host. *)
val campaign :
  ?tier:int -> ?trials:int -> ?seed:int -> ?systems:string list -> unit -> matrix

(** Worst verdict of a (system, class) cell; [None] when untested. *)
val cell : matrix -> string -> cls -> verdict option

(** Classes a system fully contained (worst verdict [Contained]). *)
val contained_classes : matrix -> string -> cls list

val pp_matrix : Format.formatter -> matrix -> unit

(** Replay explicit raw packets against the SenSmart receiver+guard
    pair with the full probe battery (the CLI's [--packet]). *)
val replay : ?tier:int -> ?spacing:int -> int list list -> trial * Trace.t

(** Parse a hex packet spec ("a7 04 11 22 33 44", spaces optional):
    hex digit pairs only, 1 to 4096 bytes, via {!Fault.Plan.frame_of_hex}.
    An error quotes the spec as given. *)
val packet_of_spec : string -> (int list, string) result

(** A deterministic digest of a campaign — verdicts, probe outcomes,
    cycles and packet bytes — for tier/domain identity tests. *)
val fingerprint : matrix -> string
