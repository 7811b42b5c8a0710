(** Cycle-counting execution engine for the AVR subset.

    One {!t} models one mote MCU.  Kernels drive the machine through
    {!run}, the [on_syscall] hook and the [preempt_at] cycle horizon;
    the machine itself knows nothing about tasks.

    Execution is tiered (see DESIGN.md, "Execution tiers"): {!step} is
    the tier-0 reference interpreter, and {!run} by default executes
    tier-1 blocks cached per entry PC, which retire a whole
    straight-line run with one horizon check, each instruction one
    threaded op specialised to it.  Every tier produces bit-identical
    architectural state, cycle counts and stop points; a [trace] hook
    (or [~tier:0]) makes {!run} step at tier-0, the only tier that
    fires the hook. *)

(** Why execution ended for good. *)
type halt = State.halt =
  | Break_hit  (** the program executed BREAK: normal termination *)
  | Invalid_opcode of int * int  (** (pc, word): undecodable instruction *)
  | Fault of string  (** raised by a kernel (e.g. memory-protection kill) *)

(** Why {!run} returned. *)
type stop = State.stop =
  | Halted of halt
  | Sleeping  (** SLEEP executed; the caller decides how to wake *)
  | Preempted  (** the [preempt_at] cycle horizon was reached *)
  | Out_of_fuel  (** the [max_cycles] bound of {!run} was reached *)

exception
  Flash_overflow of { at : int; words : int }
    (** {!load} was asked to place an image outside [0, flash_words). *)

val pp_halt : Format.formatter -> halt -> unit
val pp_stop : Format.formatter -> stop -> unit

(** A flash image together with the caches derived from its words
    alone: the decode cache, the tier-1 compiled-block table and
    its heat counts, and the tier-2 content digest.  Every machine on a
    shared image ({!create_shared}, {!adopt_flash}) uses those caches,
    so a fleet booted from one template decodes and compiles each block
    once.  Concurrent writes to one image's tables from several domains
    are benign: a lost race costs a recompile and never changes
    simulated state. *)
type image = State.image

type t = State.t = {
  mutable flash : int array;
      (** program memory: the words of [image], possibly shared with
          sibling motes (see {!create_shared}) — {!load} detaches the
          machine before the first write (copy-on-write).  Sized to its
          content: the array ends at the 256-word chunk after its last
          written word, and every word past the end, up to the 64 K-word
          flash, reads as erased [0xFFFF] ({!flash_word}) *)
  mutable flash_shared : bool;
      (** whether [image] is a shared template image *)
  mutable image : image;
      (** the flash image this machine runs; [flash], [code], [blocks]
          and [heat] are its fields, held here for direct access *)
  mutable code : decoded array array;
      (** lazy decode cache, chunked [pc lsr 8][pc land 0xFF] with
          copy-on-write chunks like [blocks] *)
  sram : Bytes.t;  (** the full data space of {!Layout} *)
  io : Io.t;
  regs : int array;  (** r0..r31, each 0..255 *)
  mutable pc : int;  (** word address *)
  mutable sp : int;
  mutable sreg : int;
  mutable cycles : int;
  mutable idle_cycles : int;
  mutable insns : int;  (** retired instruction count *)
  mutable mem_reads : int;  (** data-space reads, I/O dispatch included *)
  mutable mem_writes : int;
  mutable io_reads : int;  (** subset of reads landing in the I/O area *)
  mutable io_writes : int;
  mutable halted : halt option;
  mutable sleeping : bool;
  mutable preempt_at : int;  (** cycle horizon after which {!run} returns *)
  mutable on_syscall : (t -> int -> unit) option;
  mutable trace : (int -> Avr.Isa.t -> unit) option;
      (** Per-instruction hook, tier-0 only.  When [None] (the default)
          the hook costs one test per {!run} iteration: compiled blocks
          never consult it.  While set, {!run} steps at tier-0, so every
          retired instruction is reported, from the iteration after it
          was installed (a syscall handler may install or remove it). *)
  mutable blocks : block option array array;
      (** tier-1 compiled-block cache, keyed by entry word address and
          chunked [pc lsr 8][pc land 0xFF] with copy-on-write chunks *)
  mutable heat : Bytes.t array;
      (** per-entry-PC execution counts driving the tier-1 compile
          threshold, one byte each (chunked like [blocks]); only touched
          on block-cache misses *)
  mutable tier : int;
      (** requested execution tier (0, 1 or 2), a ceiling: each tier
          falls back to the one below wherever it cannot serve the
          current PC (see {!run}) *)
  mutable t2 : t2;
      (** tier-2 binding of the current flash contents; reset to
          [T2_unknown] by every flash replacement ({!load} /
          {!adopt_flash}) *)
}

(** One tier-1 block ({!Block}), plain data: an array of threaded ops,
    one per body instruction and each shared with every block that
    holds the instruction, plus the entry, the terminator and [worst],
    a bound on the cycles a single execution can consume.  {!run}
    enters a block only when [m.cycles + worst] fits under the
    horizon; it then chains into cached blocks that still fit. *)
and block = State.block

(** A decode-cache entry: the instruction at a word address and, once a
    tier-1 block has used it, its op. *)
and decoded = State.decoded

(** Tier-2 (ahead-of-time compiled) binding states; managed by {!Aot}.
    [T2_wait (digest, ready_at)] defers the toolchain invocation until
    the machine has retired [ready_at] instructions, so short runs never
    pay a compile they cannot amortize.  [T2_ready p] runs [p], whose
    compiled code reads and writes this record's own fields. *)
and t2 = State.t2 =
  | T2_unknown
  | T2_off
  | T2_wait of string * int
  | T2_ready of program

(** A tier-2 compiled program, registered by its plugin under the
    [digest] of its flash image: [enter m limit] runs compiled blocks
    on [m] from [m.pc], entering none whose worst case would pass the
    cycle [limit], and returns with [m.pc] at the first instruction it
    did not run — a PC it has no block for (or a SLEEP, BREAK or
    SYSCALL, which the host runs), or a block that would overrun
    [limit].  {!run} then runs one tier-1 iteration there. *)
and program = State.program = {
  digest : string;
  enter : t -> int -> unit;
}

(** [flash_word fl a] is the word at address [a] (taken modulo the
    64 K-word flash) of the flash array [fl], or erased [0xFFFF] past
    its end.  Every flash read of every tier goes through it. *)
val flash_word : int array -> int -> int

(** [erased_flash n] is an all-erased flash array just long enough for
    words [0, n): it ends at the 256-word chunk after word [n - 1]. *)
val erased_flash : int -> int array

(** [canonical_init n word] is the canonical flash holding [word a] at
    each [a < n] and erased words above: a fresh array ending at the
    256-word chunk after its last non-erased word.  Two flashes with the
    same content have equal canonical forms. *)
val canonical_init : int -> (int -> int) -> int array

(** [canonical fl] is [fl] itself when it is already canonical (see
    {!canonical_init}), else its canonical copy. *)
val canonical : int array -> int array

(** [create ?flash ()] makes a machine with private flash holding a copy
    of [flash] (default empty), sized to it with an erased tail, and
    private caches.  Raises {!Flash_overflow} when [flash] is longer
    than the 64 K-word flash. *)
val create : ?flash:int array -> unit -> t

(** [image_of flash] makes an image over [flash] (at most
    [Layout.flash_words] words; {!Flash_overflow} otherwise; every word
    past its end reads as erased) with empty caches.  The image aliases
    [flash]: callers must not mutate it afterwards. *)
val image_of : int array -> image

(** [create_shared image] makes a machine whose flash and caches
    {e alias} [image] instead of copying it.  Booting N motes of the
    same program from one image costs one flash array and one set of
    caches in total; the first runtime flash write through {!load}
    detaches the writer first (copy-on-write), so sharing is
    architecturally invisible. *)
val create_shared : image -> t

(** [adopt_flash m image] replaces [m]'s entire flash and caches with
    an alias of [image] (as {!create_shared}), dropping its old caches
    and its tier-2 binding.  Snapshot restore uses this to re-establish
    structural sharing between motes of the same program. *)
val adopt_flash : t -> image -> unit

(** [load ?at m image] copies [image] into flash at word address [at]
    (default 0), invalidates the decode cache over the written range
    (including a cached 2-word instruction starting at [at - 1]) and
    drops the whole compiled-block cache, whose blocks follow direct
    jumps and calls anywhere in flash.  This is the only
    flash-write path, so self-modifying code — the kernel's trampoline
    patching — always observes its new code in both execution tiers.  A
    machine on a shared image ({!create_shared}) is first detached: it
    gets a private copy of the image's words (only as many as the image
    holds) and fresh private caches, and its siblings keep the image.
    A write that lands past the end of the flash array grows it to the
    256-word chunk after the write; the words in between read as erased
    before and after.  Raises {!Flash_overflow} when the image does not
    fit in the 64 K-word flash. *)
val load : ?at:int -> t -> int array -> unit

(** Cycles spent executing (total minus idle). *)
val active_cycles : t -> int

(** [flag m b] reads SREG bit [b] (0 = C .. 7 = I). *)
val flag : t -> int -> int

(** [set_flag m b v] writes SREG bit [b]. *)
val set_flag : t -> int -> bool -> unit

(** Data-memory accessors with I/O-register dispatch. *)
val read8 : t -> int -> int

val write8 : t -> int -> int -> unit
val read16 : t -> int -> int

(** Pointer-pair accessors (X = r26:27, Z = r30:31). *)
val xreg : t -> int
val zreg : t -> int
val set_zreg : t -> int -> unit

(** Execute exactly one instruction; no-op when halted. *)
val step : t -> unit

(** Run until halt, SLEEP, the preemption horizon, or [max_cycles],
    with identical observable behaviour at every tier.  One loop runs
    every tier: while no stop applies, each iteration takes one tier-0
    {!step} when a [trace] hook is set or [m.tier] is 0; at tier 1 it
    runs the compiled block at the PC when its worst case fits under
    the horizon, else one {!step}; at tier 2 it first enters the bound
    compiled program (see {!Aot}) and then, unless a stop now applies,
    runs one tier-1 iteration.  [?tier] stores a new tier ceiling on
    the machine before running.  Requesting a tier the host toolchain
    cannot deliver degrades to tier 1 rather than failing. *)
val run : ?tier:int -> ?max_cycles:int -> t -> stop

(** [fast_forward m target] advances the clock to the {e absolute}
    cycle [target] (no-op when already past it) without executing,
    attributing the span to idle time; models a sleeping CPU. *)
val fast_forward : t -> int -> unit

(** Earliest cycle at which a peripheral could wake a sleeping CPU. *)
val next_wake : t -> int

(** Run a standalone program to completion, fast-forwarding through
    SLEEP — bare-metal semantics with no OS.  [None] when the cycle
    budget ran out.  [?tier] as in {!run}. *)
val run_native : ?tier:int -> ?max_cycles:int -> t -> halt option
