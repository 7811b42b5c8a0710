(** Firmware loading: Intel-HEX / AVR ELF bytes → {!Asm.Image.t}.

    The bridge between real avr-gcc build products and the rest of the
    reproduction: the images this module produces feed
    [Rewriter.Rewrite.run], [Machine.Cpu.load], and [Kernel.prepare]
    exactly like assembler-built ones, just without symbols — which is
    what makes the rewriter's conservative recovery path
    ({!Rewriter.Recovery}) matter.

    A HEX file is a bare byte stream, so the metadata an ELF carries in
    its program headers must be supplied by the caller:

    - [text_bytes] — where instructions end and flash data (the .data
      load image / progmem tables) begins.  Defaults to the whole
      image.  Images that use [LPM] must set it, or the relocated
      constants won't be redirected.
    - [data_size] — the task's logical .data+.bss footprint in bytes
      (sizes the heap the kernel allocates; accesses beyond it are
      rejected at rewrite time).  Default {!default_data_size}.

    ELF images get both from their program headers (avr-gcc puts the
    data segment at virtual address [0x800000 + logical], with the
    flash load address in [p_paddr] and .bss in [p_memsz - p_filesz]). *)

type error =
  | Hex of Hex.error  (** malformed Intel-HEX input *)
  | Elf of Elf.error  (** malformed ELF input *)
  | Empty  (** no loadable bytes *)
  | Too_large of { bytes : int; limit : int }
      (** image exceeds the device's flash *)
  | Bad_layout of { what : string }
      (** segments that contradict the AVR address convention (e.g. a
          data segment below the heap base) *)

(** Human-readable rendering of an {!error}. *)
val error_message : error -> string

(** Parse Intel-HEX text and build an image from its absolute flash
    byte segments ({!Hex.parse}; gaps are erased-flash [0xFF]).
    [entry] is a flash {e word} address, default 0 — the reset vector;
    a missing [data_size] assumes 1024 heap bytes. *)
val of_hex :
  name:string ->
  ?entry:int ->
  ?text_bytes:int ->
  ?data_size:int ->
  string ->
  (Asm.Image.t, error) result

(** Parse an AVR ELF executable.  Text, flash data, entry point, and
    heap size all come from the program headers. *)
val of_elf : name:string -> string -> (Asm.Image.t, error) result

(** Serialize flash words (e.g. an image's [words], or a rewritten
    [Naturalized.t.words]) as Intel-HEX text starting at flash word
    address [base] (byte address [2 * base]).  Default base 0. *)
val to_hex : ?base:int -> int array -> string
