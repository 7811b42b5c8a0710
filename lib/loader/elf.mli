(** Minimal AVR ELF32 reader/writer (program headers only).

    Reads the executables avr-gcc links: little-endian ELF32,
    [e_machine = EM_AVR] (0x53), loadable content described by
    [PT_LOAD] program headers.  Section headers, symbols, and
    relocations are ignored — a linked firmware image is fully
    described by its segments, which is all the rewriter needs.

    avr-gcc's address convention: flash lives at virtual addresses
    below {!data_space}; RAM (.data/.bss) at [{!data_space} + logical
    address], with the load image's flash position in [p_paddr] (the
    LMA).  {!Loader.of_elf} relies on this to split text from the
    .data load image and to size the task heap. *)

(** Virtual-address base avr-gcc uses for the data space (0x800000). *)
val data_space : int

(** One [PT_LOAD] segment. *)
type segment = {
  vaddr : int;  (** virtual (run-time) address *)
  paddr : int;  (** load (flash) address — the LMA *)
  filesz : int;  (** bytes present in the file *)
  memsz : int;  (** bytes occupied at run time ([>= filesz]; rest is .bss) *)
  data : string;  (** the [filesz] file bytes *)
}

type t = {
  entry : int;  (** [e_entry], a flash byte address *)
  segments : segment list;  (** in program-header order *)
}

type error =
  | Bad_magic  (** not an ELF file *)
  | Not_elf32  (** 64-bit class *)
  | Not_little_endian
  | Not_executable of { e_type : int }  (** relocatable / shared object *)
  | Not_avr of { machine : int }  (** wrong [e_machine] *)
  | Bad_phentsize of { phentsize : int }
      (** program header entries shorter than the 32-byte ELF32 header *)
  | Truncated of { what : string; need : int; have : int }
      (** file ends inside the named structure *)

(** Human-readable rendering of an {!error}. *)
val error_message : error -> string

val parse : string -> (t, error) result

(** [encode ~entry segments] writes a minimal valid ELF32/AVR
    executable: file header, one program header per segment, then the
    segment bytes (no section table).  {!parse} round-trips it. *)
val encode : entry:int -> segment list -> string
