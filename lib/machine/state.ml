(* Machine state and the tier-0 (single-step) execution engine for the
   AVR subset.

   One [t] models one mote MCU: 64 K words of flash, the 0x1100-byte data
   space of Figure 2, the 32 registers, SP, SREG, and the peripherals of
   {!Io}.  This module holds the state record, the memory/ALU primitives
   (shared with the tier-1 ops of {!Block}), [exec_data], tier 0's
   executor of data instructions, [exec_insn], which adds the PC and
   cycle bookkeeping and the control instructions and is shared with the
   tier-1 block terminators, and [step], the reference interpreter that
   executes exactly one instruction.  The run loops live in {!Cpu},
   which re-exports everything here. *)

open Avr

type halt =
  | Break_hit  (** The program executed BREAK: normal termination. *)
  | Invalid_opcode of int * int  (** (pc, word): undecodable instruction. *)
  | Fault of string  (** Raised by a kernel (e.g. memory-protection kill). *)

type stop =
  | Halted of halt
  | Sleeping  (** SLEEP executed; caller decides how to wake. *)
  | Preempted  (** The [preempt_at] cycle horizon was reached. *)
  | Out_of_fuel  (** The [max_cycles] bound of [run] was reached. *)

exception
  Flash_overflow of { at : int; words : int }
    (** [load] was asked to place an image outside [0, flash_words). *)

let pp_halt fmt = function
  | Break_hit -> Fmt.string fmt "break"
  | Invalid_opcode (pc, w) -> Fmt.pf fmt "invalid opcode %04x at %04x" w pc
  | Fault s -> Fmt.pf fmt "fault: %s" s

let pp_stop fmt = function
  | Halted h -> Fmt.pf fmt "halted (%a)" pp_halt h
  | Sleeping -> Fmt.string fmt "sleeping"
  | Preempted -> Fmt.string fmt "preempted"
  | Out_of_fuel -> Fmt.string fmt "out of fuel"

(* What {!Block.check} proves about a summarizable polling loop, for the
   run-time check at its back edges to complete. *)
type loop = {
  written : int array;  (* registers the path may write *)
  depth : int;  (* bytes of stack the path uses below the entry SP *)
  statics : int array;  (* SRAM addresses the path loads or stores *)
  cells : int array;  (* carried cells *)
  steps : int array;  (* each cell's change per iteration, mod 256 *)
  tested : bool array;  (* whether the cell has a zero-test exit *)
  reads : int array;  (* I/O addresses of the peripheral reads *)
  offsets : int array;  (* cycles from the entry to each read, included *)
}

type t = {
  mutable flash : int array;
      (* program memory: [image.i_flash], held here too so the hot
         paths read it without an indirection.  Sized to its content: it
         ends at the chunk after its last written word, and every word
         past the end reads as erased [0xFFFF] (see [flash_word]). *)
  mutable flash_shared : bool;
      (* whether [image] may be shared with sibling motes booted from
         the same program template; the first write through [load]
         then detaches this machine onto a private copy, so sharing is
         invisible to programs (copy-on-write). *)
  mutable image : image;
      (* the flash image this machine runs and the caches derived from
         it; [flash], [code], [blocks] and [heat] alias its fields. *)
  mutable code : decoded array array;
      (* lazy decode cache, chunked [pc lsr 8][pc land 0xFF] like
         [blocks]; chunks start as the shared [no_code_chunk] and are
         copied on first write, so an idle cache costs one small
         top-level array instead of 512 KB. *)
  sram : Bytes.t; (* full data space, I/O shadow included *)
  io : Io.t;
  regs : int array; (* r0..r31, each 0..255 *)
  mutable pc : int; (* word address *)
  mutable sp : int;
  mutable sreg : int;
  mutable cycles : int;
  mutable idle_cycles : int;
  mutable insns : int; (* retired instruction count *)
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable io_reads : int; (* subset of the above landing in the I/O area *)
  mutable io_writes : int;
  mutable halted : halt option;
  mutable sleeping : bool;
  mutable preempt_at : int;
  mutable on_syscall : (t -> int -> unit) option;
  mutable trace : (int -> Isa.t -> unit) option;
  mutable blocks : block option array array;
      (* tier-1 compiled-block cache, keyed by entry word address and
         chunked [pc lsr 8][pc land 0xFF].  Chunks start as the shared
         [no_chunk] and are copied on first write, so a cache costs one
         small array, not a megabyte of table, until blocks compile. *)
  mutable heat : Bytes.t array;
      (* per-entry-PC execution counts driving the tier-1 compile
         threshold, one byte each; chunked like [blocks] and only
         touched on block-cache misses, so hot steady state never sees
         it. *)
  mutable tier : int;
      (* requested execution tier (0, 1 or 2); a ceiling, not a mode —
         each tier falls back to the one below wherever it cannot serve
         the current PC. *)
  mutable t2 : t2;
      (* tier-2 binding of the current flash contents; see {!Aot}. *)
}

(* One tier-1 block, as data ({!Block}): [fns.(i) m limit b i] runs op
   [i] of [b] and tail-calls op [i + 1] ([limit] is the lower of the
   fuel and preemption horizons); the last op retires [retired]
   instructions, runs [term] (at [term_pc]; [None]: fall through to
   it) and chains.  [worst] is an upper bound on the cycles a single
   execution can consume, so the run loop stays exactly on the
   horizon; [loop] is the polling loop a block summarizes. *)
and block = {
  fns : op array;
  entry : int;
  worst : int;
  term : Isa.t option;
  term_pc : int;
  retired : int;
  loop : loop option;
}

and op = t -> int -> block -> int -> unit

(* A decode-cache entry: the instruction and, once a tier-1 block has
   used it, its op, shared by every block and mote of the image. *)
and decoded = { insn : Isa.t; mutable op : op }

(* Tier-2 (ahead-of-time compiled) binding states, managed by {!Aot}.
   [T2_wait (digest, ready_at)] runs the machine on tier-1 until it has
   retired [ready_at] instructions: first the heat threshold, so short
   runs never start a compile they cannot amortize, then the interval
   between two polls of the compile slot. *)
and t2 =
  | T2_unknown  (* flash not yet digested *)
  | T2_off  (* tier-2 unavailable for this image (or globally) *)
  | T2_wait of string * int
  | T2_ready of program

(* A tier-2 compiled program, registered by its plugin's initializer
   ({!register}).  [enter m limit] runs compiled blocks on [m] itself
   from [m.pc], entering none whose worst case would pass the cycle
   [limit], and returns with [m.pc] at the first instruction it did not
   run: one it has no block for (SLEEP, BREAK and SYSCALL included,
   which the host runs), or the entry of a block whose worst case would
   overrun [limit].  No partial instruction has executed. *)
and program = {
  digest : string;  (* content digest of the source flash image *)
  enter : t -> int -> unit;
}

(* A flash image and everything derived from its words alone: the
   decode cache, the tier-1 block table with its heat counts, and the
   tier-2 content digest.  Every machine booted from one program
   template aliases one image ({!create_shared}), so a fleet decodes and
   compiles each block once instead of once per mote.

   This is sound because a [block] and its ops are pure functions of
   the flash words: {!Block.walk} reads nothing else, and an op takes
   the machine as an argument.  The words of a shared image are never
   written ([load] detaches first).  Under [Net.run ~domains:n] several
   domains write the tables of one image without locking; every race is
   benign.  Two domains filling one empty chunk may each install a
   fresh chunk, and the loser's entries vanish; a heat increment may be
   lost; a digest may be computed twice.  Each costs at most a
   recompile or a redecode of the same, immutable, content-derived
   value, and none changes simulated state, because every tier is
   bit-identical to tier-0 under any block partitioning. *)
and image = {
  i_flash : int array;
      (* at most [Layout.flash_words] words, with an erased tail *)
  i_code : decoded array array;
  i_blocks : block option array array;
  i_heat : Bytes.t array;
  mutable i_digest : string option;
      (* tier-2 digest of [i_flash], kept only while shared ({!Aot}) *)
}

(* Process-wide registry of loaded tier-2 programs, keyed by flash
   digest.  A plugin registers its program from its top-level
   initializer when Dynlink loads it; every machine whose flash hashes
   to the same digest shares the one compiled program (a 10 k-mote
   fleet booted from one template compiles once).  It lives here, next
   to [program], so a plugin depends on this module's interface alone.
   The mutex makes registration and lookup safe from [Net]'s worker
   domains. *)
let registry_lock = Mutex.create ()
let registry : (string, program) Hashtbl.t = Hashtbl.create 16

let register (p : program) =
  Mutex.protect registry_lock (fun () -> Hashtbl.replace registry p.digest p)

let find digest = Mutex.protect registry_lock (fun () -> Hashtbl.find_opt registry digest)

(* Block-table chunk geometry: flash_words = chunk_count * chunk_words. *)
let chunk_words = 256
let chunk_count = Layout.flash_words / chunk_words

(* The op of a decode-cache entry no block has used yet, and the entry
   of a word not decoded yet (compared with [==]; never written). *)
let unbuilt : op = fun _ _ _ _ -> invalid_arg "State: unbuilt op"
let undecoded = { insn = Isa.Nop; op = unbuilt }

(* The shared all-empty chunks; never written (copy-on-write). *)
let no_chunk : block option array = Array.make chunk_words None
let no_code_chunk : decoded array = Array.make chunk_words undecoded
let no_heat = Bytes.make chunk_words '\000'

(* Flash arrays are sized to their content: one ends at the chunk after
   its last written word, and every word past its end reads as erased.
   [flash_word] is the one reader of flash words. *)
let[@inline] flash_word fl a =
  let a = a land 0xFFFF in
  if a < Array.length fl then Array.unsafe_get fl a else 0xFFFF

(* The program-memory byte at byte address [z]: LPM's read, the low
   byte of a word at an even address. *)
let[@inline] flash_byte fl z =
  let w = flash_word fl (z lsr 1) in
  (if z land 1 = 0 then w else w lsr 8) land 0xFF

(* The length of a flash array whose written words all lie below [n]:
   [n] rounded up to whole chunks. *)
let flash_length n = (n + chunk_words - 1) / chunk_words * chunk_words

(* An erased flash array long enough to hold words [0, n). *)
let erased_flash n = Array.make (flash_length n) 0xFFFF

(* The canonical length of the flash holding [word a] at each [a < n]
   and erased words above: up to the chunk after its last non-erased
   word.  Two flashes with the same content have equal canonical
   forms. *)
let canonical_length n word =
  let rec last a = if a >= 0 && word a = 0xFFFF then last (a - 1) else a in
  flash_length (last (n - 1) + 1)

(* That flash in canonical form, as a fresh array. *)
let canonical_init n word =
  let fl = erased_flash (canonical_length n word) in
  for a = 0 to min n (Array.length fl) - 1 do
    Array.unsafe_set fl a (word a)
  done;
  fl

(* [fl] itself when it is canonical, else its canonical copy. *)
let canonical fl =
  let n = Array.length fl and word = Array.unsafe_get fl in
  if canonical_length n word = n then fl else canonical_init n word

(** An image over [flash] (at most [Layout.flash_words] words, with an
    erased tail) with empty caches.  The image aliases [flash]: callers
    must not mutate it afterwards. *)
let image_of flash =
  if Array.length flash > Layout.flash_words then
    raise (Flash_overflow { at = 0; words = Array.length flash });
  { i_flash = flash;
    i_code = Array.make chunk_count no_code_chunk;
    i_blocks = Array.make chunk_count no_chunk;
    i_heat = Array.make chunk_count no_heat;
    i_digest = None }

let machine ~shared image =
  { flash = image.i_flash;
    flash_shared = shared;
    image;
    code = image.i_code;
    sram = Bytes.make Layout.data_size '\000';
    io = Io.create ();
    regs = Array.make 32 0;
    pc = 0;
    sp = Layout.initial_sp;
    sreg = 0;
    cycles = 0;
    idle_cycles = 0;
    insns = 0;
    mem_reads = 0;
    mem_writes = 0;
    io_reads = 0;
    io_writes = 0;
    halted = None;
    sleeping = false;
    preempt_at = max_int;
    on_syscall = None;
    trace = None;
    blocks = image.i_blocks;
    heat = image.i_heat;
    tier = 1;
    t2 = T2_unknown }

let create ?(flash = [||]) () =
  let fl = erased_flash (Array.length flash) in
  Array.blit flash 0 fl 0 (Array.length flash);
  machine ~shared:false (image_of fl)

(** A machine whose flash and caches {e alias} [image] instead of
    copying it.  Booting N motes from one image this way costs one flash
    array and one set of caches in total; the first runtime flash write
    through {!load} detaches the writer (copy-on-write). *)
let create_shared image = machine ~shared:true image

(* Point [m] at [image]: its words and caches, with the tier-2 binding
   dropped (it was bound to the old flash contents). *)
let attach m ~shared image =
  m.flash <- image.i_flash;
  m.flash_shared <- shared;
  m.image <- image;
  m.code <- image.i_code;
  m.blocks <- image.i_blocks;
  m.heat <- image.i_heat;
  m.t2 <- T2_unknown

(* Invalidate the decode cache over word range [lo, hi) (chunk-wise:
   shared empty chunks are already invalid and are skipped). *)
let invalidate_code m lo hi =
  if hi > lo then
    for ci = lo lsr 8 to (hi - 1) lsr 8 do
      let chunk = m.code.(ci) in
      if chunk != no_code_chunk then begin
        let base = ci * chunk_words in
        let a = max lo base and b = min hi (base + chunk_words) in
        Array.fill chunk (a - base) (b - a) undecoded
      end
    done

(** Copy a program image into flash at word address [at] (default 0) and
    invalidate the decode cache over the written range.  The word before
    [at] is invalidated too: a cached 2-word instruction starting at
    [at - 1] would otherwise keep its stale operand word.  The whole
    compiled-block table is dropped: a tier-1 block follows direct jumps
    and calls, so the flash it was formed from is not one range near its
    entry, and a load is rare (boot, task admission, fault injection,
    self-patching).  A machine on a
    shared image ({!create_shared}/{!adopt_flash}) is first detached onto
    a private copy of the used words with fresh private caches, so the
    write never leaks into sibling motes; a write past the end of a
    private flash grows the array to the chunk after it.  Raises
    {!Flash_overflow} when the image does not fit the flash. *)
let load ?(at = 0) m (image : int array) =
  let words = Array.length image in
  if at < 0 || words > Layout.flash_words - at then
    raise (Flash_overflow { at; words });
  let len = Array.length m.flash in
  if m.flash_shared || at + words > len then begin
    let fl = erased_flash (max len (at + words)) in
    Array.blit m.flash 0 fl 0 len;
    if m.flash_shared then attach m ~shared:false (image_of fl)
    else begin
      (* Grown in place: the private caches stay valid, because every
         word past the old end read as erased and still does outside
         the range written below (which is invalidated). *)
      m.flash <- fl;
      m.image <- { m.image with i_flash = fl }
    end
  end;
  Array.blit image 0 m.flash at words;
  let lo = max 0 (at - 1) in
  let hi = min Layout.flash_words (at + words) in
  invalidate_code m lo hi;
  (* Private here (a shared image was detached above): clear in place. *)
  Array.fill m.blocks 0 chunk_count no_chunk;
  (* The tier-2 program was compiled from the old flash contents; drop
     the binding so the next tier-2 attempt re-digests.  A mote that was
     on a shared image keeps the image's compiled program alive for its
     siblings (the registry is keyed by digest) but must never execute
     it against its now-private, patched words. *)
  m.t2 <- T2_unknown

(** Replace [m]'s entire flash and caches with an alias of [image] (as
    {!create_shared}); the old caches are simply dropped.  Snapshot
    restore uses this to re-establish sharing between motes of the same
    program. *)
let adopt_flash m image = attach m ~shared:true image

let active_cycles m = m.cycles - m.idle_cycles

(* Flag plumbing. *)
let[@inline] flag m b = (m.sreg lsr b) land 1
let[@inline] set_flag m b v =
  if v then m.sreg <- m.sreg lor (1 lsl b)
  else m.sreg <- m.sreg land lnot (1 lsl b)

(* Data-memory access.  Addresses below the I/O boundary dispatch to the
   peripherals (with SP/SREG handled here, since they are CPU state). *)
let spl_addr = Layout.io_data_addr Io.spl
let sph_addr = Layout.io_data_addr Io.sph
let sreg_addr = Layout.io_data_addr Io.sreg

let[@inline] read8 m addr =
  let addr = addr land 0xFFFF in
  m.mem_reads <- m.mem_reads + 1;
  if addr < Layout.io_size then m.io_reads <- m.io_reads + 1;
  if addr >= Layout.io_size then
    if addr < Layout.data_size then Char.code (Bytes.unsafe_get m.sram addr)
    else 0
  else if addr = spl_addr then m.sp land 0xFF
  else if addr = sph_addr then (m.sp lsr 8) land 0xFF
  else if addr = sreg_addr then m.sreg
  else if addr >= 0x20 && addr < 0x60 then Io.read m.io ~cycles:m.cycles (addr - 0x20)
  else Char.code (Bytes.unsafe_get m.sram addr)

let[@inline] write8 m addr v =
  let addr = addr land 0xFFFF and v = v land 0xFF in
  m.mem_writes <- m.mem_writes + 1;
  if addr < Layout.io_size then m.io_writes <- m.io_writes + 1;
  if addr >= Layout.io_size then begin
    if addr < Layout.data_size then Bytes.unsafe_set m.sram addr (Char.unsafe_chr v)
  end
  else if addr = spl_addr then m.sp <- (m.sp land 0xFF00) lor v
  else if addr = sph_addr then m.sp <- (m.sp land 0x00FF) lor (v lsl 8)
  else if addr = sreg_addr then m.sreg <- v
  else if addr >= 0x20 && addr < 0x60 then Io.write m.io ~cycles:m.cycles (addr - 0x20) v
  else Bytes.unsafe_set m.sram addr (Char.unsafe_chr v)

(** Little-endian 16-bit data-memory read (test/kernel convenience). *)
let read16 m addr = read8 m addr lor (read8 m (addr + 1) lsl 8)

(* Register-file accessors.  Register indices come from the decoder,
   whose field extraction can only produce 0..31 (pair bases stop at
   30), so unchecked access is safe — and this is the hottest load/store
   in both execution tiers. *)
let[@inline] rg m i = Array.unsafe_get m.regs i
let[@inline] rs m i v = Array.unsafe_set m.regs i v

(* Register-pair accessors. *)
let[@inline] pair m r = (rg m (r)) lor ((rg m (r + 1)) lsl 8)
let[@inline] set_pair m r v =
  rs m (r) @@ v land 0xFF;
  rs m (r + 1) @@ (v lsr 8) land 0xFF

let[@inline] xreg m = pair m 26
let[@inline] yreg m = pair m 28
let[@inline] zreg m = pair m 30
let[@inline] set_xreg m v = set_pair m 26 v
let[@inline] set_yreg m v = set_pair m 28 v
let[@inline] set_zreg m v = set_pair m 30 v

(* Stack primitives (SP is a physical data address; PUSH stores then
   decrements, as on real AVR). *)
let[@inline] push8 m v =
  write8 m m.sp v;
  m.sp <- (m.sp - 1) land 0xFFFF

let[@inline] pop8 m =
  m.sp <- (m.sp + 1) land 0xFFFF;
  read8 m m.sp

let[@inline] push_pc m ret =
  push8 m (ret land 0xFF);
  push8 m ((ret lsr 8) land 0xFF)

let[@inline] pop_pc m =
  let hi = pop8 m in
  let lo = pop8 m in
  (hi lsl 8) lor lo

(* ALU helpers.  All operate on 8-bit values and set the SREG exactly as
   the datasheet specifies.  Flags are composed into a single SREG write
   (each component is 0 or 1, S is always N xor V) because these run on
   every ALU instruction in both execution tiers: the read-modify-write
   chain of per-bit [set_flag] calls dominated the interpreter profile. *)

(* Replace C,Z,N,V,S,H, preserving T and I. *)
let[@inline] set_alu_flags m ~h ~c ~v ~n ~z =
  m.sreg <-
    (m.sreg land 0xC0)
    lor c lor (z lsl 1) lor (n lsl 2) lor (v lsl 3)
    lor ((n lxor v) lsl 4) lor (h lsl 5)

(* Replace C,Z,N,V,S, preserving H, T and I (the shift/rotate group). *)
let[@inline] set_shift_flags m ~c ~v ~n ~z =
  m.sreg <-
    (m.sreg land 0xE0) lor c lor (z lsl 1) lor (n lsl 2) lor (v lsl 3)
    lor ((n lxor v) lsl 4)

let[@inline] alu_add m d r ~carry =
  let a = (rg m (d)) and b = (rg m (r)) in
  let c0 = if carry then m.sreg land 1 else 0 in
  let sum = a + b + c0 in
  let res = sum land 0xFF in
  set_alu_flags m
    ~h:(((a land 0xF) + (b land 0xF) + c0) lsr 4)
    ~c:(sum lsr 8)
    ~v:(((a lxor res) land (b lxor res)) lsr 7)
    ~n:(res lsr 7)
    ~z:(if res = 0 then 1 else 0);
  rs m (d) @@ res

let[@inline] sub_flags m a b ~borrow ~keep_z =
  let c0 = if borrow then m.sreg land 1 else 0 in
  let diff = a - b - c0 in
  let res = diff land 0xFF in
  let z =
    if res <> 0 then 0
    else if keep_z then (m.sreg lsr 1) land 1
    else 1
  in
  set_alu_flags m
    ~h:(if (a land 0xF) - (b land 0xF) - c0 < 0 then 1 else 0)
    ~c:(if diff < 0 then 1 else 0)
    ~v:(((a lxor b) land (a lxor res)) lsr 7)
    ~n:(res lsr 7)
    ~z;
  res

(* SUB/SBC/SUBI/SBCI and CP/CPC/CPI on register [d] and the value [v]. *)
let[@inline] op_sub m d v ~borrow = rs m d (sub_flags m (rg m d) v ~borrow ~keep_z:borrow)
let[@inline] op_cp m d v ~borrow = ignore (sub_flags m (rg m d) v ~borrow ~keep_z:borrow)

(* AND/OR/EOR: replace Z,N,V(=0),S(=N), preserving C, H, T and I. *)
let[@inline] alu_logic m d res =
  let n = res lsr 7 in
  let z = if res = 0 then 1 else 0 in
  m.sreg <- (m.sreg land 0xE1) lor (z lsl 1) lor (n lsl 2) lor (n lsl 4);
  rs m (d) @@ res

let[@inline] alu_adiw m d k ~sub =
  let w = pair m d in
  let res = (if sub then w - k else w + k) land 0xFFFF in
  let wh7 = w lsr 15 and r15 = res lsr 15 in
  let v = if sub then wh7 land (1 - r15) else (1 - wh7) land r15 in
  let c = if sub then r15 land (1 - wh7) else (1 - r15) land wh7 in
  set_shift_flags m ~c ~v ~n:r15 ~z:(if res = 0 then 1 else 0);
  set_pair m d res

(* Single-register ALU ops of [exec_data]. *)
let[@inline] op_com m d =
  let res = 0xFF - (rg m (d)) in
  let n = res lsr 7 in
  (* C=1, V=0, S=N; H preserved. *)
  m.sreg <-
    (m.sreg land 0xE0) lor 1
    lor ((if res = 0 then 1 else 0) lsl 1) lor (n lsl 2) lor (n lsl 4);
  rs m (d) @@ res

let[@inline] op_neg m d =
  let v0 = (rg m (d)) in
  let res = (0x100 - v0) land 0xFF in
  set_alu_flags m
    ~h:(((res lor v0) lsr 3) land 1)
    ~c:(if res <> 0 then 1 else 0)
    ~v:(if res = 0x80 then 1 else 0)
    ~n:(res lsr 7)
    ~z:(if res = 0 then 1 else 0);
  rs m (d) @@ res

let[@inline] op_inc m d =
  let v0 = (rg m (d)) in
  let res = (v0 + 1) land 0xFF in
  set_shift_flags m
    ~c:(m.sreg land 1) (* INC leaves C alone *)
    ~v:(if v0 = 0x7F then 1 else 0)
    ~n:(res lsr 7)
    ~z:(if res = 0 then 1 else 0);
  rs m (d) @@ res

let[@inline] op_dec m d =
  let v0 = (rg m (d)) in
  let res = (v0 - 1) land 0xFF in
  set_shift_flags m
    ~c:(m.sreg land 1) (* DEC leaves C alone *)
    ~v:(if v0 = 0x80 then 1 else 0)
    ~n:(res lsr 7)
    ~z:(if res = 0 then 1 else 0);
  rs m (d) @@ res

let[@inline] op_asr m d =
  let v0 = (rg m (d)) in
  let res = (v0 lsr 1) lor (v0 land 0x80) in
  let c = v0 land 1 and n = res lsr 7 in
  set_shift_flags m ~c ~v:(n lxor c) ~n ~z:(if res = 0 then 1 else 0);
  rs m (d) @@ res

let[@inline] op_lsr m d =
  let v0 = (rg m (d)) in
  let res = v0 lsr 1 in
  let c = v0 land 1 in
  set_shift_flags m ~c ~v:c ~n:0 ~z:(if res = 0 then 1 else 0);
  rs m (d) @@ res

let[@inline] op_ror m d =
  let v0 = (rg m (d)) in
  let old_c = m.sreg land 1 in
  let res = (v0 lsr 1) lor (old_c lsl 7) in
  let c = v0 land 1 in
  set_shift_flags m ~c ~v:(old_c lxor c) ~n:old_c
    ~z:(if res = 0 then 1 else 0);
  rs m (d) @@ res

let[@inline] op_mul m d r =
  let p = (rg m (d)) * (rg m (r)) in
  set_pair m 0 p;
  (* C = bit 15 of the product, Z; all other flags preserved. *)
  m.sreg <-
    (m.sreg land lnot 3) lor (p lsr 15) lor ((if p = 0 then 1 else 0) lsl 1)

(* Resolve an indirect pointer access, applying post-increment /
   pre-decrement side effects; returns the effective address. *)
let[@inline] ptr_addr m = function
  | Isa.X -> xreg m
  | X_inc -> let a = xreg m in set_xreg m ((a + 1) land 0xFFFF); a
  | X_dec -> let a = (xreg m - 1) land 0xFFFF in set_xreg m a; a
  | Y_inc -> let a = yreg m in set_yreg m ((a + 1) land 0xFFFF); a
  | Y_dec -> let a = (yreg m - 1) land 0xFFFF in set_yreg m a; a
  | Z_inc -> let a = zreg m in set_zreg m ((a + 1) land 0xFFFF); a
  | Z_dec -> let a = (zreg m - 1) land 0xFFFF in set_zreg m a; a

(* The decode-cache entry at word address [pc] (below 64 K), decoding
   and caching it on a miss; raises [Decode.Unknown_opcode] for an
   undecodable word. *)
let decoded m pc =
  let chunk = Array.unsafe_get m.code (pc lsr 8) in
  let e = Array.unsafe_get chunk (pc land 0xFF) in
  if e != undecoded then e
  else begin
    let e = { insn = fst (Decode.at (flash_word m.flash) pc); op = unbuilt } in
    let chunk =
      if chunk != no_code_chunk then chunk
      else begin
        let fresh = Array.make chunk_words undecoded in
        m.code.(pc lsr 8) <- fresh;
        fresh
      end
    in
    chunk.(pc land 0xFF) <- e;
    e
  end

let decode m pc = (decoded m pc).insn

let fetch_decode m pc =
  match decode m pc with
  | i -> i
  | exception Decode.Unknown_opcode w ->
    m.halted <- Some (Invalid_opcode (pc, w));
    Isa.Nop

(* The data effect of one non-control instruction: registers, SREG,
   data memory and I/O.  PC, cycle and retired-count bookkeeping belong
   to the caller.  Tier-0 [step] dispatches through this match; tier 1
   runs the same primitives from one op per instruction
   ({!Block.op_of}), which falls back to this match only for rare
   instructions, so test_machine's "tier-1 op = tier-0 step" property
   compares each op with it. *)
let[@inline] exec_data m (insn : Isa.t) =
  match insn with
  | Nop | Wdr -> ()
  | Movw (d, r) -> rs m (d) @@ (rg m (r)); rs m (d + 1) @@ (rg m (r + 1))
  | Add (d, r) -> alu_add m d r ~carry:false
  | Adc (d, r) -> alu_add m d r ~carry:true
  | Sub (d, r) -> op_sub m d (rg m r) ~borrow:false
  | Sbc (d, r) -> op_sub m d (rg m r) ~borrow:true
  | And (d, r) -> alu_logic m d ((rg m (d)) land (rg m (r)))
  | Or (d, r) -> alu_logic m d ((rg m (d)) lor (rg m (r)))
  | Eor (d, r) -> alu_logic m d ((rg m (d)) lxor (rg m (r)))
  | Mov (d, r) -> rs m (d) @@ (rg m (r))
  | Cp (d, r) -> op_cp m d (rg m r) ~borrow:false
  | Cpc (d, r) -> op_cp m d (rg m r) ~borrow:true
  | Mul (d, r) -> op_mul m d r
  | Cpi (d, k) -> op_cp m d k ~borrow:false
  | Sbci (d, k) -> op_sub m d k ~borrow:true
  | Subi (d, k) -> op_sub m d k ~borrow:false
  | Ori (d, k) -> alu_logic m d ((rg m (d)) lor k)
  | Andi (d, k) -> alu_logic m d ((rg m (d)) land k)
  | Ldi (d, k) -> rs m (d) @@ k
  | Adiw (d, k) -> alu_adiw m d k ~sub:false
  | Sbiw (d, k) -> alu_adiw m d k ~sub:true
  | Com d -> op_com m d
  | Neg d -> op_neg m d
  | Swap d ->
    let v = (rg m (d)) in
    rs m (d) @@ ((v lsl 4) lor (v lsr 4)) land 0xFF
  | Inc d -> op_inc m d
  | Dec d -> op_dec m d
  | Asr d -> op_asr m d
  | Lsr d -> op_lsr m d
  | Ror d -> op_ror m d
  | Ld (d, p) -> rs m (d) @@ read8 m (ptr_addr m p)
  | Ldd (d, b, q) ->
    let base = match b with Ybase -> yreg m | Zbase -> zreg m in
    rs m (d) @@ read8 m (base + q)
  | St (p, r) -> write8 m (ptr_addr m p) (rg m (r))
  | Std (b, q, r) ->
    let base = match b with Ybase -> yreg m | Zbase -> zreg m in
    write8 m (base + q) (rg m (r))
  | Lds (d, a) -> rs m (d) @@ read8 m a
  | Sts (a, r) -> write8 m a (rg m (r))
  | Lpm (d, inc) ->
    let z = zreg m in
    rs m (d) @@ flash_byte m.flash z;
    if inc then set_zreg m ((z + 1) land 0xFFFF)
  | Push r -> push8 m (rg m (r))
  | Pop d -> rs m (d) @@ pop8 m
  | In (d, a) -> rs m d @@ read8 m (Layout.io_data_addr a)
  | Out (a, r) -> write8 m (Layout.io_data_addr a) (rg m r)
  | Bset s -> set_flag m s true
  | Bclr s -> set_flag m s false
  | Rjmp _ | Rcall _ | Jmp _ | Call _ | Ijmp | Icall | Ret | Reti
  | Brbs _ | Brbc _ | Sleep | Break | Syscall _ ->
    invalid_arg "State.exec_data: control instruction"

(* Execute [insn], fetched from word address [pc]: PC to the
   fall-through address and the base cycle cost charged (before any push
   of a return address), then its effect — control instructions here,
   the rest through [exec_data].  Retired-count updates belong to the
   caller.  Tier-0 [step] and every tier-1 block terminator
   ({!Block.finish}) run through here.  The result is the "benign" bit:
   [false] when the instruction can halt, sleep or trap (a block then
   returns to the run loop instead of chaining), [true] otherwise. *)
let[@inline] exec_insn m (insn : Isa.t) pc =
  m.pc <- (pc + Isa.words insn) land 0xFFFF;
  m.cycles <- m.cycles + Cycles.base insn;
  match insn with
  | Rjmp k -> m.pc <- (pc + 1 + k) land 0xFFFF; true
  | Rcall k -> push_pc m (pc + 1); m.pc <- (pc + 1 + k) land 0xFFFF; true
  | Jmp a -> m.pc <- a land 0xFFFF; true
  | Call a -> push_pc m (pc + 2); m.pc <- a land 0xFFFF; true
  | Ijmp -> m.pc <- zreg m; true
  | Icall -> push_pc m (pc + 1); m.pc <- zreg m; true
  | Ret -> m.pc <- pop_pc m; true
  | Reti -> m.pc <- pop_pc m; set_flag m Isa.bit_i true; true
  | Brbs (s, k) ->
    if flag m s = 1 then begin
      m.pc <- (pc + 1 + k) land 0xFFFF;
      m.cycles <- m.cycles + Cycles.branch_taken_extra
    end;
    true
  | Brbc (s, k) ->
    if flag m s = 0 then begin
      m.pc <- (pc + 1 + k) land 0xFFFF;
      m.cycles <- m.cycles + Cycles.branch_taken_extra
    end;
    true
  | Sleep -> m.sleeping <- true; false
  | Break -> m.halted <- Some Break_hit; false
  | Syscall k ->
    (match m.on_syscall with
     | Some f -> f m k
     | None -> m.halted <- Some (Fault (Printf.sprintf "syscall %d with no kernel" k)));
    false
  | _ -> exec_data m insn; true

(** Execute exactly one instruction.  No-op if the machine is halted. *)
let step m =
  if m.halted <> None then ()
  else begin
    let pc = m.pc in
    let insn = fetch_decode m pc in
    if m.halted <> None then ()
    else begin
      (match m.trace with Some f -> f pc insn | None -> ());
      m.insns <- m.insns + 1;
      ignore (exec_insn m insn pc)
    end
  end

(** Advance the clock to [target] without executing instructions,
    attributing the skipped span to idle time.  Used to model SLEEP. *)
let fast_forward m target =
  if target > m.cycles then begin
    m.idle_cycles <- m.idle_cycles + (target - m.cycles);
    m.cycles <- target
  end

(** Earliest cycle a peripheral can wake a sleeping CPU. *)
let next_wake m = Io.next_wake m.io ~cycles:m.cycles
