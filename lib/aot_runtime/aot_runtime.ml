(* Runtime interface between the simulator and tier-2 compiled modules.

   A tier-2 module is OCaml source generated by [Machine.Aot] from one
   flash image, compiled with the host toolchain and Dynlink-loaded into
   this process.  The generated code cannot link against the simulator
   libraries (that would make every plugin depend on the exact build
   tree), so it speaks only this tiny, stable ABI: a [ctx] record the
   host fills from the machine state before entering compiled code and
   drains back afterwards, plus closures for the few operations that
   must dispatch into the host (data-space loads/stores, peripheral
   I/O, program-memory reads).

   This library is deliberately dependency-free: plugins are compiled
   against exactly one [.cmi], which keeps the out-of-process compile
   command trivial and the interface-checksum surface minimal.

   Generated code contract (see [Machine.Aot] for the emitter):
   - [regs] and [sram] alias the machine's own arrays; compiled blocks
     read and write them directly.
   - [pc]/[sp]/[sreg]/[cycles]/[insns] and the four access counters are
     the authoritative copies while compiled code runs; the host must
     not touch the machine's fields until [enter] returns.
   - [cycles] is flushed before every host closure call: peripheral
     registers are clocked off it.
   - [enter] returns with [stop] describing why: [stop_miss] (reached a
     PC with no compiled block), [stop_horizon] (the next block's worst
     case would overrun [limit]), [stop_sleep], [stop_break], or
     [stop_syscall] (with the syscall number in [arg]).  On miss and
     horizon stops no partial instruction has executed: [pc]/[cycles]
     are exact, and the host falls back to tier-1/tier-0 for forward
     progress. *)

type ctx = {
  regs : int array;  (* alias of the machine's r0..r31 *)
  sram : Bytes.t;  (* alias of the machine's data space *)
  mutable pc : int;
  mutable sp : int;
  mutable sreg : int;
  mutable cycles : int;
  mutable insns : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable io_reads : int;
  mutable io_writes : int;
  mutable limit : int;  (* min of the fuel and preemption horizons *)
  mutable stop : int;  (* why [enter] returned; see [stop_*] below *)
  mutable arg : int;  (* syscall number when [stop = stop_syscall] *)
  read8 : ctx -> int -> int;  (* data-space load, I/O dispatch included *)
  write8 : ctx -> int -> int -> unit;
  io_in : ctx -> int -> int;  (* IN: 6-bit I/O-space address *)
  io_out : ctx -> int -> int -> unit;  (* OUT *)
  lpm : ctx -> int -> int;  (* program-memory byte at a Z byte address *)
}

(* [enter]'s stop codes.  Kept as plain ints so generated code writes a
   constant instead of allocating a constructor. *)
let stop_miss = 0
let stop_horizon = 1
let stop_sleep = 2
let stop_break = 3
let stop_syscall = 4

type program = {
  digest : string;  (* content digest of the source flash image *)
  has : int -> bool;  (* does a compiled block start at this word PC? *)
  enter : ctx -> unit;  (* run compiled blocks from [ctx.pc] until a stop *)
}

(* Process-wide registry of loaded tier-2 modules, keyed by flash
   digest.  A generated module registers itself from its top-level
   initializer when Dynlink loads it; every machine whose flash hashes
   to the same digest shares the one compiled program (a 10 k-mote
   fleet booted from one template compiles once).  The mutex makes
   registration and lookup safe from [Net]'s worker domains. *)
let lock = Mutex.create ()
let registry : (string, program) Hashtbl.t = Hashtbl.create 16

let register p =
  Mutex.lock lock;
  Hashtbl.replace registry p.digest p;
  Mutex.unlock lock

let find digest =
  Mutex.lock lock;
  let r = Hashtbl.find_opt registry digest in
  Mutex.unlock lock;
  r
