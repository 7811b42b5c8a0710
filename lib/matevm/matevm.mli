(** Maté-like bytecode virtual machine (the fully-virtualized comparison
    point of Figure 6(c)).  Each bytecode is charged a fetch-decode-
    dispatch cost on top of the operation, against the same clock and
    timer constants as the rest of the reproduction. *)

type op =
  | Pushc of int  (** push a 16-bit constant *)
  | Add
  | Sub
  | And
  | Xor
  | Shr
  | Dup
  | Drop
  | Load of int  (** push heap slot *)
  | Store of int  (** pop into heap slot *)
  | Jmp of int  (** absolute bytecode address *)
  | Jnz of int  (** pop; jump if non-zero *)
  | Jlt of int  (** pop b, pop a; jump if a < b *)
  | GetTimer  (** push the 16-bit global clock (Timer3 ticks) *)
  | Sleep  (** idle until the next timer event *)
  | Halt
  | Loadi  (** pop a heap index, push that slot; out of bounds traps *)
  | Storei  (** pop a heap index, pop a value, store; bounds-checked *)
  | RxAvail  (** push 1 when a received radio byte is pending, else 0 *)
  | Recv  (** push the next received byte; empty queue traps *)

(** Native cycles per bytecode dispatch. *)
val dispatch_cycles : int

type vm = {
  code : op array;
  heap : int array;
  stack : int Stack.t;
  rx : int Queue.t;  (** received radio bytes awaiting {!Recv} *)
  mutable pc : int;
  mutable cycles : int;
  mutable idle_cycles : int;
  mutable executed : int;
  mutable halted : bool;
  mutable trap : string option;
      (** why the VM killed the capsule (a failed run-time check);
          [None] after a voluntary [Halt] *)
}

val create : op array -> vm

(** Queue one received radio byte (the attack/network delivery hook). *)
val inject_rx : vm -> int -> unit

exception Stack_underflow

val step : vm -> unit

(** Run to Halt or the cycle budget; returns whether the program halted. *)
val run : ?max_cycles:int -> vm -> bool

(** Bytecode equivalent of {!Programs.Periodic_task}: [activations]
    periods of [comp_units] compute iterations each; heap slot 1 counts
    completed activations. *)
val periodic_capsule : period:int -> activations:int -> comp_units:int -> op array

(** Heap layout of {!rx_capsule}: frame counter slot, canary block, and
    the 8-slot receive buffer at the top of the heap. *)
val rx_frames_slot : int

val rx_canary_base : int
val rx_canary_slots : int

(** Bytecode analogue of {!Programs.Rx_vuln.receiver}: copies each
    length-prefixed frame into the 8-slot buffer trusting the length
    byte; payloads longer than the buffer run {!Storei} past the heap
    edge and the VM bounds check traps the capsule — the fully
    virtualized containment point of the attack matrix. *)
val rx_capsule : sync:int -> canary:int -> op array
