(** Reference interpreter for minic: the executable semantics the code
    generator is tested against.  Pure 16-bit unsigned arithmetic;
    device builtins go through a pluggable {!device}. *)

exception Error of string

type device = {
  timer3 : unit -> int;
  adc : unit -> int;
  io_in : int -> int;
  io_out : int -> int -> unit;
  radio_ready : unit -> int;
  radio_send : int -> unit;
  radio_avail : unit -> int;
  radio_recv : unit -> int;
}

type state

(** Run [main] with a step budget ([fuel] bounds runaway loops). *)
val run : ?fuel:int -> ?dev:device -> Ast.program -> state

(** Final value of a global scalar. *)
val global : state -> string -> int

(** Final contents of a global byte array. *)
val array : state -> string -> int array
