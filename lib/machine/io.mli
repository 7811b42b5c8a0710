(** Simulated peripherals and their I/O registers (6-bit I/O-space
    addresses, as used by IN/OUT).  Timers are derived arithmetically
    from the cycle counter, keeping simulation fast. *)

(* Register map. *)
val adcl : int
val adch : int
val adcsra : int
val radio_status : int
val radio_data : int

(* TCNT3 is reserved by the SenSmart kernel as the global clock. *)
val tcnt3l : int
val tcnt3h : int
val tcnt0 : int
val tccr0 : int
val tifr : int
val spl : int
val sph : int
val sreg : int

(* ADCSRA bits. *)
val adsc_bit : int
val aden_bit : int

(* Radio status bits. *)
val tx_ready_bit : int
val rx_avail_bit : int

(* Timing parameters (cycles at 7.3728 MHz). *)
val timer0_prescale : int
val timer3_prescale : int
val adc_conversion_cycles : int
val radio_byte_cycles : int
val timer0_overflow_period : int

type t = {
  mutable adc_enabled : bool;
  mutable adc_start : int option;
  mutable adc_value : int;
  mutable adc_seq : int;
  mutable tov0_epoch : int;
  mutable radio_busy_until : int;
  radio_tx : int Queue.t;
      (** transmitted bytes awaiting routing, FIFO; the network layer
          drains it each quantum, so it stays bounded on long runs *)
  mutable radio_rx : (int * int) list;  (** (available-at cycle, byte) *)
  mutable radio_tx_count : int;  (** monotone count of bytes ever sent *)
  mutable temp : int;
      (** AVR TEMP latch: a low-byte read of TCNT3/ADC latches the high
          byte here for the subsequent high-byte read *)
}

val create : unit -> t

(** Deterministic ADC sample source (LFSR of the sample index, 10 bits):
    the "randomly generated incoming data" of the paper's workloads. *)
val sample : int -> int

(** Earliest future cycle at which a peripheral event can wake a
    sleeping CPU. *)
val next_wake : t -> cycles:int -> int

(** The first cycle [c >= cycles] at which a read of I/O register
    [addr] may return another value than a read at [cycles], or may
    change peripheral state ([max_int]: none before the next write).
    Reads in [[cycles, c)] return one value and change nothing;
    [cycles] itself when a read there has a side effect (ADCL, TCNT3L,
    RADIODATA, a finished ADCSRA).  It follows the event list of
    {!next_wake}.  [cycles] may be in the past: a read there that
    latched an ADC sample returned what every later read returns. *)
val stable_until : t -> cycles:int -> int -> int

val read : t -> cycles:int -> int -> int
val write : t -> cycles:int -> int -> int -> unit

(** Queue an incoming radio byte, available [after] cycles from now. *)
val inject_rx : t -> cycles:int -> after:int -> int -> unit

(** {2 Radio fault hooks}

    Used by the fault-injection engine ([lib/fault]).  Both mutate only
    the pending-RX queue — the deterministic in-flight state — so an
    injection between run segments perturbs exactly the bytes a real
    channel fault would. *)

(** XOR the [index]-th pending RX byte (0 = next to be read) with [xor].
    Returns [false] (and changes nothing) when fewer bytes are pending. *)
val corrupt_rx : t -> index:int -> xor:int -> bool

(** Drop up to [count] pending RX bytes, oldest first; returns how many
    were actually dropped (a loss burst at the receiver). *)
val drop_rx : t -> count:int -> int
