(* Simulated peripherals and their I/O registers.

   All timers are derived arithmetically from the global cycle counter
   rather than ticked per instruction, which keeps the simulator fast
   enough for the paper's instruction-count sweeps.  Register addresses
   are 6-bit I/O-space addresses as used by IN/OUT. *)

(* Register map. *)
let adcl = 0x04
let adch = 0x05
let adcsra = 0x06
let radio_status = 0x0E
let radio_data = 0x0F
let tcnt3l = 0x18 (* reserved by the SenSmart kernel as the global clock *)
let tcnt3h = 0x19
let tcnt0 = 0x32
let tccr0 = 0x33
let tifr = 0x36
let spl = 0x3D
let sph = 0x3E
let sreg = 0x3F

(* ADCSRA bits. *)
let adsc_bit = 0x40 (* conversion in progress when set *)
let aden_bit = 0x80

(* Radio status bits. *)
let tx_ready_bit = 0x01
let rx_avail_bit = 0x02

(* Timing parameters (cycles at 7.3728 MHz). *)
let timer0_prescale = 1024
let timer3_prescale = 8
let adc_conversion_cycles = 13 * 128 (* 13 ADC clocks at /128 prescale *)
let radio_byte_cycles = 3840 (* ~0.52 ms per byte at 19.2 kbps *)

type t = {
  mutable adc_enabled : bool;
  mutable adc_start : int option; (* cycle at which conversion started *)
  mutable adc_value : int; (* last completed 10-bit sample *)
  mutable adc_seq : int; (* sample index, drives the sample source *)
  mutable tov0_epoch : int; (* timer0 overflows before this are cleared *)
  mutable radio_busy_until : int;
  radio_tx : int Queue.t; (* transmitted bytes awaiting routing, FIFO *)
  mutable radio_rx : (int * int) list; (* (available-at cycle, byte) *)
  mutable radio_tx_count : int;
  mutable temp : int;
      (* the AVR TEMP byte: reading the low half of a 16-bit register
         (TCNT3, ADC) latches its high half here, so a LOW;HIGH read
         pair composes one atomic value even across a low-byte wrap *)
}

let create () =
  { adc_enabled = false; adc_start = None; adc_value = 0; adc_seq = 0;
    tov0_epoch = 0; radio_busy_until = 0; radio_tx = Queue.create ();
    radio_rx = []; radio_tx_count = 0; temp = 0 }

(* Deterministic ADC sample source: a 16-bit Galois LFSR of the sample
   index, masked to 10 bits.  Emulates the "randomly generated incoming
   data" that feeds the paper's workloads. *)
let sample seq =
  let rec go x n = if n = 0 then x
    else go (if x land 1 = 1 then (x lsr 1) lxor 0xB400 else x lsr 1) (n - 1)
  in
  go (seq + 0xACE1) 7 land 0x3FF

let timer0_overflow_period = timer0_prescale * 256

let adc_done_at io = match io.adc_start with
  | Some s -> Some (s + adc_conversion_cycles)
  | None -> None

(* The peripheral events after [cycles], each [max_int] when none is
   pending: the next timer0 overflow, the end of the ADC conversion,
   the end of the radio's current transmission and the arrival of the
   next RX byte.  They are the only instants at which a register read
   can change value without a write; {!next_wake} wakes at the earliest
   and {!stable_until} bounds each register by its own. *)
let next_ovf ~cycles = (cycles / timer0_overflow_period + 1) * timer0_overflow_period

let adc_event io ~cycles =
  match adc_done_at io with Some c when c > cycles -> c | _ -> max_int

let tx_event io ~cycles =
  if io.radio_busy_until > cycles then io.radio_busy_until else max_int

let rx_event io ~cycles =
  match io.radio_rx with (c, _) :: _ when c > cycles -> c | _ -> max_int

(** Earliest future cycle at which a peripheral event can wake a
    sleeping CPU. *)
let next_wake io ~cycles =
  min (min (next_ovf ~cycles) (adc_event io ~cycles))
    (min (tx_event io ~cycles) (rx_event io ~cycles))

(** The first cycle from [cycles] on at which a read of [addr] may
    return another value, or change peripheral state (see the
    interface).  ADCL and TCNT3L latch TEMP, RADIODATA pops the RX
    queue and a finished ADCSRA latches the sample, so those reads have
    no window. *)
let stable_until io ~cycles addr =
  if addr = adcsra then
    match adc_done_at io with
    | None -> max_int
    | Some c -> if c > cycles then c else cycles
  else if addr = radio_status then min (tx_event io ~cycles) (rx_event io ~cycles)
  else if addr = tifr then
    if cycles / timer0_overflow_period > io.tov0_epoch then max_int
    else next_ovf ~cycles
  else if addr = tcnt0 then (cycles / timer0_prescale + 1) * timer0_prescale
  else if addr = adcl || addr = tcnt3l || addr = radio_data then cycles
  else max_int

let read io ~cycles addr =
  if addr = adcl then begin
    io.temp <- (io.adc_value lsr 8) land 0x3;
    io.adc_value land 0xFF
  end
  else if addr = adch then io.temp
  else if addr = adcsra then begin
    let converting = match adc_done_at io with
      | Some c -> cycles < c
      | None -> false
    in
    (* Latch the completed sample on status read. *)
    (match adc_done_at io with
     | Some c when cycles >= c ->
       io.adc_value <- sample io.adc_seq;
       io.adc_seq <- io.adc_seq + 1;
       io.adc_start <- None
     | _ -> ());
    (if io.adc_enabled then aden_bit else 0) lor (if converting then adsc_bit else 0)
  end
  else if addr = radio_status then
    (if cycles >= io.radio_busy_until then tx_ready_bit else 0)
    lor (match io.radio_rx with (c, _) :: _ when c <= cycles -> rx_avail_bit | _ -> 0)
  else if addr = radio_data then
    (match io.radio_rx with
     | (c, b) :: rest when c <= cycles -> io.radio_rx <- rest; b
     | _ -> 0)
  else if addr = tcnt0 then (cycles / timer0_prescale) land 0xFF
  else if addr = tccr0 then 0
  else if addr = tifr then
    if cycles / timer0_overflow_period > io.tov0_epoch then 1 else 0
  else if addr = tcnt3l then begin
    let count = (cycles / timer3_prescale) land 0xFFFF in
    io.temp <- (count lsr 8) land 0xFF;
    count land 0xFF
  end
  else if addr = tcnt3h then io.temp
  else 0

let write io ~cycles addr v =
  if addr = adcsra then begin
    io.adc_enabled <- v land aden_bit <> 0;
    if v land adsc_bit <> 0 && io.adc_enabled && io.adc_start = None then
      io.adc_start <- Some cycles
  end
  else if addr = radio_data then begin
    if cycles >= io.radio_busy_until then begin
      Queue.push v io.radio_tx;
      io.radio_tx_count <- io.radio_tx_count + 1;
      io.radio_busy_until <- cycles + radio_byte_cycles
    end
  end
  else if addr = tifr then begin
    (* Writing 1 to TOV0 clears it, as on real AVR. *)
    if v land 1 <> 0 then io.tov0_epoch <- cycles / timer0_overflow_period
  end
  else ()

(** Queue an incoming radio byte, available [after] cycles from now. *)
let inject_rx io ~cycles ~after byte =
  io.radio_rx <- io.radio_rx @ [ (cycles + after, byte) ]

(* Radio fault hooks for the fault-injection engine (lib/fault).  They
   mutate the pending-RX queue only — the deterministic in-flight state —
   so an injection between run segments perturbs exactly the bytes a
   real channel fault would. *)

(** XOR the [index]-th pending RX byte (0 = next to be read) with [xor].
    Returns [false] (and changes nothing) when fewer bytes are pending. *)
let corrupt_rx io ~index ~xor =
  match List.nth_opt io.radio_rx index with
  | None -> false
  | Some _ ->
    io.radio_rx <-
      List.mapi
        (fun i (c, b) -> if i = index then (c, (b lxor xor) land 0xFF) else (c, b))
        io.radio_rx;
    true

(** Drop up to [count] pending RX bytes, oldest first; returns how many
    were actually dropped (a loss burst at the receiver). *)
let drop_rx io ~count =
  let n = min (max 0 count) (List.length io.radio_rx) in
  let rec chop n l = if n = 0 then l else chop (n - 1) (List.tl l) in
  io.radio_rx <- chop n io.radio_rx;
  n
