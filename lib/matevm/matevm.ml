(* Maté-like bytecode virtual machine (Figure 6(c)).

   Maté executes applications as bytecode capsules interpreted by a
   resident VM; every bytecode costs a fetch-decode-dispatch sequence of
   native instructions on top of the operation itself.  The paper uses
   it as the fully-virtualized comparison point, ~1-2 orders of
   magnitude slower than binary-translated execution.

   The interpreter here charges [dispatch_cycles] per bytecode — Maté's
   published dispatch path is roughly 100 AVR cycles — plus a small
   per-op cost, against the same 7.3728 MHz clock and the same timer
   semantics as the rest of the reproduction, so its execution times sit
   on the same axes. *)

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
  | Sleep  (** yield until the next timer event *)
  | Halt
  | Loadi  (** pop a heap index, push that slot; out of bounds traps *)
  | Storei  (** pop a heap index, pop a value, store; bounds-checked *)
  | RxAvail  (** push 1 when a received radio byte is pending, else 0 *)
  | Recv  (** pop nothing, push the next received byte; empty traps *)

let dispatch_cycles = 100
let op_cycles = 8

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
      (** why the VM killed the capsule: a failed run-time check
          ([Storei]/[Loadi] out of heap bounds, [Recv] on an empty
          queue).  [None] for a voluntary [Halt]. *)
}

let create code = {
  code; heap = Array.make 64 0; stack = Stack.create ();
  rx = Queue.create ();
  pc = 0; cycles = 0; idle_cycles = 0; executed = 0; halted = false;
  trap = None;
}

(** Queue one received radio byte (the attack/network delivery hook). *)
let inject_rx vm b = Queue.add (b land 0xFF) vm.rx

exception Stack_underflow

let pop vm = try Stack.pop vm.stack with Stack.Empty -> raise Stack_underflow
let push vm v = Stack.push (v land 0xFFFF) vm.stack

let timer_ticks vm = vm.cycles / Machine.Io.timer3_prescale land 0xFFFF

let step vm =
  if not vm.halted then begin
    let op = vm.code.(vm.pc) in
    vm.pc <- vm.pc + 1;
    vm.cycles <- vm.cycles + dispatch_cycles + op_cycles;
    vm.executed <- vm.executed + 1;
    match op with
    | Pushc k -> push vm k
    | Add -> let b = pop vm in let a = pop vm in push vm (a + b)
    | Sub -> let b = pop vm in let a = pop vm in push vm (a - b)
    | And -> let b = pop vm in let a = pop vm in push vm (a land b)
    | Xor -> let b = pop vm in let a = pop vm in push vm (a lxor b)
    | Shr -> push vm (pop vm lsr 1)
    | Dup -> let a = pop vm in push vm a; push vm a
    | Drop -> ignore (pop vm)
    | Load s -> push vm vm.heap.(s)
    | Store s -> vm.heap.(s) <- pop vm
    | Jmp a -> vm.pc <- a
    | Jnz a -> if pop vm <> 0 then vm.pc <- a
    | Jlt a ->
      let b = pop vm in
      let a' = pop vm in
      if a' < b then vm.pc <- a
    | GetTimer -> push vm (timer_ticks vm)
    | Sleep ->
      (* Wake at the next timer overflow, like the native SLEEP. *)
      let period = Machine.Io.timer0_overflow_period in
      let wake = ((vm.cycles / period) + 1) * period in
      vm.idle_cycles <- vm.idle_cycles + (wake - vm.cycles);
      vm.cycles <- wake
    | Halt -> vm.halted <- true
    | Loadi ->
      let i = pop vm in
      if i < Array.length vm.heap then push vm vm.heap.(i)
      else begin
        vm.trap <- Some (Printf.sprintf "vm: heap load out of bounds (%d)" i);
        vm.halted <- true
      end
    | Storei ->
      let i = pop vm in
      let v = pop vm in
      if i < Array.length vm.heap then vm.heap.(i) <- v
      else begin
        vm.trap <- Some (Printf.sprintf "vm: heap store out of bounds (%d)" i);
        vm.halted <- true
      end
    | RxAvail -> push vm (if Queue.is_empty vm.rx then 0 else 1)
    | Recv ->
      (match Queue.take_opt vm.rx with
       | Some b -> push vm b
       | None ->
         vm.trap <- Some "vm: recv on empty queue";
         vm.halted <- true)
  end

let run ?(max_cycles = 2_000_000_000) vm =
  while (not vm.halted) && vm.cycles < max_cycles do
    step vm
  done;
  vm.halted

(** Bytecode equivalent of {!Programs.Periodic_task}: [activations]
    periods; each activation runs [comp_units] iterations of an
    LFSR-like compute kernel (4 bytecodes per unit). *)
let periodic_capsule ~period ~activations ~comp_units : op array =
  (* heap: 0 = t_last, 1 = activations done, 2 = lfsr state, 3 = loop ctr *)
  let code = ref [] in
  let emit o = code := o :: !code in
  let here () = List.length !code in
  emit GetTimer; emit (Pushc ((lnot (period - 1)) land 0xFFFF)); emit And;
  emit (Store 0);
  emit (Pushc 0x1234); emit (Store 2);
  let outer = here () in
  (* wait loop *)
  let wait = here () in
  (* wait+0..4: delta = timer - t_last; if delta < period -> sleep path
     at wait+6; else fall to wait+5 which jumps to work at wait+8. *)
  emit GetTimer; emit (Load 0); emit Sub;
  emit (Pushc period); emit (Jlt (wait + 6));
  emit (Jmp (wait + 8));
  emit Sleep; emit (Jmp wait);
  (* work: re-anchor t_last to the period grid, as the AVR program does *)
  emit GetTimer; emit (Pushc ((lnot (period - 1)) land 0xFFFF)); emit And;
  emit (Store 0);
  (* compute loop: comp_units iterations *)
  emit (Pushc comp_units); emit (Store 3);
  let comp = here () in
  emit (Load 2); emit Shr; emit (Pushc 0xB400); emit Xor; emit (Store 2);
  emit (Load 3); emit (Pushc 1); emit Sub; emit Dup; emit (Store 3);
  emit (Jnz comp);
  (* count activation, loop *)
  emit (Load 1); emit (Pushc 1); emit Add; emit Dup; emit (Store 1);
  emit (Pushc activations); emit (Jlt outer);
  emit Halt;
  Array.of_list (List.rev !code)

(* Heap layout of {!rx_capsule}. *)
let rx_frames_slot = 0
let rx_canary_base = 8
let rx_canary_slots = 8
let rx_buf_base = 56

(** Bytecode analogue of {!Programs.Rx_vuln.receiver}: sync on [sync]
    frames and copy the length-prefixed payload into an 8-slot buffer
    at the top of the heap, trusting the attacker's length byte exactly
    like the native receiver.  The VM, not the capsule, is the
    protection boundary: the copy indexes the heap dynamically, so a
    payload longer than the buffer runs [Storei] past slot 63 and the
    bounds check traps the capsule — Maté's "can't write outside the
    sandbox" property.  Slot {!rx_frames_slot} counts frames processed;
    slots [rx_canary_base..+rx_canary_slots-1] hold a canary written
    once at startup. *)
let rx_capsule ~sync ~canary : op array =
  let code = ref [] and n = ref 0 in
  let emit o = incr n; code := o :: !code in
  let here () = !n in
  (* canary fill *)
  for i = 0 to rx_canary_slots - 1 do
    emit (Pushc canary); emit (Store (rx_canary_base + i))
  done;
  let loop = here () in
  emit RxAvail;
  emit (Jnz (loop + 4));
  emit Sleep; emit (Jmp loop);
  (* got a byte: sync check *)
  emit Recv; emit (Pushc sync); emit Sub; emit (Jnz loop);
  emit Recv; emit (Store 1);  (* len *)
  emit (Pushc 0); emit (Store 2);  (* i *)
  let copy = here () in
  (* while i < len: buf[i] := Recv; i++ *)
  emit (Load 2); emit (Load 1);
  emit (Jlt (copy + 4));
  emit (Jmp (copy + 14));
  emit Recv;
  emit (Pushc rx_buf_base); emit (Load 2); emit Add;
  emit Storei;
  emit (Load 2); emit (Pushc 1); emit Add; emit (Store 2);
  emit (Jmp copy);
  (* frame done *)
  emit (Load rx_frames_slot); emit (Pushc 1); emit Add;
  emit (Store rx_frames_slot);
  emit (Jmp loop);
  Array.of_list (List.rev !code)
