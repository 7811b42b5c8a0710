(* Deterministic fault injection.

   The engine never reaches into the execution tiers: it runs the
   subject with a bounded [max_cycles] (which tier-0 and tier-1 honour
   at identical stop points) and mutates state between segments.  That
   makes an injection "at cycle C" mean: at the first point the subject
   would stop anyway at or after C — the same advance-to-cycle pattern
   the snapshot bisector uses for pokes.

   Injection law: an injection is applied exactly when its [at] is <=
   the subject's clock.  On entry, injections already due count as
   applied (resume semantics); due injections are applied even when the
   segment ended in a halt (so a crash at C and a reboot at C' > C in
   the same plan compose); injections still pending when the run ends
   never fire. *)

type kind =
  | Sram_flip of { addr : int; bit : int }
  | Sram_burst of { addr : int; len : int; xor : int }
  | Reg_flip of { reg : int; bit : int }
  | Sreg_flip of { bit : int }
  | Flash_flip of { waddr : int; xor : int }
  | Radio_corrupt of { index : int; xor : int }
  | Radio_drop of { count : int }
  | Radio_frame of { bytes : int list }
  | Adc_stuck of { value : int }
  | Adc_noise of { xor : int }
  | Crash
  | Reboot
  | Clock_drift of { cycles : int }

type injection = { at : int; mote : int; kind : kind }

let describe = function
  | Sram_flip { addr; bit } -> Fmt.str "sram_flip@0x%04X.%d" addr bit
  | Sram_burst { addr; len; xor } ->
    Fmt.str "sram_burst@0x%04X+%d^0x%02X" addr len xor
  | Reg_flip { reg; bit } -> Fmt.str "reg_flip r%d.%d" reg bit
  | Sreg_flip { bit } -> Fmt.str "sreg_flip.%d" bit
  | Flash_flip { waddr; xor } -> Fmt.str "flash_flip@0x%04X^0x%04X" waddr xor
  | Radio_corrupt { index; xor } -> Fmt.str "radio_corrupt[%d]^0x%02X" index xor
  | Radio_drop { count } -> Fmt.str "radio_drop(%d)" count
  | Radio_frame { bytes } ->
    Fmt.str "radio_frame[%s]"
      (String.concat "" (List.map (Printf.sprintf "%02x") bytes))
  | Adc_stuck { value } -> Fmt.str "adc_stuck=%d" value
  | Adc_noise { xor } -> Fmt.str "adc_noise^0x%03X" xor
  | Crash -> "crash"
  | Reboot -> "reboot"
  | Clock_drift { cycles } -> Fmt.str "clock_drift+%d" cycles

let counter_name = function
  | Sram_flip _ -> "fault.sram_flip"
  | Sram_burst _ -> "fault.sram_burst"
  | Reg_flip _ -> "fault.reg_flip"
  | Sreg_flip _ -> "fault.sreg_flip"
  | Flash_flip _ -> "fault.flash_flip"
  | Radio_corrupt _ -> "fault.radio_corrupt"
  | Radio_drop _ -> "fault.radio_drop"
  | Radio_frame _ -> "fault.radio_frame"
  | Adc_stuck _ -> "fault.adc_stuck"
  | Adc_noise _ -> "fault.adc_noise"
  | Crash -> "fault.crash"
  | Reboot -> "fault.reboot"
  | Clock_drift _ -> "fault.clock_drift"

module Plan = struct
  type t = { seed : int; injections : injection list }

  let sort = List.stable_sort (fun a b -> compare a.at b.at)
  let make ?(seed = 0) injections = { seed; injections = sort injections }

  (* Hand-rolled 48-bit LCG (java.util.Random's constants) so plans do
     not depend on [Random]'s implementation: the same seed produces the
     same plan on every run and OCaml version.  All draws are forced
     into evaluation order with [let] — record/argument evaluation
     order is unspecified in OCaml. *)
  let random ~seed ~n ~window:(lo, hi) ?(motes = 1) ?(disruptive = false) () =
    let mask48 = (1 lsl 48) - 1 in
    let state = ref ((seed lxor 0x5DEECE66D) land mask48) in
    let next () =
      state := ((!state * 0x5DEECE66D) + 0xB) land mask48;
      !state lsr 18
    in
    let rand m = if m <= 0 then 0 else next () mod m in
    let sram_span =
      Machine.Layout.data_size - Machine.Layout.sram_base
    in
    let kind () =
      match rand (if disruptive then 12 else 9) with
      | 0 ->
        let addr = Machine.Layout.sram_base + rand sram_span in
        let bit = rand 8 in
        Sram_flip { addr; bit }
      | 1 ->
        let addr = Machine.Layout.sram_base + rand (sram_span - 32) in
        let len = 1 + rand 32 in
        let xor = 1 + rand 255 in
        Sram_burst { addr; len; xor }
      | 2 ->
        let reg = rand 32 in
        let bit = rand 8 in
        Reg_flip { reg; bit }
      | 3 -> Sreg_flip { bit = rand 8 }
      | 4 ->
        (* first 8 K words: where application images actually live *)
        let waddr = rand 0x2000 in
        let xor = 1 + rand 0xFFFF in
        Flash_flip { waddr; xor }
      | 5 ->
        let index = rand 4 in
        let xor = 1 + rand 255 in
        Radio_corrupt { index; xor }
      | 6 -> Radio_drop { count = 1 + rand 4 }
      | 7 -> Adc_stuck { value = rand 0x400 }
      | 8 -> Adc_noise { xor = 1 + rand 0x3FF }
      | 9 -> Clock_drift { cycles = 1 + rand 10_000 }
      | 10 -> Reboot
      | _ -> Crash
    in
    let span = max 1 (hi - lo) in
    let rec gen i acc =
      if i = 0 then List.rev acc
      else begin
        let at = lo + rand span in
        let mote = rand (max 1 motes) in
        let kind = kind () in
        gen (i - 1) ({ at; mote; kind } :: acc)
      end
    in
    { seed; injections = sort (gen n []) }

  (* The longest crafted radio frame an injection may carry. *)
  let max_frame_bytes = 4096

  (* Typed range checks on a parsed [--inject] spec: a bad field is a
     one-line [Error], never a raw exception or a silently ignored
     injection. *)
  let validate (i : injection) =
    let err fmt = Fmt.kstr Result.error fmt in
    let in_range what v lo hi =
      if v < lo || v > hi then
        err "%s: %s %d out of range [%d, %d]" (describe i.kind) what v lo hi
      else Ok ()
    in
    let ( let* ) = Result.bind in
    let* () = in_range "cycle" i.at 0 max_int in
    let* () = in_range "mote" i.mote 0 0xFFFF in
    match i.kind with
    | Sram_flip { addr; bit } ->
      let* () = in_range "addr" addr 0 (Machine.Layout.data_size - 1) in
      let* () = in_range "bit" bit 0 7 in
      Ok i
    | Sram_burst { addr; len; xor } ->
      let* () = in_range "addr" addr 0 (Machine.Layout.data_size - 1) in
      let* () = in_range "len" len 1 Machine.Layout.data_size in
      let* () =
        in_range "end" (addr + len) 1 Machine.Layout.data_size
      in
      let* () = in_range "xor" xor 1 0xFF in
      Ok i
    | Reg_flip { reg; bit } ->
      let* () = in_range "reg" reg 0 31 in
      let* () = in_range "bit" bit 0 7 in
      Ok i
    | Sreg_flip { bit } ->
      let* () = in_range "bit" bit 0 7 in
      Ok i
    | Flash_flip { waddr; xor } ->
      let* () = in_range "waddr" waddr 0 (Machine.Layout.flash_words - 1) in
      let* () = in_range "xor" xor 1 0xFFFF in
      Ok i
    | Radio_corrupt { index; xor } ->
      let* () = in_range "index" index 0 0xFFFF in
      let* () = in_range "xor" xor 1 0xFF in
      Ok i
    | Radio_drop { count } ->
      let* () = in_range "count" count 1 0xFFFF in
      Ok i
    | Radio_frame { bytes } ->
      let* () = in_range "frame length" (List.length bytes) 1 max_frame_bytes in
      let rec bytes_ok = function
        | [] -> Ok i
        | b :: rest ->
          let* () = in_range "byte" b 0 0xFF in
          bytes_ok rest
      in
      bytes_ok bytes
    | Adc_stuck { value } ->
      let* () = in_range "value" value 0 0x3FF in
      Ok i
    | Adc_noise { xor } ->
      let* () = in_range "xor" xor 1 0x3FF in
      Ok i
    | Clock_drift { cycles } ->
      let* () = in_range "cycles" cycles 1 max_int in
      Ok i
    | Crash | Reboot -> Ok i

  (* "a7 05 41..." or "a70541...": hex digit pairs, spaces optional,
     1 to [max_frame_bytes] bytes.  Errors quote [s] as given. *)
  let frame_of_hex s =
    let compact =
      String.concat ""
        (String.split_on_char ' ' (String.trim s))
    in
    let n = String.length compact in
    let digit = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    match Seq.find (fun c -> not (digit c)) (String.to_seq compact) with
    | Some c -> Error (Fmt.str "bad hex digit %C in %S" c s)
    | None when n = 0 || n mod 2 <> 0 ->
      Error (Fmt.str "bad hex byte string %S (need an even digit count)" s)
    | None when n / 2 > max_frame_bytes ->
      Error (Fmt.str "frame of %d bytes exceeds %d" (n / 2) max_frame_bytes)
    | None ->
      Ok (List.init (n / 2) (fun i ->
              int_of_string ("0x" ^ String.sub compact (2 * i) 2)))

  let injection_of_spec s =
    let ( let* ) = Result.bind in
    let int_of f =
      match int_of_string_opt (String.trim f) with
      | Some v -> Ok v
      | None -> Error (Fmt.str "bad number %S in %S" f s)
    in
    match String.split_on_char ':' (String.trim s) with
    | [] | [ "" ] -> Error "empty injection spec"
    | head :: rest ->
      let* at, mote =
        match String.split_on_char '@' head with
        | [ a ] ->
          let* a = int_of a in
          Ok (a, 0)
        | [ a; m ] ->
          let* a = int_of a in
          let* m = int_of m in
          Ok (a, m)
        | _ -> Error (Fmt.str "bad CYCLE[@MOTE] prefix %S" head)
      in
      let* kind =
        match rest with
        | [ "sram"; a; b ] ->
          let* addr = int_of a in
          let* bit = int_of b in
          Ok (Sram_flip { addr; bit })
        | [ "burst"; a; l; x ] ->
          let* addr = int_of a in
          let* len = int_of l in
          let* xor = int_of x in
          Ok (Sram_burst { addr; len; xor })
        | [ "reg"; r; b ] ->
          let* reg = int_of r in
          let* bit = int_of b in
          Ok (Reg_flip { reg; bit })
        | [ "sreg"; b ] ->
          let* bit = int_of b in
          Ok (Sreg_flip { bit })
        | [ "flash"; w; x ] ->
          let* waddr = int_of w in
          let* xor = int_of x in
          Ok (Flash_flip { waddr; xor })
        | [ "radio_corrupt"; i; x ] ->
          let* index = int_of i in
          let* xor = int_of x in
          Ok (Radio_corrupt { index; xor })
        | [ "radio_drop"; c ] ->
          let* count = int_of c in
          Ok (Radio_drop { count })
        | [ "frame"; hex ] ->
          let* bytes = frame_of_hex hex in
          Ok (Radio_frame { bytes })
        | [ "adc_stuck"; v ] ->
          let* value = int_of v in
          Ok (Adc_stuck { value })
        | [ "adc_noise"; x ] ->
          let* xor = int_of x in
          Ok (Adc_noise { xor })
        | [ "crash" ] -> Ok Crash
        | [ "reboot" ] -> Ok Reboot
        | [ "drift"; c ] ->
          let* cycles = int_of c in
          Ok (Clock_drift { cycles })
        | _ ->
          Error
            (Fmt.str
               "unknown fault kind in %S (see sram/burst/reg/sreg/flash/\
                radio_corrupt/radio_drop/frame/adc_stuck/adc_noise/crash/\
                reboot/drift)"
               s)
      in
      validate { at; mote; kind }

  let pp fmt t =
    let n = List.length t.injections in
    Fmt.pf fmt "@[<v>plan seed=%d (%d injection%s)" t.seed n
      (if n = 1 then "" else "s");
    List.iter
      (fun i -> Fmt.pf fmt "@,  cycle %8d  mote %d  %s" i.at i.mote (describe i.kind))
      t.injections;
    Fmt.pf fmt "@]"
end

(* --- applying one injection ----------------------------------------------- *)

let apply (k : Kernel.t) = function
  | Sram_flip { addr; bit } ->
    let a = addr land 0xFFFF in
    if a < Machine.Layout.data_size then begin
      let v = Bytes.get_uint8 k.m.sram a in
      Bytes.set_uint8 k.m.sram a (v lxor (1 lsl (bit land 7)))
    end
  | Sram_burst { addr; len; xor } ->
    for a = addr to addr + len - 1 do
      if a >= 0 && a < Machine.Layout.data_size then
        Bytes.set_uint8 k.m.sram a
          (Bytes.get_uint8 k.m.sram a lxor (xor land 0xFF))
    done
  | Reg_flip { reg; bit } ->
    let r = reg land 31 in
    k.m.regs.(r) <- k.m.regs.(r) lxor (1 lsl (bit land 7))
  | Sreg_flip { bit } -> k.m.sreg <- k.m.sreg lxor (1 lsl (bit land 7))
  | Flash_flip { waddr; xor } ->
    (* through Cpu.load, the only flash-write path: invalidates the
       decode cache and compiled blocks so both tiers see the change,
       and grows the flash when [w] lies past the image's end *)
    let w = waddr land (Machine.Layout.flash_words - 1) in
    let v = Machine.Cpu.flash_word k.m.flash w lxor xor in
    Machine.Cpu.load ~at:w k.m [| v land 0xFFFF |]
  | Radio_corrupt { index; xor } ->
    ignore (Machine.Io.corrupt_rx k.m.io ~index ~xor)
  | Radio_drop { count } -> ignore (Machine.Io.drop_rx k.m.io ~count)
  | Radio_frame { bytes } ->
    (* bytes arrive back to back at the radio's reception rate, exactly
       as a neighbour's transmission would through [Net.exchange] *)
    List.iteri
      (fun i b ->
        Machine.Io.inject_rx k.m.io ~cycles:k.m.cycles
          ~after:((i + 1) * Machine.Io.radio_byte_cycles)
          (b land 0xFF))
      bytes
  | Adc_stuck { value } ->
    k.m.io.adc_start <- None;
    k.m.io.adc_value <- value land 0x3FF
  | Adc_noise { xor } ->
    k.m.io.adc_value <- (k.m.io.adc_value lxor xor) land 0x3FF;
    k.m.io.adc_seq <- k.m.io.adc_seq + 1
  | Crash -> Kernel.crash k "injected crash"
  | Reboot -> Kernel.watchdog_reboot k
  | Clock_drift { cycles } ->
    if cycles > 0 then Machine.Cpu.fast_forward k.m (k.m.cycles + cycles)

let inject ?trace (k : Kernel.t) inj =
  let tr = Option.value trace ~default:k.trace in
  (* emit first: the event carries the pre-mutation clock, before any
     drift/reboot moves it *)
  Trace.emit tr ~mote:k.mote ~at:k.m.cycles
    (Trace.Injected { fault = describe inj.kind });
  Trace.incr tr "fault.injected";
  Trace.incr tr (counter_name inj.kind);
  apply k inj.kind

(* --- kernel engine -------------------------------------------------------- *)

let run_kernel ?tier ?(max_cycles = 2_000_000_000) ~plan
    (k : Kernel.t) : Machine.Cpu.stop =
  let injs =
    List.filter (fun i -> i.mote = k.mote) (Plan.sort plan.Plan.injections)
  in
  (* hung = abnormal halt (crash, uncontainable fault): the CPU executes
     nothing, but real time — and the watchdog — keep going, so pending
     injections still come due.  Break_hit is normal completion and ends
     the run for good. *)
  let hung () =
    match k.m.halted with
    | Some (Machine.Cpu.Fault _ | Machine.Cpu.Invalid_opcode _) -> true
    | Some Machine.Cpu.Break_hit | None -> false
  in
  let rec go injs =
    (* at <= clock counts as already applied: resume semantics *)
    let pending = List.filter (fun i -> i.at > k.m.cycles) injs in
    match pending with
    | [] -> Kernel.run ?tier ~max_cycles k
    | { at; _ } :: _ ->
      if hung () then
        if at > max_cycles then Machine.Cpu.Halted (Option.get k.m.halted)
        else begin
          Machine.Cpu.fast_forward k.m at;
          apply_due pending
        end
      else begin
        let target = min at max_cycles in
        match Kernel.run ?tier ~max_cycles:target k with
        | Machine.Cpu.Out_of_fuel -> apply_due pending
        | Machine.Cpu.Halted _ when hung () ->
          (* uncontainable mid-segment fault: re-enter the hung path so
             the clock still advances to any pending injection *)
          go injs
        | stop -> stop
      end
  and apply_due pending =
    let due, rest = List.partition (fun i -> i.at <= k.m.cycles) pending in
    List.iter (inject k) due;
    if k.m.cycles >= max_cycles then
      match k.m.halted with
      | Some h -> Machine.Cpu.Halted h
      | None -> Machine.Cpu.Out_of_fuel
    else go rest
  in
  go injs

(* --- network engine ------------------------------------------------------- *)

let run_net ?(domains = 1) ?(max_cycles = 2_000_000_000) ~plan (n : Net.t) =
  let horizon () = n.quanta * n.quantum in
  let injs =
    List.filter
      (fun i -> i.mote >= 0 && i.mote < Array.length n.nodes)
      (Plan.sort plan.Plan.injections)
  in
  let live_count () =
    Array.fold_left
      (fun acc (nd : Net.node) -> if nd.finished then acc else acc + 1)
      0 n.nodes
  in
  let inject_net i =
    let node = Net.node n i.mote in
    inject ~trace:n.trace node.kernel i;
    (* a watchdog reboot revives a node the coordinator had retired *)
    match i.kind with Reboot -> node.finished <- false | _ -> ()
  in
  let rec go injs =
    let pending = List.filter (fun i -> i.at > horizon ()) injs in
    match pending with
    | [] -> Net.run ~domains ~max_cycles n
    | { at; _ } :: _ ->
      let before = horizon () in
      let target = min at max_cycles in
      ignore (Net.run ~domains ~max_cycles:target n);
      let due, rest = List.partition (fun i -> i.at <= horizon ()) pending in
      List.iter inject_net due;
      if horizon () >= max_cycles then live_count ()
      else if due = [] && horizon () = before then
        (* every mote finished: the lockstep clock has stopped, pending
           injections can never come due *)
        live_count ()
      else go rest
  in
  go injs

(* --- campaigns ------------------------------------------------------------ *)

module Campaign = struct
  type trial = {
    index : int;
    plan : Plan.t;
    injected : int;
    stop : string;
    cycles : int;
    clean_exits : int;
    faulted : int;
    contained : bool;
    reason : string;
  }

  type report = { seed : int; trials : trial list; trace : Trace.t }

  (* splitmix-style mixer: trial seeds decorrelated from consecutive
     campaign seeds *)
  let mix seed i =
    let z = (seed + (i * 0x9E3779B9)) land max_int in
    let z = (z lxor (z lsr 16)) * 0x45D9F3B land max_int in
    (z lxor (z lsr 13)) land 0x3FFFFFFF

  let run ?tier ?config ?(trials = 8) ?(faults = 6)
      ?(max_cycles = 1_500_000) ?(disruptive = false) ?on_trial ~seed images =
    let trace = Trace.create () in
    let window = (max_cycles / 10, max_cycles * 9 / 10) in
    let one index =
      let k = Kernel.boot ?config images in
      let plan =
        Plan.random ~seed:(mix seed index) ~n:faults ~window ~disruptive ()
      in
      let stop = run_kernel ?tier ~max_cycles ~plan k in
      let injected = Trace.counter k.trace "fault.injected" in
      List.iter
        (fun (name, v) ->
          if String.length name >= 6 && String.sub name 0 6 = "fault." then
            Trace.incr ~by:v trace name)
        (Trace.counters k.trace);
      let outcomes = Kernel.outcomes k in
      let clean_exits =
        List.length (List.filter (fun (_, r) -> r = "exit") outcomes)
      in
      let faulted =
        List.length (List.filter (fun (_, r) -> r <> "exit") outcomes)
      in
      (* The verdict and its evidence.  PR 5 dropped the evidence on the
         floor; the attack matrix needs it, so record which check failed
         (and at what cycle), or what contained the damage. *)
      let survived =
        match stop with
        | Machine.Cpu.Halted Machine.Cpu.Break_hit | Machine.Cpu.Out_of_fuel ->
          true
        | _ -> false
      in
      let invariant_failure =
        match Kernel.check_invariants k with
        | () -> None
        | exception Failure msg -> Some msg
      in
      let contained = survived && invariant_failure = None in
      let reason =
        if not survived then
          Fmt.str "mote dead at cycle %d (%a)" k.m.cycles Machine.Cpu.pp_stop
            stop
        else
          match invariant_failure with
          | Some msg -> Fmt.str "invariant violated: %s" msg
          | None ->
            let first_kill =
              List.find_opt
                (fun (e : Trace.event) ->
                  match e.kind with
                  | Trace.Terminated { reason; _ } -> reason <> "exit"
                  | _ -> false)
                (Kernel.event_log k)
            in
            (match first_kill with
             | Some { at; kind = Trace.Terminated { task; reason }; _ } ->
               Fmt.str "task %d killed at cycle %d (%s); siblings unharmed"
                 task at reason
             | _ when faulted = 0 -> "no task harmed"
             | _ -> "faulted tasks contained")
      in
      { index;
        plan;
        injected;
        stop = Fmt.str "%a" Machine.Cpu.pp_stop stop;
        cycles = k.m.cycles;
        clean_exits;
        faulted;
        contained;
        reason }
    in
    let rec go i acc =
      if i = trials then List.rev acc
      else begin
        let t = one i in
        (match on_trial with Some f -> f t | None -> ());
        go (i + 1) (t :: acc)
      end
    in
    let ts = go 0 [] in
    let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
    Trace.set_counter trace "fault.trials" trials;
    Trace.set_counter trace "fault.contained_trials"
      (List.length (List.filter (fun t -> t.contained) ts));
    Trace.set_counter trace "fault.clean_exits" (sum (fun t -> t.clean_exits));
    Trace.set_counter trace "fault.faulted_tasks" (sum (fun t -> t.faulted));
    { seed; trials = ts; trace }

  let pp_report fmt r =
    let contained = List.filter (fun t -> t.contained) r.trials in
    Fmt.pf fmt "@[<v>campaign seed=%d: %d/%d trials contained@,@," r.seed
      (List.length contained) (List.length r.trials);
    Fmt.pf fmt "trial  injected  clean  faulted  contained      cycles  stop";
    List.iter
      (fun t ->
        Fmt.pf fmt "@,%5d  %8d  %5d  %7d  %9s  %10d  %s@,%s%s" t.index
          t.injected t.clean_exits t.faulted
          (if t.contained then "yes" else "NO")
          t.cycles t.stop "       `- " t.reason)
      r.trials;
    Fmt.pf fmt "@]"
end
