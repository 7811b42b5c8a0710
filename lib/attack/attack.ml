(* Deterministic adversarial attack campaigns: Harvard code-injection
   packets delivered through the radio, with a cross-kernel containment
   matrix.

   The attacker is Francillon & Castelluccia's remote code injection on
   Harvard AVR motes (CCS'08, arXiv:0901.3482): its only capability is
   sending radio packets to a vulnerable frame receiver
   ({!Programs.Rx_vuln}).  Three escalating classes: {b Flood}, an
   oversized frame (the blunt stack smash); {b Clobber}, an exact
   overwrite of the handler's saved frame pointer and return address,
   returning into resident code (on a Harvard MCU the payload itself
   never executes); {b Chain}, the gadget bootstrap: return into the
   handler's own copy loop ([rf_ldx]) with a forged frame pointer, a
   write-anywhere primitive fed by the rest of the radio stream.

   Each of the four kernels (SenSmart, t-kernel, LiteOS-like
   partitions, the Maté-like VM) is a [subject]: one booted victim,
   next to an untouched bystander where the kernel multitasks, with its
   packet aim, its radio path and its probe reads.  One function,
   [drive], runs every trial: deliver the volley, sample the PC, probe
   for containment, mirror each probe into the trace as a
   {!Trace.Probe} event, and classify from probe outcomes only, never
   from the attack class.  Every engine advances by absolute cycle
   horizons, so a campaign is byte-identical across execution tiers and
   network domain counts. *)

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

type verdict = Contained | Degraded | Escaped | Bricked

let verdict_rank = function
  | Contained -> 0
  | Degraded -> 1
  | Escaped -> 2
  | Bricked -> 3

let verdict_name = function
  | Contained -> "contained"
  | Degraded -> "degraded"
  | Escaped -> "escaped"
  | Bricked -> "bricked"

let pp_verdict fmt v = Format.pp_print_string fmt (verdict_name v)

let worst a b = if verdict_rank a >= verdict_rank b then a else b

type cls = Flood | Clobber | Chain

let cls_name = function
  | Flood -> "flood"
  | Clobber -> "clobber"
  | Chain -> "chain"

let all_classes = [ Flood; Clobber; Chain ]
let all_systems = [ "sensmart"; "tkernel"; "liteos"; "matevm" ]

(* ------------------------------------------------------------------ *)
(* Seeded determinism (splitmix64, the same generator family as
   [Fault.Plan.random]; no [Random] state involved).                   *)

let splitmix x =
  let z = (x + 0x9E3779B9) land max_int in
  let z = (z lxor (z lsr 16)) * 0x45D9F3B land max_int in
  let z = (z lxor (z lsr 13)) * 0x45D9F3B land max_int in
  (z lxor (z lsr 16)) land 0x3FFFFFFF

type rng = { mutable state : int }

let rng_of seed = { state = splitmix seed }

let next r =
  r.state <- splitmix r.state;
  r.state

let next_byte r = next r land 0xFF

(* ------------------------------------------------------------------ *)
(* Packet crafting                                                     *)

module Packet = struct
  let sync = Programs.Rx_vuln.sync_byte
  let buf = Programs.Rx_vuln.buf_bytes

  (** [frame payload] — sync byte, length, payload. *)
  let frame payload = sync :: (List.length payload land 0xFF) :: payload

  (** A well-formed 4-byte frame, the post-attack liveness probe. *)
  let benign = frame [ 0x11; 0x22; 0x33; 0x44 ]

  (** Oversized frame: [len] filler bytes against an 8-byte buffer. *)
  let flood ~len ~fill = frame (List.init len fill)

  (** Exactly overwrite the handler's saved Y and return address.
      [y] and [ret] are in the target system's own coordinates ([ret]
      is a flash {e word} address, as RET pops it). *)
  let clobber ?(extra = []) ~y ~ret ~fill () =
    frame
      (List.init buf fill
      @ [ (y lsr 8) land 0xFF; y land 0xFF;
          (ret lsr 8) land 0xFF; ret land 0xFF ]
      @ extra)

  (** The gadget bootstrap: return into [rf_ldx] with the forged frame
      pointer aimed one below [target], so the copy loop re-reads a
      length byte and writes [payload] at [target..] straight off the
      radio. *)
  let chain ~target ~rf_ldx ~payload ~fill =
    clobber ~y:((target - 1) land 0xFFFF) ~ret:rf_ldx ~fill
      ~extra:((List.length payload land 0xFF) :: payload)
      ()

  let pp_bytes fmt bytes =
    List.iter (fun b -> Format.fprintf fmt "%02x" (b land 0xFF)) bytes
end

(* ------------------------------------------------------------------ *)
(* Trial schedule (absolute cycles, identical for every system)        *)

let t_attack = 200_000
let t_benign = 1_600_000
let t_end = 2_600_000
let sample_step = 4_000
let sample_until = t_attack + 200_000
let recovery_budget = 1_200_000

let sample_grid =
  List.init ((sample_until - t_attack) / sample_step) (fun i ->
      t_attack + ((i + 1) * sample_step))
  @ [ t_benign - 1; t_end ]

(* ------------------------------------------------------------------ *)
(* Probes and trials                                                   *)

type probe = { pname : string; detail : string; ok : bool }

type trial = {
  system : string;
  cls : cls;
  index : int;
  packet : int list;
  verdict : verdict;
  probes : probe list;  (** every probe consulted, fired or clean *)
  frames : int;  (** the receiver's frame counter at [t_end] *)
  responsive : bool;  (** processed the post-attack benign frame *)
  recovery_cycles : int option;
      (** cycles from watchdog reboot to restored service (SenSmart
          trials whose verdict was not [Contained]) *)
  cycles : int;  (** the subject's clock when the trial ended *)
}

(** The verdict, from probe outcomes only (no attack-class knowledge):
    - [Bricked]: the machine halted wildly, or nothing on the mote is
      alive any more;
    - [Escaped]: damage outside the attacked task (canary, sibling);
    - [Degraded]: foreign/wild execution was observed, an unexplained
      kill happened, or the receiver is an unresponsive zombie while
      the rest of the mote survives;
    - [Contained]: the mote still serves — either the receiver shrugged
      the volley off, or the kernel's protection killed it cleanly and
      everyone else is intact. *)
let classify ~halted_wild ~sibling_damage ~hijack ~responsive ~protection_kill
    ~kernel_alive ~sibling_alive =
  if halted_wild then Bricked
  else if sibling_damage then Escaped
  else if hijack then Degraded
  else if responsive then Contained
  else if protection_kill && kernel_alive then Contained
  else if sibling_alive then Degraded
  else Bricked

(* Symbol helpers. *)
let text_addr img name =
  match Asm.Image.find_symbol img name with
  | Some (Asm.Image.Text w) -> w
  | _ -> invalid_arg (Printf.sprintf "attack: no text label %S" name)

let data_addr img name =
  match Asm.Image.find_symbol img name with
  | Some (Asm.Image.Data a) -> a
  | _ -> invalid_arg (Printf.sprintf "attack: no data symbol %S" name)

(* A kill reason that names the system's protection at work. *)
let is_protection_reason r =
  let contains sub =
    let n = String.length r and m = String.length sub in
    let rec go i = i + m <= n && (String.sub r i m = sub || go (i + 1)) in
    go 0
  in
  List.exists contains [ "protection"; "overflow"; "kernel-area"; "bounds" ]

(* ------------------------------------------------------------------ *)
(* Subjects: one booted victim each                                    *)

(** Where a system's packets aim, in its own coordinates: the clobber's
    forged frame pointer [y] and return [ret], and the chain's write
    [target] and copy-loop re-entry [rf_ldx]. *)
type aim = { y : int; ret : int; target : int; rf_ldx : int }

(* The attacker aims the same logical attack everywhere; only [aim]
   differs.  The fill bytes and flood length come from the trial rng so
   campaigns sweep payload variety deterministically. *)
let craft aim cls rng =
  match cls with
  | Flood ->
    let len = 64 + (next rng mod 150) in
    Packet.flood ~len ~fill:(fun _ -> next_byte rng)
  | Clobber ->
    Packet.clobber ~y:aim.y ~ret:aim.ret ~fill:(fun _ -> next_byte rng) ()
  | Chain ->
    Packet.chain ~target:aim.target ~rf_ldx:aim.rf_ldx
      ~payload:(List.init 6 (fun _ -> next_byte rng))
      ~fill:(fun _ -> next_byte rng)

(** A victim as [drive] sees it.  Everything in which the four
    systems differ is here, as data or as a read of the one booted
    instance. *)
type subject = {
  grid : int list;  (** the stops, ascending; the PC probe reads at each *)
  schedule : (int * int list) list -> unit;
      (** arm the radio with [(cycle, bytes)] packets, before any stop *)
  run_to : int -> unit;  (** advance to a stop, delivering due packets *)
  clock : unit -> int;
  stray : (unit -> string option) option;
      (** the PC probe: the running task outside its own text *)
  canary : string * string * int * (int -> int);
      (** whose canary, its unit, its length, and a read of unit [i] *)
  invariants : (unit -> string option) option;
  receiver : string;  (** who answers frames, as the liveness probe says *)
  frames : unit -> int;
  sibling : ((unit -> int) * (unit -> bool)) option;
      (** the bystander's progress counter, and whether it still runs *)
  kills : unit -> (string * bool) list;
      (** each kill's description, and whether protection explains it *)
  no_kill : string;  (** the kill probe's detail when nothing was killed *)
  wild : unit -> bool;  (** halted in a way no task explains *)
  kernel_survives : bool;  (** a protection kill leaves the kernel running *)
  answering : unit -> bool;  (** the receiver can still take a frame *)
  recover : (unit -> int option) option;
      (** watchdog reboot plus a benign frame: cycles back to service *)
  aim : aim;
}

(* The comparators also stop at [t_benign] ([t_attack + sample_step]
   already heads [sample_grid]). *)
let comparator_grid = List.sort_uniq compare (t_benign :: sample_grid)

let in_span pc (lo, hi) = pc >= lo && pc < hi

(* The PC probe of a multitasking kernel: [noun] [id], whose text is
   [own], sampled outside it. *)
let stray_task ~noun ~spans (m : Machine.Cpu.t) id own =
  if in_span m.pc own then None
  else
    Some
      (Printf.sprintf "%s %d at pc 0x%04x in %s (cycle %d)" noun id m.pc
         (if List.exists (in_span m.pc) spans then "a sibling's text"
          else "unmapped flash")
         m.cycles)

(* Stopped tasks or threads that did not exit normally. *)
let named_kills outcomes =
  List.filter_map
    (fun (n, r) ->
      if r = "exit" then None
      else Some (Printf.sprintf "%s: %s" n r, is_protection_reason r))
    outcomes

(* A comparator hands each packet to its radio at the first stop at or
   past the packet's cycle, before advancing to that stop. *)
let queued deliver advance =
  let pending = ref [] in
  ( (fun packets -> pending := packets),
    fun g ->
      let due, later = List.partition (fun (at, _) -> at <= g) !pending in
      pending := later;
      List.iter (fun (at, bytes) -> deliver at bytes) due;
      advance g )

let inject_rx (m : Machine.Cpu.t) at bytes =
  List.iteri (fun i b ->
      Machine.Io.inject_rx m.io ~cycles:(max at m.cycles)
        ~after:((i + 1) * Machine.Io.radio_byte_cycles) b)
    bytes

let assemble = Asm.Assembler.assemble
let canary_fill = Programs.Rx_vuln.canary_fill

(* SenSmart: naturalized tasks under logical addressing. *)

let nat_span (t : Kernel.Task.t) =
  (t.nat.base, t.nat.base + Rewriter.Naturalized.total_words t.nat)

(* Aim the clobber at the guard's naturalized entry (reuse a sibling's
   resident code) and the chain at the kernel cells. *)
let sensmart_aim (k : Kernel.t) =
  let rx = Kernel.find_task k 0 and gd = Kernel.find_task k 1 in
  let rf_ldx = text_addr rx.nat.source "rf_ldx" in
  { y = 0x10F3; ret = gd.nat.entry; target = Rewriter.Kcells.cells_base;
    rf_ldx = Rewriter.Shift_table.to_naturalized rx.nat.shift rf_ldx }

let sensmart_packet ~cls ~rng k = craft (sensmart_aim k) cls rng

(* Receiver + guard under the kernel.  Packets ride [Radio_frame]
   injections through {!Fault.run_kernel}, so each lands at its exact
   cycle.  The kernel keeps its own trace: its events and the injector's
   "fault.*" counters stay out of the campaign's. *)
let sensmart ~tier ~mote =
  let k =
    Kernel.boot ~mote
      [ assemble (Programs.Rx_vuln.receiver ());
        assemble (Programs.Rx_vuln.guard ()) ]
  in
  k.m.tier <- tier;
  let rx = Kernel.find_task k 0 and gd = Kernel.find_task k 1 in
  let spans = List.map nat_span [ rx; gd ] in
  let canary = data_addr gd.nat.source "canary" in
  let frame (at, bytes) = { Fault.at; mote; kind = Fault.Radio_frame { bytes } } in
  let plan = ref (Fault.Plan.make []) in
  let last_stop = ref Machine.Cpu.Out_of_fuel in
  let wild () =
    match !last_stop with
    | Machine.Cpu.Halted (Machine.Cpu.Fault _ | Machine.Cpu.Invalid_opcode _) -> true
    | _ -> false
  in
  let frames () = Kernel.read_var k 0 "frames" in
  let recover () =
    let t_reboot = k.m.cycles in
    Kernel.watchdog_reboot k;
    Fault.inject k (frame (0, Packet.benign));
    let rec seek horizon =
      if horizon > t_reboot + recovery_budget then None
      else begin
        ignore (Kernel.run ~max_cycles:horizon k);
        if Kernel.Task.is_live (Kernel.find_task k 0) && frames () > 0 then
          Some (k.m.cycles - t_reboot)
        else seek (horizon + 50_000)
      end
    in
    seek (t_reboot + 50_000)
  in
  { grid = sample_grid;
    schedule = (fun packets -> plan := Fault.Plan.make (List.map frame packets));
    run_to = (fun g -> last_stop := Fault.run_kernel ~max_cycles:g ~plan:!plan k);
    clock = (fun () -> k.m.cycles);
    stray =
      Some
        (fun () ->
          match k.current with
          | Some t when Kernel.Task.is_live t ->
            stray_task ~noun:"task" ~spans k.m t.id (nat_span t)
          | _ -> None);
    (* a logical read: relocation-proof *)
    canary =
      ("guard", "byte", Programs.Rx_vuln.canary_bytes,
       fun i -> Kernel.heap_byte k 1 (canary + i));
    invariants =
      Some (fun () -> try Kernel.check_invariants k; None with Failure m -> Some m);
    receiver = "receiver"; frames;
    sibling =
      Some
        ((fun () -> Kernel.read_var k 1 "progress"),
         fun () -> Kernel.Task.is_live gd);
    kills = (fun () -> named_kills (Kernel.outcomes k)); no_kill = "no task killed";
    wild; kernel_survives = true; answering = (fun () -> true);
    recover = Some recover;
    aim = sensmart_aim k }

(* t-kernel: one rewritten app, protected only at the kernel line
   ([Kcells.app_limit]).  Its canary is kernel-area bytes the app must
   never reach. *)
let tk_canary_base = 0x10C0
let tk_canary_bytes = 16
let tk_sp_top = Rewriter.Kcells.app_limit - 1

let tkernel ~tier =
  let src = assemble (Programs.Rx_vuln.receiver ~sp_top:tk_sp_top ()) in
  let rw = Tkernel.Rewrite.run src in
  let s = Tkernel.Run.start rw in
  let m = s.Tkernel.Run.machine in
  m.tier <- tier;
  for i = 0 to tk_canary_bytes - 1 do
    Machine.Cpu.write8 m (tk_canary_base + i) canary_fill
  done;
  let halt = ref None in
  let kills () =
    match !halt with
    | Some (Machine.Cpu.Fault r) -> [ (r, is_protection_reason r) ]
    | Some (Machine.Cpu.Invalid_opcode (pc, w)) ->
      [ (Printf.sprintf "invalid opcode 0x%04x at 0x%04x" w pc, false) ]
    | Some Machine.Cpu.Break_hit | None -> []
  in
  let schedule, run_to =
    queued (inject_rx m) (fun g ->
        if !halt = None then halt := Tkernel.Run.continue_ ~max_cycles:g s)
  in
  let text_words = Array.length rw.image.words in
  let frames = data_addr src "frames" and rf_ldx = text_addr src "rf_ldx" in
  { grid = comparator_grid; schedule; run_to;
    clock = (fun () -> m.cycles);
    stray =
      Some
        (fun () ->
          if !halt = None && m.pc >= text_words then
            Some
              (Printf.sprintf "pc 0x%04x beyond rewritten text (cycle %d)" m.pc
                 m.cycles)
          else None);
    canary =
      ("kernel-area", "byte", tk_canary_bytes,
       fun i -> Machine.Cpu.read8 m (tk_canary_base + i));
    invariants = None;
    receiver = "app"; frames = (fun () -> Machine.Cpu.read16 m frames);
    sibling = None;
    kills; no_kill = "app still running";
    wild = (fun () -> List.exists (fun (_, explained) -> not explained) (kills ()));
    (* a protection fault halts the one app, and the machine with it *)
    kernel_survives = false; answering = (fun () -> !halt = None);
    recover = None;
    (* no sibling code to reuse: a blind return into unmapped flash *)
    aim =
      { y = tk_sp_top - 12; ret = 0x6000; target = Rewriter.Kcells.cells_base;
        rf_ldx = Option.value (Hashtbl.find_opt rw.addr_map rf_ldx) ~default:rf_ldx } }

(* LiteOS: threads in fixed physical partitions.  Symbols are absolute
   (each thread is assembled against its private flash base). *)
let liteos ~tier =
  let l =
    Liteos.boot
      [ ("rx_vuln", fun ~data_base:_ ~sp_top -> Programs.Rx_vuln.receiver ~sp_top ());
        ("guard", fun ~data_base:_ ~sp_top -> Programs.Rx_vuln.guard ~sp_top ()) ]
  in
  l.m.tier <- tier;
  let rx = List.nth l.threads 0 and gd = List.nth l.threads 1 in
  let span (th : Liteos.thread) =
    let lo = text_addr th.img "start" in
    (lo, lo + th.img.text_words)
  in
  let spans = [ span rx; span gd ] in
  let live (th : Liteos.thread) =
    match th.status with Liteos.Dead _ -> false | _ -> true
  in
  (* the guard's heap is a fixed physical window right above the
     receiver's stack partition: what a wild physical write crosses *)
  let canary = data_addr gd.img "canary" in
  let last_stop = ref Machine.Cpu.Out_of_fuel in
  let wild () =
    match !last_stop with
    | Machine.Cpu.Halted Machine.Cpu.Break_hit -> false
    | Machine.Cpu.Halted _ -> true
    | _ -> false
  in
  let schedule, run_to =
    queued (inject_rx l.m) (fun g ->
        match !last_stop with
        | Machine.Cpu.Halted _ -> ()
        | _ -> last_stop := Liteos.run ~max_cycles:g l)
  in
  { grid = comparator_grid; schedule; run_to;
    clock = (fun () -> l.m.cycles);
    stray =
      Some
        (fun () ->
          match l.current with
          | Some th when live th ->
            stray_task ~noun:"thread" ~spans l.m th.id (span th)
          | _ -> None);
    canary =
      ("guard", "byte", Programs.Rx_vuln.canary_bytes,
       fun i -> Machine.Cpu.read8 l.m (canary + i));
    invariants = None;
    receiver = "receiver"; frames = (fun () -> Liteos.read_var l 0 "frames");
    sibling = Some ((fun () -> Liteos.read_var l 1 "progress"), fun () -> live gd);
    kills = (fun () -> named_kills (Liteos.casualties l)); no_kill = "no thread killed";
    wild; kernel_survives = true; answering = (fun () -> true);
    recover = None;
    (* physical addressing: the chain's write-anywhere goes straight
       across the partition boundary into the guard's canary *)
    aim =
      { y = rx.stack_top - 12; ret = gd.img.entry; target = canary;
        rf_ldx = text_addr rx.img "rf_ldx" } }

(* Maté: the receive loop as a bytecode capsule.  Address-free: the
   packets keep SenSmart's byte-stream shape, and to the VM it is all
   data. *)
let matevm () =
  let vm =
    Matevm.create (Matevm.rx_capsule ~sync:Packet.sync ~canary:canary_fill)
  in
  let schedule, run_to =
    queued
      (fun _ bytes -> List.iter (Matevm.inject_rx vm) bytes)
      (fun g -> if not vm.halted then ignore (Matevm.run ~max_cycles:g vm))
  in
  { grid = comparator_grid; schedule; run_to;
    clock = (fun () -> vm.cycles);
    stray = None;
    canary =
      ("heap", "slot", Matevm.rx_canary_slots,
       fun i -> vm.heap.(Matevm.rx_canary_base + i));
    invariants = None;
    receiver = "capsule"; frames = (fun () -> vm.heap.(Matevm.rx_frames_slot));
    sibling = None;
    kills =
      (fun () ->
        match vm.trap with
        | Some r -> [ (r, true) ]
        | None -> if vm.halted then [ ("capsule halted", false) ] else []);
    no_kill = "capsule running";
    wild = (fun () -> false); kernel_survives = true;
    answering = (fun () -> not vm.halted);
    recover = None;
    aim = { y = 0x10F3; ret = 0x0100; target = 0x10F0; rf_ldx = 0x0100 } }

let subject ~tier ~mote = function
  | "sensmart" -> sensmart ~tier ~mote
  | "tkernel" -> tkernel ~tier
  | "liteos" -> liteos ~tier
  | "matevm" -> matevm ()
  | s -> invalid_arg (Printf.sprintf "attack: unknown system %S" s)

(* ------------------------------------------------------------------ *)
(* The trial                                                           *)

(** The trial, said once: arm [s] with [packets] and the benign
    liveness frame, walk its grid with the PC probe, run the probe
    battery, mirror every probe into [trace], and classify. *)
let drive ~trace ~mote ~system ~cls ~index s packets =
  s.schedule (packets @ [ (t_benign, Packet.benign) ]);
  let stray = ref None and before = ref (0, 0) in
  List.iter
    (fun g ->
      s.run_to g;
      (match (!stray, s.stray) with None, Some pc -> stray := pc () | _ -> ());
      if g = t_benign - 1 then
        before := (s.frames (), Option.fold ~none:0 ~some:(fun (p, _) -> p ()) s.sibling))
    s.grid;
  let frames_before, progress_before = !before in
  let probes = ref [] in
  let probe ~at name ok detail =
    Trace.emit trace ~mote ~at (Trace.Probe { name; detail });
    probes := { pname = name; detail; ok } :: !probes
  in
  let at = s.clock () in
  if Option.is_some s.stray then
    probe ~at "pc_bounds" (!stray = None)
      (Option.value !stray ~default:"all samples in-text");
  let whose, unit_, len, read = s.canary in
  let bad = List.length (List.filter (( <> ) canary_fill) (List.init len read)) in
  probe ~at "canary" (bad = 0)
    (if bad = 0 then Printf.sprintf "%s canary intact" whose
     else Printf.sprintf "%s canary: %d %s(s) clobbered" whose bad unit_);
  let broken =
    match s.invariants with
    | None -> None
    | Some check ->
      let r = check () in
      probe ~at "invariants" (r = None)
        (Option.value r ~default:"region invariants hold");
      r
  in
  let frames = s.frames () in
  let responsive = s.answering () && frames > frames_before in
  probe ~at "liveness" responsive
    (Printf.sprintf "%s frames %d -> %d after benign probe" s.receiver
       frames_before frames);
  let sibling_alive =
    match s.sibling with
    | None -> false
    | Some (progress, running) ->
      let p = progress () in
      let alive = p > progress_before && running () in
      probe ~at "sibling" alive
        (Printf.sprintf "guard progress %d -> %d" progress_before p);
      alive
  in
  let kills = s.kills () in
  probe ~at "kill" (List.for_all snd kills)
    (if kills = [] then s.no_kill else String.concat "; " (List.map fst kills));
  let verdict =
    classify ~halted_wild:(s.wild ()) ~sibling_damage:(bad > 0)
      ~hijack:(!stray <> None || broken <> None)
      ~responsive ~protection_kill:(List.exists snd kills)
      ~kernel_alive:s.kernel_survives ~sibling_alive
  in
  (* Graceful degradation: when the service was damaged, compose with
     the watchdog and measure time back to a serving receiver. *)
  let recovery_cycles =
    match s.recover with
    | Some recover when verdict <> Contained ->
      let r = recover () in
      probe ~at:(s.clock ()) "recovery" (r <> None)
        (match r with
         | Some c -> Printf.sprintf "service restored %d cycles after reboot" c
         | None -> "service not restored within recovery budget");
      r
    | _ -> None
  in
  { system; cls; index; packet = List.concat_map snd packets; verdict;
    probes = List.rev !probes; frames; responsive; recovery_cycles;
    cycles = s.clock () }

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

type matrix = {
  seed : int;
  trials : trial list;
  trace : Trace.t;
      (** probe events for every trial plus the aggregated ["attack.*"]
          counters *)
}

(** Worst verdict of a (system, class) cell; [None] when untested. *)
let cell m system cls =
  List.fold_left
    (fun acc t ->
      if t.system = system && t.cls = cls then
        Some (match acc with None -> t.verdict | Some v -> worst v t.verdict)
      else acc)
    None m.trials

(** Classes a system fully contained (worst verdict [Contained]). *)
let contained_classes m system =
  List.filter (fun c -> cell m system c = Some Contained) all_classes

(* The "attack.*" counters: trials per verdict, trials on which each
   probe fired, recoveries and their cycles, and each cell's worst
   verdict rank. *)
let publish (m : matrix) systems =
  let set name v = Trace.set_counter m.trace ("attack." ^ name) v in
  let count f = List.length (List.filter f m.trials) in
  let recovered = List.filter_map (fun t -> t.recovery_cycles) m.trials in
  set "trials" (List.length m.trials);
  List.iter
    (fun v -> set (verdict_name v) (count (fun t -> t.verdict = v)))
    [ Contained; Degraded; Escaped; Bricked ];
  List.iter
    (fun name ->
      set ("probe." ^ name)
        (count (fun t -> List.exists (fun p -> p.pname = name && not p.ok) t.probes)))
    [ "pc_bounds"; "canary"; "invariants"; "liveness"; "sibling"; "kill";
      "recovery" ];
  set "recovered" (List.length recovered);
  set "recovery_cycles_total" (List.fold_left ( + ) 0 recovered);
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          set (s ^ "." ^ cls_name c)
            (Option.fold ~none:0 ~some:verdict_rank (cell m s c)))
        all_classes)
    systems

(** Run the full campaign: [trials] seeded packet variants of every
    attack class against every system.  Same arguments, same matrix —
    across execution tiers ([tier]) and on any host. *)
let campaign ?(tier = 1) ?(trials = 2) ?(seed = 1)
    ?(systems = all_systems) () : matrix =
  let trace = Trace.create ~capacity:16384 () in
  let out = ref [] in
  List.iter
    (fun system ->
      List.iter
        (fun cls ->
          for index = 0 to trials - 1 do
            let mix = seed lxor (Hashtbl.hash (system, cls_name cls) * 0x9E37) in
            let rng = rng_of (splitmix (mix lxor (index * 0x85EB))) in
            let s = subject ~tier ~mote:index system in
            let packets = [ (t_attack, craft s.aim cls rng) ] in
            out := drive ~trace ~mote:index ~system ~cls ~index s packets :: !out
          done)
        all_classes)
    systems;
  let m = { seed; trials = List.rev !out; trace } in
  publish m systems;
  m

let pp_matrix fmt (m : matrix) =
  let systems =
    List.filter
      (fun s -> List.exists (fun t -> t.system = s) m.trials)
      all_systems
  in
  Format.fprintf fmt "attack containment matrix (seed %d, %d trials)@,"
    m.seed (List.length m.trials);
  Format.fprintf fmt "%-10s" "";
  List.iter (fun c -> Format.fprintf fmt " %-10s" (cls_name c)) all_classes;
  Format.pp_print_newline fmt ();
  List.iter
    (fun s ->
      Format.fprintf fmt "%-10s" s;
      List.iter
        (fun c ->
          Format.fprintf fmt " %-10s"
            (match cell m s c with
             | Some v -> verdict_name v
             | None -> "-"))
        all_classes;
      Format.pp_print_newline fmt ())
    systems;
  List.iter
    (fun (t : trial) ->
      Format.fprintf fmt "  %s/%s#%d: %a (frames=%d%s%s)@," t.system
        (cls_name t.cls) t.index pp_verdict t.verdict t.frames
        (if t.responsive then ", responsive" else ", unresponsive")
        (match t.recovery_cycles with
         | Some c -> Printf.sprintf ", recovered in %d cycles" c
         | None -> "");
      List.iter
        (fun p ->
          if not p.ok then
            Format.fprintf fmt "    ! %s: %s@," p.pname p.detail)
        t.probes)
    m.trials

(* ------------------------------------------------------------------ *)
(* Raw-packet replay (the CLI's --packet)                              *)

(** Replay explicit raw packets against the SenSmart receiver+guard
    pair: packet [i] is delivered at [t_attack + i * spacing], the
    benign liveness probe and the full probe battery run as in a
    campaign trial. *)
let replay ?(tier = 1) ?(spacing = 150_000) packets : trial * Trace.t =
  let trace = Trace.create ~capacity:16384 () in
  let s = sensmart ~tier ~mote:0 in
  ( drive ~trace ~mote:0 ~system:"sensmart" ~cls:Flood ~index:0 s
      (List.mapi (fun i p -> (t_attack + (i * spacing), p)) packets),
    trace )

(** Parse a hex packet spec ("a7 0c 01..." — spaces optional) with the
    fault engine's frame parser, so CLI errors are uniform. *)
let packet_of_spec = Fault.Plan.frame_of_hex

(** A deterministic fingerprint of a campaign, for identity tests:
    tier-0 and tier-1 campaigns must produce equal strings. *)
let fingerprint (m : matrix) =
  String.concat "\n"
    (List.map
       (fun t ->
         Printf.sprintf "%s/%s#%d %s frames=%d resp=%b rec=%s cyc=%d [%s] %s"
           t.system (cls_name t.cls) t.index (verdict_name t.verdict) t.frames
           t.responsive
           (Option.fold ~none:"-" ~some:string_of_int t.recovery_cycles)
           t.cycles
           (String.concat ";"
              (List.map (fun p -> Printf.sprintf "%s=%b:%s" p.pname p.ok p.detail)
                 t.probes))
           (Format.asprintf "%a" Packet.pp_bytes t.packet))
       m.trials)
