(* One measured iteration of one SenSmart benchmark workload.

   perfbench/run.py starts this program once per iteration, each time
   in a fresh process with an empty tier-2 artifact cache, and
   aggregates the single JSON line it prints.  An iteration has a
   set-up phase and a main phase, both timed with bechamel's monotonic
   clock; its outputs are then checked against values pinned below
   (which is why the fleet and program-table inputs never depend on the
   seed).

   With [--trace], every call this file makes into a layer's public
   functions is wrapped in a span (name, start, end, parent), GC
   activity is recorded per span from [Gc.quick_stat] deltas and from
   the stdlib [Runtime_events] ring (drained at span boundaries), and a
   few probes run after the main phase: the rewriter's three stages and
   the tier-2 digest/translate timed by themselves, native runs for the
   paper's Fig. 5 ratio, and a 10x smaller fleet for the scaling ratio.
   Layer times are reported as shares of the traced set-up + main time.

   Usage: sensbench.exe --workload W [--seed N] [--scale default|tiny]
                        [--trace] [--reference] *)

let now = Monotonic_clock.now
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Spans and GC pauses *)

type span = {
  name : string;
  parent : int;  (** index of the enclosing span; -1 for a phase root *)
  start : int64;
  mutable stop : int64;
  mutable pause_ns : int;  (** GC pauses drained while innermost *)
  mutable minor : int;
  mutable major : int;
  mutable promoted : float;  (** words *)
}

let tracing = ref false
let spans : span list ref = ref [] (* newest first *)
let span_count = ref 0
let stack : (int * span) list ref = ref []

(* A pause is the outermost runtime phase of one ring (domain), from its
   begin to its matching end.  Only pauses drained while a span is open
   count: those between and after the measured phases do not. *)
let pauses : int list ref = ref []
let drained_ns = ref 0
let events_lost = ref 0
let open_phase : (int, Runtime_events.runtime_phase * int64) Hashtbl.t =
  Hashtbl.create 4

let callbacks =
  lazy
    (let ts = Runtime_events.Timestamp.to_int64 in
     Runtime_events.Callbacks.create
       ~runtime_begin:(fun ring t phase ->
         if not (Hashtbl.mem open_phase ring) then
           Hashtbl.replace open_phase ring (phase, ts t))
       ~runtime_end:(fun ring t phase ->
         match Hashtbl.find_opt open_phase ring with
         | Some (p, t0) when p = phase ->
           Hashtbl.remove open_phase ring;
           if !stack <> [] then begin
             let d = Int64.to_int (Int64.sub (ts t) t0) in
             pauses := d :: !pauses;
             drained_ns := !drained_ns + d
           end
         | _ -> ())
       ~lost_events:(fun _ n -> events_lost := !events_lost + n)
       ())

let cursor = ref None

let start_tracing () =
  tracing := true;
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Read every pending runtime event; the pauses seen are charged to the
   innermost open span, which was innermost for the whole interval since
   the previous drain. *)
let drain () =
  match !cursor with
  | None -> ()
  | Some c ->
    drained_ns := 0;
    ignore (Runtime_events.read_poll c (Lazy.force callbacks) None);
    (match !stack with
     | (_, s) :: _ -> s.pause_ns <- s.pause_ns + !drained_ns
     | [] -> ())

let span name f =
  if not !tracing then f ()
  else begin
    drain ();
    let g0 = Gc.quick_stat () in
    let parent = match !stack with (i, _) :: _ -> i | [] -> -1 in
    let s =
      { name; parent; start = now (); stop = 0L; pause_ns = 0; minor = 0;
        major = 0; promoted = 0. }
    in
    stack := (!span_count, s) :: !stack;
    spans := s :: !spans;
    incr span_count;
    Fun.protect
      ~finally:(fun () ->
        drain ();
        s.stop <- now ();
        let g1 = Gc.quick_stat () in
        s.minor <- g1.minor_collections - g0.minor_collections;
        s.major <- g1.major_collections - g0.major_collections;
        s.promoted <- g1.promoted_words -. g0.promoted_words;
        stack := List.tl !stack)
      f
  end

(* [f]'s result and wall time. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, secs t0 (now ()))

(* A phase is always timed; when tracing it is also a root span. *)
let phase name f = timed (fun () -> span name f)

type agg = {
  mutable count : int;
  mutable total : float;
  mutable self : float;
  mutable pause_ms : float;
  mutable minors : int;
  mutable majors : int;
  mutable promoted : float;
  root : bool;
}

(* Per-name totals; self time is a span's duration minus the part its
   direct children cover. *)
let aggregate () =
  let arr = Array.of_list (List.rev !spans) in
  let dur s = secs s.start s.stop in
  let child = Array.make (Array.length arr) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s)
    arr;
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  Array.iteri
    (fun i s ->
      let a =
        match Hashtbl.find_opt tbl s.name with
        | Some a -> a
        | None ->
          let a =
            { count = 0; total = 0.; self = 0.; pause_ms = 0.; minors = 0;
              majors = 0; promoted = 0.; root = s.parent < 0 }
          in
          Hashtbl.add tbl s.name a;
          order := s.name :: !order;
          a
      in
      a.count <- a.count + 1;
      a.total <- a.total +. dur s;
      a.self <- a.self +. (dur s -. child.(i));
      a.pause_ms <- a.pause_ms +. (float_of_int s.pause_ns *. 1e-6);
      a.minors <- a.minors + s.minor;
      a.majors <- a.majors + s.major;
      a.promoted <- a.promoted +. s.promoted)
    arr;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* ------------------------------------------------------------------ *)
(* Results *)

type out = {
  mutable setup_s : float list;
  mutable wall_s : float;
  mutable attempted : int;
  mutable errors : string list;
  mutable layers : (string * float) list;
  mutable extra : (string * string) list;  (** pre-rendered JSON values *)
}

let out =
  { setup_s = []; wall_s = 0.; attempted = 0; errors = [];
    layers = []; extra = [] }

let json_str s = "\"" ^ Service.Spec.json_escape s ^ "\""
let json_float f = Printf.sprintf "%.17g" f
let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"

let check what ok detail =
  out.attempted <- out.attempted + 1;
  if not ok then out.errors <- (what ^ ": " ^ detail) :: out.errors

let layer name v = out.layers <- (name, v) :: out.layers
let setup_sample s = out.setup_s <- s :: out.setup_s

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Scales: [Default] is what the benchmark measures; [Tiny] exists only
   for the dune runtest smoke of the runner. *)

type scale = Default | Tiny

let motes = function Default -> 1000 | Tiny -> 100
let passes = function Default -> 5 | Tiny -> 1
let jobs = function Default -> 1000 | Tiny -> 64

(* ------------------------------------------------------------------ *)
(* Fleets: Workloads.Fleet.create's body, spanned call by call *)

let periods = 4
let copies = 2
let loss_permille = 100
let topology = Workloads.Fleet.Grid 32

let create_fleet n =
  let img =
    span "minic.compile" (fun () -> Workloads.Fleet.image ~periods ~copies ())
  in
  let net =
    span "net.create" (fun () ->
        Net.create ~loss_permille ~sink_capacity:64 (List.init n (fun _ -> [ img ])))
  in
  span "net.link" (fun () -> Net.link_all net (Workloads.Fleet.edges topology n));
  net

(* Run to the horizon.  A traced run drains the GC event ring at every
   quantum, from [on_checkpoint], which leaves results byte-identical. *)
let run_fleet ~tier (net : Net.t) =
  let checkpoint_every = if !tracing then Some net.quantum else None in
  span "net.run" (fun () ->
      Net.run ~tier ~max_cycles:(Workloads.Fleet.horizon ~periods) ?checkpoint_every
        ~on_checkpoint:(fun _ _ -> drain ())
        net)

type fleet_pin = {
  live : int;
  sent : int;
  retrans : int;
  overflow : int;
  heard : int;
  routed : int;
  dropped : int;
  quanta : int;
  state_md5 : string;  (** over every mote's (cycles, insns, pc) *)
}

let fleet_pin = function
  | Default ->
    { live = 0; sent = 2000; retrans = 2000; overflow = 0; heard = 20942;
      routed = 41859; dropped = 4605; quanta = 216;
      state_md5 = "8e549918aa5c8f2ae481a7212422b862" }
  | Tiny ->
    { live = 0; sent = 200; retrans = 200; overflow = 0; heard = 1763;
      routed = 3532; dropped = 404; quanta = 216;
      state_md5 = "432efe86dc3c70284c77fe2c2c7a998f" }

let snapshot_bytes_pin = function Default -> 5107576 | Tiny -> 879874

let net_insns (net : Net.t) =
  Array.fold_left (fun a (nd : Net.node) -> a + nd.kernel.m.insns) 0 net.nodes

let fleet_state (net : Net.t) =
  let b = Buffer.create (Array.length net.nodes * 24) in
  Array.iter
    (fun (n : Net.node) ->
      let m = n.kernel.m in
      Buffer.add_string b (Printf.sprintf "%d,%d,%d;" m.cycles m.insns m.pc))
    net.nodes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_fleet pin ~live (net : Net.t) =
  let s = Workloads.Fleet.stats ~live net in
  let got =
    { live = s.live; sent = s.sent; retrans = s.retrans; overflow = s.overflow;
      heard = s.heard; routed = s.routed; dropped = s.dropped; quanta = s.quanta;
      state_md5 = fleet_state net }
  in
  check "fleet aggregates" (got = pin)
    (Printf.sprintf
       "live %d sent %d retrans %d overflow %d heard %d routed %d dropped %d quanta %d md5 %s"
       got.live got.sent got.retrans got.overflow got.heard got.routed got.dropped
       got.quanta got.state_md5)

let kernels_of_net (net : Net.t) =
  Array.to_list (Array.map (fun (n : Net.node) -> n.kernel) net.nodes)

(* ------------------------------------------------------------------ *)
(* Counters read off finished kernels *)

let t1_blocks (m : Machine.Cpu.t) =
  Array.fold_left
    (fun acc chunk ->
      Array.fold_left (fun a b -> if Option.is_some b then a + 1 else a) acc chunk)
    0 m.blocks

let machine_layers ~main_s (ks : Kernel.t list) =
  let sum f = List.fold_left (fun a k -> a + f k) 0 ks in
  let insns = sum (fun k -> k.Kernel.m.insns) in
  let t2 pred = sum (fun k -> if pred k.Kernel.m.t2 then 1 else 0) in
  layer "machine.insns" (float_of_int insns);
  layer "machine.minsns_per_s" (float_of_int insns /. main_s /. 1e6);
  layer "machine.t1_blocks" (float_of_int (sum (fun k -> t1_blocks k.Kernel.m)));
  layer "machine.private_flash"
    (float_of_int (sum (fun k -> if k.Kernel.m.flash_shared then 0 else 1)));
  layer "aot.bound"
    (float_of_int (t2 (function Machine.Cpu.T2_ready _ -> true | _ -> false)));
  layer "aot.waiting"
    (float_of_int (t2 (function Machine.Cpu.T2_wait _ -> true | _ -> false)));
  let st f = float_of_int (sum (fun k -> f k.Kernel.stats)) in
  layer "kernel.traps" (st (fun s -> s.traps));
  layer "kernel.context_switches" (st (fun s -> s.context_switches));
  layer "kernel.relocations" (st (fun s -> s.relocations));
  layer "kernel.relocated_bytes" (st (fun s -> s.relocated_bytes))

(* The rewriter's stages timed by themselves, exactly as
   [Rewriter.Rewrite.pipeline] calls them; returns per-stage seconds and
   the report. *)
let rewrite_stages (img : Asm.Image.t) =
  let open Rewriter in
  let heap_end = Asm.Image.heap_base + img.data_size in
  let recovery, t_rec = timed (fun () -> Recovery.run img) in
  let (sites, diags), t_tr =
    timed (fun () ->
        Transform.classify ~config:Rewrite.default_config ~recovery ~heap_end img)
  in
  let outcome, t_red =
    timed (fun () -> Redirection.run ~recovery ~sites ~base:0 ~heap_end img)
  in
  ((t_rec, t_tr, t_red), Report.make ~recovery ~transform_diags:diags ~outcome img)

(* [images] each rewritten [calls] times during the traced phases of
   [total_s] seconds. *)
let rewriter_layers ~total_s ~calls images =
  let share s = 100. *. s *. float_of_int calls /. total_s in
  let rs = List.map rewrite_stages images in
  let sum f = List.fold_left (fun a x -> a +. f x) 0. rs in
  layer "rewriter.recovery_pct" (share (sum (fun ((a, _, _), _) -> a)));
  layer "rewriter.transform_pct" (share (sum (fun ((_, b, _), _) -> b)));
  layer "rewriter.redirection_pct" (share (sum (fun ((_, _, c), _) -> c)));
  let isum f = List.fold_left (fun a (_, r) -> a + f r) 0 rs in
  let open Rewriter.Report in
  layer "rewriter.trampolines" (float_of_int (isum (fun r -> r.trampolines)));
  layer "rewriter.insns_patched" (float_of_int (isum (fun r -> r.insns_patched)));
  layer "rewriter.inflation_permille"
    (1000. *. float_of_int (isum (fun r -> r.total_bytes))
    /. float_of_int (isum (fun r -> r.native_bytes)))

(* Tier-2 costs as estimated shares of the traced time: every digest the
   run computed ([digests] of them) and a translate per bound flash,
   each timed by itself on the same flash, plus the toolchain time the
   run itself measured. *)
let aot_layers ~total_s ~digests ~bound_flashes ~(before : Machine.Aot.stat) =
  let after = Machine.Aot.stats () in
  let share s = 100. *. s /. total_s in
  (* The digest always hashes a whole flash, so its cost does not depend
     on the contents. *)
  let digest_s =
    let flash = Array.make Machine.Layout.flash_words 0xFFFF in
    snd (timed (fun () -> Machine.Aot.digest_of_flash flash)) *. float_of_int digests
  in
  let translate_s =
    List.fold_left
      (fun acc flash ->
        let digest = Machine.Aot.digest_of_flash flash in
        acc +. snd (timed (fun () -> Machine.Aot.translate ~digest flash)))
      0. bound_flashes
  in
  layer "aot.digest_pct" (share digest_s);
  layer "aot.translate_pct" (share translate_s);
  layer "aot.compile_pct" (share ((after.compile_ms -. before.compile_ms) /. 1000.));
  layer "aot.compiles" (float_of_int (after.compiles - before.compiles));
  layer "aot.cache_hits" (float_of_int (after.cache_hits - before.cache_hits))

let bound_flash (k : Kernel.t) =
  match k.m.t2 with Machine.Cpu.T2_ready _ -> Some k.m.flash | _ -> None

(* ------------------------------------------------------------------ *)
(* Workload: fleet / fleet_t2 *)

let fleet ~scale ~tier =
  let n = motes scale in
  let aot0 = Machine.Aot.stats () in
  let net, s1 = phase "setup" (fun () -> create_fleet n) in
  setup_sample s1;
  let live, run_s = phase "main" (fun () -> run_fleet ~tier net) in
  check_fleet (fleet_pin scale) ~live net;
  let insns = net_insns net in
  let bound_flashes = List.filter_map bound_flash [ (Net.node net 0).kernel ] in
  if !tracing then begin
    let ks = kernels_of_net net in
    machine_layers ~main_s:run_s ks;
    let cycles = List.fold_left (fun a k -> a + k.Kernel.m.cycles) 0 ks in
    layer "net.mcycles_per_s" (float_of_int cycles /. run_s /. 1e6);
    layer "net.quanta" (float_of_int net.quanta);
    layer "net.routed" (float_of_int net.routed);
    layer "net.dropped" (float_of_int net.dropped)
  end;
  (* Tier 1 then saves the whole fleet and loads it into a freshly
     created one.  The run's fleet is collected before that second fleet
     is created, as it would be in the later process that loads it. *)
  let snapshot_s =
    if tier <> 1 then 0.
    else begin
      let bytes, save_s =
        phase "main" (fun () ->
            let snap = span "snapshot.capture" (fun () -> Snapshot.of_net net) in
            span "snapshot.encode" (fun () -> Snapshot.to_string snap))
      in
      Gc.full_major ();
      let target, s2 = phase "setup" (fun () -> create_fleet n) in
      setup_sample s2;
      let (), load_s =
        phase "main" (fun () ->
            match span "snapshot.decode" (fun () -> Snapshot.of_string bytes) with
            | Ok s -> span "snapshot.restore" (fun () -> Snapshot.restore_net s target)
            | Error e -> check "snapshot decode" false e)
      in
      let restored = Snapshot.digest (Snapshot.of_net target) in
      let saved = Digest.to_hex (Digest.string bytes) in
      check "snapshot round trip"
        (restored = saved && String.length bytes = snapshot_bytes_pin scale)
        (Printf.sprintf "restored %s saved %s, %d bytes" restored saved
           (String.length bytes));
      layer "snapshot.bytes_per_mote" (float_of_int (String.length bytes) /. float_of_int n);
      save_s +. load_s
    end
  in
  out.wall_s <- run_s +. snapshot_s;
  let rss = peak_rss_kb () in
  if !tracing then begin
    let total_s = List.fold_left ( +. ) out.wall_s out.setup_s in
    (* Every fleet created rewrites the image once, in Net.create. *)
    rewriter_layers ~total_s ~calls:(List.length out.setup_s)
      [ Workloads.Fleet.image ~periods ~copies () ];
    if tier = 2 then aot_layers ~total_s ~digests:1 ~bound_flashes ~before:aot0;
    (* Simulated-instruction throughput at this size over the same at a
       tenth of it (median of 3): 100 means host cost grows linearly with
       motes. *)
    tracing := false;
    let small_run () =
      let small = create_fleet (max 1 (n / 10)) in
      let (), s =
        timed (fun () ->
            ignore (Net.run ~tier ~max_cycles:(Workloads.Fleet.horizon ~periods) small))
      in
      float_of_int (net_insns small) /. s
    in
    let small_rate = List.nth (List.sort compare (List.init 3 (fun _ -> small_run ()))) 1 in
    tracing := true;
    layer "net.scaling_pct" (100. *. (float_of_int insns /. run_s) /. small_rate)
  end;
  rss

(* ------------------------------------------------------------------ *)
(* Workload: programs / programs_t2 *)

let budget = 20_000_000

type program = {
  img : Asm.Image.t;
  result : Kernel.t -> int;  (** the program's 16-bit result, -1 if none *)
}

let read16 k addr = Kernel.heap_byte k 0 addr lor (Kernel.heap_byte k 0 (addr + 1) lsl 8)

(* The 17 registry programs that run without a radio peer, then the
   three avr-gcc-shaped fixtures loaded from Intel-HEX (no symbols). *)
let registry_names =
  List.filter (fun n -> n <> "rx_vuln" && n <> "guard") Workloads.Registry.names

let tiny_table = [ "crc"; "lfsr"; "blink"; "sense"; "dispatch" ]

let build_table scale fixtures =
  let wanted name = scale = Default || List.mem name tiny_table in
  let registry =
    List.filter_map
      (fun name ->
        if not (wanted name) then None
        else
          let img =
            match Workloads.Registry.find name with
            | Some p -> span "asm.assemble" (fun () -> Asm.Assembler.assemble p)
            | None ->
              span "minic.compile" (fun () ->
                  Option.get (Workloads.Registry.find_image name))
          in
          (* Assembly benchmarks store "bench_result", minic ones "r". *)
          let result =
            match
              List.find_opt
                (fun v -> Asm.Image.find_symbol img v <> None)
                [ "bench_result"; "r" ]
            with
            | Some v -> fun k -> Kernel.read_var k 0 v
            | None -> fun _ -> -1
          in
          Some { img; result })
      registry_names
  in
  let hex =
    List.filter_map
      (fun (f : Loader.Firmware.t) ->
        if not (wanted f.name) then None
        else
          match
            span "loader.parse" (fun () ->
                Loader.Load.of_hex ~name:f.name ~text_bytes:f.text_bytes
                  ~data_size:f.data_size f.hex)
          with
          | Ok img -> Some { img; result = (fun k -> read16 k f.result_addr) }
          | Error e ->
            check ("load " ^ f.name) false (Loader.Load.error_message e);
            None)
      fixtures
  in
  registry @ hex

(* Image name, stop reason, cycles, instructions, result. *)
let program_pins =
  [ ("am", "halted (break)", 378034, 181449, 96);
    ("amplitude", "halted (break)", 149540, 69116, 8064);
    ("crc", "halted (break)", 575798, 297443, 15673);
    ("eventchain", "halted (break)", 114346, 39573, 600);
    ("lfsr", "halted (break)", 87083, 41052, 9100);
    ("readadc", "halted (break)", 80764, 35026, 986);
    ("timer", "halted (break)", 58668, 24059, 48);
    ("periodic", "halted (break)", 5282561, 414746, 20);
    ("feed", "out of fuel", 20185600, 181488, -1);
    ("search", "out of fuel", 20185600, 808928, -1);
    ("lfsr_mc", "halted (break)", 1767199, 942518, 9100);
    ("crc_mc", "halted (break)", 10260008, 5752757, 15673);
    ("am_mc", "halted (break)", 478289, 238760, 96);
    ("amplitude_mc", "halted (break)", 213471, 105322, 8064);
    ("readadc_mc", "halted (break)", 107373, 49647, 986);
    ("eventchain_mc", "halted (break)", 185807, 85181, 600);
    ("timer_mc", "halted (break)", 59310, 27975, 48);
    ("blink", "halted (break)", 21512, 5587, 8);
    ("sense", "halted (break)", 23942, 6976, 3720);
    ("dispatch", "halted (break)", 12804, 1205, 6) ]

let boot_and_run ~tier (p : program) =
  let tpl = span "kernel.prepare" (fun () -> Kernel.prepare [ p.img ]) in
  let k = span "kernel.boot_from" (fun () -> Kernel.boot_from tpl) in
  let flash = k.m.flash in
  let stop = span "kernel.run" (fun () -> Kernel.run ~tier ~max_cycles:budget k) in
  (k, flash, stop)

let check_program (p : program) (k : Kernel.t) stop =
  let stop = Format.asprintf "%a" Machine.Cpu.pp_stop stop and result = p.result k in
  check ("program " ^ p.img.name)
    (List.mem (p.img.name, stop, k.m.cycles, k.m.insns, result) program_pins)
    (Printf.sprintf "stop %S cycles %d insns %d result %d" stop k.m.cycles k.m.insns result)

let programs ~scale ~tier =
  let fixtures = Loader.Firmware.all () in
  let aot0 = Machine.Aot.stats () in
  let table, setup_s = phase "setup" (fun () -> build_table scale fixtures) in
  setup_sample setup_s;
  let n_passes = if tier = 2 then 1 else passes scale in
  let runs, main_s =
    phase "main" (fun () ->
        List.concat
          (List.init n_passes (fun _ ->
               List.map (fun p -> (p, boot_and_run ~tier p)) table)))
  in
  out.wall_s <- main_s;
  let rss = peak_rss_kb () in
  List.iter (fun (p, (k, _, stop)) -> check_program p k stop) runs;
  if !tracing then begin
    let total_s = setup_s +. main_s in
    let last_pass = List.filteri (fun i _ -> i >= List.length runs - List.length table) runs in
    let ks = List.map (fun (_, (k, _, _)) -> k) runs in
    machine_layers ~main_s ks;
    rewriter_layers ~total_s ~calls:n_passes (List.map (fun p -> p.img) table);
    if tier = 2 then
      aot_layers ~total_s ~digests:(List.length runs)
        ~bound_flashes:
          (List.filter_map
             (fun (_, (k, flash, _)) -> Option.map (fun _ -> flash) (bound_flash k))
             last_pass)
        ~before:aot0;
    (* Fig. 5: kernel over native active cycles, over the images that
       reach BREAK both ways. *)
    let kern, native =
      List.fold_left
        (fun (ka, na) (p, ((k : Kernel.t), _, stop)) ->
          match stop with
          | Machine.Cpu.Halted Break_hit -> (
            let r = Workloads.Native.run ~max_cycles:budget p.img in
            match r.halt with
            | Some Break_hit -> (ka + Machine.Cpu.active_cycles k.m, na + r.active_cycles)
            | _ -> (ka, na))
          | _ -> (ka, na))
        (0, 0) last_pass
    in
    layer "kernel.overhead_permille" (1000. *. float_of_int kern /. float_of_int native)
  end;
  rss

(* ------------------------------------------------------------------ *)
(* Workload: serve (compute only: no ingest stall) *)

let serve ~scale ~seed ~workers =
  let specs, setup_s =
    phase "setup" (fun () ->
        let text =
          span "service.mix" (fun () ->
              String.concat "\n"
                (List.map Service.Spec.to_json
                   (Service.Engine.loadtest_mix ~seed (jobs scale))))
        in
        span "service.parse" (fun () -> Service.Spec.parse_lines text))
  in
  setup_sample setup_s;
  let specs = match specs with Ok s -> s | Error e -> failwith ("spec parse: " ^ e) in
  let sink = Buffer.create (1 lsl 20) in
  let config = { Service.Pool.default_config with workers; stall_us = 0 } in
  let o, main_s =
    phase "main" (fun () ->
        span "service.serve" (fun () ->
            Service.Engine.serve ~config ~emit:(Buffer.add_string sink) specs))
  in
  out.wall_s <- main_s;
  let rss = peak_rss_kb () in
  let s = o.summary in
  List.iter
    (fun (r : Service.Pool.result) ->
      check ("job " ^ string_of_int r.id) (r.status = Done) r.error)
    s.results;
  let lines =
    List.length (List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents sink)))
  in
  check "served every job"
    (s.completed = List.length specs && lines = List.length specs)
    (Printf.sprintf "%d of %d done, %d stream lines" s.completed (List.length specs) lines);
  out.extra <-
    [ ("digest", json_str o.digest);
      ("jobs_per_s", json_float (float_of_int (List.length specs) /. main_s)) ];
  if !tracing then begin
    layer "service.stolen" (float_of_int s.stolen);
    layer "service.dedup_hits" (float_of_int s.dedup_hits);
    let quantile q a = a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a)))) in
    let kinds = List.sort_uniq compare (List.map (fun (r : Service.Pool.result) -> r.job) s.results) in
    let per_kind kind =
      let ms =
        Array.of_list
          (List.filter_map
             (fun (r : Service.Pool.result) ->
               if r.job = kind then Some (float_of_int r.wall_us /. 1000.) else None)
             s.results)
      in
      Array.sort compare ms;
      ( kind,
        json_obj
          [ ("n", string_of_int (Array.length ms));
            ("p50_ms", json_float (quantile 0.5 ms));
            ("p99_ms", json_float (quantile 0.99 ms)) ] )
    in
    out.extra <- ("job_kinds", json_obj (List.map per_kind kinds)) :: out.extra
  end;
  rss

(* ------------------------------------------------------------------ *)
(* Trace summary: GC totals, span shares, and the per-span breakdown *)

let trace_summary ~total_s =
  let aggs = aggregate () in
  let roots f = List.fold_left (fun a (_, g) -> if g.root then a + f g else a) 0 aggs in
  let count name v = layer name (float_of_int v) in
  count "gc.minor_collections" (roots (fun g -> g.minors));
  count "gc.major_collections" (roots (fun g -> g.majors));
  layer "gc.promoted_mwords"
    (List.fold_left (fun a (_, g) -> if g.root then a +. g.promoted else a) 0. aggs /. 1e6);
  layer "gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  let ps = Array.of_list !pauses in
  Array.sort compare ps;
  let n = Array.length ps in
  let ms i = if n = 0 then 0. else float_of_int ps.(i) *. 1e-6 in
  layer "gc.pause_total_ms" (float_of_int (Array.fold_left ( + ) 0 ps) *. 1e-6);
  layer "gc.pause_p99_ms" (ms (min (n - 1) (n * 99 / 100)));
  layer "gc.pause_max_ms" (ms (n - 1));
  count "gc.events_lost" !events_lost;
  List.iter
    (fun (name, g) -> if not g.root then layer (name ^ "_pct") (100. *. g.self /. total_s))
    aggs;
  (* The part of the main phase that some layer span covers. *)
  let covered =
    List.fold_left
      (fun a (name, g) -> if name = "main" then a +. g.total -. g.self else a)
      0. aggs
  in
  out.extra <- ("main_covered_s", json_float covered) :: out.extra;
  json_list
    (fun (name, g) ->
      json_obj
        [ ("span", json_str name);
          ("count", string_of_int g.count);
          ("total_s", json_float g.total);
          ("self_s", json_float g.self);
          ("gc_pause_ms", json_float g.pause_ms);
          ("minor", string_of_int g.minors);
          ("major", string_of_int g.majors) ])
    aggs

let () =
  let workload = ref "" and seed = ref 1 and scale = ref Default in
  let reference = ref false and trace = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W fleet|fleet_t2|programs|programs_t2|serve");
      ("--seed", Arg.Set_int seed, "N seed of the serve mix (default 1)");
      ( "--scale",
        Arg.Symbol ([ "default"; "tiny" ], fun s -> scale := if s = "tiny" then Tiny else Default),
        " input size; tiny is for the runner's smoke test" );
      ("--trace", Arg.Set trace, " record spans, GC and layer counters");
      ("--reference", Arg.Set reference, " serve with one worker (the digest reference)") ]
    (fun a -> raise (Arg.Bad a))
    "sensbench.exe --workload W [options]";
  if !trace then start_tracing ();
  let scale = !scale in
  let rss =
    match !workload with
    | "fleet" -> fleet ~scale ~tier:1
    | "fleet_t2" -> fleet ~scale ~tier:2
    | "programs" -> programs ~scale ~tier:1
    | "programs_t2" -> programs ~scale ~tier:2
    | "serve" -> serve ~scale ~seed:!seed ~workers:(if !reference then 1 else 2)
    | w ->
      prerr_endline ("sensbench: unknown workload " ^ w);
      exit 2
  in
  let breakdown =
    if !tracing then trace_summary ~total_s:(List.fold_left ( +. ) out.wall_s out.setup_s)
    else "[]"
  in
  print_endline
    (json_obj
       ([ ("workload", json_str !workload);
          ("ocaml", json_str Sys.ocaml_version);
          ("setup_s", json_list json_float (List.rev out.setup_s));
          ("wall_s", json_float out.wall_s);
          ("peak_rss_kb", string_of_int rss);
          ("attempted", string_of_int out.attempted);
          ("failed", string_of_int (List.length out.errors));
          ("errors", json_list json_str (List.rev out.errors));
          ("layers", json_obj (List.rev_map (fun (k, v) -> (k, json_float v)) out.layers));
          ("breakdown", breakdown) ]
       @ out.extra))
