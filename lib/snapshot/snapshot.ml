(* Deterministic snapshot & resume for the SenSmart reproduction; the
   contract is stated in snapshot.mli and DESIGN.md.

   Each component (machine, I/O, task, kernel stats, kernel, mote node,
   net) is described once, as a table of named fields over its live
   type, and each field's wire type gives a direct writer and a
   range-checked reader.  A snapshot is its encoded bytes, each flash
   held by reference: capture writes the live host into them in one
   walk, and restore reads them straight back into the host.  Decoding
   is one validating scan; only {!diff} builds a tree of values, and
   only when the bytes differ.

   Restore checks every structural key (task ids and names, mote ids and
   count, lockstep parameters, memory sizes) before writing anything.
   Flash goes through {!Machine.Cpu.adopt_flash}: a host machine on a
   shared image whose words equal the captured flash keeps that image
   and the blocks already compiled on it (they are a function of those
   words alone); any other gets a fresh image with empty caches, so a
   closure compiled against other words is never run.  Every machine
   restored from one flash array gets one image, so a restored fleet
   compiles each block once. *)

open Wire
module Cpu = Machine.Cpu
module Io = Machine.Io
module Task = Kernel.Task

exception Incompatible of string

let incompatible fmt = Printf.ksprintf (fun s -> raise (Incompatible s)) fmt

(* Version 2 (PR 6): network payloads store each distinct flash image
   once in a content-addressed "flash" section and per-mote indices into
   it, so a 10k-mote fleet of one program serializes one 64 K-word image
   instead of 10 000; the net record also carries the consecutive-loss
   histogram.  Version-1 files are refused (documented break). *)
let format_version = 2
let magic = "SENSNAP0"

(* --- wire types -------------------------------------------------------------- *)

(* How a value is laid out on the wire (see {!Wire}), and which values
   are valid: a range is inclusive, and the decoder refuses a value
   outside it. *)
type ty =
  | Int of int * int
  | Str
  | Mem
  | Flash  (* 64 K u16 words inline, or an index into the "flash" section *)
  | List of ty  (* counted *)
  | Tuple of ty list
  | Sum of (string * ty list) list  (* u8 tag, then the arguments *)
  | Event  (* a trace event, as its JSONL line *)
  | Comp of schema

(* A component's wire layout: its fields, in order.  A counted component
   is prefixed by its field count (the kernel stats block). *)
and schema = { cols : (string * ty) array; counted : bool }

(* A wire type together with the direct writer of a live value and its
   range-checked reader. *)
type 'a wire = { ty : ty; w : Buffer.t -> 'a -> unit; r : R.t -> 'a }

let in_range name lo hi i =
  if i < lo || i > hi then corrupt "%s %d outside [%d, %d]" name i lo hi;
  i

let int_in lo hi = { ty = Int (lo, hi); w = W.int; r = (fun r -> in_range "value" lo hi (R.int r)) }
let int = int_in min_int max_int

(* Values that reach an AVR register unmasked: a wider one would let a
   restored program form a PC past the flash tables. *)
let byte = int_in 0 0xFF

let bool =
  { ty = Int (0, 1); w = (fun b x -> W.u8 b (Bool.to_int x));
    r = (fun r -> in_range "bool" 0 1 (R.int r) = 1) }

let str = { ty = Str; w = W.string; r = R.string }
let mem = { ty = Mem; w = (fun b m -> W.string b (Bytes.unsafe_to_string m)); r = R.bytes }

let list e =
  { ty = List e.ty;
    w = (fun b l -> W.int b (List.length l); List.iter (e.w b) l);
    r = (fun r -> List.init (R.length r ~width:1 "list") (fun _ -> e.r r)) }

let pair a c =
  { ty = Tuple [ a.ty; c.ty ];
    w = (fun b (x, y) -> a.w b x; c.w b y);
    r = (fun r -> let x = a.r r in (x, c.r r)) }

(* A variant: [cases] names each constructor and its argument types;
   [w] writes a value's u8 tag and arguments, [r] reads the arguments of
   the constructor with a given tag. *)
let sum cases w r =
  let n = List.length cases in
  { ty = Sum cases; w;
    r = (fun rd -> let t = R.u8 rd in if t >= n then corrupt "bad tag %d" t; r rd t) }

let option e =
  sum [ ("none", []); ("some", [ e.ty ]) ]
    (fun b -> function None -> W.u8 b 0 | Some x -> W.u8 b 1; e.w b x)
    (fun r tag -> if tag = 0 then None else Some (e.r r))

let counters = list (pair str int)

(* A trace sink's whole state.  Events travel as their JSONL lines, so
   the format inherits the trace codec's stability and its parser's
   error reporting. *)
let dump_ty =
  Comp { cols = [| ("events", List Event); ("overflow", int.ty); ("counters", counters.ty) |];
         counted = false }

(* --- scanning ---------------------------------------------------------------- *)

(* One value of type [ty], validated and skipped: every range, tag and
   count is checked and nothing is built.  [flash] and [event] take over
   at a flash and at an event's line. *)
let rec scan ~flash ~event name ty r =
  match ty with
  | Int (lo, hi) -> ignore (in_range name lo hi (R.int r))
  | Str | Mem -> R.skip_string r
  | Flash -> flash r
  | Event -> event r
  | List t -> for _ = 1 to R.length r ~width:1 name do scan ~flash ~event name t r done
  | Tuple ts -> List.iter (fun t -> scan ~flash ~event name t r) ts
  | Sum cases -> (
    let tag = R.u8 r in
    match List.nth_opt cases tag with
    | Some (_, tys) -> List.iter (fun t -> scan ~flash ~event name t r) tys
    | None -> corrupt "bad %s tag %d" name tag)
  | Comp s ->
    if s.counted && R.int r <> Array.length s.cols then corrupt "bad %s block" name;
    Array.iter (fun (name, ty) -> scan ~flash ~event name ty r) s.cols

(* A value of a snapshot's [data], skipped. *)
let skip ty r = scan ~flash:(fun r -> ignore (R.int r)) ~event:R.skip_string "" ty r

(* A section of type [ty] scanned from [r] and copied to [b] as it is,
   except that [flash] reads each flash and writes what replaces it. *)
let relay b ~flash ~event name ty (r : R.t) =
  let last = ref r.pos in
  let copy () = Buffer.add_substring b r.s !last (r.pos - !last) in
  scan name ty r ~event ~flash:(fun r -> copy (); flash r; last := r.pos);
  copy ()

(* --- values, for diff --------------------------------------------------------- *)

(* A decoded value in the shape of its wire type: what {!diff} compares
   and prints.  Nothing else builds one. *)
type v =
  | Vint of int
  | Vstr of string
  | Vmem of Bytes.t  (* SRAM, heap snapshots *)
  | Vints of int array  (* flash words *)
  | Vlist of v list  (* lists and tuples *)
  | Vtag of int * v list  (* a variant: constructor index, arguments *)
  | Vevent of Trace.event
  | Vrec of v array  (* a component: one value per field, in table order *)

(* [read] only ever sees data the scan validated: any other shape is a
   bug in this file. *)
let shape () = invalid_arg "Snapshot: value does not match its wire type"

(* The value of type [ty] at [r] in valid data whose flashes index
   [flashes]. *)
let rec read flashes ty r =
  match ty with
  | Int _ -> Vint (R.int r)
  | Str -> Vstr (R.string r)
  | Mem -> Vmem (R.bytes r)
  | Flash -> Vints flashes.(R.int r)
  | Event -> (
    match Trace.event_of_json (R.string r) with Ok e -> Vevent e | Error _ -> shape ())
  | List t -> Vlist (List.init (R.int r) (fun _ -> read flashes t r))
  | Tuple ts -> Vlist (List.map (fun t -> read flashes t r) ts)
  | Sum cases ->
    let tag = R.u8 r in
    Vtag (tag, List.map (fun t -> read flashes t r) (snd (List.nth cases tag)))
  | Comp s ->
    if s.counted then ignore (R.int r);
    Vrec (Array.map (fun (_, ty) -> read flashes ty r) s.cols)

let fields_of = function Vrec a -> a | _ -> shape ()

let rec show ty v =
  match ty, v with
  | _, Vint i -> string_of_int i
  | _, Vstr s -> Printf.sprintf "%S" s
  | _, Vmem m -> Printf.sprintf "<%d entries>" (Bytes.length m)
  | _, Vints a -> Printf.sprintf "<%d entries>" (Array.length a)
  | List t, Vlist l -> "[" ^ String.concat "; " (List.map (show t) l) ^ "]"
  | Tuple ts, Vlist l -> "(" ^ String.concat ", " (List.map2 show ts l) ^ ")"
  | Sum cases, Vtag (i, args) ->
    let name, tys = List.nth cases i in
    if args = [] then name else name ^ show (Tuple tys) (Vlist args)
  | _, Vevent e -> Fmt.str "%a" Trace.pp_event e
  | _ -> shape ()

let encode f = let b = Buffer.create 256 in f b; Buffer.contents b

(* The value of type [ty] encoded at [pos] of [s], printed. *)
let shown ty s pos = show ty (read [||] ty (R.of_string ~pos s))

(* --- field tables ------------------------------------------------------------ *)

(* Capture's state: the distinct flashes by index, every trace sink's
   events (latest sink first), and the section's bytes so far: its
   [pieces] (latest first), then the buffer's. *)
type enc = {
  b : Buffer.t; mutable pool : int array list; mutable sinks : Trace.event list list;
  mutable pieces : Bytes.t list }

(* The buffer's bytes, as the latest piece. *)
let take e =
  if Buffer.length e.b > 0 then begin
    e.pieces <- Buffer.to_bytes e.b :: e.pieces;
    Buffer.clear e.b
  end

(* Taken once it holds a few kilobytes, so a fleet's bytes never grow
   the buffer. *)
let spill e = if Buffer.length e.b >= 4096 then take e

(* [m] as {!mem} writes it, held as a piece by reference until the
   capture is laid out, so a fleet's SRAM is copied once. *)
let hold e m =
  W.int e.b (Bytes.length m);
  take e;
  e.pieces <- m :: e.pieces

(* Restore's state: the snapshot's flashes and events, the next sink's
   first event, and what becomes of a machine's flash. *)
type dec = {
  flashes : int array array; events : Trace.event array; mutable next : int;
  adopt : Cpu.t -> int array -> unit }

(* A machine's flash as captured: canonical ({!Machine.Cpu.canonical_init}),
   so two flashes of equal content capture equal whatever their array
   lengths.  A shared template flash is immutable by the copy-on-write
   contract ({!Machine.Cpu.create_shared}), so when it is already
   canonical (templates are) it is held by reference: a fleet's motes
   then hold one array, and a kernel capture copies no flash. *)
let captured_flash (m : Cpu.t) =
  let fl = m.flash in
  if m.flash_shared then Cpu.canonical fl
  else Cpu.canonical_init (Array.length fl) (Array.get fl)

(* A flash's index, in first-capture order.  Shared template images
   arrive as one pointer, which [==] finds at once; the structural test
   also merges images that were copied apart (e.g. a mote that triggered
   copy-on-write and then wrote the very same words back). *)
let pool_index e fl =
  let rec find i = function
    | [] -> e.pool <- e.pool @ [ fl ]; i
    | x :: rest -> if x == fl || x = fl then i else find (i + 1) rest
  in
  find 0 e.pool

(* A field of a component over its live host ['h].  A leaf writes its
   live value at capture.  Restore reads it twice: [check], on the first
   pass, refuses a host that does not fit ([path] names the enclosing
   component, for the message); [set], on the second, reads the value
   into the host. *)
type 'h field =
  | Leaf : { name : string; ty : ty; put : enc -> 'h -> unit;
             check : (unit -> string) -> R.t -> 'h -> unit; set : dec -> R.t -> 'h -> unit }
      -> 'h field
  | Nest : { name : string; comp : 'c comp; sub : 'h -> 'c } -> 'h field
  (* [hint] says how to build a host with as many *)
  | Each : { name : string; comp : 'c comp; subs : 'h -> 'c list; hint : string } -> 'h field

and 'h comp = { fields : 'h field array; schema : schema }

let comp ?(counted = false) fields =
  let col = function
    | Leaf l -> (l.name, l.ty)
    | Nest n -> (n.name, Comp n.comp.schema)
    | Each e -> (e.name, List (Comp e.comp.schema))
  in
  let fields = Array.of_list fields in
  { fields; schema = { cols = Array.map col fields; counted } }

let leaf name ty put ?(check = fun _ r _ -> skip ty r) set = Leaf { name; ty; put; check; set }

let field name w get set =
  leaf name w.ty (fun e h -> w.w e.b (get h)) (fun _ r h -> set h (w.r r))

(* A structural key: the host's own value must equal the captured one;
   the hint says how to build a host that matches. *)
let key name w get hint =
  leaf name w.ty (fun e h -> w.w e.b (get h)) (fun _ r _ -> skip w.ty r)
    ~check:(fun path r h ->
      let pos = r.pos in
      if w.r r <> get h then
        incompatible "snapshot %s%s is %s, target has %s — %s" (path ()) name
          (shown w.ty r.s pos) (shown w.ty (encode (fun b -> w.w b (get h))) 0) hint)

(* A dense array restored into the host's own array ([live]), whose
   length must match. *)
let into name ty write len fill live =
  leaf name ty (fun e h -> write e (live h)) (fun _ r h -> fill r (live h))
    ~check:(fun path r h ->
      let n = R.int { r with pos = r.pos } and m = len (live h) in
      if n <> m then incompatible "snapshot %s%s has %d entries, target has %d" (path ()) name n m;
      skip ty r)

let mem_into name live = into name Mem hold Bytes.length R.string_into live

let ints_into name lo hi live =
  into name (List (Int (lo, hi)))
    (fun e a -> W.int e.b (Array.length a); Array.iter (W.int e.b) a)
    Array.length
    (fun r a -> for i = 0 to R.int r - 1 do a.(i) <- in_range name lo hi (R.int r) done)
    live

(* A machine's flash: an index into the snapshot's flashes, which
   restore makes the machine's image (see [restore]). *)
let flash machine =
  leaf "flash" Flash
    (fun e h -> W.int e.b (pool_index e (captured_flash (machine h))))
    (fun d r h -> d.adopt (machine h) d.flashes.(R.int r))

(* A trace sink's whole state.  Restore takes the events the snapshot
   holds decoded and skips their lines. *)
let sink name get =
  leaf name dump_ty
    (fun e h ->
      let d = Trace.dump (get h) in
      e.sinks <- d.d_events :: e.sinks;
      W.int e.b (List.length d.d_events);
      List.iter (fun ev -> W.string e.b (Trace.json_of_event ev); spill e) d.d_events;
      W.int e.b d.d_overflow;
      counters.w e.b d.d_counters)
    (fun d r h ->
      let n = R.int r and first = d.next in
      d.next <- first + n;
      for _ = 1 to n do R.skip_string r done;
      let d_overflow = R.int r in
      let d_counters = counters.r r in
      Trace.restore (get h)
        { d_events = List.init n (fun i -> d.events.(first + i)); d_overflow; d_counters })

let nest name comp sub = Nest { name; comp; sub }
let each name comp subs ~hint = Each { name; comp; subs; hint }

(* --- the components ---------------------------------------------------------- *)

let io : Io.t comp =
  comp
    [ field "adc_enabled" bool (fun io -> io.Io.adc_enabled) (fun io v -> io.adc_enabled <- v);
      field "adc_start" (option int) (fun io -> io.Io.adc_start) (fun io v -> io.adc_start <- v);
      field "adc_value" int (fun io -> io.Io.adc_value) (fun io v -> io.adc_value <- v);
      field "adc_seq" int (fun io -> io.Io.adc_seq) (fun io v -> io.adc_seq <- v);
      field "tov0_epoch" int (fun io -> io.Io.tov0_epoch) (fun io v -> io.tov0_epoch <- v);
      field "radio_busy_until" int (fun io -> io.Io.radio_busy_until)
        (fun io v -> io.radio_busy_until <- v);
      (* front of the FIFO first *)
      field "radio_tx" (list byte) (fun io -> List.of_seq (Queue.to_seq io.Io.radio_tx))
        (fun io v -> Queue.clear io.radio_tx; List.iter (fun b -> Queue.push b io.radio_tx) v);
      field "radio_rx" (list (pair int byte)) (fun io -> io.Io.radio_rx)
        (fun io v -> io.radio_rx <- v);
      field "radio_tx_count" int (fun io -> io.Io.radio_tx_count)
        (fun io v -> io.radio_tx_count <- v);
      field "temp" byte (fun io -> io.Io.temp) (fun io v -> io.temp <- v) ]

let halt : Cpu.halt wire =
  sum
    [ ("break", []); ("invalid_opcode", [ int.ty; int.ty ]); ("fault", [ str.ty ]) ]
    (fun b -> function
      | Cpu.Break_hit -> W.u8 b 0
      | Invalid_opcode (pc, w) -> W.u8 b 1; W.int b pc; W.int b w
      | Fault s -> W.u8 b 2; W.string b s)
    (fun r -> function
      | 0 -> Cpu.Break_hit
      | 1 -> let pc = R.int r in Invalid_opcode (pc, R.int r)
      | _ -> Fault (R.string r))

let machine : Cpu.t comp =
  comp
    [ flash Fun.id;
      mem_into "sram" (fun m -> m.Cpu.sram);
      ints_into "regs" 0 0xFF (fun m -> m.Cpu.regs);
      (* The decode and block tables cover exactly the 64 K-word flash
         and are indexed unchecked by the PC. *)
      field "pc" (int_in 0 0xFFFF) (fun m -> m.Cpu.pc) (fun m v -> m.pc <- v);
      field "sp" (int_in 0 0xFFFF) (fun m -> m.Cpu.sp) (fun m v -> m.sp <- v);
      field "sreg" byte (fun m -> m.Cpu.sreg) (fun m v -> m.sreg <- v);
      field "cycles" int (fun m -> m.Cpu.cycles) (fun m v -> m.cycles <- v);
      field "idle_cycles" int (fun m -> m.Cpu.idle_cycles) (fun m v -> m.idle_cycles <- v);
      field "insns" int (fun m -> m.Cpu.insns) (fun m v -> m.insns <- v);
      field "mem_reads" int (fun m -> m.Cpu.mem_reads) (fun m v -> m.mem_reads <- v);
      field "mem_writes" int (fun m -> m.Cpu.mem_writes) (fun m v -> m.mem_writes <- v);
      field "io_reads" int (fun m -> m.Cpu.io_reads) (fun m v -> m.io_reads <- v);
      field "io_writes" int (fun m -> m.Cpu.io_writes) (fun m v -> m.io_writes <- v);
      field "halted" (option halt) (fun m -> m.Cpu.halted) (fun m v -> m.halted <- v);
      field "sleeping" bool (fun m -> m.Cpu.sleeping) (fun m v -> m.sleeping <- v);
      field "preempt_at" int (fun m -> m.Cpu.preempt_at) (fun m v -> m.preempt_at <- v);
      nest "io" io (fun m -> m.Cpu.io) ]

let status : Task.status wire =
  sum
    [ ("ready", []); ("sleeping", [ int.ty ]); ("exited", [ str.ty ]) ]
    (fun b -> function
      | Task.Ready -> W.u8 b 0
      | Sleeping w -> W.u8 b 1; W.int b w
      | Exited r -> W.u8 b 2; W.string b r)
    (fun r -> function
      | 0 -> Task.Ready
      | 1 -> Sleeping (R.int r)
      | _ -> Exited (R.string r))

let same_images = "boot the same images in the same order"

let task : Task.t comp =
  comp
    [ key "id" int (fun t -> t.Task.id) same_images;
      key "name" str (fun t -> t.Task.name) same_images;
      field "status" status (fun t -> t.Task.status) (fun t v -> t.status <- v);
      field "p_l" int (fun t -> t.Task.region.p_l) (fun t v -> t.region.p_l <- v);
      field "p_h" int (fun t -> t.Task.region.p_h) (fun t v -> t.region.p_h <- v);
      field "p_u" int (fun t -> t.Task.region.p_u) (fun t v -> t.region.p_u <- v);
      field "sp" int (fun t -> t.Task.region.sp) (fun t v -> t.region.sp <- v);
      field "activations" int (fun t -> t.Task.activations) (fun t v -> t.activations <- v);
      field "grow_events" int (fun t -> t.Task.grow_events) (fun t v -> t.grow_events <- v);
      field "min_headroom" int (fun t -> t.Task.min_headroom) (fun t v -> t.min_headroom <- v);
      (* read into fresh bytes, so the restored task owns its copy *)
      field "heap_snapshot" (option mem) (fun t -> t.Task.heap_snapshot)
        (fun t v -> t.heap_snapshot <- v);
      field "cycles_used" int (fun t -> t.Task.cycles_used) (fun t v -> t.cycles_used <- v);
      field "insns_used" int (fun t -> t.Task.insns_used) (fun t v -> t.insns_used <- v);
      field "mark_cycles" int (fun t -> t.Task.mark_cycles) (fun t v -> t.mark_cycles <- v);
      field "mark_insns" int (fun t -> t.Task.mark_insns) (fun t v -> t.mark_insns <- v) ]

(* Counted, so the block stays a plain int array on the wire. *)
let stats : Kernel.stats comp =
  comp ~counted:true
    [ field "traps" int (fun s -> s.Kernel.traps) (fun s v -> s.traps <- v);
      field "context_switches" int (fun s -> s.Kernel.context_switches)
        (fun s v -> s.context_switches <- v);
      field "relocations" int (fun s -> s.Kernel.relocations) (fun s v -> s.relocations <- v);
      field "relocated_bytes" int (fun s -> s.Kernel.relocated_bytes)
        (fun s v -> s.relocated_bytes <- v);
      field "grow_requests" int (fun s -> s.Kernel.grow_requests) (fun s v -> s.grow_requests <- v);
      field "translations" int (fun s -> s.Kernel.translations) (fun s v -> s.translations <- v);
      field "init_cycles" int (fun s -> s.Kernel.init_cycles) (fun s v -> s.init_cycles <- v);
      field "preempt_delay_total" int (fun s -> s.Kernel.preempt_delay_total)
        (fun s v -> s.preempt_delay_total <- v);
      field "preempt_delay_max" int (fun s -> s.Kernel.preempt_delay_max)
        (fun s v -> s.preempt_delay_max <- v);
      field "preempt_switches" int (fun s -> s.Kernel.preempt_switches)
        (fun s v -> s.preempt_switches <- v) ]

let kernel : Kernel.t comp =
  comp
    [ nest "machine" machine (fun k -> k.Kernel.m);
      (* in the kernel's task-list order *)
      each "tasks" task (fun k -> k.Kernel.tasks)
        ~hint:"boot the same images (run-time spawns included) before restoring";
      field "current" (option int)
        (fun k -> Option.map (fun t -> t.Task.id) k.Kernel.current)
        (fun k v ->
          let find id =
            match List.find_opt (fun t -> t.Task.id = id) k.tasks with
            | Some t -> t
            | None -> incompatible "snapshot's current task %d not in target" id
          in
          k.current <- Option.map find v);
      field "slice_start" int (fun k -> k.Kernel.slice_start) (fun k v -> k.slice_start <- v);
      field "next_flash" int (fun k -> k.Kernel.next_flash) (fun k v -> k.next_flash <- v);
      nest "stats" stats (fun k -> k.Kernel.stats) ]

let same_network = "re-create the network with the original parameters"

let node : Net.node comp =
  comp
    [ key "id" int (fun nd -> nd.Net.id) same_network;
      nest "kernel" kernel (fun nd -> nd.Net.kernel);
      sink "sink" (fun nd -> nd.Net.sink);
      field "neighbours" (list int) (fun nd -> nd.Net.neighbours) (fun nd v -> nd.neighbours <- v);
      field "finished" bool (fun nd -> nd.Net.finished) (fun nd v -> nd.finished <- v) ]

let net : Net.t comp =
  comp
    [ key "quantum" int (fun n -> n.Net.quantum) same_network;
      key "latency" int (fun n -> n.Net.latency) same_network;
      key "loss_permille" int (fun n -> n.Net.loss_permille) same_network;
      each "motes" node (fun n -> Array.to_list n.Net.nodes) ~hint:same_network;
      field "loss_state" int (fun n -> n.Net.loss_state) (fun n v -> n.loss_state <- v);
      field "routed" int (fun n -> n.Net.routed) (fun n v -> n.routed <- v);
      field "dropped" int (fun n -> n.Net.dropped) (fun n v -> n.dropped <- v);
      field "quanta" int (fun n -> n.Net.quanta) (fun n v -> n.quanta <- v);
      field "streak" int (fun n -> n.Net.streak) (fun n v -> n.streak <- v);
      ints_into "loss_streaks" min_int max_int (fun n -> n.Net.streaks);
      sink "trace" (fun n -> n.Net.trace) ]

(* A payload kind: its name, and its wire sections in order.  A pooled
   kind writes each distinct flash image once, in a content-addressed
   "flash" section before the others, and its machines hold indices
   into it; any other kind writes its flash inline. *)
type kind = { name : string; sections : schema; pooled : bool }

(* A kind over its live host: the sections are the fields of [body]. *)
type 'h payload = { kind : kind; body : 'h comp; at : 'h -> int }

let payload ?(pooled = false) name at fields =
  let body = comp fields in
  { kind = { name; sections = body.schema; pooled }; body; at }

let machine_payload =
  payload "machine" (fun m -> m.Cpu.cycles) [ nest "machine" machine Fun.id ]

let kernel_payload =
  payload "kernel" (fun k -> k.Kernel.m.cycles)
    [ nest "kernel" kernel Fun.id; sink "trace" (fun k -> k.Kernel.trace) ]

let net_payload =
  payload ~pooled:true "net" (fun n -> n.Net.quanta * n.quantum) [ nest "net" net Fun.id ]

(* In wire-tag order. *)
let kinds = [| machine_payload.kind; kernel_payload.kind; net_payload.kind |]

(* A snapshot is its encoded bytes: [data] holds each section's payload
   at its span, as on the wire except that a flash is an index into
   [flashes], canonical arrays held by reference.  A pooled kind's [data]
   is its whole file (a decoded one's, the input), which {!to_string}
   returns; any other kind's flashes are written inline on the way out.
   [events] are the trace events of [data], so restore parses no line. *)
type t = {
  at : int; programs : string list; kind : kind; data : string; spans : (int * int) array;
  flashes : int array array; events : Trace.event array }

let at s = s.at
let programs s = s.programs
let kind_name s = s.kind.name

let kind_wire =
  let rec index k i = if kinds.(i) == k then i else index k (i + 1) in
  sum (Array.to_list (Array.map (fun k -> (k.name, [])) kinds))
    (fun b k -> W.u8 b (index k 0)) (fun _ tag -> kinds.(tag))

let programs_wire = list str

let meta =
  { cols = [| ("at", int.ty); ("programs", programs_wire.ty); ("kind", kind_wire.ty) |];
    counted = false }

let encode_meta s =
  encode (fun b -> int.w b s.at; programs_wire.w b s.programs; kind_wire.w b s.kind)

(* On the wire a flash is always [Layout.flash_words] words, erased tail
   included ([write_flash]); [read_flash] requires exactly that many and
   allocates only the canonical prefix. *)
let write_flash b fl = W.u16_array b fl Machine.Layout.flash_words
let read_flash r = R.u16_array r "flash" Machine.Layout.flash_words Cpu.canonical_init

(* [s] with [data] laid out once, at its size, from [sections], the
   pieces of each section's payload in order.  A [framed] layout is the
   file: the magic, the version, the meta section and a pooled kind's
   flash section, then each section's name and payload length before
   its payload; any other is the payloads alone. *)
let lay_out ~framed s sections =
  let framing f = Bytes.unsafe_of_string (if framed then encode f else "") in
  let head =
    framing (fun b ->
        Buffer.add_string b magic;
        W.int b format_version;
        w_section b "meta" (encode_meta s);
        if s.kind.pooled then
          w_section b "flash" (encode (fun b ->
              W.int b (Array.length s.flashes); Array.iter (write_flash b) s.flashes)))
  in
  let lens = Array.map (List.fold_left (fun n m -> n + Bytes.length m) 0) sections in
  let frames =
    Array.map2 (fun (name, _) len -> framing (fun b -> W.string b name; W.int b len))
      s.kind.sections.cols lens
  in
  let size = Array.fold_left (fun n f -> n + Bytes.length f) (Bytes.length head) frames in
  let data = Bytes.create (Array.fold_left ( + ) size lens) and at = ref 0 in
  let add m = Bytes.blit m 0 data !at (Bytes.length m); at := !at + Bytes.length m in
  add head;
  let span i pieces = add frames.(i); let lo = !at in List.iter add pieces; (lo, !at) in
  { s with data = Bytes.unsafe_to_string data; spans = Array.mapi span sections }

(* --- capture ----------------------------------------------------------------- *)

let rec put : type h. enc -> h comp -> h -> unit =
 fun e c h ->
  if c.schema.counted then W.int e.b (Array.length c.fields);
  Array.iter (fun f -> put_field e f h) c.fields

and put_field : type h. enc -> h field -> h -> unit =
 fun e f h ->
  match f with
  | Leaf l -> l.put e h; spill e
  | Nest n -> put e n.comp (n.sub h)
  | Each x ->
    let subs = x.subs h in
    W.int e.b (List.length subs);
    List.iter (put e x.comp) subs

(* Captures write through one buffer per domain, kept from one capture
   to the next: serve's bisect jobs take thousands, and a buffer taken
   at 4 KiB never grows past a few kilobytes. *)
let buffer = Domain.DLS.new_key (fun () -> Buffer.create 8192)

(* A pooled kind's capture is its file; any other kind's is its section
   payloads. *)
let capture_payload (p : _ payload) ?(programs = []) h =
  let e = { b = Domain.DLS.get buffer; pool = []; sinks = []; pieces = [] } in
  Buffer.clear e.b;
  let section f =
    put_field e f h; take e;
    let pieces = List.rev e.pieces in
    e.pieces <- []; pieces
  in
  let sections = Array.map section p.body.fields in
  let s =
    { at = p.at h; programs; kind = p.kind; data = ""; spans = [||];
      flashes = Array.of_list e.pool; events = Array.of_list (List.concat (List.rev e.sinks)) }
  in
  lay_out ~framed:p.kind.pooled s sections

let of_machine ?programs m = capture_payload machine_payload ?programs m
let of_kernel ?programs k = capture_payload kernel_payload ?programs k
let of_net ?programs n = capture_payload net_payload ?programs n

(* --- restore ------------------------------------------------------------------ *)

(* Section [i]'s payload in [s.data]. *)
let section s i = let pos, limit = s.spans.(i) in { R.s = s.data; pos; limit }

(* Restore runs this walk over [data] twice: first with [~write:false],
   which checks every structural key, count and size, so a mismatched
   host is refused untouched; then with [~write:true], which sets every
   field and hands each flash to [adopt] with its machine. *)
let rec walk : type h. write:bool -> dec -> R.t -> (unit -> string) -> h comp -> h -> unit =
 fun ~write d r path c h ->
  if c.schema.counted then ignore (R.int r);
  Array.iter (fun f -> walk_field ~write d r path f h) c.fields

and walk_field : type h. write:bool -> dec -> R.t -> (unit -> string) -> h field -> h -> unit =
 fun ~write d r path f h ->
  match f with
  | Leaf l -> if write then l.set d r h else l.check path r h
  | Nest n -> walk ~write d r (fun () -> path () ^ n.name ^ ".") n.comp (n.sub h)
  | Each e ->
    let hs = e.subs h and n = R.int r in
    if n <> List.length hs then
      incompatible "snapshot has %d %s, target has %d — %s" n e.name (List.length hs) e.hint;
    List.iteri
      (fun j h ->
        walk ~write d r (fun () -> Printf.sprintf "%s%s[%d]." (path ()) e.name j) e.comp h)
      hs

(* Whether two flash arrays hold the same words, erased tails included. *)
let same_words a b =
  let n = max (Array.length a) (Array.length b) in
  let rec go i = i >= n || (Cpu.flash_word a i = Cpu.flash_word b i && go (i + 1)) in
  a == b || go 0

let restore (p : _ payload) (s : t) h =
  if s.kind != p.kind then
    incompatible "this is a %s snapshot; restore it onto a matching host" s.kind.name;
  let pass ~write adopt =
    let d = { flashes = s.flashes; events = s.events; next = 0; adopt } in
    Array.iteri (fun i f -> walk_field ~write d (section s i) (fun () -> "") f h) p.body.fields
  in
  pass ~write:false (fun _ _ -> ());
  (* Flash adoption, as the header says: one image per captured array,
     the first host image kept for it if any; a mote already on that
     image is not compared again. *)
  let images = ref [] in
  let adopt (m : Cpu.t) flash =
    let found = List.assq_opt flash !images in
    let image =
      match found with
      | Some image when image == m.image -> image
      | _ when m.flash_shared && same_words m.flash flash -> m.image
      | Some image -> image
      | None -> Cpu.image_of flash
    in
    if Option.is_none found then images := (flash, image) :: !images;
    Cpu.adopt_flash m image
  in
  pass ~write:true adopt

let restore_machine s m = restore machine_payload s m
let restore_kernel s k = restore kernel_payload s k
let restore_net s n = restore net_payload s n

let describe s =
  (* The first list of components in the payload (tasks, motes). *)
  let rec members r (c : schema) =
    if c.counted then ignore (R.int r);
    Array.to_list c.cols
    |> List.find_map (function
         | name, List (Comp _) -> Some (Printf.sprintf ", %d %s" (R.int r) name)
         | _, Comp c -> members r c
         | _, ty -> skip ty r; None)
  in
  let first i col = members (section s i) { cols = [| col |]; counted = false } in
  let found = List.find_map Fun.id (List.mapi first (Array.to_list s.kind.sections.cols)) in
  let progs = if s.programs = [] then "" else ", programs: " ^ String.concat " " s.programs in
  Printf.sprintf "%s snapshot at cycle %d%s%s" s.kind.name s.at
    (Option.value ~default:"" found) progs

(* --- encode and decode -------------------------------------------------------- *)

(* A pooled kind's bytes are its file; any other kind's sections get
   their flashes written inline, into a buffer sized for them. *)
let to_string (s : t) : string =
  if s.kind.pooled then s.data
  else begin
    let flash_bytes = 2 * Machine.Layout.flash_words + 8 in
    let b = Buffer.create (String.length s.data + (Array.length s.flashes * flash_bytes)) in
    let inline i (name, ty) =
      Buffer.clear b;
      relay b name ty (section s i) ~event:R.skip_string ~flash:(fun r ->
          write_flash b s.flashes.(R.int r));
      [ Buffer.to_bytes b ]
    in
    (lay_out ~framed:true s (Array.mapi inline s.kind.sections.cols)).data
  end

(* Content address of a snapshot: the MD5 of its serialized bytes.  Two
   captures digest equal iff they serialize equal, which (diff being
   exhaustive) means the captured states are identical — the dedup key
   of the campaign service's shared snapshot store. *)
let digest (s : t) : string = Digest.to_hex (Digest.string (to_string s))

let of_string (data : string) : (t, string) result =
  try
    let mlen = String.length magic in
    if String.length data < mlen || String.sub data 0 mlen <> magic then
      corrupt "not a SenSmart snapshot (bad magic)";
    let r = R.of_string ~pos:mlen data in
    let v = R.int r in
    if v <> format_version then
      corrupt "snapshot format version %d; this build reads version %d" v format_version;
    let sections = r_sections r in
    let section name =
      match List.assoc_opt name sections with
      | Some section -> section
      | None -> corrupt "missing %S section" name
    in
    let r = section "meta" in
    let at = int.r r in
    let programs = programs_wire.r r in
    let kind = kind_wire.r r in
    (* A pooled kind's flashes come first, and its sections are taken as
       they stand; any other kind's flashes are read where they stand and
       replaced by their indices. *)
    let pool =
      if not kind.pooled then []
      else
        let r = section "flash" in
        List.init (R.length r ~width:1 "flash") (fun _ -> read_flash r)
    in
    let flashes = ref pool and events = ref [] in
    let event r =
      let line = R.string r in
      match Trace.event_of_json line with
      | Ok e -> events := e :: !events
      | Error msg -> corrupt "bad event %S: %s" line msg
    in
    let indexed r =
      let i = R.int r and n = List.length pool in
      if i < 0 || i >= n then corrupt "flash image index %d out of range (%d images)" i n
    in
    let inline b r = W.int b (List.length !flashes); flashes := !flashes @ [ read_flash r ] in
    let b = Buffer.create 1024 in
    let span (name, ty) =
      let r = section name in
      let lo = r.pos and start = Buffer.length b in
      if kind.pooled then (scan name ty r ~event ~flash:indexed; (lo, r.pos))
      else (relay b name ty r ~event ~flash:(inline b); (start, Buffer.length b))
    in
    let spans = Array.map span kind.sections.cols in
    let data = if kind.pooled then data else Buffer.contents b in
    Ok { at; programs; kind; data; spans; flashes = Array.of_list !flashes;
         events = Array.of_list (List.rev !events) }
  with Corrupt msg -> Error msg

let save path s =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string s))

let load path : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | data -> of_string data

(* --- diff ------------------------------------------------------------------ *)

(* Component-level comparison for the bisection driver and the CLI: each
   line names one differing value by its path of field names.  Equal
   bytes and flashes are the common case and build nothing; otherwise
   both sides are decoded along the same tables as the encoder, so an
   empty diff means the two snapshots serialize identically. *)

(* Two sequences: their lengths if those differ, else how many entries
   differ and the first that does. *)
let diff_entries label (na, nb) get_a get_b show acc =
  if na <> nb then Printf.sprintf "%s: %d <> %d entries" label na nb :: acc
  else begin
    let first = ref (-1) and count = ref 0 in
    for i = na - 1 downto 0 do
      if get_a i <> get_b i then (first := i; Stdlib.incr count)
    done;
    Printf.sprintf "%s: %d entries differ (first at 0x%04x: %s <> %s)" label !count
      !first (show (get_a !first)) (show (get_b !first))
    :: acc
  end

(* [prefix] is the path of the enclosing component ("" at the top). *)
let rec diff_cols prefix (s : schema) xs ys acc =
  let acc = ref acc in
  Array.iteri (fun i (name, ty) -> acc := diff_value prefix name ty xs.(i) ys.(i) !acc) s.cols;
  !acc

and diff_value prefix name ty a b acc =
  let label = prefix ^ name in
  match ty, a, b with
  | _ when a == b -> acc
  | Comp s, Vrec x, Vrec y -> diff_cols (label ^ ".") s x y acc
  | List (Comp s), Vlist x, Vlist y when List.length x = List.length y ->
    let acc = ref acc in
    List.iteri
      (fun i (x, y) ->
        acc :=
          diff_cols (Printf.sprintf "%s[%d]." label i) s (fields_of x) (fields_of y) !acc)
      (List.combine x y);
    !acc
  | _ when a = b -> acc
  | List t, Vlist x, Vlist y ->
    let x = Array.of_list x and y = Array.of_list y in
    diff_entries label (Array.length x, Array.length y) (Array.get x) (Array.get y)
      (show t) acc
  | Mem, Vmem x, Vmem y ->
    diff_entries label (Bytes.length x, Bytes.length y) (Bytes.get_uint8 x) (Bytes.get_uint8 y)
      (Printf.sprintf "%02x") acc
  | Flash, Vints x, Vints y ->
    diff_entries label (Array.length x, Array.length y) (Array.get x) (Array.get y)
      string_of_int acc
  | _ -> Printf.sprintf "%s: %s <> %s" label (show ty a) (show ty b) :: acc

(** Component-level differences between two snapshots, one
    human-readable line per differing value; [[]] means the snapshots
    serialize identically.  Snapshots of different kinds differ only by
    their kind. *)
let diff (a : t) (b : t) : string list =
  let meta_of s = fields_of (read [||] (Comp meta) (R.of_string (encode_meta s))) in
  let lines = diff_cols "meta." meta (meta_of a) (meta_of b) [] in
  let same =
    a.data = b.data && a.spans = b.spans && Array.length a.flashes = Array.length b.flashes
    && Array.for_all2 same_words a.flashes b.flashes
  in
  let body s = Array.mapi (fun i (_, ty) -> read s.flashes ty (section s i)) s.kind.sections.cols in
  let lines =
    if a.kind != b.kind || same then lines else diff_cols "" a.kind.sections (body a) (body b) lines
  in
  List.rev lines

let equal a b = diff a b = []

(* --- divergence bisection -------------------------------------------------- *)

module Bisect = struct
  (* The driver never looks inside a world, so kernels, bare machines
     and whole networks bisect through one code path.  Both engine tiers
     are segment-invariant (tier-1 blocks stop on exactly tier-0's cycle
     boundaries), and [Net.run] derives its lockstep position from
     [t.quanta], so restored worlds replay the same horizon sequence. *)

  type 'w subject = {
    boot : unit -> 'w;
    advance : 'w -> int -> unit;
    capture : 'w -> t;
    restore : t -> 'w -> unit;
  }

  type verdict =
    | Identical of { ran_to : int; probes : int }
    | Diverged of { lo : int; hi : int; diff : string list; probes : int }

  (* The coarse pass keeps the last agreeing snapshot pair; the refine
     pass restores both worlds from it instead of re-running from boot,
     so each of its log(interval) probes costs only the interval's
     cycles. *)
  let hunt ?(granularity = 64) ?checkpoint_every ~max_cycles (a : 'a subject)
      (b : 'b subject) : verdict =
    let step =
      match checkpoint_every with
      | Some s when s > 0 -> s
      | Some _ | None -> max granularity (max_cycles / 16)
    in
    let wa = a.boot () and wb = b.boot () in
    let probes = ref 0 in
    let compare_at target =
      a.advance wa target;
      b.advance wb target;
      incr probes;
      let ca = a.capture wa and cb = b.capture wb in
      (ca, cb, diff ca cb)
    in
    let rec refine lo hi snaps d =
      if hi - lo <= granularity then
        Diverged { lo; hi; diff = d; probes = !probes }
      else begin
        let mid = lo + ((hi - lo) / 2) in
        let sa, sb = snaps in
        a.restore sa wa;
        b.restore sb wb;
        match compare_at mid with
        | ca, cb, [] -> refine mid hi (ca, cb) d
        | _, _, d -> refine lo mid snaps d
      end
    in
    let rec coarse at snaps =
      if at >= max_cycles then Identical { ran_to = at; probes = !probes }
      else begin
        let target = min max_cycles (at + step) in
        match compare_at target with
        | ca, cb, [] -> coarse target (ca, cb)
        | _, _, d -> refine at target snaps d
      end
    in
    incr probes;
    let sa = a.capture wa and sb = b.capture wb in
    match diff sa sb with
    | [] -> coarse 0 (sa, sb)
    | d -> Diverged { lo = 0; hi = 0; diff = d; probes = !probes }

  let pp_verdict ppf = function
    | Identical { ran_to; probes } ->
      Format.fprintf ppf "no divergence up to cycle %d (%d probes)" ran_to
        probes
    | Diverged { lo; hi; diff; probes } ->
      Format.fprintf ppf
        "first divergence in cycles (%d, %d] (%d probes); state diff at %d:"
        lo hi probes hi;
      List.iter (fun l -> Format.fprintf ppf "@\n  %s" l) diff

  (* --- divergence injection (for exercising the driver) --------------- *)

  (* No program or kernel path writes the poked cell, so re-applying a
     poke after a restore cannot disturb later state. *)
  type poke = { poke_at : int; poke_value : int }

  let poke_address = Rewriter.Kcells.cells_base + 13

  let apply_poke p (m : Machine.Cpu.t) =
    Bytes.set m.sram poke_address (Char.chr (p.poke_value land 0xFF))

  let kernel_subject ?tier ?poke boot : Kernel.t subject =
    { boot;
      advance =
        (fun k target ->
          (match poke with
           | Some p when k.m.cycles <= p.poke_at && p.poke_at <= target ->
             if k.m.cycles < p.poke_at then
               ignore (Kernel.run ?tier ~max_cycles:p.poke_at k);
             if k.m.cycles >= p.poke_at then apply_poke p k.m
           | Some _ | None -> ());
          ignore (Kernel.run ?tier ~max_cycles:target k));
      capture = (fun k -> of_kernel k);
      restore = (fun s k -> restore_kernel s k) }

  let net_subject ?(domains = 1) ?poke boot : Net.t subject =
    let horizon (n : Net.t) = n.quanta * n.quantum in
    { boot;
      advance =
        (fun n target ->
          (match poke with
           | Some p when horizon n <= p.poke_at && p.poke_at <= target ->
             if horizon n < p.poke_at then
               ignore (Net.run ~domains ~max_cycles:p.poke_at n);
             (* lands on the first quantum boundary at or after
                [poke_at] — deterministic for any advance segmentation *)
             apply_poke p n.nodes.(0).kernel.m
           | Some _ | None -> ());
          ignore (Net.run ~domains ~max_cycles:target n));
      capture = (fun n -> of_net n);
      restore = (fun s n -> restore_net s n) }
end
