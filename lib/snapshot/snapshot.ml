(* Deterministic snapshot & resume for the SenSmart reproduction; the
   contract is stated in snapshot.mli and DESIGN.md.

   Each component (machine, I/O, task, kernel stats, kernel, mote node,
   net, meta) is described once, as a table of named fields over its
   live type.  Capture, restore, encode, decode and diff are each one
   generic walk over those tables, so no field can be captured but not
   compared, or decoded but not range-checked.

   Restore checks every structural key (task ids and names, mote ids and
   count, lockstep parameters, memory sizes) before writing anything.
   Flash goes through {!Machine.Cpu.adopt_flash}, which swaps in a fresh
   image with empty caches — stale closures compiled against the old
   image are rebuilt, never leaked — and every machine restored from one
   flash array gets one image, so a restored fleet compiles each block
   once. *)

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

(* --- captured values and wire types ------------------------------------------ *)

(* A captured value: plain data, no closures, in the shape of its wire
   type.  Every field of every component reduces to one of these. *)
type v =
  | Vint of int
  | Vstr of string
  | Vmem of Bytes.t  (* SRAM, heap snapshots *)
  | Vints of int array  (* flash words, registers, histograms *)
  | Vlist of v list  (* lists and tuples *)
  | Vtag of int * v list  (* a variant: constructor index, arguments *)
  | Vevent of Trace.event
  | Vrec of v array  (* a component: one value per field, in table order *)

(* How a value is laid out on the wire (see {!Wire}), and which values
   are valid: a range is inclusive, and the decoder refuses a value
   outside it. *)
type ty =
  | Int of int * int
  | Str
  | Mem
  | Flash  (* 64 K u16 words inline, or an index into the "flash" section *)
  | Ints of int * int  (* counted varints, each in the range *)
  | List of ty  (* counted *)
  | Tuple of ty list
  | Sum of (string * ty list) list  (* u8 tag, then the arguments *)
  | Event  (* a trace event, as its JSONL line *)
  | Comp of schema

(* A component's wire layout: its fields, in order.  A counted component
   is prefixed by its field count (the kernel stats block). *)
and schema = { cols : (string * ty) array; counted : bool }

(* A wire type together with the conversions between the live OCaml
   value and its captured form. *)
type 'a wire = { ty : ty; inj : 'a -> v; prj : v -> 'a }

(* [prj] only ever sees values built by [inj] or by the decoder, which
   follows the same [ty]: any other shape is a bug in this file. *)
let shape () = invalid_arg "Snapshot: value does not match its wire type"

let int_in lo hi =
  { ty = Int (lo, hi);
    inj = (fun i -> Vint i);
    prj = (function Vint i -> i | _ -> shape ()) }

let int = int_in min_int max_int

(* Values that reach an AVR register unmasked: a wider one would let a
   restored program form a PC past the flash tables. *)
let byte = int_in 0 0xFF

let bool =
  { ty = Int (0, 1);
    inj = (fun b -> Vint (Bool.to_int b));
    prj = (fun v -> int.prj v = 1) }

let str =
  { ty = Str; inj = (fun s -> Vstr s); prj = (function Vstr s -> s | _ -> shape ()) }

let mem =
  { ty = Mem; inj = (fun b -> Vmem b); prj = (function Vmem b -> b | _ -> shape ()) }

let ints_in lo hi =
  { ty = Ints (lo, hi);
    inj = (fun a -> Vints a);
    prj = (function Vints a -> a | _ -> shape ()) }

let list w =
  { ty = List w.ty;
    inj = (fun l -> Vlist (List.map w.inj l));
    prj = (function Vlist l -> List.map w.prj l | _ -> shape ()) }

let pair a b =
  { ty = Tuple [ a.ty; b.ty ];
    inj = (fun (x, y) -> Vlist [ a.inj x; b.inj y ]);
    prj = (function Vlist [ x; y ] -> (a.prj x, b.prj y) | _ -> shape ()) }

(* A variant: [cases] names each constructor and its argument types;
   [inj]/[prj] map a value to and from its constructor index and
   captured arguments. *)
let sum cases inj prj =
  { ty = Sum cases;
    inj = (fun x -> let i, args = inj x in Vtag (i, args));
    prj = (function Vtag (i, args) -> prj i args | _ -> shape ()) }

let option w =
  sum
    [ ("none", []); ("some", [ w.ty ]) ]
    (function None -> (0, []) | Some x -> (1, [ w.inj x ]))
    (fun tag args ->
      match tag, args with 0, [] -> None | 1, [ x ] -> Some (w.prj x) | _ -> shape ())

let event =
  { ty = Event; inj = (fun e -> Vevent e); prj = (function Vevent e -> e | _ -> shape ()) }

(* A trace sink's whole state.  Events travel as their JSONL lines, so
   the format inherits the trace codec's stability and its parser's
   error reporting. *)
let dump : Trace.dump wire =
  let events = list event and counters = list (pair str int) in
  { ty =
      Comp
        { cols = [| ("events", events.ty); ("overflow", int.ty); ("counters", counters.ty) |];
          counted = false };
    inj =
      (fun d -> Vrec [| events.inj d.d_events; Vint d.d_overflow; counters.inj d.d_counters |]);
    prj =
      (function
        | Vrec [| e; o; c |] ->
          { d_events = events.prj e; d_overflow = int.prj o; d_counters = counters.prj c }
        | _ -> shape ()) }

(* --- field tables ------------------------------------------------------------ *)

(* What restore does with a field. *)
type 'h act =
  | Set of ('h -> v -> unit)
  | Key of string
      (* a structural key: the host's own value must equal the captured
         one; the hint says how to build a host that matches *)
  | Into of ('h -> v)
      (* the host's own array, uncopied: restored in place, so its
         length must match *)
  | Adopt of ('h -> Cpu.image -> unit)
      (* flash: the captured words become the host's copy-on-write image *)

type 'h field =
  | Leaf : { name : string; ty : ty; get : 'h -> v; act : 'h act } -> 'h field
  | Nest : { name : string; comp : 'c comp; sub : 'h -> 'c } -> 'h field
  | Each : {
      name : string;
      comp : 'c comp;
      subs : 'h -> 'c list;
      hint : string;  (* how to build a host with as many *)
    } -> 'h field

and 'h comp = { fields : 'h field array; schema : schema }

let comp ?(counted = false) fields =
  let col = function
    | Leaf l -> (l.name, l.ty)
    | Nest n -> (n.name, Comp n.comp.schema)
    | Each e -> (e.name, List (Comp e.comp.schema))
  in
  let fields = Array.of_list fields in
  { fields; schema = { cols = Array.map col fields; counted } }

let field name w get set =
  Leaf { name; ty = w.ty; get = (fun h -> w.inj (get h));
         act = Set (fun h v -> set h (w.prj v)) }

let key name w get hint =
  Leaf { name; ty = w.ty; get = (fun h -> w.inj (get h)); act = Key hint }

let copy = function
  | Vmem b -> Vmem (Bytes.copy b)
  | Vints a -> Vints (Array.copy a)
  | _ -> shape ()

let into name w live =
  Leaf { name; ty = w.ty; get = (fun h -> copy (w.inj (live h)));
         act = Into (fun h -> w.inj (live h)) }

let nest name comp sub = Nest { name; comp; sub }
let each name comp subs ~hint = Each { name; comp; subs; hint }

(* --- the components ---------------------------------------------------------- *)

let io : Io.t comp =
  comp
    [ field "adc_enabled" bool (fun io -> io.Io.adc_enabled)
        (fun io v -> io.adc_enabled <- v);
      field "adc_start" (option int) (fun io -> io.Io.adc_start)
        (fun io v -> io.adc_start <- v);
      field "adc_value" int (fun io -> io.Io.adc_value) (fun io v -> io.adc_value <- v);
      field "adc_seq" int (fun io -> io.Io.adc_seq) (fun io v -> io.adc_seq <- v);
      field "tov0_epoch" int (fun io -> io.Io.tov0_epoch)
        (fun io v -> io.tov0_epoch <- v);
      field "radio_busy_until" int (fun io -> io.Io.radio_busy_until)
        (fun io v -> io.radio_busy_until <- v);
      (* front of the FIFO first *)
      field "radio_tx" (list byte)
        (fun io -> List.of_seq (Queue.to_seq io.Io.radio_tx))
        (fun io v ->
          Queue.clear io.radio_tx;
          List.iter (fun b -> Queue.push b io.radio_tx) v);
      field "radio_rx" (list (pair int byte)) (fun io -> io.Io.radio_rx)
        (fun io v -> io.radio_rx <- v);
      field "radio_tx_count" int (fun io -> io.Io.radio_tx_count)
        (fun io v -> io.radio_tx_count <- v);
      field "temp" byte (fun io -> io.Io.temp) (fun io v -> io.temp <- v) ]

let halt : Cpu.halt wire =
  sum
    [ ("break", []); ("invalid_opcode", [ int.ty; int.ty ]); ("fault", [ str.ty ]) ]
    (function
      | Cpu.Break_hit -> (0, [])
      | Invalid_opcode (pc, w) -> (1, [ Vint pc; Vint w ])
      | Fault s -> (2, [ Vstr s ]))
    (fun tag args ->
      match tag, args with
      | 0, [] -> Break_hit
      | 1, [ Vint pc; Vint w ] -> Invalid_opcode (pc, w)
      | 2, [ Vstr s ] -> Fault s
      | _ -> shape ())

let machine : Cpu.t comp =
  comp
    [ Leaf
        { name = "flash";
          ty = Flash;
          (* Captured canonical ({!Machine.Cpu.canonical_init}), so two
             flashes of equal content capture equal whatever their
             array lengths.  A shared template flash is immutable by the
             copy-on-write contract ({!Machine.Cpu.create_shared}), so
             when it is already canonical (templates are) aliasing it is
             safe — and it is what lets the encoder emit each
             fleet-shared image once. *)
          get =
            (fun m ->
              let fl = m.Cpu.flash in
              Vints
                (if m.flash_shared then Cpu.canonical fl
                 else Cpu.canonical_init (Array.length fl) (Array.get fl)));
          act = Adopt Cpu.adopt_flash };
      into "sram" mem (fun m -> m.Cpu.sram);
      into "regs" (ints_in 0 0xFF) (fun m -> m.Cpu.regs);
      (* The decode and block tables cover exactly the 64 K-word flash
         and are indexed unchecked by the PC. *)
      field "pc" (int_in 0 0xFFFF) (fun m -> m.Cpu.pc) (fun m v -> m.pc <- v);
      field "sp" (int_in 0 0xFFFF) (fun m -> m.Cpu.sp) (fun m v -> m.sp <- v);
      field "sreg" byte (fun m -> m.Cpu.sreg) (fun m v -> m.sreg <- v);
      field "cycles" int (fun m -> m.Cpu.cycles) (fun m v -> m.cycles <- v);
      field "idle_cycles" int (fun m -> m.Cpu.idle_cycles)
        (fun m v -> m.idle_cycles <- v);
      field "insns" int (fun m -> m.Cpu.insns) (fun m v -> m.insns <- v);
      field "mem_reads" int (fun m -> m.Cpu.mem_reads) (fun m v -> m.mem_reads <- v);
      field "mem_writes" int (fun m -> m.Cpu.mem_writes)
        (fun m v -> m.mem_writes <- v);
      field "io_reads" int (fun m -> m.Cpu.io_reads) (fun m v -> m.io_reads <- v);
      field "io_writes" int (fun m -> m.Cpu.io_writes) (fun m v -> m.io_writes <- v);
      field "halted" (option halt) (fun m -> m.Cpu.halted) (fun m v -> m.halted <- v);
      field "sleeping" bool (fun m -> m.Cpu.sleeping) (fun m v -> m.sleeping <- v);
      field "preempt_at" int (fun m -> m.Cpu.preempt_at)
        (fun m v -> m.preempt_at <- v);
      nest "io" io (fun m -> m.Cpu.io) ]

let status : Task.status wire =
  sum
    [ ("ready", []); ("sleeping", [ int.ty ]); ("exited", [ str.ty ]) ]
    (function
      | Task.Ready -> (0, [])
      | Sleeping w -> (1, [ Vint w ])
      | Exited r -> (2, [ Vstr r ]))
    (fun tag args ->
      match tag, args with
      | 0, [] -> Ready
      | 1, [ Vint w ] -> Sleeping w
      | 2, [ Vstr r ] -> Exited r
      | _ -> shape ())

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
      field "activations" int (fun t -> t.Task.activations)
        (fun t v -> t.activations <- v);
      field "grow_events" int (fun t -> t.Task.grow_events)
        (fun t v -> t.grow_events <- v);
      field "min_headroom" int (fun t -> t.Task.min_headroom)
        (fun t v -> t.min_headroom <- v);
      field "heap_snapshot" (option mem)
        (fun t -> Option.map Bytes.copy t.Task.heap_snapshot)
        (fun t v -> t.heap_snapshot <- Option.map Bytes.copy v);
      field "cycles_used" int (fun t -> t.Task.cycles_used)
        (fun t v -> t.cycles_used <- v);
      field "insns_used" int (fun t -> t.Task.insns_used) (fun t v -> t.insns_used <- v);
      field "mark_cycles" int (fun t -> t.Task.mark_cycles)
        (fun t v -> t.mark_cycles <- v);
      field "mark_insns" int (fun t -> t.Task.mark_insns) (fun t v -> t.mark_insns <- v) ]

(* Counted, so the block stays a plain int array on the wire. *)
let stats : Kernel.stats comp =
  comp ~counted:true
    [ field "traps" int (fun s -> s.Kernel.traps) (fun s v -> s.traps <- v);
      field "context_switches" int (fun s -> s.Kernel.context_switches)
        (fun s v -> s.context_switches <- v);
      field "relocations" int (fun s -> s.Kernel.relocations)
        (fun s v -> s.relocations <- v);
      field "relocated_bytes" int (fun s -> s.Kernel.relocated_bytes)
        (fun s v -> s.relocated_bytes <- v);
      field "grow_requests" int (fun s -> s.Kernel.grow_requests)
        (fun s v -> s.grow_requests <- v);
      field "translations" int (fun s -> s.Kernel.translations)
        (fun s v -> s.translations <- v);
      field "init_cycles" int (fun s -> s.Kernel.init_cycles)
        (fun s v -> s.init_cycles <- v);
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
      field "slice_start" int (fun k -> k.Kernel.slice_start)
        (fun k v -> k.slice_start <- v);
      field "next_flash" int (fun k -> k.Kernel.next_flash)
        (fun k v -> k.next_flash <- v);
      nest "stats" stats (fun k -> k.Kernel.stats) ]

let same_network = "re-create the network with the original parameters"

let node : Net.node comp =
  comp
    [ key "id" int (fun nd -> nd.Net.id) same_network;
      nest "kernel" kernel (fun nd -> nd.Net.kernel);
      field "sink" dump (fun nd -> Trace.dump nd.Net.sink)
        (fun nd d -> Trace.restore nd.sink d);
      field "neighbours" (list int) (fun nd -> nd.Net.neighbours)
        (fun nd v -> nd.neighbours <- v);
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
      into "loss_streaks" (ints_in min_int max_int) (fun n -> n.Net.streaks);
      field "trace" dump (fun n -> Trace.dump n.Net.trace)
        (fun n d -> Trace.restore n.trace d) ]

(* A payload kind: its name, and its wire sections in order.  A pooled
   kind writes each distinct flash image once, in a content-addressed
   "flash" section before the others, and its machines hold indices
   into it. *)
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
    [ nest "kernel" kernel Fun.id;
      field "trace" dump (fun k -> Trace.dump k.Kernel.trace)
        (fun k d -> Trace.restore k.trace d) ]

let net_payload =
  payload ~pooled:true "net" (fun n -> n.Net.quanta * n.quantum)
    [ nest "net" net Fun.id ]

(* In wire-tag order. *)
let kinds = [| machine_payload.kind; kernel_payload.kind; net_payload.kind |]

(* Mutable only so that decoding can restore [meta] into a fresh value;
   a snapshot never changes after capture or decode. *)
type t = {
  mutable at : int;
  mutable programs : string list;
  mutable kind : kind;
  mutable body : v array;  (* one value per section of [kind] *)
}

let meta : t comp =
  comp
    [ field "at" int (fun s -> s.at) (fun s v -> s.at <- v);
      field "programs" (list str) (fun s -> s.programs) (fun s v -> s.programs <- v);
      field "kind"
        (sum
           (Array.to_list (Array.map (fun k -> (k.name, [])) kinds))
           (fun k ->
             let rec index i = if kinds.(i) == k then i else index (i + 1) in
             (index 0, []))
           (fun tag _ -> kinds.(tag)))
        (fun s -> s.kind) (fun s v -> s.kind <- v) ]

let at s = s.at
let programs s = s.programs
let kind_name s = s.kind.name

(* --- capture and restore ------------------------------------------------------ *)

let rec capture : type h. h comp -> h -> v array =
 fun c h ->
  Array.map
    (function
      | Leaf l -> l.get h
      | Nest n -> Vrec (capture n.comp (n.sub h))
      | Each e -> Vlist (List.map (fun x -> Vrec (capture e.comp x)) (e.subs h)))
    c.fields

let fields_of = function Vrec a -> a | _ -> shape ()
let list_of = function Vlist l -> l | _ -> shape ()

let length = function
  | Vmem b -> Bytes.length b
  | Vints a -> Array.length a
  | _ -> shape ()

let rec show ty v =
  match ty, v with
  | _, Vint i -> string_of_int i
  | _, Vstr s -> Printf.sprintf "%S" s
  | _, (Vmem _ | Vints _) -> Printf.sprintf "<%d entries>" (length v)
  | List t, Vlist l -> "[" ^ String.concat "; " (List.map (show t) l) ^ "]"
  | Tuple ts, Vlist l -> "(" ^ String.concat ", " (List.map2 show ts l) ^ ")"
  | Sum cases, Vtag (i, args) ->
    let name, tys = List.nth cases i in
    if args = [] then name else name ^ show (Tuple tys) (Vlist args)
  | _, Vevent e -> Fmt.str "%a" Trace.pp_event e
  | _ -> shape ()

let ints = function Vints a -> a | _ -> shape ()

let blit src dst =
  match src, dst with
  | Vmem s, Vmem d -> Bytes.blit s 0 d 0 (Bytes.length s)
  | Vints s, Vints d -> Array.blit s 0 d 0 (Array.length s)
  | _ -> shape ()

let sized path name x n =
  if length x <> n then
    incompatible "snapshot %s%s has %d entries, target has %d" (path ()) name
      (length x) n

(* Restore runs this walk twice: first with [~write:false], which checks
   every structural key, count and size, so a mismatched host is refused
   untouched; then with [~write:true], which sets every field.  [path]
   names the enclosing component, built only for a message. *)
let rec walk : type h.
    write:bool -> (int array -> Cpu.image) -> (unit -> string) -> h comp -> h ->
    v array -> unit =
 fun ~write image_of path c h vs ->
  for i = 0 to Array.length vs - 1 do
    match c.fields.(i), vs.(i) with
    | Leaf { act = Set set; _ }, x -> if write then set h x
    | Leaf { act = Key _; _ }, _ when write -> ()
    | Leaf { name; ty; get; act = Key hint }, x ->
      let y = get h in
      if x <> y then
        incompatible "snapshot %s%s is %s, target has %s — %s" (path ()) name
          (show ty x) (show ty y) hint
    | Leaf { name; act = Into live; _ }, x ->
      if write then blit x (live h) else sized path name x (length (live h))
    | Leaf { act = Adopt adopt; _ }, x ->
      (* Captured and decoded flashes are canonical, so they fit. *)
      if write then adopt h (image_of (ints x))
    | Nest n, x ->
      let path () = path () ^ n.name ^ "." in
      walk ~write image_of path n.comp (n.sub h) (fields_of x)
    | Each e, x ->
      let xs = list_of x and hs = e.subs h in
      if List.length xs <> List.length hs then
        incompatible "snapshot has %d %s, target has %d — %s" (List.length xs)
          e.name (List.length hs) e.hint;
      List.iteri
        (fun j (h, x) ->
          let path () = Printf.sprintf "%s%s[%d]." (path ()) e.name j in
          walk ~write image_of path e.comp h (fields_of x))
        (List.combine hs xs)
  done

let capture_payload (p : _ payload) ?(programs = []) h =
  { at = p.at h; programs; kind = p.kind; body = capture p.body h }

let of_machine ?programs m = capture_payload machine_payload ?programs m
let of_kernel ?programs k = capture_payload kernel_payload ?programs k
let of_net ?programs n = capture_payload net_payload ?programs n

let restore (p : _ payload) (s : t) h =
  if s.kind != p.kind then
    incompatible "this is a %s snapshot; restore it onto a matching host" s.kind.name;
  walk ~write:false Cpu.image_of (fun () -> "") p.body h s.body;
  (* One image per distinct flash array: machines restored from one
     decoded (or captured-shared) array share its words and caches,
     re-establishing a fleet's structural sharing instead of expanding
     it. *)
  let images = ref [] in
  let image_of flash =
    match List.assq_opt flash !images with
    | Some image -> image
    | None ->
      let image = Cpu.image_of flash in
      images := (flash, image) :: !images;
      image
  in
  walk ~write:true image_of (fun () -> "") p.body h s.body

let restore_machine s m = restore machine_payload s m
let restore_kernel s k = restore kernel_payload s k
let restore_net s n = restore net_payload s n

(* The first list of components in a payload (tasks, motes), for
   {!describe}. *)
let rec members (s : schema) vs =
  List.combine (Array.to_list s.cols) (Array.to_list vs)
  |> List.find_map (function
       | (name, List (Comp _)), Vlist l ->
         Some (Printf.sprintf ", %d %s" (List.length l) name)
       | (_, Comp s), Vrec x -> members s x
       | _ -> None)

let describe s =
  let progs =
    match s.programs with
    | [] -> ""
    | ps -> Printf.sprintf ", programs: %s" (String.concat " " ps)
  in
  Printf.sprintf "%s snapshot at cycle %d%s%s" s.kind.name s.at
    (Option.value ~default:"" (members s.kind.sections s.body))
    progs

(* --- encode and decode -------------------------------------------------------- *)

(* [flash] writes one machine's flash: inline, or as a pool index.  On
   the wire a flash is always [Layout.flash_words] words, erased tail
   included ([write_flash]); [read_flash] requires exactly that many and
   allocates only the canonical prefix. *)
let write_flash b fl = W.u16_array b fl Machine.Layout.flash_words
let read_flash r = R.u16_array r "flash" Machine.Layout.flash_words Cpu.canonical_init

let rec write ~flash b ty v =
  match ty, v with
  | Int _, Vint i -> W.int b i
  | Str, Vstr s -> W.string b s
  | Mem, Vmem m -> W.string b (Bytes.unsafe_to_string m)
  | Flash, Vints a -> flash b a
  | Ints _, Vints a ->
    W.int b (Array.length a);
    Array.iter (W.int b) a
  | List t, Vlist l ->
    W.int b (List.length l);
    List.iter (write ~flash b t) l
  | Tuple ts, Vlist l -> List.iter2 (write ~flash b) ts l
  | Sum cases, Vtag (i, args) ->
    W.u8 b i;
    List.iter2 (write ~flash b) (snd (List.nth cases i)) args
  | Event, Vevent e -> W.string b (Trace.json_of_event e)
  | Comp s, Vrec a ->
    if s.counted then W.int b (Array.length a);
    for i = 0 to Array.length a - 1 do
      write ~flash b (snd s.cols.(i)) a.(i)
    done
  | _ -> shape ()

let in_range name lo hi i =
  if i < lo || i > hi then corrupt "%s %d outside [%d, %d]" name i lo hi;
  i

(* Each element of a counted sequence takes at least one input byte, so
   [R.length] bounds every allocation by the input actually present. *)
let rec read ~flash name ty r =
  match ty with
  | Int (lo, hi) -> Vint (in_range name lo hi (R.int r))
  | Str -> Vstr (R.string r)
  | Mem -> Vmem (R.bytes r)
  | Flash -> Vints (flash r)
  | Ints (lo, hi) ->
    let n = R.length r ~width:1 name in
    Vints (Array.init n (fun _ -> in_range name lo hi (R.int r)))
  | List t ->
    let n = R.length r ~width:1 name in
    Vlist (List.init n (fun _ -> read ~flash name t r))
  | Tuple ts -> Vlist (List.map (fun t -> read ~flash name t r) ts)
  | Sum cases ->
    let tag = R.u8 r in
    (match List.nth_opt cases tag with
     | Some (_, tys) -> Vtag (tag, List.map (fun t -> read ~flash name t r) tys)
     | None -> corrupt "bad %s tag %d" name tag)
  | Event -> (
    let line = R.string r in
    match Trace.event_of_json line with
    | Ok e -> Vevent e
    | Error msg -> corrupt "bad event %S: %s" line msg)
  | Comp s ->
    if s.counted then begin
      let n = R.int r in
      if n <> Array.length s.cols then corrupt "bad %s block (%d fields)" name n
    end;
    Vrec (Array.map (fun (name, ty) -> read ~flash name ty r) s.cols)

let to_string (s : t) : string =
  (* Capture aliases shared template images, so a fleet of N
     same-program motes reaches here with N physically-equal flash
     pointers — the [==] probe dedups them in O(images); the structural
     test also merges images that were copied apart (e.g. a mote that
     triggered copy-on-write and then wrote the very same words back).
     The pool never holds structural duplicates, so the first hit is the
     canonical entry. *)
  let pool = ref [] in
  let index_of fl =
    let rec scan i = function
      | [] ->
        pool := !pool @ [ fl ];
        i
      | x :: rest -> if x == fl || x = fl then i else scan (i + 1) rest
    in
    scan 0 !pool
  in
  let flash = if s.kind.pooled then fun b fl -> W.int b (index_of fl) else write_flash in
  let encode f =
    let b = Buffer.create 256 in
    f b;
    Buffer.contents b
  in
  let head = encode (fun b -> write ~flash b (Comp meta.schema) (Vrec (capture meta s))) in
  (* Pool indices follow encoding order, so they are deterministic. *)
  let body =
    Array.map2 (fun (_, ty) v -> encode (fun b -> write ~flash b ty v))
      s.kind.sections.cols s.body
  in
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b magic;
  W.int b format_version;
  w_section b "meta" head;
  if s.kind.pooled then
    w_section b "flash"
      (encode (fun b ->
           W.int b (List.length !pool);
           List.iter (write_flash b) !pool));
  Array.iteri (fun i (name, _) -> w_section b name body.(i)) s.kind.sections.cols;
  Buffer.contents b

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
      corrupt "snapshot format version %d; this build reads version %d" v
        format_version;
    let sections = r_sections r in
    let section name =
      match List.assoc_opt name sections with
      | Some section -> section
      | None -> corrupt "missing %S section" name
    in
    let s = { at = 0; programs = []; kind = kinds.(0); body = [||] } in
    let meta_v = read ~flash:read_flash "meta" (Comp meta.schema) (section "meta") in
    walk ~write:true Cpu.image_of (fun () -> "") meta s (fields_of meta_v);
    let flash =
      if not s.kind.pooled then read_flash
      else begin
        (* Decode the pool first; machines then read indices into it.
           Same-index machines share the one decoded array, so restore
           re-establishes the fleet's structural flash sharing. *)
        let r = section "flash" in
        let pool = Array.init (R.length r ~width:1 "flash") (fun _ -> read_flash r) in
        fun r ->
          let i = R.int r in
          if i < 0 || i >= Array.length pool then
            corrupt "flash image index %d out of range (%d images)" i
              (Array.length pool);
          pool.(i)
      end
    in
    s.body <-
      Array.map (fun (name, ty) -> read ~flash name ty (section name)) s.kind.sections.cols;
    Ok s
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
   line names one differing value by its path of field names.  It walks
   the same tables as the encoder, so an empty diff means the two
   snapshots serialize identically. *)

(* Two sequences: their lengths if those differ, else how many entries
   differ and the first that does. *)
let diff_entries label (na, nb) get_a get_b show acc =
  if na <> nb then Printf.sprintf "%s: %d <> %d entries" label na nb :: acc
  else begin
    let first = ref (-1) and count = ref 0 in
    for i = na - 1 downto 0 do
      if get_a i <> get_b i then begin
        first := i;
        Stdlib.incr count
      end
    done;
    Printf.sprintf "%s: %d entries differ (first at 0x%04x: %s <> %s)" label !count
      !first (show (get_a !first)) (show (get_b !first))
    :: acc
  end

(* [prefix] is the path of the enclosing component ("" at the top). *)
let rec diff_cols prefix (s : schema) xs ys acc =
  let acc = ref acc in
  Array.iteri
    (fun i (name, ty) -> acc := diff_value prefix name ty xs.(i) ys.(i) !acc)
    s.cols;
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
    diff_entries label (length a, length b) (Bytes.get_uint8 x) (Bytes.get_uint8 y)
      (Printf.sprintf "%02x") acc
  | (Flash | Ints _), Vints x, Vints y ->
    diff_entries label (length a, length b) (Array.get x) (Array.get y) string_of_int
      acc
  | _ -> Printf.sprintf "%s: %s <> %s" label (show ty a) (show ty b) :: acc

(** Component-level differences between two snapshots, one
    human-readable line per differing value; [[]] means the snapshots
    serialize identically.  Snapshots of different kinds differ only by
    their kind. *)
let diff (a : t) (b : t) : string list =
  let lines = diff_cols "meta." meta.schema (capture meta a) (capture meta b) [] in
  let lines =
    if a.kind != b.kind then lines else diff_cols "" a.kind.sections a.body b.body lines
  in
  List.rev lines

let equal a b = diff a b = []

(* --- divergence bisection -------------------------------------------------- *)

module Bisect = struct
  (* Binary-search for the first cycle at which two engine
     configurations of the same workload disagree.

     A [subject] wraps one configuration of a world behind four hooks;
     the driver never looks inside the world, so kernels, bare machines
     and whole networks bisect through the same code path.  The one law
     a subject must obey is *segment invariance*: the state reached at
     an advance target must not depend on how the journey there was cut
     into [advance] calls.  Both engine tiers satisfy it (tier-1 blocks
     stop on exactly tier-0's cycle boundaries), and [Net.run] derives
     its lockstep position from [t.quanta], so restored worlds replay
     the very same horizon sequence. *)

  type 'w subject = {
    boot : unit -> 'w;
    advance : 'w -> int -> unit;
        (* run the world until its clock reaches the absolute target
           cycle (or it halts); repeated calls must compose *)
    capture : 'w -> t;
    restore : t -> 'w -> unit;
  }

  type verdict =
    | Identical of { ran_to : int; probes : int }
    | Diverged of {
        lo : int;  (* last probed cycle where the subjects agreed *)
        hi : int;  (* first probed cycle where they differed *)
        diff : string list;  (* component diff at [hi] *)
        probes : int;  (* snapshot comparisons performed *)
      }

  (* The coarse pass runs both worlds forward checkpoint by checkpoint,
     keeping the last agreeing snapshot pair; the refine pass
     binary-searches inside the first disagreeing interval, restoring
     both worlds from their last agreeing snapshots instead of
     re-running from boot — log(interval) probes, each costing only the
     interval's cycles.  The interval narrows until it is at most
     [granularity] cycles wide (subjects with coarser natural
     boundaries — a network's lockstep quantum — bottom out at their
     boundary spacing instead). *)
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

  (* A poke plants a byte into a spare kernel cell once the world's
     clock passes [poke_at].  The address is deliberately one no
     program or kernel path ever writes, which makes the injection
     idempotent: re-applying it after a restore-and-re-run cannot
     disturb later state, so poked subjects keep segment invariance. *)

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
