(* Structured observability for the reproduction: one event stream and
   one counters registry shared by the machine, kernel, network, and
   workload layers.

   Events live in a bounded ring buffer (oldest entries are overwritten,
   with an overflow count) so tracing can stay on during long runs
   without leaking memory.  Counters are a flat name -> int registry the
   layers publish into at snapshot time; the names form the schema the
   benchmarks and the CLI export (documented in DESIGN.md).

   Export formats are line-oriented JSON (JSONL) for events and a single
   JSON object for counters.  The emitter and the matching parser are
   self-contained: the container has no JSON package, and the subset we
   need (flat objects of ints, strings, and null) is small. *)

type kind =
  | Cpu_fault of { reason : string }
      (** the machine halted abnormally (invalid opcode, kernel kill) *)
  | Switched of { from_task : int option; to_task : int }
  | Relocated of { needy : int; delta : int; moved : int }
  | Terminated of { task : int; reason : string }
  | Spawned of { task : int; stack : int }
  | Routed of { src : int; dst : int; byte : int }
  | Dropped of { src : int; dst : int; byte : int }
  | Injected of { fault : string }
  | Probe of { name : string; detail : string }
  | Job of { id : int; phase : string; detail : string }

type event = { mote : int; at : int; kind : kind }

type t = {
  mutable buf : event array;
      (* ring storage: empty until the first emit, then grown on demand
         (see [emit]) up to [capacity] slots *)
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable overflow : int;  (* events overwritten because the ring was full *)
  capacity : int;
  counters : (string, int) Hashtbl.t;
}

let default_capacity = 4096

(* The ring's first allocation.  Most sinks record a handful of events
   (a kernel's task switches, a campaign trial's injections), so they
   never pay for the full capacity. *)
let initial_slots = 16

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { buf = [||]; head = 0; len = 0; overflow = 0; capacity;
    counters = Hashtbl.create 32 }

let capacity t = t.capacity
let length t = t.len
let overflow t = t.overflow

let clear t =
  t.buf <- [||];
  t.head <- 0;
  t.len <- 0;
  t.overflow <- 0;
  Hashtbl.reset t.counters

(* Index of the oldest event in the ring. *)
let start t =
  let n = Array.length t.buf in
  (t.head - t.len + n) mod n

(* A full ring below [capacity] doubles (from [initial_slots], never
   past [capacity]): the events move oldest first to slots [0, len), so
   the next write goes to slot [len].  Once the storage holds [capacity]
   slots it never grows again and a full ring overwrites its oldest
   event, exactly as a ring allocated whole would. *)
let grow t ev =
  let n = Array.length t.buf in
  let buf = Array.make (min t.capacity (max initial_slots (2 * n))) ev in
  if n > 0 then begin
    let s = start t in
    Array.blit t.buf s buf 0 (n - s);
    Array.blit t.buf 0 buf (n - s) s
  end;
  t.buf <- buf;
  t.head <- t.len

let emit t ~mote ~at kind =
  let ev = { mote; at; kind } in
  if t.len = Array.length t.buf && t.len < t.capacity then grow t ev;
  t.buf.(t.head) <- ev;
  t.head <- (t.head + 1) mod Array.length t.buf;
  if t.len < t.capacity then t.len <- t.len + 1
  else t.overflow <- t.overflow + 1

(** Recorded events, oldest first. *)
let events t =
  if t.len = 0 then []
  else
    let n = Array.length t.buf and s = start t in
    List.init t.len (fun i -> t.buf.((s + i) mod n))

(** Move every event of [src] into [into] (oldest first, through the
    normal ring-buffer path, so [into]'s capacity and overflow rules
    apply), add [src]'s overflow to [into]'s, and leave [src]'s event
    stream empty.  Counters are untouched on both sides.  This is the
    deterministic merge step of the multi-mote network: each mote
    records into a private sink and the coordinator transfers the sinks
    in node-id order. *)
let transfer ~into src =
  if src != into then begin
    List.iter (fun e -> emit into ~mote:e.mote ~at:e.at e.kind) (events src);
    into.overflow <- into.overflow + src.overflow;
    src.head <- 0;
    src.len <- 0;
    src.overflow <- 0
  end

(* --- snapshot support ---------------------------------------------------- *)

type dump = {
  d_events : event list;  (* oldest first *)
  d_overflow : int;
  d_counters : (string * int) list;
}

let counters_of t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump t =
  { d_events = events t; d_overflow = t.overflow; d_counters = counters_of t }

let restore t d =
  clear t;
  List.iter (fun e -> emit t ~mote:e.mote ~at:e.at e.kind) d.d_events;
  (* Replaying through [emit] may itself overflow when the target ring is
     smaller than the dump; the dump's count is authoritative either way. *)
  t.overflow <- d.d_overflow;
  List.iter (fun (k, v) -> Hashtbl.replace t.counters k v) d.d_counters

(* --- counters ----------------------------------------------------------- *)

let incr ?(by = 1) t name =
  let v = try Hashtbl.find t.counters name with Not_found -> 0 in
  Hashtbl.replace t.counters name (v + by)

let set_counter t name v = Hashtbl.replace t.counters name v
let counter t name = try Hashtbl.find t.counters name with Not_found -> 0

(** Counter snapshot, sorted by name. *)
let counters t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- JSON emitter ------------------------------------------------------- *)

(* [s] with JSON's escapes, appended to [b]. *)
let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape_string s =
  let b = Buffer.create (String.length s + 2) in
  add_escaped b s;
  Buffer.contents b

(* Each event serializes to one flat JSON object; the "event" field names
   the variant and selects which other fields are present. *)
let kind_fields = function
  | Cpu_fault { reason } -> ("cpu_fault", [ ("reason", `Str reason) ])
  | Switched { from_task; to_task } ->
    ( "switch",
      [ ("from", match from_task with Some i -> `Int i | None -> `Null);
        ("to", `Int to_task) ] )
  | Relocated { needy; delta; moved } ->
    ("relocation", [ ("needy", `Int needy); ("delta", `Int delta); ("moved", `Int moved) ])
  | Terminated { task; reason } ->
    ("terminated", [ ("task", `Int task); ("reason", `Str reason) ])
  | Spawned { task; stack } ->
    ("spawned", [ ("task", `Int task); ("stack", `Int stack) ])
  | Routed { src; dst; byte } ->
    ("routed", [ ("src", `Int src); ("dst", `Int dst); ("byte", `Int byte) ])
  | Dropped { src; dst; byte } ->
    ("dropped", [ ("src", `Int src); ("dst", `Int dst); ("byte", `Int byte) ])
  | Injected { fault } -> ("injected", [ ("fault", `Str fault) ])
  | Probe { name; detail } ->
    ("probe", [ ("name", `Str name); ("detail", `Str detail) ])
  | Job { id; phase; detail } ->
    ("job", [ ("id", `Int id); ("phase", `Str phase); ("detail", `Str detail) ])

(* [i] in decimal, appended to [b] digit by digit. *)
let rec add_int b i =
  if i < 0 then
    if i = min_int then Buffer.add_string b (string_of_int i)
    else begin
      Buffer.add_char b '-';
      add_int b (-i)
    end
  else begin
    if i >= 10 then add_int b (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))
  end

(* Buffer appends only: a fleet snapshot writes thousands of lines. *)
let json_of_event (e : event) =
  let name, fields = kind_fields e.kind in
  let b = Buffer.create 80 in
  List.iter
    (fun (k, v) ->
      Buffer.add_char b (if Buffer.length b = 0 then '{' else ',');
      Buffer.add_char b '"';
      Buffer.add_string b k;
      Buffer.add_string b "\":";
      match v with
      | `Int i -> add_int b i
      | `Str s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
      | `Null -> Buffer.add_string b "null")
    (("mote", `Int e.mote) :: ("at", `Int e.at) :: ("event", `Str name) :: fields);
  Buffer.add_char b '}';
  Buffer.contents b

(** The whole event stream as JSONL, one event per line, oldest first. *)
let to_jsonl t =
  String.concat "" (List.map (fun e -> json_of_event e ^ "\n") (events t))

(** Counter snapshot as a JSON object, one counter per line. *)
let counters_json t =
  match counters t with
  | [] -> "{}"
  | cs ->
    "{\n"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %d" (escape_string k) v) cs)
    ^ "\n}"

(* --- JSON parser (the flat-object subset the emitter produces) ---------- *)

exception Parse_error of string

type jvalue = J_int of int | J_str of string | J_null

let parse_object (s : string) : (string * jvalue) list =
  let n = String.length s in
  let pos = ref 0 in
  let incr r = r := !r + 1 in (* the counters [incr] above shadows Stdlib's *)
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  (* Whether the next character is [c] (never past the end). *)
  let at c = !pos < n && s.[!pos] = c in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    do incr pos done
  in
  let expect c =
    skip_ws ();
    if at c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do incr pos done;
    if !pos < n && s.[!pos] = '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let b = Buffer.create 16 in
      Buffer.add_substring b s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            (if !pos >= n then fail "truncated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'u' ->
                 if !pos + 4 >= n then fail "truncated \\u escape";
                 let hex = String.sub s (!pos + 1) 4 in
                 let is_hex = function
                   | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                   | _ -> false
                 in
                 (* Four hex digits exactly: [int_of_string] alone would
                    also take OCaml's [_] separators. *)
                 if not (String.for_all is_hex hex) then fail "bad \\u escape";
                 let code = int_of_string ("0x" ^ hex) in
                 if code >= 0x80 then fail "non-ASCII \\u escape unsupported";
                 Buffer.add_char b (Char.chr code);
                 pos := !pos + 5
               | _ -> fail "unknown escape");
            go ()
          | c -> Buffer.add_char b c; incr pos; go ()
      in
      go ();
      Buffer.contents b
    end
  in
  let parse_value () =
    skip_ws ();
    match if !pos < n then s.[!pos] else '\000' with
    | '"' -> J_str (parse_string ())
    | 'n' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
        pos := !pos + 4;
        J_null
      end
      else fail "expected null"
    | '-' | '0' .. '9' ->
      let start = !pos in
      if at '-' then incr pos;
      let digits = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      (* JSON has no leading zeros: "007" is not a number. *)
      if !pos - digits > 1 && s.[digits] = '0' then fail "leading zero";
      if !pos = digits then fail "bad number";
      (* Accumulated negated, so [min_int] parses; past it is a bad
         number, which fewer than 19 digits never reach. *)
      let long = !pos - digits >= 19 in
      let rec value acc i =
        if i = !pos then acc
        else
          let d = Char.code s.[i] - 48 in
          if long && acc < (min_int + d) / 10 then fail "bad number"
          else value ((acc * 10) - d) (i + 1)
      in
      let v = value 0 digits in
      if s.[start] = '-' then J_int v
      else if v = min_int then fail "bad number"
      else J_int (-v)
    | _ -> fail "expected value"
  in
  expect '{';
  skip_ws ();
  let fields = ref [] in
  if at '}' then incr pos
  else begin
    let rec members () =
      let k = (skip_ws (); parse_string ()) in
      expect ':';
      let v = parse_value () in
      fields := (k, v) :: !fields;
      skip_ws ();
      if at ',' then (incr pos; members ())
      else if at '}' then incr pos
      else fail "expected ',' or '}'"
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing input";
  (* A repeated key is an error, not a silent first-wins for the
     [List.assoc] readers; sorting keeps hostile many-key lines
     O(n log n). *)
  let rec repeated = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else repeated rest
    | _ -> None
  in
  (match repeated (List.sort String.compare (List.map fst !fields)) with
   | Some k -> fail (Printf.sprintf "duplicate key %S" k)
   | None -> ());
  List.rev !fields

(** The flat-object subset as a total function: the campaign service's
    job-spec lines ride the same dialect. *)
let parse_flat_json (s : string) : ((string * jvalue) list, string) result =
  match parse_object s with
  | exception Parse_error msg -> Error msg
  | fields -> Ok fields

(* Fields are looked up in the order the error messages report, by
   [String.equal] rather than polymorphic equality. *)
let event_of_json (line : string) : (event, string) result =
  match parse_object line with
  | exception Parse_error msg -> Error msg
  | fields -> (
    let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt in
    let field k = List.find_map (fun (k', v) -> if String.equal k k' then Some v else None) fields in
    let int k = match field k with Some (J_int i) -> i | _ -> fail "missing int field %S" k in
    let str k = match field k with Some (J_str s) -> s | _ -> fail "missing string field %S" k in
    try
      let mote = int "mote" in
      let at = int "at" in
      let kind =
        match str "event" with
        | "cpu_fault" -> Cpu_fault { reason = str "reason" }
        | "switch" ->
          let to_task = int "to" in
          let from_task = match field "from" with Some (J_int i) -> Some i | _ -> None in
          Switched { from_task; to_task }
        | "relocation" ->
          let needy = int "needy" in
          let delta = int "delta" in
          Relocated { needy; delta; moved = int "moved" }
        | "terminated" ->
          let task = int "task" in
          Terminated { task; reason = str "reason" }
        | "spawned" ->
          let task = int "task" in
          Spawned { task; stack = int "stack" }
        | "routed" ->
          let src = int "src" in
          let dst = int "dst" in
          Routed { src; dst; byte = int "byte" }
        | "dropped" ->
          let src = int "src" in
          let dst = int "dst" in
          Dropped { src; dst; byte = int "byte" }
        | "injected" -> Injected { fault = str "fault" }
        | "probe" ->
          let name = str "name" in
          Probe { name; detail = str "detail" }
        | "job" ->
          let id = int "id" in
          let phase = str "phase" in
          Job { id; phase; detail = str "detail" }
        | other -> fail "unknown event kind %S" other
      in
      Ok { mote; at; kind }
    with Parse_error msg -> Error msg)

(** Parse a counter snapshot produced by {!counters_json} back into the
    sorted association list {!counters} returns. *)
let counters_of_json (s : string) : ((string * int) list, string) result =
  match parse_object s with
  | exception Parse_error msg -> Error msg
  | fields ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, J_int v) :: rest -> go ((k, v) :: acc) rest
      | (k, (J_str _ | J_null)) :: _ ->
        Error (Printf.sprintf "counter %S is not an integer" k)
    in
    go [] fields

(* --- pretty printing ----------------------------------------------------- *)

let pp_kind fmt = function
  | Cpu_fault { reason } -> Fmt.pf fmt "cpu fault: %s" reason
  | Switched { from_task; to_task } ->
    Fmt.pf fmt "switch %s -> %d"
      (match from_task with Some i -> string_of_int i | None -> "-")
      to_task
  | Relocated { needy; delta; moved } ->
    Fmt.pf fmt "relocation: +%dB to task %d (%dB moved)" delta needy moved
  | Terminated { task; reason } -> Fmt.pf fmt "task %d stopped: %s" task reason
  | Spawned { task; stack } -> Fmt.pf fmt "task %d spawned with %dB stack" task stack
  | Routed { src; dst; byte } -> Fmt.pf fmt "routed %02x: %d -> %d" byte src dst
  | Dropped { src; dst; byte } -> Fmt.pf fmt "dropped %02x: %d -> %d" byte src dst
  | Injected { fault } -> Fmt.pf fmt "injected fault: %s" fault
  | Probe { name; detail } -> Fmt.pf fmt "probe %s: %s" name detail
  | Job { id; phase; detail } -> Fmt.pf fmt "job %d %s: %s" id phase detail

let pp_event fmt (e : event) =
  Fmt.pf fmt "%10d mote%d  %a" e.at e.mote pp_kind e.kind

let equal_event (a : event) (b : event) = a = b
