(* Typed job specs and their JSONL wire form.

   One job is one line: a flat JSON object in the same int/string
   dialect lib/trace emits ({!Trace.parse_flat_json} is the parser), so
   a spec file is valid JSONL and pipes cleanly between tools.  The
   ["job"] field names the variant; every other field is validated
   against the variant's schema — unknown fields, unregistered
   programs, and out-of-range values are typed [Error]s carrying what
   offended, and {!parse_lines} prefixes the 1-based line number.

   Every variant carries everything its execution needs (programs,
   budgets, seeds): a job's result is a pure function of its spec, the
   determinism contract the 1/2/4-worker identity tests pin. *)

type kind =
  | Campaign of {
      programs : string list;
      trials : int;
      faults : int;
      budget : int;
      seed : int;
      disruptive : bool;
    }  (** a seeded {!Fault.Campaign} over registered programs *)
  | Bisect of {
      programs : string list;
      warm : int;  (** capture cycle of the shared warm snapshot *)
      budget : int;
      granularity : int;
      poke : int option;  (** plant a tier-1 divergence at this cycle *)
    }  (** tier-1 vs tier-0 {!Snapshot.Bisect.hunt} from shared state *)
  | Bench of { program : string; budget : int; tier : int }
      (** bare-metal {!Workloads.Native}-style run, deadline-sliced *)
  | Attack of { system : string; trials : int; seed : int }
      (** one system's row of the {!Attack} containment matrix *)
  | Fleet of {
      motes : int;
      periods : int;
      copies : int;
      loss_permille : int;
      topology : Workloads.Fleet.topology;
    }  (** a {!Workloads.Fleet} sense-and-send run, single domain *)

type t = { id : int; kind : kind }

let kind_name = function
  | Campaign _ -> "campaign"
  | Bisect _ -> "bisect"
  | Bench _ -> "bench"
  | Attack _ -> "attack"
  | Fleet _ -> "fleet"

(* --- topology spec ------------------------------------------------------- *)

let topology_to_string : Workloads.Fleet.topology -> string = function
  | Line -> "line"
  | Grid cols -> Printf.sprintf "grid:%d" cols
  | Random_geometric { seed; radius } -> Printf.sprintf "rgg:%d:%d" seed radius

let topology_of_string s : (Workloads.Fleet.topology, string) result =
  match String.split_on_char ':' s with
  | [ "line" ] -> Ok Line
  | [ "grid"; cols ] -> (
    match int_of_string_opt cols with
    | Some c when c >= 1 && c <= 1000 -> Ok (Grid c)
    | _ -> Error (Printf.sprintf "bad grid columns %S" cols))
  | [ "rgg"; seed; radius ] -> (
    match (int_of_string_opt seed, int_of_string_opt radius) with
    | Some s, Some r when r >= 1 && r <= 1415 ->
      Ok (Random_geometric { seed = s; radius = r })
    | _ -> Error (Printf.sprintf "bad rgg parameters %S:%S" seed radius))
  | _ ->
    Error
      (Printf.sprintf "unknown topology %S (expected line, grid:COLS or rgg:SEED:RADIUS)" s)

(* --- validation ---------------------------------------------------------- *)

let registered name = List.mem name Workloads.Registry.names

let check_programs = function
  | [] -> Error "empty program list"
  | names -> (
    match List.find_opt (fun n -> not (registered n)) names with
    | Some bad -> Error (Printf.sprintf "unknown program %S" bad)
    | None -> Ok names)

let in_range what v lo hi =
  if v >= lo && v <= hi then Ok v
  else Error (Printf.sprintf "%s %d out of range [%d, %d]" what v lo hi)

(* --- JSON line <-> spec -------------------------------------------------- *)

(* Kept as a name for external callers; the escaper is lib/trace's. *)
let json_escape = Trace.escape_string

let to_json (t : t) =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "{\"id\":%d,\"job\":\"%s\"" t.id (kind_name t.kind));
  let int k v = Buffer.add_string b (Printf.sprintf ",\"%s\":%d" k v) in
  let str k v =
    Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" k (Trace.escape_string v))
  in
  (match t.kind with
   | Campaign { programs; trials; faults; budget; seed; disruptive } ->
     str "programs" (String.concat "," programs);
     int "trials" trials;
     int "faults" faults;
     int "budget" budget;
     int "seed" seed;
     int "disruptive" (if disruptive then 1 else 0)
   | Bisect { programs; warm; budget; granularity; poke } ->
     str "programs" (String.concat "," programs);
     int "warm" warm;
     int "budget" budget;
     int "granularity" granularity;
     (match poke with Some p -> int "poke" p | None -> ())
   | Bench { program; budget; tier } ->
     str "program" program;
     int "budget" budget;
     int "tier" tier
   | Attack { system; trials; seed } ->
     str "system" system;
     int "trials" trials;
     int "seed" seed
   | Fleet { motes; periods; copies; loss_permille; topology } ->
     int "motes" motes;
     int "periods" periods;
     int "copies" copies;
     int "loss" loss_permille;
     str "topology" (topology_to_string topology));
  Buffer.add_char b '}';
  Buffer.contents b

(** Parse one spec line.  [id] defaults the job id when the line does
    not carry one (the engine passes the line number). *)
let of_json ?(id = 0) line : (t, string) result =
  let ( let* ) = Result.bind in
  let* fields = Trace.parse_flat_json line in
  let known = ref [ "id"; "job" ] in
  let int ?default k =
    known := k :: !known;
    match List.assoc_opt k fields with
    | Some (Trace.J_int i) -> Ok i
    | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)
    | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" k))
  in
  let str ?default k =
    known := k :: !known;
    match List.assoc_opt k fields with
    | Some (Trace.J_str s) -> Ok s
    | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
    | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" k))
  in
  let opt_int k =
    known := k :: !known;
    match List.assoc_opt k fields with
    | Some (Trace.J_int i) -> Ok (Some i)
    | Some Trace.J_null | None -> Ok None
    | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)
  in
  let programs k =
    let* s = str k in
    check_programs (String.split_on_char ',' s)
  in
  let* job = str "job" in
  let* id = int ~default:id "id" in
  let* kind =
    match job with
    | "campaign" ->
      let* programs = programs "programs" in
      let* trials = Result.bind (int ~default:1 "trials") (fun v -> in_range "trials" v 1 10_000) in
      let* faults = Result.bind (int ~default:2 "faults") (fun v -> in_range "faults" v 0 64) in
      let* budget =
        Result.bind (int ~default:100_000 "budget") (fun v ->
            in_range "budget" v 1_000 2_000_000_000)
      in
      let* seed = int ~default:1 "seed" in
      let* disruptive = Result.bind (int ~default:0 "disruptive") (fun v -> in_range "disruptive" v 0 1) in
      Ok (Campaign { programs; trials; faults; budget; seed; disruptive = disruptive = 1 })
    | "bisect" ->
      let* programs = programs "programs" in
      let* budget =
        Result.bind (int ~default:300_000 "budget") (fun v ->
            in_range "budget" v 10_000 2_000_000_000)
      in
      let* warm =
        Result.bind (int ~default:(budget / 4) "warm") (fun v ->
            in_range "warm" v 0 (budget - 1))
      in
      let* granularity =
        Result.bind (int ~default:4096 "granularity") (fun v ->
            in_range "granularity" v 1 budget)
      in
      let* poke = opt_int "poke" in
      let* () =
        match poke with
        | Some p when p <= warm || p >= budget ->
          Error (Printf.sprintf "poke %d must lie inside (warm, budget)" p)
        | _ -> Ok ()
      in
      Ok (Bisect { programs; warm; budget; granularity; poke })
    | "bench" ->
      let* program = str "program" in
      let* program =
        if registered program then Ok program
        else Error (Printf.sprintf "unknown program %S" program)
      in
      let* budget =
        Result.bind (int ~default:500_000 "budget") (fun v ->
            in_range "budget" v 1_000 2_000_000_000)
      in
      let* tier = Result.bind (int ~default:1 "tier") (fun v -> in_range "tier" v 0 2) in
      Ok (Bench { program; budget; tier })
    | "attack" ->
      let* system = str ~default:"sensmart" "system" in
      let* system =
        if List.mem system Attack.all_systems then Ok system
        else
          Error
            (Printf.sprintf "unknown system %S (expected one of: %s)" system
               (String.concat ", " Attack.all_systems))
      in
      let* trials = Result.bind (int ~default:1 "trials") (fun v -> in_range "trials" v 1 64) in
      let* seed = int ~default:1 "seed" in
      Ok (Attack { system; trials; seed })
    | "fleet" ->
      let* motes = Result.bind (int ~default:4 "motes") (fun v -> in_range "motes" v 1 20_000) in
      let* periods = Result.bind (int ~default:2 "periods") (fun v -> in_range "periods" v 1 1_000) in
      let* copies = Result.bind (int ~default:1 "copies") (fun v -> in_range "copies" v 1 8) in
      let* loss = Result.bind (int ~default:0 "loss") (fun v -> in_range "loss" v 0 1_000) in
      let* topology = Result.bind (str ~default:"line" "topology") topology_of_string in
      Ok (Fleet { motes; periods; copies; loss_permille = loss; topology })
    | other -> Error (Printf.sprintf "unknown job kind %S" other)
  in
  (* Reject typos loudly rather than silently ignoring a field the
     submitter thought was load-bearing. *)
  let* () =
    match
      List.find_opt (fun (k, _) -> not (List.mem k !known)) fields
    with
    | Some (k, _) ->
      Error (Printf.sprintf "unknown field %S for job kind %S" k job)
    | None -> Ok ()
  in
  Ok { id; kind }

(** Parse a whole spec file (JSONL; blank lines and [#] comments
    skipped).  Jobs without an explicit ["id"] get their line number.
    Ids must be unique: results are sorted and hashed by id, so a
    repeated id would make the digest depend on the schedule.  The
    first offence wins: [Error "line N: ..."]. *)
let parse_lines text : (t list, string) result =
  let lines = String.split_on_char '\n' text in
  let first_line = Hashtbl.create 64 in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (n + 1) acc rest
      else (
        match of_json ~id:n trimmed with
        | Error e -> Error (Printf.sprintf "line %d: %s" n e)
        | Ok t -> (
          match Hashtbl.find_opt first_line t.id with
          | Some m ->
            Error
              (Printf.sprintf "line %d: duplicate job id %d (first on line %d)" n
                 t.id m)
          | None ->
            Hashtbl.add first_line t.id n;
            go (n + 1) (t :: acc) rest))
  in
  go 1 [] lines

let pp fmt t = Fmt.pf fmt "%s" (to_json t)
