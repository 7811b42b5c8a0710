(* Typed diagnostics shared by the three pipeline stages. *)

type stage = Recovery | Transform | Redirection
type severity = Info | Warning | Error

type t = {
  stage : stage;
  severity : severity;
  addr : int option;
  kind : string;
  message : string;
}

let make stage severity ?addr kind fmt =
  Printf.ksprintf (fun message -> { stage; severity; addr; kind; message }) fmt

let stage_name = function
  | Recovery -> "recovery"
  | Transform -> "transform"
  | Redirection -> "redirection"

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let pp ppf d =
  let addr ppf = function
    | Some a -> Format.fprintf ppf "[0x%04x]" a
    | None -> ()
  in
  Format.fprintf ppf "%s:%s%a %s: %s" (stage_name d.stage)
    (severity_name d.severity) addr d.addr d.kind d.message

(* The JSON emitter matches lib/trace's hand-rolled flat style. *)
let to_json d =
  Printf.sprintf
    {|{"stage":"%s","severity":"%s","addr":%s,"kind":"%s","message":"%s"}|}
    (stage_name d.stage) (severity_name d.severity)
    (match d.addr with Some a -> string_of_int a | None -> "null")
    (Trace.escape_string d.kind) (Trace.escape_string d.message)

let errors ds =
  List.length (List.filter (fun d -> d.severity = Error) ds)
