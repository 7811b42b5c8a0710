(* Tests for the lib/trace observability layer: ring-buffer bounds,
   counter registry semantics, and JSON/JSONL round-trips. *)

let sample_kinds =
  [ Trace.Cpu_fault { reason = "invalid opcode 0xffff" };
    Trace.Switched { from_task = None; to_task = 0 };
    Trace.Switched { from_task = Some 0; to_task = 1 };
    Trace.Relocated { needy = 1; delta = 128; moved = 96 };
    Trace.Terminated { task = 0; reason = "exit" };
    Trace.Spawned { task = 2; stack = 256 };
    Trace.Routed { src = 0; dst = 1; byte = 0xA5 };
    Trace.Dropped { src = 1; dst = 0; byte = 0x5A } ]

let emit_samples tr =
  List.iteri (fun i k -> Trace.emit tr ~mote:(i mod 3) ~at:(i * 100) k)
    sample_kinds

(* --- ring buffer ---------------------------------------------------------- *)

let ring_is_bounded () =
  let tr = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit tr ~mote:0 ~at:i (Trace.Switched { from_task = None; to_task = i })
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length tr);
  Alcotest.(check int) "overflow counted" 6 (Trace.overflow tr);
  (* Oldest-first, and only the newest [capacity] events survive. *)
  let ats = List.map (fun (e : Trace.event) -> e.at) (Trace.events tr) in
  Alcotest.(check (list int)) "newest retained in order" [ 6; 7; 8; 9 ] ats

let clear_resets () =
  let tr = Trace.create ~capacity:2 () in
  emit_samples tr;
  Trace.incr tr "x";
  Trace.clear tr;
  Alcotest.(check int) "no events" 0 (Trace.length tr);
  Alcotest.(check int) "no overflow" 0 (Trace.overflow tr);
  Alcotest.(check int) "counters cleared" 0 (Trace.counter tr "x")

(* The ring grows on demand (from 16 slots, never past its capacity), so
   it is checked against a list model of a bounded queue: two sinks, [a]
   and [b], under a random sequence of emits, transfers both ways,
   clears and dump/restores, must hold the model's events, length and
   overflow after every operation.  The capacities straddle the first
   allocation (15, 16, 17) and reach the default (4096). *)
type op = Emit_a | Emit_b | A_into_b | B_into_a | Clear_a | Clear_b | Restore_a

type model = { q : int list; (* event [at]s, oldest first *) lost : int }

let model_emit cap m at =
  let q = m.q @ [ at ] in
  if List.length q > cap then { q = List.tl q; lost = m.lost + 1 }
  else { m with q }

let model_transfer cap ~into src =
  let into = List.fold_left (model_emit cap) into src.q in
  ({ into with lost = into.lost + src.lost }, { q = []; lost = 0 })

let empty_model = { q = []; lost = 0 }

let ring_matches_model =
  let caps = [ 1; 2; 15; 16; 17; 64; 4096 ] in
  (* [churn] weighs every operation but the emits: at 0 a long sequence
     fills and wraps even the 4096-slot ring; at 1 and 8 transfers,
     clears and restores land mid-growth. *)
  let op churn =
    QCheck.Gen.frequency
      (List.filter
         (fun (w, _) -> w > 0)
         [ (96, QCheck.Gen.return Emit_a); (48, QCheck.Gen.return Emit_b);
           (churn, QCheck.Gen.return A_into_b);
           (2 * churn, QCheck.Gen.return B_into_a);
           (churn, QCheck.Gen.return Clear_a); (churn, QCheck.Gen.return Clear_b);
           (churn, QCheck.Gen.return Restore_a) ])
  in
  let gen =
    QCheck.Gen.(
      triple (oneofl caps) (oneofl caps)
        (oneofl [ 0; 1; 8 ] >>= fun churn ->
         oneof [ list_size (0 -- 64) (op churn); list_size (0 -- 10_000) (op churn) ]))
  in
  QCheck.Test.make ~name:"growable ring = bounded-queue model" ~count:200
    (QCheck.make gen) (fun (cap_a, cap_b, ops) ->
      let a = Trace.create ~capacity:cap_a () in
      let b = Trace.create ~capacity:cap_b () in
      let ma = ref empty_model and mb = ref empty_model in
      let agree name tr m =
        let ats = List.map (fun (e : Trace.event) -> e.at) (Trace.events tr) in
        if ats <> m.q || Trace.length tr <> List.length m.q
           || Trace.overflow tr <> m.lost
        then
          QCheck.Test.fail_reportf
            "%s (capacity %d): %d events, overflow %d; model %d events, \
             overflow %d"
            name (Trace.capacity tr) (Trace.length tr) (Trace.overflow tr)
            (List.length m.q) m.lost
      in
      List.iteri
        (fun i op ->
          let kind = Trace.Probe { name = "p"; detail = "" } in
          (match op with
           | Emit_a ->
             Trace.emit a ~mote:0 ~at:i kind;
             ma := model_emit cap_a !ma i
           | Emit_b ->
             Trace.emit b ~mote:1 ~at:i kind;
             mb := model_emit cap_b !mb i
           | A_into_b ->
             Trace.transfer ~into:b a;
             let mb', ma' = model_transfer cap_b ~into:!mb !ma in
             mb := mb';
             ma := ma'
           | B_into_a ->
             Trace.transfer ~into:a b;
             let ma', mb' = model_transfer cap_a ~into:!ma !mb in
             ma := ma';
             mb := mb'
           | Clear_a ->
             Trace.clear a;
             ma := empty_model
           | Clear_b ->
             Trace.clear b;
             mb := empty_model
           | Restore_a ->
             Trace.restore a (Trace.dump b);
             let m = List.fold_left (model_emit cap_a) empty_model !mb.q in
             ma := { m with lost = !mb.lost });
          agree "a" a !ma;
          agree "b" b !mb)
        ops;
      true)

(* --- counters ------------------------------------------------------------- *)

let counters_registry () =
  let tr = Trace.create () in
  Trace.incr tr "a";
  Trace.incr tr ~by:41 "a";
  Trace.set_counter tr "b" 7;
  Alcotest.(check int) "incr accumulates" 42 (Trace.counter tr "a");
  Alcotest.(check int) "set overwrites" 7 (Trace.counter tr "b");
  Alcotest.(check int) "missing is zero" 0 (Trace.counter tr "nope");
  Alcotest.(check (list (pair string int))) "sorted snapshot"
    [ ("a", 42); ("b", 7) ] (Trace.counters tr)

let counters_json_snapshot () =
  let tr = Trace.create () in
  Trace.set_counter tr "kernel.traps" 12;
  Trace.set_counter tr "net.routed" 3;
  Alcotest.(check string) "flat json object"
    "{\n  \"kernel.traps\": 12,\n  \"net.routed\": 3\n}"
    (Trace.counters_json tr)

(* --- JSON round-trip ------------------------------------------------------ *)

let event_json_round_trip () =
  let tr = Trace.create () in
  emit_samples tr;
  List.iter
    (fun (e : Trace.event) ->
      let line = Trace.json_of_event e in
      match Trace.event_of_json line with
      | Ok e' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" line)
          true (Trace.equal_event e e')
      | Error msg -> Alcotest.failf "parse %s: %s" line msg)
    (Trace.events tr)

let jsonl_stream () =
  let tr = Trace.create () in
  emit_samples tr;
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length sample_kinds)
    (List.length lines);
  List.iter
    (fun l ->
      match Trace.event_of_json l with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "bad jsonl line %s: %s" l msg)
    lines

let reject_garbage () =
  let bad = [ ""; "{}"; "not json"; {|{"mote":0,"at":1,"event":"wat"}|} ] in
  List.iter
    (fun s ->
      match Trace.event_of_json s with
      | Ok _ -> Alcotest.failf "accepted garbage: %s" s
      | Error _ -> ())
    bad

(* The shared parser accepts JSON, not whatever OCaml's [int_of_string]
   or an association list would let through: a [_] inside a \u escape,
   leading zeros, and a repeated key are all errors, while the nearby
   valid forms still parse. *)
let reject_non_json () =
  List.iter
    (fun s ->
      (match Trace.parse_flat_json s with
       | Ok _ -> Alcotest.failf "parse_flat_json accepted %s" s
       | Error _ -> ());
      match Trace.counters_of_json s with
      | Ok _ -> Alcotest.failf "counters_of_json accepted %s" s
      | Error _ -> ())
    [ {|{"a":"\u00_4"}|}; {|{"a":007}|}; {|{"a":-01}|}; {|{"a":1,"a":2}|} ];
  Alcotest.(check bool) "valid neighbours still parse" true
    (Trace.parse_flat_json {|{"a":"\u0041","b":0,"c":-10,"d":"\u004A"}|}
     = Ok [ ("a", J_str "A"); ("b", J_int 0); ("c", J_int (-10));
            ("d", J_str "J") ])

(* Every JSON emitter — trace events, rewrite diagnostics, job specs —
   escapes through [Trace.escape_string], so each round-trips the same
   control characters. *)
let escape_round_trip () =
  let nasty = "quote \" slash \\ tab \t nl \n cr \r bell \007 esc \027" in
  let e : Trace.event =
    { mote = 0; at = 5; kind = Trace.Cpu_fault { reason = nasty } }
  in
  (match Trace.event_of_json (Trace.json_of_event e) with
   | Ok e' -> Alcotest.(check bool) "escaped strings survive" true
                (Trace.equal_event e e')
   | Error msg -> Alcotest.failf "parse escaped: %s" msg);
  let d : Rewriter.Diagnostic.t =
    { stage = Recovery; severity = Info; addr = Some 0x12; kind = nasty;
      message = nasty }
  in
  (match Trace.parse_flat_json (Rewriter.Diagnostic.to_json d) with
   | Ok fields ->
     Alcotest.(check bool) "diagnostic strings survive" true
       (List.assoc_opt "kind" fields = Some (Trace.J_str nasty)
        && List.assoc_opt "message" fields = Some (Trace.J_str nasty))
   | Error msg -> Alcotest.failf "parse diagnostic: %s" msg);
  let job =
    { Service.Spec.id = 7;
      kind = Bench { program = nasty; budget = 500_000; tier = 1 } }
  in
  match Trace.parse_flat_json (Service.Spec.to_json job) with
  | Ok fields ->
    Alcotest.(check bool) "spec strings survive" true
      (List.assoc_opt "program" fields = Some (Trace.J_str nasty))
  | Error msg -> Alcotest.failf "parse spec: %s" msg

(* The JSONL bytes of one event of each of the ten kinds, pinned exactly:
   a snapshot carries its trace events as these lines, so they are
   pinned here apart from the snapshot MD5s.  The probe's strings need
   every escape (quote, backslash, tab, newline, CR, \u forms) and keep
   DEL and UTF-8 bytes as they are. *)
let event_lines_pinned () =
  List.iter
    (fun ((e : Trace.event), line) ->
      Alcotest.(check string) (Fmt.str "%a" Trace.pp_event e) line (Trace.json_of_event e);
      match Trace.event_of_json line with
      | Ok e' -> Alcotest.(check bool) ("parses back: " ^ line) true (Trace.equal_event e e')
      | Error msg -> Alcotest.failf "pinned line %s: %s" line msg)
    [ ({ mote = 0; at = 0; kind = Cpu_fault { reason = "invalid opcode 0xffff" } },
       "{\"mote\":0,\"at\":0,\"event\":\"cpu_fault\",\"reason\":\"invalid opcode 0xffff\"}");
      ({ mote = 1; at = 120_000; kind = Switched { from_task = None; to_task = 0 } },
       "{\"mote\":1,\"at\":120000,\"event\":\"switch\",\"from\":null,\"to\":0}");
      ({ mote = 2; at = max_int; kind = Switched { from_task = Some 3; to_task = 1 } },
       "{\"mote\":2,\"at\":4611686018427387903,\"event\":\"switch\",\"from\":3,\"to\":1}");
      ({ mote = 3; at = 77; kind = Relocated { needy = 1; delta = -128; moved = min_int } },
       "{\"mote\":3,\"at\":77,\"event\":\"relocation\",\"needy\":1,\"delta\":-128,\"moved\":-4611686018427387904}");
      ({ mote = 0; at = 5; kind = Terminated { task = 2; reason = "stack overflow: no donor" } },
       "{\"mote\":0,\"at\":5,\"event\":\"terminated\",\"task\":2,\"reason\":\"stack overflow: no donor\"}");
      ({ mote = 0; at = 6; kind = Spawned { task = 2; stack = 256 } },
       "{\"mote\":0,\"at\":6,\"event\":\"spawned\",\"task\":2,\"stack\":256}");
      ({ mote = 999; at = 1_000_000; kind = Routed { src = 998; dst = 999; byte = 0xA5 } },
       "{\"mote\":999,\"at\":1000000,\"event\":\"routed\",\"src\":998,\"dst\":999,\"byte\":165}");
      ({ mote = -1; at = 8; kind = Dropped { src = 1; dst = 0; byte = 0 } },
       "{\"mote\":-1,\"at\":8,\"event\":\"dropped\",\"src\":1,\"dst\":0,\"byte\":0}");
      ({ mote = 0; at = 9; kind = Injected { fault = "flash flip @0x1f00 ^ 0x1234" } },
       "{\"mote\":0,\"at\":9,\"event\":\"injected\",\"fault\":\"flash flip @0x1f00 ^ 0x1234\"}");
      ({ mote = 4; at = 10;
         kind = Probe { name = "q\"b\\s/"; detail = "tab\there\nline\r\001\031\127 \195\169" } },
       "{\"mote\":4,\"at\":10,\"event\":\"probe\",\"name\":\"q\\\"b\\\\s/\",\"detail\":\"tab\\there\\nline\\r\\u0001\\u001f\127 \195\169\"}");
      ({ mote = 0; at = 11; kind = Job { id = 7; phase = "done"; detail = "{\"trials\":2}" } },
       "{\"mote\":0,\"at\":11,\"event\":\"job\",\"id\":7,\"phase\":\"done\",\"detail\":\"{\\\"trials\\\":2}\"}") ]

(* --- dump/restore (snapshot support) -------------------------------------- *)

let dump_restore_round_trip () =
  let tr = Trace.create ~capacity:4 () in
  emit_samples tr;  (* 8 samples into a 4-ring: 4 survive, overflow 4 *)
  Trace.incr tr ~by:42 "a";
  Trace.set_counter tr "b" 7;
  let d = Trace.dump tr in
  let tr' = Trace.create ~capacity:4 () in
  Trace.emit tr' ~mote:9 ~at:1 (Trace.Spawned { task = 0; stack = 1 });
  Trace.incr tr' "stale";
  Trace.restore tr' d;
  Alcotest.(check int) "length restored" (Trace.length tr) (Trace.length tr');
  Alcotest.(check int) "overflow restored" (Trace.overflow tr)
    (Trace.overflow tr');
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Fmt.str "event %a preserved in order" Trace.pp_event a)
        true (Trace.equal_event a b))
    (Trace.events tr) (Trace.events tr');
  Alcotest.(check (list (pair string int)))
    "counters replaced, stale keys gone" (Trace.counters tr)
    (Trace.counters tr')

let dump_is_a_copy () =
  let tr = Trace.create () in
  emit_samples tr;
  let d = Trace.dump tr in
  let before = List.length d.Trace.d_events in
  Trace.emit tr ~mote:0 ~at:999 (Trace.Spawned { task = 9; stack = 9 });
  Alcotest.(check int) "later emits do not leak into the dump" before
    (List.length d.Trace.d_events)

(* --- counters parser (metrics-file round-trip) ----------------------------- *)

let counters_json_parse () =
  let tr = Trace.create () in
  Trace.set_counter tr "kernel.traps" 12;
  Trace.set_counter tr "net.routed" 3;
  Trace.set_counter tr "neg" (-4);
  match Trace.counters_of_json (Trace.counters_json tr) with
  | Ok kvs ->
    Alcotest.(check (list (pair string int)))
      "parses back to the sorted snapshot" (Trace.counters tr) kvs
  | Error msg -> Alcotest.failf "parse: %s" msg

let counters_json_rejects_garbage () =
  let bad =
    [ ""; "not json"; "{"; {|{"a": "str"}|}; {|{"a": null}|}; {|[1,2]|} ]
  in
  List.iter
    (fun s ->
      match Trace.counters_of_json s with
      | Ok _ -> Alcotest.failf "accepted garbage: %s" s
      | Error _ -> ())
    bad

let () =
  Alcotest.run "trace"
    [ ("ring",
       [ Alcotest.test_case "bounded" `Quick ring_is_bounded;
         Alcotest.test_case "clear" `Quick clear_resets;
         Gen.to_alcotest ring_matches_model ]);
      ("counters",
       [ Alcotest.test_case "registry" `Quick counters_registry;
         Alcotest.test_case "json snapshot" `Quick counters_json_snapshot;
         Alcotest.test_case "json parse" `Quick counters_json_parse;
         Alcotest.test_case "json parse rejects garbage" `Quick
           counters_json_rejects_garbage ]);
      ("json",
       [ Alcotest.test_case "event round-trip" `Quick event_json_round_trip;
         Alcotest.test_case "jsonl stream" `Quick jsonl_stream;
         Alcotest.test_case "rejects garbage" `Quick reject_garbage;
         Alcotest.test_case "rejects non-JSON" `Quick reject_non_json;
         Alcotest.test_case "string escapes" `Quick escape_round_trip;
         Alcotest.test_case "event lines pinned" `Quick event_lines_pinned ]);
      ("dump",
       [ Alcotest.test_case "dump/restore round-trip" `Quick
           dump_restore_round_trip;
         Alcotest.test_case "dump is a copy" `Quick dump_is_a_copy ]) ]
