(* The campaign service (lib/service): worker-count identity of the
   canonical result set, steal/retry/timeout/containment semantics,
   deterministic snapshot-dedup accounting, spec-file round-trips with
   line-numbered rejection, and the SIGINT drain path. *)

let config ~workers ~max_retries ~job_timeout_ms =
  { Service.Pool.default_config with workers; max_retries; job_timeout_ms }

(* Serve [specs] through [Engine.serve], or straight through the pool
   when a fake [job] function stands in for [Job.run]. *)
let serve ?(workers = 4) ?(max_retries = 0) ?job_timeout_ms ?job specs =
  let buf = Buffer.create 4096 in
  let config = config ~workers ~max_retries ~job_timeout_ms in
  let emit = Buffer.add_string buf in
  let summary =
    match job with
    | None -> (Service.Engine.serve ~config ~emit specs).summary
    | Some job ->
      Service.Pool.run ~config ~store:(Service.Store.create ()) ~job ~emit specs
  in
  (summary, Buffer.contents buf)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let stream_lines text =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

(* --- deliberate failures --------------------------------------------------- *)

(* Production specs have no failing job kinds, so the failure paths run
   through fake job functions over [Job.run]. *)
type fault =
  | Pass  (** run the real job *)
  | Raise  (** every attempt raises *)
  | Fail_first of int  (** the first [n] attempts raise, then the real job *)
  | Nap of int
      (** sleep [ms] first, polling the deadline like a real job's
          segment boundaries, then the real job *)

let nap ctx ms =
  let until = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
  let rec go () =
    Service.Job.check ctx;
    let now = Unix.gettimeofday () in
    if now < until then begin
      Unix.sleepf (Float.min 0.002 (until -. now));
      go ()
    end
  in
  go ()

(* A fresh fake per serve run: attempts are counted per job id, and a
   job runs on one worker at a time, so the count is its attempt
   number at any worker count. *)
let faulty plan =
  let attempts = Hashtbl.create 16 and m = Mutex.create () in
  let attempt id =
    Mutex.protect m (fun () ->
        let k = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts id) in
        Hashtbl.replace attempts id k;
        k)
  in
  fun ctx (spec : Service.Spec.t) ->
    match plan spec with
    | Pass -> Service.Job.run ctx spec
    | Raise -> failwith (Printf.sprintf "boom %d" spec.id)
    | Fail_first n ->
      let k = attempt spec.id in
      if k <= n then
        failwith (Printf.sprintf "flaky: deliberate failure %d/%d" k n)
      else Service.Job.run ctx spec
    | Nap ms ->
      nap ctx ms;
      Service.Job.run ctx spec

(* --- worker-count identity over the seeded 200-job mix ------------------- *)

(* Deliberate failures woven into the load-test mix: ids congruent to
   7 mod 29 raise (7 jobs in 1..200), 14 mod 29 fail once then succeed
   (7 jobs), 21 mod 29 nap 2 ms.  With max_retries = 2 the raising jobs
   burn 2 retries each and the flaky jobs 1, so the retry counter
   itself is schedule-independent: 7*2 + 7*1 = 21. *)
let mix = lazy (Service.Engine.loadtest_mix ~seed:1 200)

let mix_faults (spec : Service.Spec.t) =
  match spec.id mod 29 with
  | 7 -> Raise
  | 14 -> Fail_first 1
  | 21 -> Nap 2
  | _ -> Pass

let workers_identity () =
  let runs =
    List.map
      (fun w ->
        ( w,
          serve ~workers:w ~max_retries:2 ~job:(faulty mix_faults)
            (Lazy.force mix) ))
      [ 1; 2; 4 ]
  in
  let digests =
    List.map (fun (w, (s, _)) -> (w, Service.Pool.canonical_digest s)) runs
  in
  (match digests with
   | (_, d1) :: rest ->
     List.iter
       (fun (w, d) ->
         Alcotest.(check string)
           (Printf.sprintf "canonical results at %d workers match 1 worker" w)
           d1 d)
       rest
   | [] -> assert false);
  List.iter
    (fun (w, ((s : Service.Pool.summary), text)) ->
      Alcotest.(check int)
        (Printf.sprintf "%d workers: every job served" w)
        200 (s.completed + s.failed);
      Alcotest.(check int)
        (Printf.sprintf "%d workers: raising jobs fail alone" w)
        7 s.failed;
      Alcotest.(check int)
        (Printf.sprintf "%d workers: deterministic retry count" w)
        21 s.retried;
      Alcotest.(check int)
        (Printf.sprintf "%d workers: nothing cancelled" w)
        0 s.cancelled;
      (* Heavy jobs sit at list indices 0 mod 4, i.e. all on worker 0's
         deque at 2 or 4 workers: the idle workers must steal. *)
      if w > 1 then
        Alcotest.(check bool)
          (Printf.sprintf "%d workers: at least one steal recorded" w)
          true (s.stolen >= 1);
      (* No torn stream lines: exactly one complete JSON object per
         served job. *)
      let lines = stream_lines text in
      Alcotest.(check int)
        (Printf.sprintf "%d workers: one stream line per served job" w)
        (s.completed + s.failed)
        (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "stream line is a complete object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines;
      (* Containment: a raising job carries its exception in the stream
         record; everything after it was still served (checked by the
         200-count above). *)
      Alcotest.(check bool)
        (Printf.sprintf "%d workers: raise message lands in the stream" w)
        true
        (List.exists
           (fun l ->
             contains ~needle:"boom" l
             && contains ~needle:"\"status\":\"failed\"" l)
           lines))
    runs

(* --- retry / timeout semantics ------------------------------------------- *)

let crc_bench id =
  { Service.Spec.id;
    kind = Service.Spec.Bench { program = "crc"; budget = 150_000; tier = 1 } }

let timeout_semantics () =
  let s, text =
    serve ~workers:1 ~max_retries:1 ~job_timeout_ms:25
      ~job:(faulty (fun _ -> Nap 500))
      [ crc_bench 1 ]
  in
  Alcotest.(check int) "job failed" 1 s.failed;
  Alcotest.(check int) "both attempts timed out" 2 s.timeouts;
  Alcotest.(check int) "one retry consumed" 1 s.retried;
  match s.results with
  | [ r ] ->
    Alcotest.(check bool) "final attempt marked timed out" true r.timed_out;
    Alcotest.(check int) "attempts recorded" 2 r.attempts;
    Alcotest.(check string) "deterministic error" "timeout after 25ms" r.error;
    Alcotest.(check bool) "timeout flag in canonical line" true
      (contains ~needle:"\"timeout\":1"
         (Service.Pool.canonical_line r));
    Alcotest.(check bool) "stream line carries the failure" true
      (contains ~needle:"timeout after 25ms" text)
  | _ -> Alcotest.fail "expected exactly one result"

let flaky_retry () =
  let specs = [ crc_bench 1 ] in
  let flaky () = faulty (fun _ -> Fail_first 2) in
  (* Not enough retries: the job fails with its last deliberate error. *)
  let s, _ = serve ~workers:1 ~max_retries:1 ~job:(flaky ()) specs in
  Alcotest.(check int) "fails when retries run out" 1 s.failed;
  (* One more attempt and it lands, with the payload a clean run gives. *)
  let s, _ = serve ~workers:1 ~max_retries:2 ~job:(flaky ()) specs in
  Alcotest.(check int) "succeeds with enough retries" 1 s.completed;
  let clean, _ = serve ~workers:1 specs in
  match (s.results, clean.results) with
  | [ r ], [ c ] ->
    Alcotest.(check int) "third attempt succeeded" 3 r.attempts;
    Alcotest.(check string) "retried payload equals a clean run's" c.payload
      r.payload
  | _ -> Alcotest.fail "expected exactly one result"

(* --- snapshot dedup accounting ------------------------------------------- *)

let dedup_accounting () =
  let bisect id =
    { Service.Spec.id;
      kind =
        Service.Spec.Bisect
          { programs = [ "crc" ]; warm = 20_000; budget = 40_000;
            granularity = 8192; poke = None } }
  in
  let specs = List.init 6 (fun i -> bisect (i + 1)) in
  (* Six jobs share one warm snapshot: whoever the schedule lets in
     first captures it, the other five are hits — exactly five, at any
     worker count, because the store linearizes each semantic key. *)
  List.iter
    (fun w ->
      let s, _ = serve ~workers:w specs in
      Alcotest.(check int)
        (Printf.sprintf "%d workers: all six bisects served" w)
        6 s.completed;
      Alcotest.(check int)
        (Printf.sprintf "%d workers: exactly five dedup hits" w)
        5 s.dedup_hits;
      Alcotest.(check int)
        (Printf.sprintf "%d workers: one stored blob" w)
        1 s.store_entries)
    [ 1; 4 ]

(* --- spec round-trip and rejection --------------------------------------- *)

let fleet id topology =
  { Service.Spec.id;
    kind =
      Service.Spec.Fleet
        { motes = 4; periods = 2; copies = 1; loss_permille = 0; topology } }

let spec_roundtrip () =
  let specs =
    Service.Engine.loadtest_mix ~seed:3 64
    @ [ fleet 65 (Workloads.Fleet.Grid 3);
        fleet 66 (Workloads.Fleet.Random_geometric { seed = 5; radius = 300 }) ]
  in
  let text =
    String.concat "\n" (List.map Service.Spec.to_json specs) ^ "\n"
  in
  match Service.Spec.parse_lines text with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e)
  | Ok parsed ->
    Alcotest.(check (list string))
      "printed specs parse back byte-identically"
      (List.map Service.Spec.to_json specs)
      (List.map Service.Spec.to_json parsed);
  (* The topology wire strings are the fleet CLI's. *)
  List.iter
    (fun (topology, wire) ->
      let json = Service.Spec.to_json (fleet 1 topology) in
      Alcotest.(check bool)
        (Printf.sprintf "%s carries topology %S" json wire)
        true
        (contains ~needle:(Printf.sprintf "\"topology\":\"%s\"" wire) json))
    [ (Workloads.Fleet.Line, "line"); (Grid 3, "grid:3");
      (Random_geometric { seed = 5; radius = 300 }, "rgg:5:300") ]

let spec_rejection () =
  let reject name text needle =
    match Service.Spec.parse_lines text with
    | Ok _ -> Alcotest.fail (name ^ ": bogus spec accepted")
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error %S mentions %S" name e needle)
        true
        (contains ~needle:needle e)
  in
  reject "non-JSON line" "nonsense\n" "line 1";
  reject "second line bad"
    "{\"job\":\"bench\",\"program\":\"crc\"}\nnonsense\n" "line 2";
  reject "unknown job kind" "{\"job\":\"mine\"}\n" "unknown job kind";
  (* The test-only failure kinds are not production job kinds. *)
  reject "no raise kind" "{\"job\":\"raise\"}\n" "unknown job kind";
  reject "no flaky kind" "{\"job\":\"flaky\"}\n" "unknown job kind";
  reject "no sleep kind" "{\"job\":\"sleep\",\"ms\":1}\n" "unknown job kind";
  reject "unknown program"
    "{\"job\":\"bench\",\"program\":\"nope\"}\n" "unknown program";
  reject "unknown field"
    "{\"job\":\"bench\",\"program\":\"crc\",\"bogus\":7}\n" "unknown field";
  reject "range check"
    "{\"job\":\"bisect\",\"programs\":\"crc\",\"warm\":500000,\"budget\":100000}\n"
    "warm";
  reject "poke outside window"
    "{\"job\":\"bisect\",\"programs\":\"crc\",\"warm\":50000,\"budget\":100000,\"poke\":10}\n"
    "poke";
  (* Comments and blank lines are skipped but still count for line
     numbering and default ids. *)
  match
    Service.Spec.parse_lines "# header\n\n{\"job\":\"bench\",\"program\":\"crc\"}\n"
  with
  | Ok
      [ { Service.Spec.id = 3;
          kind = Service.Spec.Bench { program = "crc"; budget = 500_000; tier = 1 } } ]
    -> ()
  | Ok _ -> Alcotest.fail "comment/blank handling changed the parse"
  | Error e -> Alcotest.fail ("commented spec rejected: " ^ e)

(* Results are sorted and hashed by id, so a repeated id would make the
   digest depend on the worker count: the parser refuses it, whether
   the id is explicit or defaulted from the line number. *)
let spec_duplicate_ids () =
  let expect name text err =
    match Service.Spec.parse_lines text with
    | Ok _ -> Alcotest.fail (name ^ ": duplicate id accepted")
    | Error e -> Alcotest.(check string) name err e
  in
  expect "explicit ids"
    "{\"id\":1,\"job\":\"bench\",\"program\":\"crc\"}\n\
     {\"id\":1,\"job\":\"bench\",\"program\":\"lfsr\"}\n"
    "line 2: duplicate job id 1 (first on line 1)";
  expect "explicit id hits a line-number default"
    "{\"job\":\"bench\",\"program\":\"crc\"}\n\
     # comment\n\
     {\"id\":1,\"job\":\"bench\",\"program\":\"lfsr\"}\n"
    "line 3: duplicate job id 1 (first on line 1)"

(* --- SIGINT drain ---------------------------------------------------------- *)

let sigint_drain () =
  (* Park a benign handler so a stray signal outside serve's window can
     never kill the test binary, then fire one SIGINT mid-run from a
     helper domain.  serve installs its drain handler synchronously
     before any job starts, well inside the helper's 50ms fuse. *)
  let previous = Sys.signal Sys.sigint Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
  @@ fun () ->
  (* feeder never exits, so each bench job runs its whole budget
     (a few ms of host time). *)
  let specs =
    List.init 60 (fun i ->
        { Service.Spec.id = i + 1;
          kind =
            Service.Spec.Bench { program = "feeder"; budget = 6_000_000; tier = 1 } })
  in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Unix.kill (Unix.getpid ()) Sys.sigint)
  in
  let buf = Buffer.create 4096 in
  let o =
    Service.Engine.serve
      ~config:(config ~workers:2 ~max_retries:0 ~job_timeout_ms:None)
      ~sigint:true ~emit:(Buffer.add_string buf) specs
  in
  let text = Buffer.contents buf in
  Domain.join killer;
  let s = o.summary in
  Alcotest.(check bool) "interrupt observed" true o.interrupted;
  Alcotest.(check bool) "some jobs were drained away" true (s.cancelled > 0);
  Alcotest.(check bool) "running jobs finished first" true (s.completed > 0);
  Alcotest.(check int) "served + cancelled covers the queue" s.queued
    (s.completed + s.failed + s.cancelled);
  Alcotest.(check int) "nothing failed on the way down" 0 s.failed;
  (* The flush contract: every emitted line is complete. *)
  let lines = stream_lines text in
  Alcotest.(check int) "one complete line per served job"
    (s.completed + s.failed) (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "no torn lines" true
        (l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let () =
  Alcotest.run "service"
    [ ("identity",
       [ Alcotest.test_case "1/2/4 workers byte-identical" `Quick
           workers_identity ]);
      ("semantics",
       [ Alcotest.test_case "timeout" `Quick timeout_semantics;
         Alcotest.test_case "flaky retry" `Quick flaky_retry;
         Alcotest.test_case "dedup accounting" `Quick dedup_accounting;
         Alcotest.test_case "sigint drain" `Quick sigint_drain ]);
      ("spec",
       [ Alcotest.test_case "round-trip" `Quick spec_roundtrip;
         Alcotest.test_case "rejection" `Quick spec_rejection;
         Alcotest.test_case "duplicate ids" `Quick spec_duplicate_ids ]) ]
