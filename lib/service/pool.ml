(* The work-stealing scheduler: one deque per worker over the Domain
   pool, bounded retry, cooperative per-job timeout, and streaming
   JSONL emission.

   Determinism contract: a job's canonical record is a pure function of
   its spec (see [Job]), jobs are independent, and the aggregated
   result set is read back sorted by job id — so the canonical output
   is byte-identical at any worker count and under any steal order.
   Scheduling facts (worker id, steal bit, wall time, backtraces) ride
   only the stream records and the [service.*] scheduling counters.

   Containment: a job that raises (or overruns its timeout budget and
   retries) fails alone — the worker catches everything per attempt,
   records the exception and backtrace in the job's stream line, and
   moves on to the next job.  The pool itself never dies with a job. *)

type status = Done | Failed

type result = {
  id : int;
  job : string;  (** spec kind name *)
  status : status;
  attempts : int;  (** attempts consumed (1 = first try succeeded) *)
  payload : string;  (** canonical JSON payload when [Done], else "" *)
  error : string;  (** deterministic failure message when [Failed] *)
  timed_out : bool;  (** the final attempt died on the deadline *)
  (* scheduling metadata: stream-only, never canonical *)
  worker : int;
  stolen : bool;
  wall_us : int;
  backtrace : string;
}

(** The deterministic half of a result — what the 1/2/4-worker identity
    tests hash.  Excludes worker, steal bit, wall time, backtrace. *)
let canonical_line (r : result) =
  match r.status with
  | Done ->
    Printf.sprintf "{\"id\":%d,\"job\":\"%s\",\"status\":\"done\",\"attempts\":%d,\"result\":%s}"
      r.id r.job r.attempts r.payload
  | Failed ->
    Printf.sprintf
      "{\"id\":%d,\"job\":\"%s\",\"status\":\"failed\",\"attempts\":%d,\"timeout\":%d,\"error\":\"%s\"}"
      r.id r.job r.attempts
      (if r.timed_out then 1 else 0)
      (Trace.escape_string r.error)

(** The full stream record: canonical fields plus scheduling metadata
    (and the backtrace of a failed job). *)
let stream_line (r : result) =
  let base = canonical_line r in
  let base = String.sub base 0 (String.length base - 1) in
  Printf.sprintf "%s,\"worker\":%d,\"stolen\":%d,\"wall_us\":%d%s}" base r.worker
    (if r.stolen then 1 else 0)
    r.wall_us
    (if r.status = Failed && r.backtrace <> "" then
       Printf.sprintf ",\"backtrace\":\"%s\"" (Trace.escape_string r.backtrace)
     else "")

type config = {
  workers : int;  (** domains serving jobs (>= 1; 1 disables stealing) *)
  max_retries : int;  (** extra attempts after the first failure *)
  job_timeout_ms : int option;  (** per-attempt cooperative deadline *)
  stall_us : int;  (** post-job sleep, microseconds (0 = none) *)
  progress : bool;  (** stream {!Trace.Job} lifecycle events too *)
  stop : unit -> bool;
      (** polled between jobs: [true] drains the pool (SIGINT) *)
}

let default_config =
  { workers = Domain.recommended_domain_count ();
    max_retries = 0;
    job_timeout_ms = None;
    stall_us = 0;
    progress = false;
    stop = (fun () -> false) }

type summary = {
  results : result list;  (** sorted by job id *)
  queued : int;
  completed : int;
  failed : int;
  cancelled : int;  (** queued jobs never started (drained shutdown) *)
  stolen : int;
  retried : int;
  timeouts : int;
  dedup_hits : int;
  store_entries : int;
  wall_s : float;
  jobs_per_sec : float;
}

(** MD5 over the sorted canonical lines: the aggregate identity the
    acceptance tests compare across worker counts. *)
let canonical_digest (s : summary) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map canonical_line s.results)))

(** Publish the [service.*] counter family into a sink.  The full key
    set is always present (zeros included), so the golden metrics
    snapshot pins it whatever the run did. *)
let publish trace (s : summary) =
  Trace.set_counter trace "service.queued" s.queued;
  Trace.set_counter trace "service.running" 0;
  Trace.set_counter trace "service.done" s.completed;
  Trace.set_counter trace "service.failed" s.failed;
  Trace.set_counter trace "service.cancelled" s.cancelled;
  Trace.set_counter trace "service.stolen" s.stolen;
  Trace.set_counter trace "service.retried" s.retried;
  Trace.set_counter trace "service.timeouts" s.timeouts;
  Trace.set_counter trace "service.dedup_hits" s.dedup_hits

(* One claimed unit of work. *)
type ticket = { spec : Spec.t; was_stolen : bool }

(** Serve [specs], running each attempt with [job] ({!Job.run} in
    production; tests pass fakes over it to drive the failure paths). *)
let run ?(config = default_config) ~store ~job ~emit (specs : Spec.t list) :
    summary =
  let cfg = config in
  let n = max 1 cfg.workers in
  let specs_arr = Array.of_list specs in
  let queued = Array.length specs_arr in
  (* Round-robin distribution: job i starts on worker (i mod n).  The
     mapping is a function of the spec list and worker count only, so
     runs are reproducible up to steal order. *)
  let deques =
    Array.init n (fun w ->
        Deque.of_array
          (Array.of_list
             (List.filteri (fun i _ -> i mod n = w) (Array.to_list specs_arr))))
  in
  let emit_mutex = Mutex.create () in
  let emit_line line =
    Mutex.lock emit_mutex;
    emit (line ^ "\n");
    Mutex.unlock emit_mutex
  in
  let stolen = Atomic.make 0 in
  let retried = Atomic.make 0 in
  let timeouts = Atomic.make 0 in
  let images = Hashtbl.create 32 in
  let templates = Hashtbl.create 32 in
  let images_mutex = Mutex.create () in
  (* Prefill the image cache on the coordinator: every program any spec
     names is assembled exactly once, before the domains spawn. *)
  Array.iter
    (fun (s : Spec.t) ->
      let programs =
        match s.kind with
        | Spec.Campaign { programs; _ } | Spec.Bisect { programs; _ } -> programs
        | Spec.Bench { program; _ } -> [ program ]
        | Spec.Attack _ | Spec.Fleet _ -> []
      in
      List.iter
        (fun p ->
          if not (Hashtbl.mem images p) then
            match Workloads.Registry.find_image p with
            | Some img -> Hashtbl.replace images p img
            | None -> ())
        programs)
    specs_arr;
  let progress_event ~worker ~id ~attempt ~phase ~detail =
    if cfg.progress then
      emit_line
        (Trace.json_of_event
           { Trace.mote = worker; at = attempt;
             kind = Trace.Job { id; phase; detail } })
  in
  let results = Array.make n [] in
  let next_ticket w =
    match Deque.pop_front deques.(w) with
    | Some spec -> Some { spec; was_stolen = false }
    | None ->
      (* Own slice empty: scan the other deques (nearest first) and
         steal from the back. *)
      let rec scan k =
        if k >= n then None
        else
          let v = (w + k) mod n in
          match Deque.steal_back deques.(v) with
          | Some spec ->
            Atomic.incr stolen;
            Some { spec; was_stolen = true }
          | None -> scan (k + 1)
      in
      scan 1
  in
  let run_job w (t : ticket) =
    let spec = t.spec in
    let id = spec.Spec.id in
    let kind = Spec.kind_name spec.Spec.kind in
    let t0 = Unix.gettimeofday () in
    let attempts_allowed = 1 + max 0 cfg.max_retries in
    if t.was_stolen then
      progress_event ~worker:w ~id ~attempt:0 ~phase:"stolen" ~detail:kind;
    progress_event ~worker:w ~id ~attempt:1 ~phase:"start" ~detail:kind;
    let rec attempt k =
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
          cfg.job_timeout_ms
      in
      let ctx =
        { Job.deadline; store; images; templates; images_mutex;
          progress =
            (fun ~phase ~detail ->
              progress_event ~worker:w ~id ~attempt:k ~phase ~detail) }
      in
      match job ctx spec with
      | payload ->
        { id; job = kind; status = Done; attempts = k; payload; error = "";
          timed_out = false; worker = w; stolen = t.was_stolen;
          wall_us = 0; backtrace = "" }
      | exception e ->
        let timed_out = e = Job.Timeout in
        let backtrace = Printexc.get_backtrace () in
        if timed_out then Atomic.incr timeouts;
        if k < attempts_allowed then begin
          Atomic.incr retried;
          progress_event ~worker:w ~id ~attempt:(k + 1) ~phase:"retry"
            ~detail:(if timed_out then "timeout" else Printexc.to_string e);
          attempt (k + 1)
        end
        else
          let error =
            if timed_out then
              Printf.sprintf "timeout after %dms"
                (Option.value ~default:0 cfg.job_timeout_ms)
            else Printexc.to_string e
          in
          { id; job = kind; status = Failed; attempts = k; payload = ""; error;
            timed_out; worker = w; stolen = t.was_stolen; wall_us = 0;
            backtrace }
    in
    let r = attempt 1 in
    let r = { r with wall_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) } in
    progress_event ~worker:w ~id ~attempt:r.attempts
      ~phase:(match r.status with Done -> "done" | Failed -> "failed")
      ~detail:(match r.status with Done -> kind | Failed -> r.error);
    emit_line (stream_line r);
    results.(w) <- r :: results.(w);
    if cfg.stall_us > 0 then Unix.sleepf (float_of_int cfg.stall_us /. 1e6)
  in
  let worker w =
    let rec loop () =
      if cfg.stop () then ()
      else
        match next_ticket w with
        | None -> ()
        | Some t ->
          run_job w t;
          loop ()
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  let domains =
    Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join domains;
  let wall_s = Unix.gettimeofday () -. t0 in
  (* Anything still queued was cancelled by a drain. *)
  let cancelled =
    Array.fold_left (fun acc d -> acc + List.length (Deque.drain d)) 0 deques
  in
  let all =
    List.sort
      (fun (a : result) b -> compare a.id b.id)
      (Array.fold_left (fun acc l -> List.rev_append l acc) [] results)
  in
  let completed = List.length (List.filter (fun r -> r.status = Done) all) in
  let failed = List.length (List.filter (fun r -> r.status = Failed) all) in
  let served = completed + failed in
  { results = all;
    queued;
    completed;
    failed;
    cancelled;
    stolen = Atomic.get stolen;
    retried = Atomic.get retried;
    timeouts = Atomic.get timeouts;
    dedup_hits = Store.hits store;
    store_entries = Store.entries store;
    wall_s;
    jobs_per_sec = (if wall_s > 0. then float_of_int served /. wall_s else 0.) }
