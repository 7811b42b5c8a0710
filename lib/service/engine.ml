(* The serve entry point behind [sensmart_cli serve]: spec intake,
   SIGINT-drained execution, the seeded load-test mix, and counter
   publication.

   The load-test mix is the serving-system benchmark: thousands of
   small jobs — mostly fault campaigns, plus benches, bisect families
   (snapshot-dedup pressure), fleets and the occasional attack row —
   drawn deterministically from a seed, so the same mix replays on any
   worker count and the aggregated canonical results must match byte
   for byte.  Heavy jobs land on indices congruent to 0 mod 4: under
   round-robin distribution they pile onto worker 0's deque at any
   even worker count, which is exactly what forces the other workers
   to steal (the [service.stolen] >= 1 acceptance check). *)

(* splitmix-style mixer, the same shape lib/fault uses: spreads a
   user seed over the mix without any global Random state. *)
let mix seed i =
  let z = (seed + (i * 0x9E3779B9)) land max_int in
  let z = (z lxor (z lsr 16)) * 0x45D9F3B land max_int in
  (z lxor (z lsr 13)) land 0x3FFFFFFF

let light_programs = [ [ "crc" ]; [ "lfsr" ]; [ "amplitude" ]; [ "timer" ] ]

(** The seeded [n]-job load-test mix.  A pure function of [seed] and
    [n] — job [i] is always job [i], whatever serves it. *)
let loadtest_mix ?(seed = 1) n : Spec.t list =
  List.init n (fun i ->
      let r = mix seed i in
      let kind =
        if i mod 32 = 16 then
          (* one attack row per 32 jobs: the heaviest request class *)
          Spec.Attack { system = "tkernel"; trials = 1; seed = 1 + (r land 0xFF) }
        else if i mod 4 = 0 then
          (* heavy slots: all on worker 0's deque at 2/4 workers *)
          match i / 4 mod 3 with
          | 0 ->
            Spec.Campaign
              { programs = [ "feeder"; "search" ]; trials = 2; faults = 3;
                budget = 300_000; seed = r; disruptive = false }
          | 1 ->
            Spec.Fleet
              { motes = 5; periods = 2; copies = 1; loss_permille = 100;
                topology = Workloads.Fleet.Line }
          | _ ->
            (* two bisect families only: every job past the first two is
               a warm-snapshot dedup hit *)
            Spec.Bisect
              { programs = [ "feeder"; "search" ];
                warm = (if i / 12 mod 2 = 0 then 80_000 else 120_000);
                budget = 200_000; granularity = 16_384; poke = None }
        else
          match i mod 4 with
          | 1 ->
            Spec.Campaign
              { programs = List.nth light_programs (r mod 4); trials = 1;
                faults = 2; budget = 80_000; seed = r; disruptive = false }
          | 2 ->
            Spec.Bench
              { program = List.nth [ "lfsr"; "crc"; "eventchain" ] (r mod 3);
                budget = 150_000; tier = 1 }
          | _ ->
            Spec.Campaign
              { programs = [ "readadc" ]; trials = 1; faults = 2;
                budget = 60_000; seed = r; disruptive = true }
      in
      { Spec.id = i + 1; kind })

type outcome = {
  summary : Pool.summary;
  digest : string;  (** MD5 of the sorted canonical result lines *)
  interrupted : bool;
}

(** Serve [specs]: run the pool with [config], publish [service.*]
    counters into [trace], and return the outcome.  [sigint:true]
    installs a drain-on-SIGINT handler for the duration: the first ^C
    stops dispensing queued jobs, running jobs finish and flush, and
    the previous handler is restored on the way out. *)
let serve ?(config = Pool.default_config) ?(sigint = false) ?(trace = Trace.create ())
    ~emit (specs : Spec.t list) : outcome =
  Printexc.record_backtrace true;
  let interrupted = Atomic.make false in
  let previous =
    if sigint then
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle (fun _ -> Atomic.set interrupted true)))
    else None
  in
  let stop () = config.Pool.stop () || Atomic.get interrupted in
  let summary =
    Fun.protect
      ~finally:(fun () ->
        match previous with
        | Some h -> Sys.set_signal Sys.sigint h
        | None -> ())
      (fun () ->
        let store = Store.create () in
        Pool.run ~config:{ config with Pool.stop } ~store ~job:Job.run ~emit specs)
  in
  Pool.publish trace summary;
  { summary;
    digest = Pool.canonical_digest summary;
    interrupted = Atomic.get interrupted }

(** One human summary line (stderr material). *)
let pp_summary ppf (o : outcome) =
  let s = o.summary in
  Fmt.pf ppf
    "served %d/%d jobs in %.2fs (%.1f jobs/s): %d done, %d failed, %d cancelled; %d stolen, %d retried, %d timeouts, %d dedup hits; digest %s%s"
    (s.completed + s.failed)
    s.queued s.wall_s s.jobs_per_sec s.completed s.failed s.cancelled s.stolen
    s.retried s.timeouts s.dedup_hits
    (String.sub o.digest 0 12)
    (if o.interrupted then " (interrupted, drained)" else "")
