(* Execute one job spec to its canonical result payload.

   The contract the scheduler leans on: a payload is a pure function of
   the spec — no wall clock, no worker identity, no steal order leaks
   into it.  Everything scheduling-dependent (worker id, wall time,
   backtraces) is added by the pool to the *stream* record only, never
   to the canonical line.

   Timeouts are cooperative: jobs poll {!check} at their natural
   segment boundaries (between campaign trials, between bench slices),
   so a deadline can only be overrun by one segment.  {!Timeout}
   propagates to the pool, which classifies it separately from job
   exceptions. *)

exception Timeout

type ctx = {
  deadline : float option;  (** absolute [Unix.gettimeofday] horizon *)
  store : Store.t;  (** shared content-addressed snapshot store *)
  images : (string, Asm.Image.t) Hashtbl.t;
  templates : (string list, Kernel.template) Hashtbl.t;
  images_mutex : Mutex.t;
      (** assembled-image cache: prefilled on the coordinator, so
          workers mostly read; and the prepared boot templates, one per
          program list, built on first use.  Both live for one serve
          run.  The mutex covers both tables' cold lookups. *)
  progress : phase:string -> detail:string -> unit;
      (** streams a {!Trace.Job} progress event for this job *)
}

let check ctx =
  match ctx.deadline with
  | Some d when Unix.gettimeofday () > d -> raise Timeout
  | _ -> ()

(* The entry of [key] in [tbl], one of [ctx]'s tables.  A miss runs
   [make] outside [images_mutex] (assembly and naturalization take long;
   label supply is atomic) and publishes whoever finishes first. *)
let cached ctx tbl key make =
  match Mutex.protect ctx.images_mutex (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None ->
    let v = make () in
    Mutex.protect ctx.images_mutex (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some first -> first
        | None ->
          Hashtbl.replace tbl key v;
          v)

(** Resolve a registered program through the shared cache. *)
let image ctx name =
  cached ctx ctx.images name (fun () ->
      match Workloads.Registry.find_image name with
      | Some img -> img
      | None -> failwith (Printf.sprintf "unknown program %S" name))

(** The prepared boot template of [programs] (default kernel config),
    through the shared cache: the programs are naturalized once per
    serve run, and every campaign trial and bisect subject over them
    boots from the one template, so they share its flash image and the
    tier-1 blocks compiled on it (DESIGN.md, "Shared copy-on-write
    flash"). *)
let template ctx programs =
  cached ctx ctx.templates programs (fun () ->
      Kernel.prepare (List.map (image ctx) programs))

(* --- per-kind execution -------------------------------------------------- *)

let run_campaign ctx ~programs ~trials ~faults ~budget ~seed ~disruptive =
  let tpl = template ctx programs in
  let report =
    Fault.Campaign.run ~trials ~faults ~max_cycles:budget ~disruptive ~seed
      ~on_trial:(fun (t : Fault.Campaign.trial) ->
        ctx.progress ~phase:"trial"
          ~detail:
            (Printf.sprintf "%d/%d %s" (t.index + 1) trials
               (if t.contained then "contained" else "escaped"));
        check ctx)
      tpl
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 report.trials in
  Printf.sprintf
    "{\"trials\":%d,\"injected\":%d,\"contained\":%d,\"clean_exits\":%d,\"faulted\":%d,\"cycles\":%d}"
    trials
    (sum (fun (t : Fault.Campaign.trial) -> t.injected))
    (List.length (List.filter (fun (t : Fault.Campaign.trial) -> t.contained) report.trials))
    (sum (fun (t : Fault.Campaign.trial) -> t.clean_exits))
    (sum (fun (t : Fault.Campaign.trial) -> t.faulted))
    (sum (fun (t : Fault.Campaign.trial) -> t.cycles))

(* The shared warm state of a bisect family: boot the programs, run to
   the [warm] cycle, capture.  Jobs over the same programs and warm
   point share one blob through the store — the first one pays the
   capture, the rest are dedup hits. *)
let warm_snapshot ctx ~programs ~warm =
  let key = Printf.sprintf "warm|%s|%d" (String.concat "," programs) warm in
  Store.get_or_capture ctx.store ~key (fun () ->
      let k = Kernel.boot_from (template ctx programs) in
      ignore (Kernel.run ~max_cycles:warm k);
      Snapshot.to_string (Snapshot.of_kernel ~programs k))

let run_bisect ctx ~programs ~warm ~budget ~granularity ~poke =
  check ctx;
  let blob, digest = warm_snapshot ctx ~programs ~warm in
  ctx.progress ~phase:"warm" ~detail:(String.sub digest 0 12);
  check ctx;
  let snap =
    match Snapshot.of_string blob with
    | Ok s -> s
    | Error e -> failwith (Printf.sprintf "stored warm snapshot corrupt: %s" e)
  in
  let tpl = template ctx programs in
  let boot () =
    let k = Kernel.boot_from tpl in
    Snapshot.restore_kernel snap k;
    k
  in
  let poke =
    Option.map (fun at -> { Snapshot.Bisect.poke_at = at; poke_value = 0xA5 }) poke
  in
  let tier1 = Snapshot.Bisect.kernel_subject ?poke boot in
  let tier0 = Snapshot.Bisect.kernel_subject ~tier:0 boot in
  let verdict = Snapshot.Bisect.hunt ~granularity ~max_cycles:budget tier1 tier0 in
  check ctx;
  match verdict with
  | Snapshot.Bisect.Identical { ran_to; probes } ->
    Printf.sprintf
      "{\"verdict\":\"identical\",\"ran_to\":%d,\"probes\":%d,\"warm\":\"%s\"}"
      ran_to probes digest
  | Snapshot.Bisect.Diverged { lo; hi; probes; _ } ->
    Printf.sprintf
      "{\"verdict\":\"diverged\",\"lo\":%d,\"hi\":%d,\"probes\":%d,\"warm\":\"%s\"}"
      lo hi probes digest

let run_bench ctx ~program ~budget ~tier =
  let img = image ctx program in
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m img.words;
  List.iter (fun (a, b) -> Machine.Cpu.write8 m a b) img.data_init;
  m.pc <- img.entry;
  m.tier <- tier;
  (* Deadline-sliced bare-metal run: [run_native]'s budget is an
     absolute cycle target, so repeated calls compose exactly. *)
  let slice = 2_000_000 in
  let rec go () =
    check ctx;
    let target = min budget (m.cycles + slice) in
    match Machine.Cpu.run_native ~max_cycles:target m with
    | Some h -> Some h
    | None -> if m.cycles >= budget then None else go ()
  in
  let halt = go () in
  Printf.sprintf "{\"cycles\":%d,\"insns\":%d,\"halt\":\"%s\"}" m.cycles m.insns
    (match halt with
     | Some h -> Fmt.str "%a" Machine.Cpu.pp_halt h
     | None -> "out of fuel")

let run_attack ctx ~system ~trials ~seed =
  check ctx;
  let m = Attack.campaign ~trials ~seed ~systems:[ system ] () in
  check ctx;
  let cell cls =
    match Attack.cell m system cls with
    | Some v -> Attack.verdict_name v
    | None -> "untested"
  in
  Printf.sprintf
    "{\"flood\":\"%s\",\"clobber\":\"%s\",\"chain\":\"%s\",\"contained_classes\":%d}"
    (cell Attack.Flood) (cell Attack.Clobber) (cell Attack.Chain)
    (List.length (Attack.contained_classes m system))

let run_fleet ctx ~motes ~periods ~copies ~loss_permille ~topology =
  check ctx;
  let net =
    Workloads.Fleet.create ~loss_permille ~periods ~copies ~topology motes
  in
  ctx.progress ~phase:"booted" ~detail:(Printf.sprintf "%d motes" motes);
  check ctx;
  let live = Net.run ~max_cycles:(Workloads.Fleet.horizon ~periods) net in
  check ctx;
  let s = Workloads.Fleet.stats ~live net in
  Printf.sprintf
    "{\"motes\":%d,\"live\":%d,\"sent\":%d,\"retrans\":%d,\"overflow\":%d,\"heard\":%d,\"routed\":%d,\"dropped\":%d}"
    s.motes s.live s.sent s.retrans s.overflow s.heard s.routed s.dropped

(** Run [spec] to its canonical payload.  Raises {!Timeout} past the
    deadline and arbitrary exceptions for failing jobs — the pool owns
    retry/containment policy. *)
let run ctx (spec : Spec.t) : string =
  check ctx;
  match spec.kind with
  | Spec.Campaign { programs; trials; faults; budget; seed; disruptive } ->
    run_campaign ctx ~programs ~trials ~faults ~budget ~seed ~disruptive
  | Spec.Bisect { programs; warm; budget; granularity; poke } ->
    run_bisect ctx ~programs ~warm ~budget ~granularity ~poke
  | Spec.Bench { program; budget; tier } -> run_bench ctx ~program ~budget ~tier
  | Spec.Attack { system; trials; seed } -> run_attack ctx ~system ~trials ~seed
  | Spec.Fleet { motes; periods; copies; loss_permille; topology } ->
    run_fleet ctx ~motes ~periods ~copies ~loss_permille ~topology
