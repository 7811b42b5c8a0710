(* Multi-mote network tests: multi-hop byte collection over a chain of
   SenSmart motes running minic programs, with and without loss. *)

let compile ~name src = Minic.Codegen.compile_source ~name src

let leaf ~packets = compile ~name:"leaf" (Printf.sprintf {|
  var sent;
  fun main() {
    sent = 0;
    while (sent < %d) {
      radio_send(0x55);
      radio_send(sent);
      radio_send(sent * 3);
      sent = sent + 1;
    }
    halt;
  }
|} packets)

let relay ~bytes = compile ~name:"relay" (Printf.sprintf {|
  var fwd;
  fun main() {
    fwd = 0;
    while (fwd < %d) {
      if (radio_avail()) {
        radio_send(radio_recv());
        fwd = fwd + 1;
      }
    }
    halt;
  }
|} bytes)

let sink ~bytes = compile ~name:"sink" (Printf.sprintf {|
  var got;
  var sum;
  fun main() {
    got = 0;
    sum = 0;
    while (got < %d) {
      if (radio_avail()) {
        sum = sum + radio_recv();
        got = got + 1;
      }
    }
    halt;
  }
|} bytes)

let three_hop_collection () =
  let packets = 10 in
  let bytes = 3 * packets in
  let net =
    Net.create
      [ [ sink ~bytes ]; [ relay ~bytes ]; [ leaf ~packets ] ]
  in
  Net.chain net;
  let still_running = Net.run ~max_cycles:20_000_000 net in
  Alcotest.(check int) "all motes finished" 0 still_running;
  let sk = (Net.node net 0).kernel in
  Alcotest.(check int) "sink got every byte" bytes (Kernel.read_var sk 0 "got");
  (* sum of 0x55 + i + 3i for i in 0..9 *)
  let expected = (packets * 0x55) + (4 * (packets * (packets - 1) / 2)) in
  Alcotest.(check int) "payload intact across two hops" expected
    (Kernel.read_var sk 0 "sum")

let lossy_link_drops_bytes () =
  let packets = 10 in
  let bytes = 3 * packets in
  let net =
    Net.create ~loss_permille:300
      [ [ sink ~bytes ]; [ leaf ~packets ] ]
  in
  Net.chain net;
  (* The sink will not see all bytes; it must still be running. *)
  let still = Net.run ~max_cycles:3_000_000 net in
  Alcotest.(check bool) "sink still waiting" true (still >= 1);
  Alcotest.(check bool) "some bytes dropped" true (net.dropped > 0);
  Alcotest.(check bool) "some bytes delivered" true (net.routed > 0)

let broadcast_reaches_all_neighbours () =
  let bytes = 3 in
  let listener = sink ~bytes in
  let net =
    Net.create [ [ leaf ~packets:1 ]; [ listener ]; [ listener ] ]
  in
  Net.link net 0 1;
  Net.link net 0 2;
  let still = Net.run ~max_cycles:10_000_000 net in
  Alcotest.(check int) "everyone finished" 0 still;
  Alcotest.(check int) "listener 1 heard" bytes
    (Kernel.read_var (Net.node net 1).kernel 0 "got");
  Alcotest.(check int) "listener 2 heard" bytes
    (Kernel.read_var (Net.node net 2).kernel 0 "got")

let multitasking_mote_in_a_network () =
  (* A mote can run the relay *and* an unrelated compute task; SenSmart
     keeps both making progress. *)
  let packets = 6 in
  let bytes = 3 * packets in
  let compute = Asm.Assembler.assemble (Programs.Lfsr_bench.program ()) in
  let net =
    Net.create
      [ [ sink ~bytes ]; [ relay ~bytes; compute ]; [ leaf ~packets ] ]
  in
  Net.chain net;
  let still = Net.run ~max_cycles:30_000_000 net in
  Alcotest.(check int) "all finished" 0 still;
  let mid = (Net.node net 1).kernel in
  Alcotest.(check int) "lfsr alongside relaying"
    (Programs.Lfsr_bench.expected ())
    (Kernel.read_var mid 1 "bench_result");
  Alcotest.(check int) "sink complete" bytes
    (Kernel.read_var (Net.node net 0).kernel 0 "got")

(* Regression: exchange must drain the TX FIFO, not rescan an
   ever-growing transmit history (the old list made exchange O(total²)
   and re-delivered nothing only thanks to a consumed-counter).  After
   any run, every mote's queue is empty and the monotone byte counter
   still reflects the full history. *)
let exchange_drains_tx_queue () =
  let packets = 10 in
  let bytes = 3 * packets in
  let net = Net.create [ [ sink ~bytes ]; [ leaf ~packets ] ] in
  Net.chain net;
  let still = Net.run ~max_cycles:20_000_000 net in
  Alcotest.(check int) "finished" 0 still;
  Array.iter
    (fun (n : Net.node) ->
      Alcotest.(check bool)
        (Printf.sprintf "mote %d tx queue drained" n.id)
        true
        (Queue.is_empty n.kernel.m.io.radio_tx))
    net.nodes;
  let src = (Net.node net 1).kernel.m.io in
  Alcotest.(check int) "tx_count stays monotone" bytes src.radio_tx_count;
  Alcotest.(check int) "every byte delivered once" bytes net.routed

(* Routing events and counters land in the shared trace sink. *)
let trace_records_routing () =
  let packets = 3 in
  let bytes = 3 * packets in
  let tr = Trace.create () in
  let net = Net.create ~trace:tr [ [ sink ~bytes ]; [ leaf ~packets ] ] in
  Net.chain net;
  ignore (Net.run ~max_cycles:20_000_000 net);
  Net.publish_counters net;
  Alcotest.(check int) "net.routed counter" net.routed
    (Trace.counter tr "net.routed");
  let routed_events =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           match e.kind with Trace.Routed _ -> true | _ -> false)
         (Trace.events tr))
  in
  Alcotest.(check int) "one Routed event per byte" net.routed routed_events;
  let names = List.map fst (Trace.counters tr) in
  Alcotest.(check bool) "per-mote kernel counters published" true
    (List.mem "mote0.kernel.traps" names
     && List.mem "mote1.kernel.traps" names);
  Alcotest.(check bool) "per-mote cycles accounted" true
    (Trace.counter tr "mote0.cpu.cycles" > 0
     && Trace.counter tr "mote1.cpu.cycles" > 0)

(* Domain-parallel stepping must be invisible: the same 8-mote lossy
   network run on 1, 2, 3, 4, and 8 domains produces byte-identical
   counters, event streams, loss-LFSR state, and per-mote machine
   state.  The network is deliberately still running when the cycle
   budget expires, so mid-flight queues and preemption state are part
   of what must match. *)
let domain_determinism () =
  let packets = 6 in
  let bytes = 3 * packets in
  let compute = Asm.Assembler.assemble (Programs.Lfsr_bench.program ~iters:200 ()) in
  let images =
    [ [ sink ~bytes ]; [ relay ~bytes ]; [ relay ~bytes; compute ];
      [ leaf ~packets ]; [ sink ~bytes ]; [ relay ~bytes ];
      [ leaf ~packets ]; [ leaf ~packets ] ]
  in
  let run domains =
    let tr = Trace.create () in
    let net = Net.create ~trace:tr ~loss_permille:100 images in
    Net.chain net;
    let live = Net.run ~max_cycles:2_000_000 ~domains net in
    Net.publish_counters net;
    (net, tr, live)
  in
  let net1, tr1, live1 = run 1 in
  let mote_state (net : Net.t) =
    Array.to_list net.nodes
    |> List.concat_map (fun (n : Net.node) ->
           let m = n.kernel.m in
           [ m.cycles; m.insns; m.pc; m.sp; Queue.length m.io.radio_tx;
             List.length m.io.radio_rx; Bool.to_int n.finished ])
  in
  List.iter
    (fun domains ->
      let netd, trd, lived = run domains in
      let what fmt = Printf.sprintf ("domains=%d: " ^^ fmt) domains in
      Alcotest.(check int) (what "still running") live1 lived;
      Alcotest.(check int) (what "routed") net1.routed netd.routed;
      Alcotest.(check int) (what "dropped") net1.dropped netd.dropped;
      Alcotest.(check int) (what "quanta") net1.quanta netd.quanta;
      Alcotest.(check int) (what "loss LFSR state") net1.loss_state
        netd.loss_state;
      Alcotest.(check (list int)) (what "per-mote machine state")
        (mote_state net1) (mote_state netd);
      Alcotest.(check (list (pair string int)))
        (what "counters") (Trace.counters tr1) (Trace.counters trd);
      Alcotest.(check int) (what "event count")
        (List.length (Trace.events tr1))
        (List.length (Trace.events trd));
      List.iter2
        (fun e1 ed ->
          Alcotest.(check bool)
            (Fmt.str "domains=%d: event %a = %a" domains Trace.pp_event e1
               Trace.pp_event ed)
            true
            (Trace.equal_event e1 ed))
        (Trace.events tr1) (Trace.events trd))
    [ 2; 3; 4; 8 ]

(* Sanity for the clamp: more domains than motes, and a finished network
   stepped again, must behave like the sequential path. *)
let domain_clamp () =
  let net = Net.create [ [ leaf ~packets:2 ]; [ sink ~bytes:6 ] ] in
  Net.chain net;
  let still = Net.run ~max_cycles:20_000_000 ~domains:16 net in
  Alcotest.(check int) "finished under clamped domains" 0 still;
  Alcotest.(check int) "re-run of a finished net is a no-op" 0
    (Net.run ~domains:4 net)

(* An always-sleeping listener: wakes on radio traffic and timer
   overflows, consumes nothing, never exits.  Keeps a destination alive
   (and cheap) for as long as a test needs draws to keep flowing. *)
let idler =
  compile ~name:"idler" {|
  fun main() {
    while (1 == 1) {
      sleep;
    }
  }
|}

(* A sender that halts the whole mote the moment it has nothing left to
   send, so the mote retires from the network immediately. *)
let quitter = compile ~name:"quitter" {|
  fun main() {
    halt;
  }
|}

(* Regression (PR 6): the loss draw mapped the 16-bit LFSR state
   through [mod 1000], whose residue classes are not equally populated
   over 1..65535 — 536‰ configured loss actually dropped ~539.8‰.  The
   fixed draw rejects the 535 overhanging states, so over a full LFSR
   period the measured rate is exact.  This drives ~67 500 draws (one
   full period and change) through a 45-listener broadcast star and
   pins the measured rate to ±2‰ — the old mapping misses the window
   by nearly twice that. *)
let loss_rate_is_unbiased () =
  let packets = 500 and listeners = 45 in
  let images =
    [ leaf ~packets ] :: List.init listeners (fun _ -> [ idler ])
  in
  let net = Net.create ~loss_permille:536 images in
  for i = 1 to listeners do
    Net.link net 0 i
  done;
  ignore (Net.run ~max_cycles:8_000_000 net);
  let draws = net.routed + net.dropped in
  Alcotest.(check int) "every byte drew against every listener"
    (3 * packets * listeners) draws;
  let err_permille = abs ((1000 * net.dropped) - (536 * draws)) / draws in
  Alcotest.(check bool)
    (Printf.sprintf "measured loss %d/%d within 2‰ of 536‰" net.dropped draws)
    true (err_permille <= 2);
  (* Losses arrive in runs; the streak histogram must account for every
     closed run and only count dropped bytes. *)
  let hist_drops =
    Array.to_list net.streaks
    |> List.mapi (fun i c -> (min (i + 1) Net.streak_buckets) * c)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool) "streak histogram accounts for most drops" true
    (hist_drops > 0 && hist_drops <= net.dropped)

(* Regression (PR 6): bytes radioed at a finished (or crashed) mote
   were injected into its RX queue and counted as routed — traffic to a
   dead node looked delivered.  They must count as dropped, with a
   [Dropped] event, and consume no loss draw. *)
let dead_destination_drops () =
  let packets = 10 in
  let tr = Trace.create () in
  let net = Net.create ~trace:tr [ [ quitter ]; [ leaf ~packets ] ] in
  Net.chain net;
  let lfsr0 = net.loss_state in
  ignore (Net.run ~max_cycles:20_000_000 net);
  let bytes = 3 * packets in
  Alcotest.(check int) "nothing routed to the dead mote" 0 net.routed;
  Alcotest.(check int) "every byte counted dropped" bytes net.dropped;
  Alcotest.(check int) "dead mote received nothing" 0 (Net.pending_rx net 0);
  let dropped_events =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           match e.kind with Trace.Dropped _ -> true | _ -> false)
         (Trace.events tr))
  in
  Alcotest.(check int) "one Dropped event per byte" bytes dropped_events;
  (* Dead links consume no LFSR draws: the loss state is untouched on a
     lossless net, so a later lossy run is unaffected by dead traffic. *)
  Alcotest.(check int) "no loss draws burned" lfsr0 net.loss_state

(* Regression (PR 6): with [checkpoint_every] smaller than a quantum
   (or an idle jump crossing several multiples) the callback fired once
   per round instead of once per crossed multiple.  Every multiple of
   [every] the horizon crosses must fire exactly once, in order, with
   the multiple as the argument. *)
let checkpoint_fires_per_multiple () =
  let packets = 10 in
  let bytes = 3 * packets in
  let net = Net.create [ [ sink ~bytes ]; [ leaf ~packets ] ] in
  Net.chain net;
  let every = 1_000 in
  let fired = ref [] in
  ignore
    (Net.run ~max_cycles:200_000 ~checkpoint_every:every
       ~on_checkpoint:(fun c _ -> fired := c :: !fired)
       net);
  let fired = List.rev !fired in
  let horizon = net.quanta * net.quantum in
  Alcotest.(check int) "one checkpoint per crossed multiple"
    (horizon / every) (List.length fired);
  List.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "checkpoint %d is the next multiple" i)
        ((i + 1) * every) c)
    fired

(* The determinism contract at fleet scale: a 1000-mote lossy
   sense-and-send campaign (shared copy-on-write flash, event-driven
   stepping) is byte-identical at 1, 2, and 4 domains. *)
let fleet_determinism () =
  let periods = 2 in
  let run domains =
    let net =
      Workloads.Fleet.create ~loss_permille:100 ~periods
        ~topology:(Workloads.Fleet.Grid 32) 1000
    in
    let live =
      Net.run ~max_cycles:(Workloads.Fleet.horizon ~periods) ~domains net
    in
    let digest =
      Array.fold_left
        (fun acc (n : Net.node) ->
          let m = n.kernel.m in
          acc + m.cycles + m.insns + m.pc + List.length m.io.radio_rx)
        0 net.nodes
    in
    (Workloads.Fleet.stats ~live net, net.loss_state, digest)
  in
  let (s1, lfsr1, dig1) = run 1 in
  Alcotest.(check bool) "fleet made real traffic" true
    (s1.sent > 0 && s1.routed > 0 && s1.dropped > 0);
  List.iter
    (fun domains ->
      let sd, lfsrd, digd = run domains in
      let what fmt = Printf.sprintf ("domains=%d: " ^^ fmt) domains in
      Alcotest.(check bool) (what "aggregate stats identical") true (s1 = sd);
      Alcotest.(check int) (what "loss LFSR state") lfsr1 lfsrd;
      Alcotest.(check int) (what "per-mote machine digest") dig1 digd)
    [ 2; 4 ]

(* Motes booted from one template share one decode cache and one tier-1
   block table.  Sharing must be invisible: a 100-mote fleet on one
   shared table ends exactly as the same fleet booted one template per
   mote, each with private caches — at 1 and 2 domains. *)
let shared_tables_match_private () =
  let periods = 2 and n = 100 in
  let topology = Workloads.Fleet.Grid 10 in
  let run ~shared ~domains =
    let net =
      if shared then
        Workloads.Fleet.create ~loss_permille:100 ~periods ~topology n
      else begin
        (* A fresh image per mote: no two image lists are physically
           equal, so [Net.create] prepares one template per mote. *)
        let net =
          Net.create ~loss_permille:100 ~sink_capacity:64
            (List.init n (fun _ -> [ Workloads.Fleet.image ~periods () ]))
        in
        Net.link_all net (Workloads.Fleet.edges topology n);
        net
      end
    in
    let live =
      Net.run ~max_cycles:(Workloads.Fleet.horizon ~periods) ~domains net
    in
    let b = Buffer.create 4096 in
    Array.iter
      (fun (nd : Net.node) ->
        let m = nd.kernel.m in
        Buffer.add_string b
          (Printf.sprintf "%d %d %d %d %d %d %d|" m.cycles m.idle_cycles
             m.insns m.pc m.sp m.sreg m.mem_reads);
        Array.iter (fun r -> Buffer.add_char b (Char.chr r)) m.regs;
        Buffer.add_bytes b m.sram)
      net.nodes;
    let tables = Array.map (fun (nd : Net.node) -> nd.kernel.m.blocks) net.nodes in
    let one_table = Array.for_all (fun t -> t == tables.(0)) tables in
    ( (Workloads.Fleet.stats ~live net, net.loss_state,
       Digest.to_hex (Digest.string (Buffer.contents b))),
      one_table )
  in
  let reference, private_one_table = run ~shared:false ~domains:1 in
  Alcotest.(check bool) "per-mote templates keep private tables" false
    private_one_table;
  let s, _, _ = reference in
  Alcotest.(check bool) "fleet made real traffic" true
    (s.sent > 0 && s.routed > 0 && s.dropped > 0);
  List.iter
    (fun domains ->
      let shared, one_table = run ~shared:true ~domains in
      let what fmt = Printf.sprintf ("shared, domains=%d: " ^^ fmt) domains in
      Alcotest.(check bool) (what "motes share one block table") true one_table;
      Alcotest.(check bool) (what "aggregates, LFSR and state digest") true
        (reference = shared))
    [ 1; 2 ]

let () =
  Alcotest.run "net"
    [ ("collection",
       [ Alcotest.test_case "three-hop collection" `Quick three_hop_collection;
         Alcotest.test_case "lossy link" `Quick lossy_link_drops_bytes;
         Alcotest.test_case "broadcast" `Quick broadcast_reaches_all_neighbours;
         Alcotest.test_case "multitasking relay" `Quick multitasking_mote_in_a_network ]);
      ("plumbing",
       [ Alcotest.test_case "tx queue drained" `Quick exchange_drains_tx_queue;
         Alcotest.test_case "trace records routing" `Quick trace_records_routing ]);
      ("domains",
       [ Alcotest.test_case "1 vs N domains byte-identical" `Quick
           domain_determinism;
         Alcotest.test_case "domain clamp" `Quick domain_clamp ]);
      ("regressions",
       [ Alcotest.test_case "loss rate is unbiased" `Quick
           loss_rate_is_unbiased;
         Alcotest.test_case "dead destination drops" `Quick
           dead_destination_drops;
         Alcotest.test_case "checkpoint per crossed multiple" `Quick
           checkpoint_fires_per_multiple ]);
      ("fleet",
       [ Alcotest.test_case "1k motes, 1/2/4 domains byte-identical" `Quick
           fleet_determinism;
         Alcotest.test_case "shared tables match private caches" `Quick
           shared_tables_match_private ]) ]
