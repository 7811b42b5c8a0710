(* The snapshot subsystem's determinism contract: capture at cycle c,
   restore onto a freshly re-created host, run to cycle d — byte-identical
   to an uninterrupted run to d, in both execution tiers and at any
   domain count.  [Snapshot.diff] is exhaustive over the captured state,
   so a [] diff below really means "the whole machine/kernel/network
   state, trace included, is identical".

   Also covered: serialization (round-trip, the SENSNAP v2 bytes pinned
   per payload kind, diff agreeing with the bytes, truncated and
   byte-flipped inputs of every kind, file save/load), structural-
   compatibility rejection, hostile field values, periodic
   auto-checkpointing in [Net.run], and the bisection driver finding an
   artificially injected single-cycle divergence. *)

let image name =
  match Workloads.Registry.find_image name with
  | Some img -> img
  | None -> Alcotest.failf "no bundled program %s" name

let kernel_images () = [ image "lfsr"; image "timer" ]

let decode s =
  match Snapshot.of_string (Snapshot.to_string s) with
  | Ok s' -> s'
  | Error msg -> Alcotest.failf "decode of a fresh snapshot failed: %s" msg

let check_identical what reference resumed =
  Alcotest.(check (list string)) what [] (Snapshot.diff reference resumed)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- bare machine ---------------------------------------------------------- *)

let boot_machine (img : Asm.Image.t) =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m img.words;
  List.iter (fun (a, b) -> Machine.Cpu.write8 m a b) img.data_init;
  m.pc <- img.entry;
  m

let machine_round_trip () =
  let img = image "lfsr" in
  let m1 = boot_machine img in
  ignore (Machine.Cpu.run ~max_cycles:20_000 m1);
  let snap = decode (Snapshot.of_machine m1) in
  ignore (Machine.Cpu.run ~max_cycles:90_000 m1);
  let reference = Snapshot.of_machine m1 in
  (* The target ran a DIFFERENT program first, far enough to compile
     tier-1 blocks for it: restore must invalidate them along with the
     flash, or the resumed run executes stale closures. *)
  let m2 = boot_machine (image "crc") in
  ignore (Machine.Cpu.run ~max_cycles:5_000 m2);
  Snapshot.restore_machine snap m2;
  ignore (Machine.Cpu.run ~max_cycles:90_000 m2);
  check_identical "machine round-trip (across a stale program)" reference
    (Snapshot.of_machine m2)

let machine_round_trip_interp () =
  let img = image "crc" in
  let m1 = boot_machine img in
  ignore (Machine.Cpu.run ~tier:0 ~max_cycles:7_000 m1);
  let snap = decode (Snapshot.of_machine m1) in
  ignore (Machine.Cpu.run ~tier:0 ~max_cycles:40_000 m1);
  let m2 = boot_machine img in
  Snapshot.restore_machine snap m2;
  ignore (Machine.Cpu.run ~tier:0 ~max_cycles:40_000 m2);
  check_identical "tier-0 machine round-trip" (Snapshot.of_machine m1)
    (Snapshot.of_machine m2)

(* --- kernel ----------------------------------------------------------------- *)

(* Capture at tier [capture_tier] at [at], resume at [resume_tier] to
   [horizon]; the reference runs uninterrupted at [resume_tier].
   Mixing tiers is legal because they are bit-identical. *)
let kernel_round_trip ~capture_tier ~resume_tier ~at ~horizon () =
  let k1 = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~tier:capture_tier ~max_cycles:at k1);
  let snap = decode (Snapshot.of_kernel k1) in
  let kr = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~tier:resume_tier ~max_cycles:at kr);
  ignore (Kernel.run ~tier:resume_tier ~max_cycles:horizon kr);
  let reference = Snapshot.of_kernel kr in
  let k2 = Kernel.boot (kernel_images ()) in
  Snapshot.restore_kernel snap k2;
  ignore (Kernel.run ~tier:resume_tier ~max_cycles:horizon k2);
  Kernel.check_invariants k2;
  check_identical "kernel round-trip" reference (Snapshot.of_kernel k2)

(* Randomized capture points: the law must hold wherever the capture
   lands — mid-slice, mid-sleep, around relocations and task exits. *)
let prop_random_capture_cycle =
  QCheck.Test.make ~count:12 ~name:"kernel round-trip at random capture cycles"
    QCheck.(pair (int_range 500 130_000) (int_range 1_000 80_000))
    (fun (at, extra) ->
      let horizon = at + extra in
      let k1 = Kernel.boot (kernel_images ()) in
      ignore (Kernel.run ~max_cycles:at k1);
      let snap = Snapshot.of_kernel k1 in
      ignore (Kernel.run ~max_cycles:horizon k1);
      let reference = Snapshot.of_kernel k1 in
      let k2 = Kernel.boot (kernel_images ()) in
      Snapshot.restore_kernel snap k2;
      ignore (Kernel.run ~max_cycles:horizon k2);
      Snapshot.diff reference (Snapshot.of_kernel k2) = [])

(* --- network ---------------------------------------------------------------- *)

let compile ~name src = Minic.Codegen.compile_source ~name src

let leaf ~packets = compile ~name:"leaf" (Printf.sprintf {|
  var sent;
  fun main() {
    sent = 0;
    while (sent < %d) {
      radio_send(0x55);
      radio_send(sent);
      sent = sent + 1;
    }
    halt;
  }
|} packets)

let sink ~bytes = compile ~name:"sink" (Printf.sprintf {|
  var got;
  fun main() {
    got = 0;
    while (got < %d) {
      if (radio_avail()) {
        got = got + radio_recv();
        got = got + 1;
      }
    }
    halt;
  }
|} bytes)

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

(* A lossy 3-mote chain with a multitasking relay: exercises the loss
   LFSR, mid-flight FIFOs, per-mote sinks and the master trace. *)
let make_net () =
  let packets = 30 in
  let bytes = 2 * packets in
  let compute =
    Asm.Assembler.assemble (Programs.Lfsr_bench.program ~iters:300 ())
  in
  let net =
    Net.create ~loss_permille:100
      [ [ sink ~bytes:1_000_000 ]; [ relay ~bytes; compute ];
        [ leaf ~packets ] ]
  in
  Net.chain net;
  net

let net_budget = 1_200_000
let net_checkpoint = 300_000

(* One checkpointed reference run, shared by the per-domain cases. *)
let net_reference =
  lazy
    (let n = make_net () in
     let first = ref None in
     ignore
       (Net.run ~max_cycles:net_budget ~checkpoint_every:net_checkpoint
          ~on_checkpoint:(fun _ net ->
            if !first = None then first := Some (Snapshot.of_net net))
          n);
     match !first with
     | None -> Alcotest.fail "no checkpoint fired"
     | Some snap -> (snap, Snapshot.of_net n))

let net_round_trip domains () =
  let snap, reference = Lazy.force net_reference in
  let snap = decode snap in
  let n2 = make_net () in
  Snapshot.restore_net snap n2;
  ignore (Net.run ~max_cycles:net_budget ~domains n2);
  check_identical
    (Printf.sprintf "net round-trip at %d domains" domains)
    reference (Snapshot.of_net n2)

(* A restored fleet keeps its structural sharing: the snapshot stores
   the one flash image once, so every mote restored from that decoded
   array adopts one image and shares its decode cache and block table,
   compiling each block once.  Resuming from there still equals the
   uninterrupted run, at 1 and 2 domains. *)
let fleet_restore_shares_tables () =
  let periods = 2 in
  let make () =
    Workloads.Fleet.create ~loss_permille:100 ~periods
      ~topology:(Workloads.Fleet.Grid 6) 36
  in
  let horizon = Workloads.Fleet.horizon ~periods in
  let n1 = make () in
  ignore (Net.run ~max_cycles:(horizon / 2) n1);
  let snap = decode (Snapshot.of_net n1) in
  ignore (Net.run ~max_cycles:horizon n1);
  let reference = Snapshot.of_net n1 in
  List.iter
    (fun domains ->
      let n2 = make () in
      Snapshot.restore_net snap n2;
      let table = n2.nodes.(0).kernel.m.blocks in
      let shared () =
        Array.for_all
          (fun (nd : Net.node) -> nd.kernel.m.blocks == table)
          n2.nodes
      in
      Alcotest.(check bool) "restored motes share one block table" true
        (shared ());
      ignore (Net.run ~max_cycles:horizon ~domains n2);
      Alcotest.(check bool) "still shared after resuming" true (shared ());
      check_identical
        (Printf.sprintf "fleet resumed at %d domains" domains)
        reference (Snapshot.of_net n2))
    [ 1; 2 ]

(* The satellite concern behind the [] diff: after a mid-run restore,
   [Trace.transfer] keeps merging per-mote sinks in node-id order, so
   the master event stream is identical, event by event, in order. *)
let net_trace_order_after_restore () =
  let snap, _ = Lazy.force net_reference in
  let n_ref = make_net () in
  ignore (Net.run ~max_cycles:net_budget n_ref);
  let n2 = make_net () in
  Snapshot.restore_net (decode snap) n2;
  ignore (Net.run ~max_cycles:net_budget ~domains:2 n2);
  let evs_ref = Trace.events n_ref.trace
  and evs_res = Trace.events n2.trace in
  Alcotest.(check int) "same event count" (List.length evs_ref)
    (List.length evs_res);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Fmt.str "in-order event %a" Trace.pp_event a)
        true (Trace.equal_event a b))
    evs_ref evs_res

let net_checkpoint_cadence () =
  let n = make_net () in
  let seen = ref [] in
  ignore
    (Net.run ~max_cycles:net_budget ~checkpoint_every:100_000
       ~on_checkpoint:(fun h _ -> seen := h :: !seen)
       n);
  let seen = List.rev !seen in
  Alcotest.(check bool) "checkpoints fired" true (List.length seen >= 3);
  List.iter
    (fun h ->
      Alcotest.(check int)
        (Printf.sprintf "checkpoint %d on a 100k crossing" h)
        0 (h mod 100_000))
    seen;
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing, no duplicates" true
    (strictly_increasing seen)

(* --- serialization --------------------------------------------------------- *)

let captured_kernel_snapshot () =
  let k = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~max_cycles:20_000 k);
  Snapshot.of_kernel ~programs:[ "lfsr"; "timer" ] k

(* The three payload kinds, one capture each: a bare machine, a kernel,
   and a two-mote network taken mid-run (two programs, so the network's
   content-addressed flash section holds two images). *)
let captured_machine_snapshot () =
  let m = boot_machine (image "lfsr") in
  ignore (Machine.Cpu.run ~max_cycles:20_000 m);
  Snapshot.of_machine ~programs:[ "lfsr" ] m

let two_mote_net () =
  let n = Net.create [ [ image "lfsr" ]; [ image "timer" ] ] in
  Net.chain n;
  n

let captured_net_snapshot () =
  let n = two_mote_net () in
  ignore (Net.run ~max_cycles:40_000 n);
  Snapshot.of_net ~programs:[ "lfsr"; "timer" ] n

let pinned_captures () =
  [ ("machine", captured_machine_snapshot ());
    ("kernel", captured_kernel_snapshot ());
    ("net", captured_net_snapshot ()) ]

let serialization_round_trip () =
  let s = captured_kernel_snapshot () in
  let s' = decode s in
  Alcotest.(check string) "re-encodes identically" (Snapshot.to_string s)
    (Snapshot.to_string s');
  Alcotest.(check (list string)) "programs survive" [ "lfsr"; "timer" ]
    (Snapshot.programs s');
  Alcotest.(check int) "capture cycle survives" (Snapshot.at s)
    (Snapshot.at s');
  check_identical "decoded equals original" s s';
  List.iter
    (fun (what, s, members) ->
      Alcotest.(check string) (what ^ " describe")
        (Printf.sprintf "%s snapshot at cycle %d%s, programs: %s" what
           (Snapshot.at s) members
           (String.concat " " (Snapshot.programs s)))
        (Snapshot.describe (decode s)))
    [ ("machine", captured_machine_snapshot (), "");
      ("kernel", s, ", 2 tasks");
      ("net", captured_net_snapshot (), ", 2 motes") ]

(* SENSNAP v2 is pinned byte for byte: any change to the encoding of
   any field shows here as a different length or digest. *)
let wire_bytes_pinned () =
  let pins =
    [ ("machine", (135537, "bf9d4d814bb4beec92253acd86185a7b"));
      ("kernel", (135747, "1bb981553d11888022ec7ce9403acbfb"));
      ("net", (271308, "f7024d469b2a0cbe880b569c180c0f32")) ]
  in
  List.iter
    (fun (what, s) ->
      let data = Snapshot.to_string s in
      let len, md5 = List.assoc what pins in
      Alcotest.(check (pair int string))
        (what ^ " snapshot length and MD5") (len, md5)
        (String.length data, Digest.to_hex (Digest.string data)))
    (pinned_captures ())

let corrupt_inputs_rejected () =
  let data = Snapshot.to_string (captured_kernel_snapshot ()) in
  (match Snapshot.of_string "this is not a snapshot" with
   | Error msg ->
     Alcotest.(check bool) "magic error is actionable" true
       (contains msg "magic")
   | Ok _ -> Alcotest.fail "accepted garbage");
  List.iter
    (fun percent ->
      let cut = String.sub data 0 (String.length data * percent / 100) in
      match Snapshot.of_string cut with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted input truncated to %d%%" percent)
    [ 0; 3; 50; 90; 99 ];
  let bad_version = Bytes.of_string data in
  Bytes.set bad_version 8 '\x63';  (* the version varint, after the magic *)
  (match Snapshot.of_string (Bytes.to_string bad_version) with
   | Error msg ->
     Alcotest.(check bool) "version error names both versions" true
       (contains msg "version")
   | Ok _ -> Alcotest.fail "accepted a future format version");
  (* Every payload kind, truncated and byte-flipped at a fixed stride.
     Each input must be refused, or decode into something that either
     restores onto a matching host and runs 10k cycles at tier 1, or is
     refused by restore as incompatible: no other exception, no crash. *)
  let sweep what data ~restore =
    let ran = ref 0 in
    let try_input how input =
      match Snapshot.of_string input with
      | Error _ -> ()
      | Ok s -> (
        match restore s with
        | () -> incr ran
        | exception Snapshot.Incompatible _ -> ()
        | exception e ->
          Alcotest.failf "%s %s: %s" what how (Printexc.to_string e))
      | exception e ->
        Alcotest.failf "%s %s: decode raised %s" what how
          (Printexc.to_string e)
    in
    let len = String.length data in
    for i = 0 to (len - 1) / 4099 do
      let cut = i * 4099 in
      try_input (Printf.sprintf "truncated at %d" cut) (String.sub data 0 cut)
    done;
    for i = 0 to (len - 1) / 727 do
      let at = i * 727 in
      let b = Bytes.of_string data in
      Bytes.set b at (Char.chr (Char.code data.[at] lxor 0xFF));
      try_input (Printf.sprintf "flipped at %d" at) (Bytes.to_string b)
    done;
    (* Flips inside the flash image decode; some inputs must get as far
       as running, or the sweep checks nothing past the decoder. *)
    Alcotest.(check bool) (what ^ ": some corrupted inputs ran") true (!ran > 0)
  in
  sweep "machine" (Snapshot.to_string (captured_machine_snapshot ()))
    ~restore:(fun s ->
      let m = Machine.Cpu.create () in
      Snapshot.restore_machine s m;
      ignore (Machine.Cpu.run ~tier:1 ~max_cycles:(m.cycles + 10_000) m));
  sweep "kernel" data ~restore:(fun s ->
      let k = Kernel.boot (kernel_images ()) in
      Snapshot.restore_kernel s k;
      ignore (Kernel.run ~tier:1 ~max_cycles:(k.m.cycles + 10_000) k));
  sweep "net" (Snapshot.to_string (captured_net_snapshot ()))
    ~restore:(fun s ->
      let n = two_mote_net () in
      Snapshot.restore_net s n;
      ignore
        (Net.run ~tier:1 ~max_cycles:((n.quanta * n.quantum) + 10_000) n))

(* [diff] and the wire bytes agree: an empty diff holds exactly when two
   snapshots serialize identically, over the pinned captures and over
   pairs that differ in one captured value each. *)
let diff_iff_equal_bytes () =
  let check what a b =
    let same_bytes = Snapshot.to_string a = Snapshot.to_string b in
    Alcotest.(check bool)
      (what ^ ": empty diff iff equal bytes")
      same_bytes
      (Snapshot.diff a b = [])
  in
  let pins = pinned_captures () in
  List.iter
    (fun (wa, a) ->
      List.iter (fun (wb, b) -> check (wa ^ " vs " ^ wb) a b) pins;
      check (wa ^ " vs its decoding") a (decode a))
    pins;
  let differ what a b =
    check what a b;
    Alcotest.(check bool) (what ^ " differ") false
      (Snapshot.to_string a = Snapshot.to_string b)
  in
  let k = Kernel.boot (kernel_images ()) in
  ignore (Kernel.run ~max_cycles:20_000 k);
  differ "programs"
    (Snapshot.of_kernel ~programs:[ "lfsr"; "timer" ] k)
    (Snapshot.of_kernel ~programs:[ "lfsr" ] k);
  let before = Snapshot.of_kernel k in
  let t = List.hd k.tasks in
  t.activations <- t.activations + 1;
  differ "one task stat" before (Snapshot.of_kernel k);
  let m = boot_machine (image "lfsr") in
  ignore (Machine.Cpu.run ~max_cycles:5_000 m);
  let before = Snapshot.of_machine m in
  Bytes.set m.sram 0x800 (Char.chr (Char.code (Bytes.get m.sram 0x800) lxor 1));
  differ "one SRAM byte" before (Snapshot.of_machine m);
  let n = two_mote_net () in
  ignore (Net.run ~max_cycles:20_000 n);
  let before = Snapshot.of_net n in
  Trace.incr n.nodes.(1).sink "probe";
  differ "one mote-sink counter" before (Snapshot.of_net n)

let save_load_file () =
  let s = captured_kernel_snapshot () in
  let path = Filename.temp_file "sensmart" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save path s;
      match Snapshot.load path with
      | Ok s' -> check_identical "file round-trip" s s'
      | Error msg -> Alcotest.failf "load: %s" msg);
  match Snapshot.load path with
  | Error _ -> ()  (* file is gone: load must report, not raise *)
  | Ok _ -> Alcotest.fail "loaded a deleted file"

(* What holding a capture as bytes plus flash references puts at risk, at
   a random capture cycle on a template-booted kernel:
   - the capture's bytes stay put while the host runs on, emits trace
     events and writes its flash (shared first, then private);
   - a restore onto an incompatible host raises and writes nothing: the
     host captures to the same bytes before and after;
   - one flipped SRAM byte, register or task field of a restored copy
     shows in [diff] as exactly its path, and in the bytes. *)
let prop_capture_invariants =
  QCheck.Test.make ~count:8 ~name:"capture invariants at random cycles"
    QCheck.(triple (int_range 1_000 120_000) (int_range 0 0x10FF) (int_range 0 2))
    (fun (at, addr, which) ->
      let tpl = Kernel.prepare (kernel_images ()) in
      let k = Kernel.boot_from tpl in
      ignore (Kernel.run ~max_cycles:at k);
      let snap = Snapshot.of_kernel k in
      let bytes = Snapshot.to_string snap in
      ignore (Kernel.run ~max_cycles:(at + 40_000) k);
      Trace.emit k.trace ~mote:0 ~at:k.m.cycles (Trace.Probe { name = "p"; detail = "later" });
      Machine.Cpu.load ~at:0x1F00 k.m [| 0x1234 |];
      let private_snap = Snapshot.of_kernel k in
      let private_bytes = Snapshot.to_string private_snap in
      Machine.Cpu.load k.m [| Machine.Cpu.flash_word k.m.flash 0 lxor 0xFFFF |];
      let unmoved =
        Snapshot.to_string snap = bytes && Snapshot.to_string private_snap = private_bytes
      in
      let other =
        Kernel.boot (if which = 0 then [ image "lfsr" ] else [ image "crc"; image "timer" ])
      in
      ignore (Kernel.run ~max_cycles:(at / 2) other);
      let before = Snapshot.to_string (Snapshot.of_kernel other) in
      let refused =
        match Snapshot.restore_kernel snap other with
        | exception Snapshot.Incompatible _ -> true
        | () -> false
      in
      let untouched = Snapshot.to_string (Snapshot.of_kernel other) = before in
      let copy = Kernel.boot_from tpl in
      Snapshot.restore_kernel snap copy;
      let path =
        match which with
        | 0 ->
          Bytes.set copy.m.sram addr (Char.chr (Char.code (Bytes.get copy.m.sram addr) lxor 1));
          "kernel.machine.sram"
        | 1 ->
          let i = addr mod 32 in
          copy.m.regs.(i) <- copy.m.regs.(i) lxor 1;
          "kernel.machine.regs"
        | _ ->
          let j = addr mod List.length copy.tasks in
          let t = List.nth copy.tasks j in
          t.activations <- t.activations + 1;
          Printf.sprintf "kernel.tasks[%d].activations" j
      in
      let flipped = Snapshot.of_kernel copy in
      let named =
        match Snapshot.diff snap flipped with
        | [ line ] -> String.starts_with ~prefix:(path ^ ": ") line
        | _ -> false
      in
      unmoved && refused && untouched && named && Snapshot.to_string flipped <> bytes)

(* --- structural compatibility ---------------------------------------------- *)

let expect_incompatible what f =
  match f () with
  | exception Snapshot.Incompatible _ -> ()
  | _ -> Alcotest.failf "%s: restore onto an incompatible host succeeded" what

let net_for_mismatch = lazy (Net.create [ [ image "lfsr" ] ])

let incompatible_hosts_rejected () =
  let snap = captured_kernel_snapshot () in
  expect_incompatible "task-count mismatch" (fun () ->
      Snapshot.restore_kernel snap (Kernel.boot [ image "lfsr" ]));
  expect_incompatible "task-name mismatch" (fun () ->
      Snapshot.restore_kernel snap
        (Kernel.boot [ image "crc"; image "timer" ]));
  expect_incompatible "kind mismatch (kernel onto machine)" (fun () ->
      Snapshot.restore_machine snap (Machine.Cpu.create ()));
  expect_incompatible "kind mismatch (kernel onto net)" (fun () ->
      Snapshot.restore_net snap (Lazy.force net_for_mismatch));
  let nsnap = Snapshot.of_net (Lazy.force net_for_mismatch) in
  expect_incompatible "lockstep parameter mismatch" (fun () ->
      let other = Net.create ~quantum:4_000 [ [ image "lfsr" ] ] in
      Snapshot.restore_net nsnap other);
  expect_incompatible "mote-count mismatch" (fun () ->
      Snapshot.restore_net nsnap (two_mote_net ()));
  expect_incompatible "kind mismatch (machine onto kernel)" (fun () ->
      Snapshot.restore_kernel (captured_machine_snapshot ())
        (Kernel.boot (kernel_images ())));
  expect_incompatible "kind mismatch (net onto kernel)" (fun () ->
      Snapshot.restore_kernel nsnap (Kernel.boot (kernel_images ())))

(* --- hostile input ---------------------------------------------------------- *)

(* Signed LEB128, as the snapshot writer emits integers. *)
let leb128 n =
  let b = Buffer.create 10 in
  let rec go v =
    let byte = v land 0x7F and rest = v asr 7 in
    if (rest = 0 && byte land 0x40 = 0) || (rest = -1 && byte land 0x40 <> 0)
    then Buffer.add_char b (Char.chr byte)
    else begin
      Buffer.add_char b (Char.chr (byte lor 0x80));
      go rest
    end
  in
  go n;
  Buffer.contents b

(* A well-framed SENSNAP machine snapshot whose "machine" section holds
   [payload]. *)
let framed sections =
  let str s = leb128 (String.length s) ^ s in
  "SENSNAP0" ^ leb128 2
  ^ String.concat "" (List.map (fun (name, body) -> str name ^ str body) sections)

let crafted payload =
  framed [ ("meta", leb128 0 ^ leb128 0 ^ "\000"); ("machine", payload) ]

(* The decoder must return its own [Error] — no stray exception — and
   allocate nothing sized by the hostile length field. *)
let hostile_length_rejected payload () =
  let data = crafted payload in
  let before = Gc.allocated_bytes () in
  let result =
    try Snapshot.of_string data
    with e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  in
  let allocated = Gc.allocated_bytes () -. before in
  (match result with
   | Ok _ -> Alcotest.fail "accepted a hostile length"
   | Error _ -> ());
  if allocated > 1e6 then
    Alcotest.failf "allocated %.0f bytes decoding %d" allocated
      (String.length data)

(* Flash length whose byte count [n * 2] overflows. *)
let u16_length_overflow = leb128 ((max_int / 2) + 1)

(* Empty flash and SRAM, then 4 M registers with one present: the
   register array must not be allocated before the truncation shows. *)
let int_array_length_beyond_input =
  leb128 0 ^ leb128 0 ^ leb128 4_000_000 ^ leb128 0

(* A well-formed machine payload, every field at its reset value except
   [pc]: flash erased, SRAM and registers zero, SP at the top of data
   memory, the preemption horizon parked at [max_int], peripherals idle. *)
let machine_payload ?(flash_words = 0x10000) ~pc () =
  let ints = List.map leb128 in
  String.concat ""
    ([ leb128 flash_words; String.make (2 * flash_words) '\xff';
       leb128 0x1100; String.make 0x1100 '\000';
       leb128 32; String.make 32 '\000' ]
     @ ints [ pc; 0x10FF; 0 ]  (* pc, sp, sreg *)
     @ ints [ 0; 0; 0; 0; 0; 0; 0 ]  (* cycles .. io_writes *)
     @ [ "\000"; "\000"; leb128 max_int ]  (* halted, sleeping, preempt_at *)
     @ [ "\000"; "\000" ]  (* adc_enabled, adc_start *)
     @ ints [ 0; 0; 0; 0; 0; 0; 0; 0 ])  (* adc_value .. temp *)

(* A PC outside the 64 K-word flash would index past the decode and
   block tables: the decoder refuses it, so no restored machine can run
   from there.  The in-range twin decodes, restores and runs. *)
let hostile_pc_rejected () =
  (match Snapshot.of_string (crafted (machine_payload ~pc:0xFFFF ())) with
   | Error msg -> Alcotest.failf "refused an in-range pc: %s" msg
   | Ok s ->
     let m = Machine.Cpu.create () in
     Snapshot.restore_machine s m;
     ignore (Machine.Cpu.run ~tier:1 ~max_cycles:1_000 m));
  List.iter
    (fun pc ->
      match Snapshot.of_string (crafted (machine_payload ~pc ())) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted pc 0x%x" pc)
    [ 0x10000; 0x1000000; 0x40000000; -1 ]

(* [leb128]'s inverse: the value at [pos] and the position after it. *)
let read_leb128 s pos =
  let rec go pos shift acc =
    let byte = Char.code s.[pos] in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 <> 0 then go (pos + 1) (shift + 7) acc
    else if byte land 0x40 <> 0 then (acc lor (-1 lsl (shift + 7)), pos + 1)
    else (acc, pos + 1)
  in
  go pos 0 0

(* The named sections of SENSNAP bytes, in order (see [framed]). *)
let sections_of data =
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else
      let n, pos = read_leb128 data pos in
      let name = String.sub data pos n in
      let len, pos = read_leb128 data (pos + n) in
      go (pos + len) ((name, String.sub data pos len) :: acc)
  in
  go (snd (read_leb128 data 8)) []

(* A flash on the wire is exactly 64 K words, erased tail included: a
   65535- or 65537-word flash is corrupt input, inline or in a net
   snapshot's flash pool.  The 64 K-word twins decode. *)
let hostile_flash_length () =
  let net_data = Snapshot.to_string (Snapshot.of_net (two_mote_net ())) in
  let pooled flash_words =
    framed
      (List.map
         (function
           | "flash", body ->
             let images, _ = read_leb128 body 0 in
             let image = leb128 flash_words ^ String.make (2 * flash_words) '\xff' in
             ("flash", leb128 images ^ String.concat "" (List.init images (fun _ -> image)))
           | section -> section)
         (sections_of net_data))
  in
  let inline flash_words = crafted (machine_payload ~flash_words ~pc:0 ()) in
  List.iter
    (fun (what, data) ->
      match Snapshot.of_string (data 0x10000) with
      | Error msg -> Alcotest.failf "%s: refused a 64 K-word flash: %s" what msg
      | Ok _ ->
        List.iter
          (fun n ->
            match Snapshot.of_string (data n) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s: accepted a %d-word flash" what n)
          [ 0xFFFF; 0x10001 ])
    [ ("inline", inline); ("pooled", pooled) ]

(* A [Flash_flip] past the end of an image grows the kernel's private
   flash; a snapshot captures it canonical (trimmed to the chunk after
   its last non-erased word), so the grown flash round-trips exactly, and
   erasing the last word again shortens the capture back. *)
let grown_flash_round_trip () =
  let k = Kernel.boot [ image "crc" ] in
  ignore (Kernel.run ~max_cycles:20_000 k);
  let flip waddr xor =
    Fault.inject ~trace:(Trace.create ()) k
      { Fault.at = k.m.cycles; mote = 0; kind = Flash_flip { waddr; xor } }
  in
  let canonical_words () = Array.length (Machine.Cpu.canonical k.m.flash) in
  let base = Snapshot.of_kernel k and base_words = canonical_words () in
  flip 0x1F00 0x1234;
  Alcotest.(check int) "flash grew" 0x2000 (Array.length k.m.flash);
  Alcotest.(check int) "captured through the grown chunk" 0x2000 (canonical_words ());
  let grown = Snapshot.of_kernel k in
  let decoded = decode grown in
  Alcotest.(check bool) "grown: equal bytes" true
    (Snapshot.to_string grown = Snapshot.to_string decoded);
  check_identical "grown: decoded" grown decoded;
  let k' = Kernel.boot [ image "crc" ] in
  Snapshot.restore_kernel decoded k';
  check_identical "grown: restored" grown (Snapshot.of_kernel k');
  (* The image's last word is now 0x1F00: erasing it shortens the
     capture although the live array keeps its length. *)
  flip 0x1F00 0x1234;
  Alcotest.(check int) "live array kept" 0x2000 (Array.length k.m.flash);
  Alcotest.(check int) "capture shortened" base_words (canonical_words ());
  let erased = Snapshot.of_kernel k in
  (* Erase the image's own last word too. *)
  let rec last w = if Machine.Cpu.flash_word k.m.flash w = 0xFFFF then last (w - 1) else w in
  let w = last 0x1FFF in
  flip w (Machine.Cpu.flash_word k.m.flash w lxor 0xFFFF);
  let trimmed = Snapshot.of_kernel k in
  let captures =
    [ ("base", base); ("grown", grown); ("decoded", decoded); ("erased", erased);
      ("trimmed", trimmed) ]
  in
  List.iter
    (fun (wa, a) ->
      List.iter
        (fun (wb, b) ->
          Alcotest.(check bool)
            (wa ^ " vs " ^ wb ^ ": empty diff iff equal bytes")
            (Snapshot.to_string a = Snapshot.to_string b)
            (Snapshot.diff a b = []))
        captures)
    captures;
  check_identical "erasing the grown word restores the base capture" base erased;
  Alcotest.(check bool) "erasing the image's last word changes the bytes" false
    (Snapshot.to_string base = Snapshot.to_string trimmed)

(* A kernel booted from a template runs on the template's shared image.
   Restored from a capture whose flash is the template's, it keeps that
   image and every block an earlier run compiled on it.  Restored from a
   capture whose flash differs (a Flash_flip in the running code), it
   gets a fresh image with empty caches, so no block compiled from the
   unflipped words runs.  Either way, a further run gives the same bytes
   and an empty diff as an uninterrupted run and as a restore onto a
   host on a private image, which always takes the fresh path. *)
let restore_keeps_template_image () =
  let at = 60_000 and horizon = 160_000 in
  let tpl = Kernel.prepare (kernel_images ()) in
  let warm (m : Machine.Cpu.t) =
    Array.exists (Array.exists Option.is_some) m.blocks
  in
  let flip (k : Kernel.t) =
    Fault.inject ~trace:(Trace.create ()) k
      { Fault.at = k.m.cycles; mote = 0;
        kind = Flash_flip { waddr = k.m.pc; xor = 0x0400 } }
  in
  (* A host whose flash is private and differs from every capture. *)
  let private_host () =
    let k = Kernel.boot_from tpl in
    Fault.inject ~trace:(Trace.create ()) k
      { Fault.at = 0; mote = 0; kind = Flash_flip { waddr = 0x1F00; xor = 1 } };
    Alcotest.(check bool) "private host detached" false k.m.flash_shared;
    k
  in
  let restored snap (host : Kernel.t) =
    Snapshot.restore_kernel snap host;
    Alcotest.(check bool) "tier-2 binding dropped" true
      (host.m.t2 = Machine.Cpu.T2_unknown);
    host
  in
  let finish host =
    ignore (Kernel.run ~max_cycles:horizon host);
    Snapshot.of_kernel host
  in
  let same what reference got =
    check_identical what reference got;
    Alcotest.(check bool) (what ^ ": equal bytes") true
      (Snapshot.to_string reference = Snapshot.to_string got)
  in
  (* The template's flash. *)
  let k1 = Kernel.boot_from tpl in
  ignore (Kernel.run ~max_cycles:at k1);
  let snap = decode (Snapshot.of_kernel k1) in
  ignore (Kernel.run ~max_cycles:horizon k1);
  let reference = Snapshot.of_kernel k1 in
  let k2 = Kernel.boot_from tpl in
  let image = k2.m.image and blocks = k2.m.blocks in
  Alcotest.(check bool) "the template is warm" true (warm k2.m);
  ignore (restored snap k2);
  Alcotest.(check bool) "restore keeps the template image" true
    (k2.m.image == image);
  Alcotest.(check bool) "restore keeps its compiled blocks" true
    (k2.m.blocks == blocks && warm k2.m);
  same "kept image" reference (finish k2);
  same "fresh image" reference (finish (restored snap (private_host ())));
  (* Flash that differs from the template's. *)
  let kf = Kernel.boot_from tpl in
  ignore (Kernel.run ~max_cycles:at kf);
  flip kf;
  let flipped = decode (Snapshot.of_kernel kf) in
  ignore (Kernel.run ~max_cycles:horizon kf);
  let reference = Snapshot.of_kernel kf in
  let k3 = restored flipped (Kernel.boot_from tpl) in
  Alcotest.(check bool) "a differing flash gets a fresh image" false
    (k3.m.image == image || k3.m.blocks == blocks || warm k3.m);
  same "flipped, template host" reference (finish k3);
  same "flipped, private host" reference
    (finish (restored flipped (private_host ())))

(* --- bisection -------------------------------------------------------------- *)

let bisect_clean_tiers () =
  let boot () = Kernel.boot (kernel_images ()) in
  let tier1 = Snapshot.Bisect.kernel_subject boot in
  let tier0 = Snapshot.Bisect.kernel_subject ~tier:0 boot in
  match Snapshot.Bisect.hunt ~max_cycles:120_000 tier1 tier0 with
  | Snapshot.Bisect.Identical { ran_to; _ } ->
    Alcotest.(check int) "searched the whole horizon" 120_000 ran_to
  | Snapshot.Bisect.Diverged { diff; _ } ->
    Alcotest.failf "tiers diverged: %s" (String.concat "; " diff)

let bisect_finds_injected_divergence () =
  let poke_at = 60_000 and granularity = 64 in
  let boot () = Kernel.boot (kernel_images ()) in
  let poked =
    Snapshot.Bisect.kernel_subject
      ~poke:{ Snapshot.Bisect.poke_at; poke_value = 0x5A }
      boot
  in
  let clean = Snapshot.Bisect.kernel_subject ~tier:0 boot in
  match Snapshot.Bisect.hunt ~granularity ~max_cycles:140_000 poked clean with
  | Snapshot.Bisect.Identical _ ->
    Alcotest.fail "missed the injected divergence"
  | Snapshot.Bisect.Diverged { lo; hi; diff; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "interval (%d, %d] brackets the poke at %d" lo hi
         poke_at)
      true
      (lo < hi && hi >= poke_at && lo <= poke_at + 128);
    Alcotest.(check bool) "narrowed to the requested granularity" true
      (hi - lo <= granularity);
    Alcotest.(check bool) "state diff names the poked SRAM byte" true
      (List.exists (fun l -> contains l "sram") diff)

let bisect_net_poke () =
  (* On a network the poke lands on a quantum boundary, so the interval
     bottoms out at quantum spacing rather than the cycle granularity. *)
  let boot () =
    let n = Net.create [ [ image "lfsr" ]; [ image "timer" ] ] in
    Net.chain n;
    n
  in
  let poke_at = 40_000 in
  let poked =
    Snapshot.Bisect.net_subject
      ~poke:{ Snapshot.Bisect.poke_at; poke_value = 0x77 }
      boot
  in
  let clean = Snapshot.Bisect.net_subject ~domains:2 boot in
  match Snapshot.Bisect.hunt ~max_cycles:150_000 poked clean with
  | Snapshot.Bisect.Identical _ -> Alcotest.fail "missed the net poke"
  | Snapshot.Bisect.Diverged { lo; hi; _ } ->
    let quantum = 5_000 in
    Alcotest.(check bool)
      (Printf.sprintf "interval (%d, %d] brackets the poke quantum" lo hi)
      true
      (lo < hi && hi >= poke_at && lo <= poke_at + quantum)

let () =
  Alcotest.run "snapshot"
    [ ("machine",
       [ Alcotest.test_case "round-trip over a stale program (tier-1)" `Quick
           machine_round_trip;
         Alcotest.test_case "round-trip (tier-0)" `Quick
           machine_round_trip_interp ]);
      ("kernel",
       [ Alcotest.test_case "round-trip (tier-1)" `Quick
           (kernel_round_trip ~capture_tier:1 ~resume_tier:1
              ~at:50_000 ~horizon:200_000);
         Alcotest.test_case "round-trip (tier-0)" `Quick
           (kernel_round_trip ~capture_tier:0 ~resume_tier:0
              ~at:50_000 ~horizon:200_000);
         Alcotest.test_case "round-trip (capture tier-1, resume tier-0)"
           `Quick
           (kernel_round_trip ~capture_tier:1 ~resume_tier:0
              ~at:33_000 ~horizon:150_000);
         Gen.to_alcotest prop_random_capture_cycle ]);
      ("net",
       [ Alcotest.test_case "round-trip, 1 domain" `Quick (net_round_trip 1);
         Alcotest.test_case "round-trip, 2 domains" `Quick (net_round_trip 2);
         Alcotest.test_case "round-trip, 4 domains" `Quick (net_round_trip 4);
         Alcotest.test_case "restored fleet shares one block table" `Quick
           fleet_restore_shares_tables;
         Alcotest.test_case "trace merge order after restore" `Quick
           net_trace_order_after_restore;
         Alcotest.test_case "checkpoint cadence" `Quick
           net_checkpoint_cadence ]);
      ("serialization",
       [ Alcotest.test_case "round-trip" `Quick serialization_round_trip;
         Alcotest.test_case "wire bytes pinned" `Quick wire_bytes_pinned;
         Alcotest.test_case "empty diff iff equal bytes" `Quick
           diff_iff_equal_bytes;
         Alcotest.test_case "grown flash round-trip" `Quick grown_flash_round_trip;
         Alcotest.test_case "restore keeps a template image" `Quick
           restore_keeps_template_image;
         Alcotest.test_case "corrupt inputs rejected" `Quick
           corrupt_inputs_rejected;
         Alcotest.test_case "save/load file" `Quick save_load_file;
         Gen.to_alcotest prop_capture_invariants ]);
      ("compatibility",
       [ Alcotest.test_case "incompatible hosts rejected" `Quick
           incompatible_hosts_rejected ]);
      ("hostile",
       [ Alcotest.test_case "u16 array length overflow" `Quick
           (hostile_length_rejected u16_length_overflow);
         Alcotest.test_case "int array length beyond input" `Quick
           (hostile_length_rejected int_array_length_beyond_input);
         Alcotest.test_case "pc outside flash" `Quick hostile_pc_rejected;
         Alcotest.test_case "flash not 64 K words" `Quick hostile_flash_length ]);
      ("bisect",
       [ Alcotest.test_case "clean tiers are identical" `Quick
           bisect_clean_tiers;
         Alcotest.test_case "finds an injected divergence" `Quick
           bisect_finds_injected_divergence;
         Alcotest.test_case "net subject pokes on a quantum" `Quick
           bisect_net_poke ]) ]
