(* Tier-2 background compilation (see {!Machine.Aot}): a machine that
   crosses the heat threshold keeps running on tier-1 while its compile
   runs as a child process, and binds once the artifact loads.  A run
   shorter than its compile waits for it at exit and leaves its artifact,
   but no compiler and no build directory, behind; a cached artifact
   counts as a hit only when it loads; and a bound machine retires its
   instructions in compiled code. *)

(* A private, empty artifact cache, set before {!Machine.Aot} first
   reads it. *)
let cache =
  let d = Filename.temp_file "sensmart-aot-test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  Unix.putenv "SENSMART_AOT_CACHE" d;
  d

let image name = Option.get (Workloads.Registry.find_image name)

let tiny k =
  let open Asm.Macros in
  Asm.Assembler.assemble
    (Asm.Ast.program "tiny" (lbl "start" :: (sp_init @ [ ldi 24 k; break ])))

let digest (img : Asm.Image.t) =
  let fl = Array.make Machine.Layout.flash_words 0xFFFF in
  Array.blit img.words 0 fl 0 (Array.length img.words);
  Machine.Aot.digest_of_flash fl

let boot (img : Asm.Image.t) =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m img.words;
  List.iter (fun (a, b) -> Machine.Cpu.write8 m a b) img.data_init;
  m.pc <- img.entry;
  m

let snapshot (m : Machine.Cpu.t) =
  [ String.concat "," (List.map string_of_int (Array.to_list m.regs));
    Printf.sprintf "pc %d sp %d sreg %d" m.pc m.sp m.sreg;
    Printf.sprintf "cycles %d idle %d insns %d" m.cycles m.idle_cycles m.insns;
    Printf.sprintf "mem %d/%d io %d/%d" m.mem_reads m.mem_writes m.io_reads m.io_writes;
    Fmt.str "%a" Fmt.(option Machine.Cpu.pp_halt) m.halted;
    Digest.to_hex (Digest.bytes m.sram) ]

let run ~tier img = (Workloads.Native.run ~tier img).machine
let bound (m : Machine.Cpu.t) = match m.t2 with T2_ready _ -> true | _ -> false

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Live processes working in the cache: the compiler driver and every
   tool it starts name a file under it.  Zombies have no command line. *)
let compilers_alive () =
  Array.exists
    (fun p ->
      int_of_string_opt p <> None
      &&
      match In_channel.with_open_bin ("/proc/" ^ p ^ "/cmdline") In_channel.input_all with
      | line -> contains line cache
      | exception Sys_error _ -> false)
    (try Sys.readdir "/proc" with Sys_error _ -> [||])

(* Right after launch, a loaded host may not yet show the child under
   /proc with the toolchain's command line: look again for a while
   before concluding no compiler runs.  A compiler that already exited
   stays invisible, so this cannot turn a finished compile into a
   running one. *)
let compiler_appears () =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec look () =
    compilers_alive ()
    || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.005; look ()))
  in
  look ()

let build_dirs () =
  List.filter (String.starts_with ~prefix:"build-") (Array.to_list (Sys.readdir cache))

let check_counts what ~hits ~compiles (s0 : Machine.Aot.stat) =
  let s1 = Machine.Aot.stats () in
  Alcotest.(check int) (what ^ ": cache hits") hits (s1.cache_hits - s0.cache_hits);
  Alcotest.(check int) (what ^ ": compiles") compiles (s1.compiles - s0.compiles)

(* Build, in a scratch directory, a real plugin against a stub
   [Machine__State] whose interface differs from the linked one, so
   Dynlink rejects it with an interface mismatch: what every cached
   artifact meets after a change to the machine's interfaces. *)
let build_mismatched out =
  let dir = Filename.temp_dir "sensmart-aot-stub" "" in
  let write name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let mli = write "machine__State.mli" "type t = { stub : int }\n" in
  let ml = write "sensmart_aot_stub.ml" "let f (m : Machine__State.t) = m.stub\n" in
  let cc = Option.get (Lazy.force Machine.Aot.compiler) in
  let log = Filename.concat dir "log" in
  let ok argv = Machine.Aot.run_tool (Array.append cc argv) ~log = Some (Unix.WEXITED 0) in
  let built = ok [| "-c"; mli |] && ok [| "-shared"; "-I"; dir; ml; "-o"; out |] in
  Machine.Aot.remove_dir dir;
  if not built then Alcotest.fail "stub plugin did not build"

(* A corrupt cached artifact, and one built against another interface
   of the machine, is removed and rebuilt: one compile, and no cache
   hit, on both the eager path and the batch preload. *)
let corrupt_artifact () =
  Machine.Aot.set_threshold 0;
  let garbage img =
    Out_channel.with_open_bin
      (Filename.concat cache (digest img ^ ".cmxs"))
      (fun oc -> output_string oc "not a shared object")
  and mismatched img = build_mismatched (Filename.concat cache (digest img ^ ".cmxs")) in
  List.iter
    (fun (plant, k_eager, k_preload) ->
      let a = tiny k_eager and b = tiny k_preload in
      plant a;
      plant b;
      let s0 = Machine.Aot.stats () in
      let m = run ~tier:2 a in
      check_counts "eager" ~hits:0 ~compiles:1 s0;
      Alcotest.(check bool) "eager: bound" true (bound m);
      Alcotest.(check int) "eager: result" k_eager m.regs.(24);
      let s0 = Machine.Aot.stats () in
      Machine.Aot.preload [ b.words ];
      check_counts "preload" ~hits:0 ~compiles:1 s0;
      let m = run ~tier:2 b in
      Alcotest.(check bool) "preload: bound" true (bound m);
      Alcotest.(check int) "preload: result" k_preload m.regs.(24))
    [ (garbage, 11, 13); (mismatched, 17, 19) ]

(* After [Aot.shutdown ()], which waits for the compile in flight: no
   compiler is alive, no build directory is left, and the cache holds
   the artifact of [img], the image that was compiling.  A freshly
   booted machine of [img] then binds from the disk cache at first
   sight, with no compile of its own, and matches tier-0. *)
let shutdown_caches img =
  Machine.Aot.shutdown ();
  Alcotest.(check bool) "no compiler alive" false (compilers_alive ());
  Alcotest.(check (list string)) "no build dir" [] (build_dirs ());
  Alcotest.(check bool) "artifact cached" true
    (Sys.file_exists (Filename.concat cache (digest img ^ ".cmxs")));
  let s0 = Machine.Aot.stats () in
  let m = boot img in
  ignore (Machine.Cpu.run_native ~tier:2 ~max_cycles:(m.cycles + 1) m);
  Alcotest.(check bool) "bound at first sight" true (bound m);
  Alcotest.(check int) "cache hit" 1 ((Machine.Aot.stats ()).cache_hits - s0.cache_hits);
  Alcotest.(check int) "no launch" 0 ((Machine.Aot.stats ()).launched - s0.launched);
  ignore (Machine.Cpu.run_native ~tier:2 m);
  Alcotest.(check (list string)) "matches tier-0" (snapshot (run ~tier:0 img)) (snapshot m)

(* A run that ends while its compile is still running matches tier-1;
   shutdown then lets the compile finish and caches its artifact. *)
let pending_at_halt () =
  Machine.Aot.set_threshold 1_000;
  let img = image "readadc" in
  let s0 = Machine.Aot.stats () in
  let m = run ~tier:2 img in
  Alcotest.(check (list string)) "matches tier-1" (snapshot (run ~tier:1 img)) (snapshot m);
  Alcotest.(check bool) "still waiting" true
    (match m.t2 with T2_wait _ -> true | _ -> false);
  Alcotest.(check int) "compile launched" 1
    ((Machine.Aot.stats ()).launched - s0.launched);
  Alcotest.(check bool) "compiler running" true (compiler_appears ());
  shutdown_caches img

(* One compile at a time: an image that crosses the threshold while
   another image's compile runs waits on tier-1 without a compile of
   its own, so shutdown has exactly one compile to wait for, and caches
   only the first image. *)
let one_compile_at_a_time () =
  Machine.Aot.set_threshold 1_000;
  let s0 = Machine.Aot.stats () in
  let first = image "amplitude" and img = image "am" in
  ignore (run ~tier:2 first);
  let m = run ~tier:2 img in
  Alcotest.(check int) "one compile launched" 1
    ((Machine.Aot.stats ()).launched - s0.launched);
  Alcotest.(check bool) "second image waiting" true
    (match m.t2 with T2_wait _ -> true | _ -> false);
  Alcotest.(check (list string)) "matches tier-1" (snapshot (run ~tier:1 img)) (snapshot m);
  shutdown_caches first;
  Alcotest.(check bool) "second image not cached" false
    (Sys.file_exists (Filename.concat cache (digest img ^ ".cmxs")))

(* The image that waited for the slot starts its compile once the first
   image's compile has left it, and binds in turn.  Both machines are
   sliced, and each waits out the compiler it started, so the order of
   events does not depend on how long a compile takes. *)
let waiting_image_binds_next () =
  Machine.Aot.set_threshold 1_000;
  let a = image "crc" and b = image "lfsr_mc" in
  let ma = boot a and mb = boot b in
  let s0 = Machine.Aot.stats () in
  let launched () = (Machine.Aot.stats ()).launched - s0.launched in
  let deadline = Unix.gettimeofday () +. 120. in
  let rec slice m until =
    if not (until ()) then begin
      if Unix.gettimeofday () > deadline then Alcotest.fail "deadline passed";
      (match Machine.Cpu.run_native ~tier:2 ~max_cycles:(m.Machine.Cpu.cycles + 500) m with
       | Some _ -> Alcotest.fail "halted before its compile bound"
       | None -> ());
      slice m until
    end
  in
  (* The compiler just launched: let it show up, then wait for it to
     exit.  The machine that started it reaps it at its next poll. *)
  let compiler_exits () =
    ignore (compiler_appears ());
    let rec wait () =
      if compilers_alive () then begin
        if Unix.gettimeofday () > deadline then Alcotest.fail "compiler still running";
        Unix.sleepf 0.02;
        wait ()
      end
    in
    wait ()
  in
  slice ma (fun () -> launched () = 1);
  (* Past its threshold, and polled once, while [a] compiles. *)
  slice mb (fun () -> mb.insns > 3_000);
  Alcotest.(check int) "waiting image starts no compile" 1 (launched ());
  compiler_exits ();
  slice ma (fun () -> bound ma);
  Alcotest.(check bool) "second image still waiting" true
    (match mb.t2 with T2_wait _ -> true | _ -> false);
  slice mb (fun () -> launched () = 2);
  compiler_exits ();
  slice mb (fun () -> bound mb);
  List.iter
    (fun (img, m) ->
      ignore (Machine.Cpu.run_native ~tier:2 m);
      Alcotest.(check (list string)) "matches tier-0" (snapshot (run ~tier:0 img)) (snapshot m);
      Alcotest.(check bool) "artifact cached" true
        (Sys.file_exists (Filename.concat cache (digest img ^ ".cmxs"))))
    [ (a, ma); (b, mb) ];
  Alcotest.(check (list string)) "no build dir" [] (build_dirs ())

(* A long run binds while it runs: sliced so that tier-1 keeps going
   while the compile does, until the machine is bound.  The rest runs on
   tier-2, and the final state equals tier-0's. *)
let binds_while_running () =
  Machine.Aot.set_threshold 1_000;
  let img = image "crc_mc" in
  let m = boot img in
  let deadline = Unix.gettimeofday () +. 120. in
  let rec slice () =
    match Machine.Cpu.run_native ~tier:2 ~max_cycles:(m.cycles + 500) m with
    | Some _ -> Alcotest.fail "halted before its compile bound"
    | None when bound m -> ()
    | None when Unix.gettimeofday () > deadline -> Alcotest.fail "not bound by the deadline"
    | None ->
      Unix.sleepf 0.02;
      slice ()
  in
  slice ();
  ignore (Machine.Cpu.run_native ~tier:2 m);
  Alcotest.(check (list string)) "matches tier-0" (snapshot (run ~tier:0 img)) (snapshot m);
  Alcotest.(check bool) "artifact cached" true
    (Sys.file_exists (Filename.concat cache (digest img ^ ".cmxs")));
  Alcotest.(check (list string)) "no build dir" [] (build_dirs ())

(* Compiled code runs: a bound machine retires most of its
   instructions in compiled code ([Aot.stats]'s [t2_insns]), and the
   same program at tier 1 retires none there.  Tier-1 fallback is
   bit-identical, so the final state alone cannot show this. *)
let compiled_code_runs () =
  Machine.Aot.set_threshold 0;
  let img = image "lfsr" in
  let retired tier =
    let before = (Machine.Aot.stats ()).t2_insns in
    let m = run ~tier img in
    (m, (Machine.Aot.stats ()).t2_insns - before)
  in
  let m1, t1 = retired 1 in
  Alcotest.(check int) "tier 1: none compiled" 0 t1;
  let m2, t2 = retired 2 in
  Alcotest.(check bool) "bound" true (bound m2);
  Alcotest.(check bool)
    (Printf.sprintf "tier 2: most compiled (%d of %d)" t2 m2.insns)
    true
    (2 * t2 > m2.insns && t2 <= m2.insns);
  Alcotest.(check (list string)) "matches tier-1" (snapshot m1) (snapshot m2)

let () =
  Fun.protect
    ~finally:(fun () ->
      Machine.Aot.shutdown ();
      Array.iter (fun f -> Sys.remove (Filename.concat cache f)) (Sys.readdir cache);
      Unix.rmdir cache)
    (fun () ->
      Alcotest.run ~and_exit:false "aot"
        [ ( "background",
            [ Alcotest.test_case "corrupt cached artifact" `Quick corrupt_artifact;
              Alcotest.test_case "run ends before its compile" `Quick pending_at_halt;
              Alcotest.test_case "one compile at a time" `Quick one_compile_at_a_time;
              Alcotest.test_case "binds while running" `Quick binds_while_running;
              Alcotest.test_case "waiting image binds next" `Quick waiting_image_binds_next;
              Alcotest.test_case "compiled code runs" `Quick compiled_code_runs ] ) ])
