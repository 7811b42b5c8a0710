(* Tier-2 with no OCaml compiler on PATH: the run still matches tier-1,
   and {!Machine.Aot.stats} says why tier-2 turned itself off. *)

(* No compiler, and a private, empty artifact cache. *)
let cache =
  let d = Filename.temp_file "sensmart-aot-test" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  Unix.putenv "SENSMART_AOT_CACHE" d;
  Unix.putenv "PATH" "/nonexistent";
  Machine.Aot.set_threshold 1_000;
  d

let no_compiler () =
  let img = Option.get (Workloads.Registry.find_image "crc") in
  let run tier = (Workloads.Native.run ~tier img).machine in
  let m1 = run 1 and m2 = run 2 in
  Alcotest.(check (list int)) "registers" (Array.to_list m1.regs) (Array.to_list m2.regs);
  Alcotest.(check (list int)) "pc, cycles, insns"
    [ m1.pc; m1.cycles; m1.insns ] [ m2.pc; m2.cycles; m2.insns ];
  Alcotest.(check string) "sram" (Digest.to_hex (Digest.bytes m1.sram))
    (Digest.to_hex (Digest.bytes m2.sram));
  Alcotest.(check bool) "off" true (match m2.t2 with T2_off -> true | _ -> false);
  let s = Machine.Aot.stats () in
  Alcotest.(check (option string)) "disabled" (Some "no OCaml compiler on PATH") s.disabled;
  Alcotest.(check int) "launched" 0 s.launched

let () =
  Fun.protect
    ~finally:(fun () -> Unix.rmdir cache)
    (fun () ->
      Alcotest.run ~and_exit:false "aot_off"
        [ ("no toolchain", [ Alcotest.test_case "falls back to tier-1" `Quick no_compiler ]) ])
