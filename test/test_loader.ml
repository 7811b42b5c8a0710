(* Tests for lib/loader: Intel-HEX and AVR ELF parsing (every
   malformed input a precise typed error), round-trips through both
   serializations, regeneration of the checked-in fixture files, and
   the acceptance path of the rewriting pipeline — a fixture loaded
   from HEX/ELF bytes, rewritten symbol-less, and run byte-identically
   across all three execution tiers. *)

(* Tier-2 compiles are gated behind an executed-instruction threshold
   in normal use; the differential cases want them immediately. *)
let () = Machine.Aot.set_threshold 0

let fixtures = Loader.Firmware.all ()

let fixture name =
  match Loader.Firmware.find name with
  | Some f -> f
  | None -> Alcotest.failf "no fixture %s" name

let check_hex_error what input expected =
  match Loader.Hex.parse input with
  | Ok _ -> Alcotest.failf "%s: parse succeeded" what
  | Error e ->
    Alcotest.(check string) what
      (Loader.Hex.error_message expected)
      (Loader.Hex.error_message e)

(* --- Intel-HEX ------------------------------------------------------- *)

(* :0201000012EF${cksum}: two bytes 12 EF at address 0x0100. *)
let rec_data = ":0201000012EFFC\n"
let rec_eof = ":00000001FF\n"

let hex_minimal () =
  match Loader.Hex.parse (rec_data ^ rec_eof) with
  | Error e -> Alcotest.failf "minimal: %s" (Loader.Hex.error_message e)
  | Ok [ (addr, b) ] ->
    Alcotest.(check int) "addr" 0x100 addr;
    Alcotest.(check string) "bytes" "\x12\xEF" (Bytes.to_string b)
  | Ok segs -> Alcotest.failf "minimal: %d segments" (List.length segs)

let hex_checksum_mismatch () =
  (* Flip one payload bit; the record checksum no longer matches. *)
  check_hex_error "corrupt payload" (":0201000013EFFC\n" ^ rec_eof)
    (Bad_checksum { line = 1; expected = 0xFB; got = 0xFC })

let hex_bad_char () =
  check_hex_error "non-hex digit"
    (":02010000G2EFFC\n" ^ rec_eof)
    (Bad_char { line = 1; pos = 9 });
  check_hex_error "missing colon" ("0201000012EFFC\n" ^ rec_eof)
    (Bad_char { line = 1; pos = 0 })

let hex_bad_length () =
  (* Declared 4 data bytes, supplied 2. *)
  check_hex_error "short record" (":0401000012EFFA\n" ^ rec_eof)
    (Bad_length { line = 1 })

let hex_bad_type () =
  (* Record type 06 is not in the Intel-HEX spec. *)
  check_hex_error "unknown type" (":0201000612EFF6\n" ^ rec_eof)
    (Bad_type { line = 1; rtype = 6 })

let hex_missing_eof () =
  check_hex_error "no EOF record" rec_data Missing_eof

let hex_overlap () =
  match Loader.Hex.parse (rec_data ^ rec_data ^ rec_eof) with
  | Error (Overlap { addr; _ }) -> Alcotest.(check int) "overlap addr" 0x100 addr
  | Error e -> Alcotest.failf "overlap: %s" (Loader.Hex.error_message e)
  | Ok _ -> Alcotest.fail "overlap: parse succeeded"

let hex_out_of_order () =
  (* avr-objcopy emits sections in link order, not address order: the
     same bytes permuted must parse to the same merged segments. *)
  let lo = ":020000001234B8\n" and hi = ":02000200ABCD84\n" in
  let parse s =
    match Loader.Hex.parse s with
    | Ok segs ->
      List.map (fun (a, b) -> (a, Bytes.to_string b)) segs
    | Error e -> Alcotest.failf "out-of-order: %s" (Loader.Hex.error_message e)
  in
  let in_order = parse (lo ^ hi ^ rec_eof) in
  let reversed = parse (hi ^ lo ^ rec_eof) in
  Alcotest.(check (list (pair int string))) "same merged segments"
    in_order reversed;
  Alcotest.(check (list (pair int string))) "one contiguous segment"
    [ (0, "\x12\x34\xAB\xCD") ] in_order

let hex_roundtrip () =
  List.iter
    (fun (f : Loader.Firmware.t) ->
      match Loader.Hex.parse f.hex with
      | Error e -> Alcotest.failf "%s: %s" f.name (Loader.Hex.error_message e)
      | Ok segs ->
        Alcotest.(check string)
          (f.name ^ ": encode . parse = id")
          f.hex (Loader.Hex.encode segs))
    fixtures

let hex_high_segment () =
  (* A 04 record relocates subsequent data above 64 KiB. *)
  let input = ":020000040001F9\n:0200000012AB41\n" ^ rec_eof in
  match Loader.Hex.parse input with
  | Ok [ (addr, _) ] -> Alcotest.(check int) "extended address" 0x10000 addr
  | Ok segs -> Alcotest.failf "high segment: %d segments" (List.length segs)
  | Error e -> Alcotest.failf "high segment: %s" (Loader.Hex.error_message e)

(* --- ELF -------------------------------------------------------------- *)

let check_elf_error what input expected =
  match Loader.Elf.parse input with
  | Ok _ -> Alcotest.failf "%s: parse succeeded" what
  | Error e ->
    Alcotest.(check string) what
      (Loader.Elf.error_message expected)
      (Loader.Elf.error_message e)

let elf_bad_magic () =
  check_elf_error "text file" (String.make 64 'x') Loader.Elf.Bad_magic

let elf_truncated () =
  let elf = (fixture "dispatch").elf in
  (* Cut inside the ELF header... *)
  check_elf_error "header cut" (String.sub elf 0 30)
    (Truncated { what = "ELF header"; need = 52; have = 30 });
  (* ...inside the program header table... *)
  check_elf_error "phdr cut" (String.sub elf 0 60)
    (Truncated { what = "program header 0"; need = 84; have = 60 });
  (* ...and inside a segment's bytes. *)
  let cut = 120 in
  match Loader.Elf.parse (String.sub elf 0 cut) with
  | Error (Truncated { what = "segment 0 data"; have; _ }) ->
    Alcotest.(check int) "have" cut have
  | Error e -> Alcotest.failf "segment cut: %s" (Loader.Elf.error_message e)
  | Ok _ -> Alcotest.fail "segment cut: parse succeeded"

let elf_not_avr () =
  let elf = (fixture "blink").elf in
  let b = Bytes.of_string elf in
  Bytes.set b 18 '\x03' (* EM_386 *);
  check_elf_error "wrong machine" (Bytes.to_string b)
    (Not_avr { machine = 3 })

(* The program header table is bounded by the file: a zero entry size
   once parsed the 330-byte blink image as 65 535 copies of one
   segment, and a 32-byte entry size with the same count must stop at
   the first header past the end of the file. *)
let elf_header_table_bounded () =
  let patched ~phentsize ~phnum =
    let b = Bytes.of_string (fixture "blink").elf in
    Bytes.set_uint16_le b 42 phentsize;
    Bytes.set_uint16_le b 44 phnum;
    Bytes.to_string b
  in
  check_elf_error "zero entry size"
    (patched ~phentsize:0 ~phnum:65535)
    (Bad_phentsize { phentsize = 0 });
  check_elf_error "short entry size"
    (patched ~phentsize:31 ~phnum:2)
    (Bad_phentsize { phentsize = 31 });
  check_elf_error "table past the end"
    (patched ~phentsize:32 ~phnum:65535)
    (Truncated { what = "program header 8"; need = 340; have = 330 })

let elf_data_segment () =
  (* dispatch carries a loadable .data image: avr-gcc's convention puts
     the virtual address in data space (0x800000 + logical) and the
     flash load address in p_paddr. *)
  let f = fixture "dispatch" in
  match Loader.Elf.parse f.elf with
  | Error e -> Alcotest.failf "dispatch elf: %s" (Loader.Elf.error_message e)
  | Ok { segments = [ text; data ]; entry } ->
    Alcotest.(check int) "entry" 0 entry;
    Alcotest.(check int) "text vaddr" 0 text.vaddr;
    Alcotest.(check int) "text size" f.text_bytes text.filesz;
    Alcotest.(check int) "data vaddr"
      (Loader.Elf.data_space + Asm.Image.heap_base)
      data.vaddr;
    Alcotest.(check int) "data LMA after text" f.text_bytes data.paddr;
    Alcotest.(check int) "rodata bytes" 8 data.filesz;
    Alcotest.(check int) ".data+.bss footprint" f.data_size data.memsz
  | Ok { segments; _ } ->
    Alcotest.failf "dispatch elf: %d segments" (List.length segments)

let elf_rejects_low_data () =
  (* A data segment below the heap base contradicts the AVR layout. *)
  let seg v =
    { Loader.Elf.vaddr = v; paddr = 0; filesz = 2; memsz = 2; data = "\x01\x02" }
  in
  let elf = Loader.Elf.encode ~entry:0 [ seg (Loader.Elf.data_space + 0x60) ] in
  match Loader.Load.of_elf ~name:"bad" elf with
  | Error (Bad_layout _) -> ()
  | Error e -> Alcotest.failf "low data: %s" (Loader.Load.error_message e)
  | Ok _ -> Alcotest.fail "low data: load succeeded"

(* --- fixture regeneration -------------------------------------------- *)

(* Under `dune runtest` the cwd is the test directory; under
   `dune exec` it is wherever the user stood — try both. *)
let read_file name =
  let candidates = [ "fixtures/" ^ name; "test/fixtures/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.failf "missing fixture file %s" name

let regeneration () =
  (* The checked-in files under test/fixtures/ must be exactly what
     Loader.Firmware serializes — the fixtures' provenance (built by
     the in-tree assembler in avr-gcc's image shape; no AVR cross
     toolchain in this environment) is pinned by this byte match. *)
  List.iter
    (fun (f : Loader.Firmware.t) ->
      Alcotest.(check string) (f.name ^ ".hex") f.hex
        (read_file (f.name ^ ".hex"));
      Alcotest.(check string) (f.name ^ ".elf") f.elf
        (read_file (f.name ^ ".elf")))
    fixtures

let loads_agree () =
  (* HEX and ELF carry different metadata but must reconstruct the
     same image: same flash words, text boundary, heap footprint. *)
  List.iter
    (fun (f : Loader.Firmware.t) ->
      let h = Loader.Firmware.load_hex f in
      let e = Loader.Firmware.load_elf f in
      Alcotest.(check bool) (f.name ^ ": words") true (h.words = e.words);
      Alcotest.(check bool) (f.name ^ ": words = source") true
        (h.words = f.source.words);
      Alcotest.(check int) (f.name ^ ": text_words") h.text_words e.text_words;
      Alcotest.(check int) (f.name ^ ": data_size") h.data_size e.data_size;
      Alcotest.(check int) (f.name ^ ": entry") h.entry e.entry;
      Alcotest.(check bool) (f.name ^ ": symbol-less") true (h.symbols = []))
    fixtures

(* --- load -> rewrite -> run ------------------------------------------ *)

(* Observable end state of a kernel run, for cross-tier comparison. *)
let snapshot (k : Kernel.t) =
  let m = k.m in
  [ ("regs", String.concat "," (List.map string_of_int (Array.to_list m.regs)));
    ("pc", string_of_int m.pc);
    ("sp", string_of_int m.sp);
    ("sreg", string_of_int m.sreg);
    ("cycles", string_of_int m.cycles);
    ("insns", string_of_int m.insns);
    ("sram", Digest.to_hex (Digest.bytes m.sram));
    ("traps", string_of_int k.stats.traps) ]

let run_fixture ~tier (img : Asm.Image.t) =
  let k = Kernel.boot [ img ] in
  (match Kernel.run ~tier ~max_cycles:50_000_000 k with
   | Machine.Cpu.Halted Break_hit -> ()
   | s -> Alcotest.failf "%s tier %d: %a" img.name tier Machine.Cpu.pp_stop s);
  k

let tier_identity () =
  (* The acceptance path: each fixture, loaded from its HEX bytes
     (symbol-less), must boot under the kernel and end in exactly the
     same machine state on the interpreter, the block compiler, and
     the AOT engine. *)
  List.iter
    (fun (f : Loader.Firmware.t) ->
      let ref_snap = snapshot (run_fixture ~tier:0 (Loader.Firmware.load_hex f)) in
      List.iter
        (fun tier ->
          let s = snapshot (run_fixture ~tier (Loader.Firmware.load_hex f)) in
          List.iter2
            (fun (key, v0) (key', v) ->
              assert (key = key');
              Alcotest.(check string)
                (Printf.sprintf "%s tier %d: %s" f.name tier key)
                v0 v)
            ref_snap s)
        [ 1; 2 ])
    fixtures

let result_byte f k off = Kernel.heap_byte k 0 ((Loader.Firmware.find f |> Option.get).result_addr + off)

let blink_result () =
  let k = run_fixture ~tier:1 (Loader.Firmware.load_hex (fixture "blink")) in
  (* 8 toggles bring the LED back to 0; the loop counter sticks at 8. *)
  Alcotest.(check int) "count" 8 (result_byte "blink" k 0)

let dispatch_result () =
  (* Handlers fold the flash-primed coefficients [3;5;7;11]:
     ((0+3) xor 5) + 7 = 13, then 13 xor 11 = 6.  Exercises the .data
     copy loop (LPM through the relocated rodata), ICALL translation,
     and conservative recovery — all from symbol-less bytes. *)
  let via_hex = run_fixture ~tier:1 (Loader.Firmware.load_hex (fixture "dispatch")) in
  let via_elf = run_fixture ~tier:1 (Loader.Firmware.load_elf (fixture "dispatch")) in
  Alcotest.(check int) "result lo (hex)" 6 (result_byte "dispatch" via_hex 0);
  Alcotest.(check int) "result hi (hex)" 0 (result_byte "dispatch" via_hex 1);
  Alcotest.(check int) "result lo (elf)" 6 (result_byte "dispatch" via_elf 0)

let sense_result () =
  (* ADC readings come from the simulated peripheral, so assert the
     native run and the kernel run of the same bytes agree rather than
     a constant. *)
  let f = fixture "sense" in
  let k = run_fixture ~tier:1 (Loader.Firmware.load_hex f) in
  let native = Workloads.Native.run ~tier:1 ~max_cycles:50_000_000 f.source in
  let native_sum =
    Bytes.get_uint8 native.machine.sram f.result_addr
    lor (Bytes.get_uint8 native.machine.sram (f.result_addr + 1) lsl 8)
  in
  let kernel_sum = result_byte "sense" k 0 lor (result_byte "sense" k 1 lsl 8) in
  Alcotest.(check int) "sum preserved under rewriting" native_sum kernel_sum

let rewrite_report_sane () =
  List.iter
    (fun (f : Loader.Firmware.t) ->
      let img = Loader.Firmware.load_hex f in
      let _nat, report = Rewriter.Rewrite.pipeline ~base:0 img in
      Alcotest.(check string) (f.name ^ ": program") f.name report.program;
      Alcotest.(check int) (f.name ^ ": native size")
        (Asm.Image.total_bytes img) report.native_bytes;
      Alcotest.(check int) (f.name ^ ": size accounting")
        report.total_bytes
        (report.rewritten_text_bytes + report.rodata_bytes + report.support_bytes);
      Alcotest.(check bool) (f.name ^ ": blocks recovered") true
        (report.blocks_recovered > 0);
      (* dispatch has ICALL and, symbol-less, must go conservative; the
         straight-line fixtures must not. *)
      Alcotest.(check bool) (f.name ^ ": conservative") (f.name = "dispatch")
        report.conservative)
    fixtures

let () =
  Alcotest.run "loader"
    [ ("hex",
       [ Alcotest.test_case "minimal file" `Quick hex_minimal;
         Alcotest.test_case "checksum mismatch" `Quick hex_checksum_mismatch;
         Alcotest.test_case "bad character" `Quick hex_bad_char;
         Alcotest.test_case "bad length" `Quick hex_bad_length;
         Alcotest.test_case "bad record type" `Quick hex_bad_type;
         Alcotest.test_case "missing EOF" `Quick hex_missing_eof;
         Alcotest.test_case "overlap" `Quick hex_overlap;
         Alcotest.test_case "out-of-order records" `Quick hex_out_of_order;
         Alcotest.test_case "fixture round-trip" `Quick hex_roundtrip;
         Alcotest.test_case "extended addressing" `Quick hex_high_segment ]);
      ("elf",
       [ Alcotest.test_case "bad magic" `Quick elf_bad_magic;
         Alcotest.test_case "truncated" `Quick elf_truncated;
         Alcotest.test_case "not AVR" `Quick elf_not_avr;
         Alcotest.test_case "header table bounded" `Quick
           elf_header_table_bounded;
         Alcotest.test_case "data segment" `Quick elf_data_segment;
         Alcotest.test_case "data below heap base" `Quick elf_rejects_low_data ]);
      ("fixtures",
       [ Alcotest.test_case "regeneration byte-match" `Quick regeneration;
         Alcotest.test_case "hex and elf loads agree" `Quick loads_agree ]);
      ("run",
       [ Alcotest.test_case "tier identity" `Quick tier_identity;
         Alcotest.test_case "blink result" `Quick blink_result;
         Alcotest.test_case "dispatch result" `Quick dispatch_result;
         Alcotest.test_case "sense result" `Quick sense_result;
         Alcotest.test_case "report invariants" `Quick rewrite_report_sane ]) ]
