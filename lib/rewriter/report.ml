(* The aggregated machine-readable rewrite report. *)

type t = {
  program : string;
  base : int;
  entry : int;
  native_bytes : int;
  text_bytes : int;
  rewritten_text_bytes : int;
  rodata_bytes : int;
  support_bytes : int;
  total_bytes : int;
  bytes_inflated : int;
  inflation_permille : int;
  blocks_recovered : int;
  small_blocks : int;
  unreachable_insns : int;
  reused_bytes : int;
  insns_patched : int;
  trampolines : int;
  trampolines_merged : int;
  shift_entries : int;
  unrelocatable_terms : int;
  conservative : bool;
  mapping : (int * int) array;
  diagnostics : Diagnostic.t list;
}

let make ~(recovery : Recovery.t) ~transform_diags
    ~(outcome : Redirection.outcome) (img : Asm.Image.t) : t =
  let nat = outcome.nat in
  let native_bytes = Asm.Image.total_bytes img in
  let total_bytes = Naturalized.total_bytes nat in
  { program = img.name;
    base = nat.base;
    entry = nat.entry;
    native_bytes;
    text_bytes = Asm.Image.text_bytes img;
    rewritten_text_bytes = 2 * nat.text_words;
    rodata_bytes = 2 * nat.rodata_words;
    support_bytes = 2 * nat.support_words;
    total_bytes;
    bytes_inflated = total_bytes - native_bytes;
    inflation_permille =
      (if native_bytes = 0 then 0 else total_bytes * 1000 / native_bytes);
    blocks_recovered = Array.length recovery.blocks;
    small_blocks = recovery.small_blocks;
    unreachable_insns = recovery.unreachable_insns;
    reused_bytes = 2 * outcome.reused_words;
    insns_patched = nat.stats.patched;
    trampolines = nat.stats.trampolines;
    trampolines_merged = nat.stats.merged;
    shift_entries = nat.stats.shift_entries;
    unrelocatable_terms = List.length recovery.unrelocatable;
    conservative = recovery.conservative;
    mapping = outcome.mapping;
    diagnostics = recovery.diags @ transform_diags @ outcome.diags }

let to_json t =
  let b = Buffer.create 1024 in
  let field name v = Buffer.add_string b (Printf.sprintf "\"%s\":%s," name v) in
  let int name v = field name (string_of_int v) in
  Buffer.add_char b '{';
  field "schema" "\"sensmart.rewrite.report/1\"";
  field "program" (Printf.sprintf "\"%s\"" (Trace.escape_string t.program));
  int "base" t.base;
  int "entry" t.entry;
  int "native_bytes" t.native_bytes;
  int "text_bytes" t.text_bytes;
  int "rewritten_text_bytes" t.rewritten_text_bytes;
  int "rodata_bytes" t.rodata_bytes;
  int "support_bytes" t.support_bytes;
  int "total_bytes" t.total_bytes;
  int "bytes_inflated" t.bytes_inflated;
  int "inflation_permille" t.inflation_permille;
  int "blocks_recovered" t.blocks_recovered;
  int "small_blocks" t.small_blocks;
  int "unreachable_insns" t.unreachable_insns;
  int "reused_bytes" t.reused_bytes;
  int "insns_patched" t.insns_patched;
  int "trampolines" t.trampolines;
  int "trampolines_merged" t.trampolines_merged;
  int "shift_entries" t.shift_entries;
  int "unrelocatable_terms" t.unrelocatable_terms;
  field "conservative" (if t.conservative then "true" else "false");
  field "block_mapping"
    (Printf.sprintf "[%s]"
       (String.concat ","
          (Array.to_list
             (Array.map (fun (o, n) -> Printf.sprintf "[%d,%d]" o n) t.mapping))));
  Buffer.add_string b
    (Printf.sprintf "\"diagnostics\":[%s]"
       (String.concat "," (List.map Diagnostic.to_json t.diagnostics)));
  Buffer.add_char b '}';
  Buffer.contents b

let pp ppf t =
  let f fmt = Format.fprintf ppf fmt in
  f "@[<v>%s (base 0x%04x, entry 0x%04x)@," t.program t.base t.entry;
  f "  native %d B (text %d B) -> naturalized %d B (%.2fx): text %d B, rodata %d B, support %d B@,"
    t.native_bytes t.text_bytes t.total_bytes
    (float_of_int t.inflation_permille /. 1000.)
    t.rewritten_text_bytes t.rodata_bytes t.support_bytes;
  f "  recovery: %d blocks (%d small), %d unreachable insns%s@,"
    t.blocks_recovered t.small_blocks t.unreachable_insns
    (if t.conservative then ", conservative targets" else "");
  f "  transform: %d insns patched, %d B reused in place@," t.insns_patched
    t.reused_bytes;
  f "  redirection: %d trampolines (%d requests merged), %d shift entries, %d unrelocatable terms@,"
    t.trampolines t.trampolines_merged t.shift_entries t.unrelocatable_terms;
  List.iter (fun d -> f "  %a@," Diagnostic.pp d) t.diagnostics;
  f "@]"

let publish ?(prefix = "rewrite.") tr reports =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let set name v = Trace.set_counter tr (prefix ^ name) v in
  set "images" (List.length reports);
  set "blocks_recovered" (sum (fun r -> r.blocks_recovered));
  set "small_blocks" (sum (fun r -> r.small_blocks));
  set "unreachable_insns" (sum (fun r -> r.unreachable_insns));
  set "reused_bytes" (sum (fun r -> r.reused_bytes));
  set "insns_patched" (sum (fun r -> r.insns_patched));
  set "trampolines" (sum (fun r -> r.trampolines));
  set "trampolines_merged" (sum (fun r -> r.trampolines_merged));
  set "shift_entries" (sum (fun r -> r.shift_entries));
  set "bytes_inflated" (sum (fun r -> r.bytes_inflated));
  set "unrelocatable_terms" (sum (fun r -> r.unrelocatable_terms));
  set "diagnostics" (sum (fun r -> List.length r.diagnostics));
  let native = sum (fun r -> r.native_bytes) in
  let total = sum (fun r -> r.total_bytes) in
  set "bytes_inflated_permille"
    (if native = 0 then 0 else (total - native) * 1000 / native)
