(* Stage 1: block recovery (tolerant decode, reachability, block slicing). *)

open Avr

type block = {
  b_start : int;
  b_words : int;
  b_insns : int;
  b_reachable : bool;
}

let small_block_insns = 2

type t = {
  sites : (int * Isa.t * int) array;
  gaps : (int * int) array;
  targets : (int, unit) Hashtbl.t;
  explicit_targets : (int * int) list;
  reachable : (int, unit) Hashtbl.t;
  blocks : block array;
  small_blocks : int;
  unreachable_insns : int;
  conservative : bool;
  unrelocatable : (int * int) list;
  diags : Diagnostic.t list;
}

(* Linear-sweep decode that records undecodable words as gaps instead of
   aborting.  Images built by lib/asm never produce gaps; foreign
   firmware may carry data interleaved with text (jump tables, padding). *)
let decode_tolerant words text_words =
  let sites = ref [] and gaps = ref [] in
  let gap_start = ref (-1) in
  let flush_gap stop =
    if !gap_start >= 0 then begin
      gaps := (!gap_start, stop - !gap_start) :: !gaps;
      gap_start := -1
    end
  in
  let fetch i =
    if i < text_words then words.(i) else raise (Decode.Unknown_opcode 0xFFFF)
  in
  let pc = ref 0 in
  while !pc < text_words do
    match Decode.at fetch !pc with
    | insn, size ->
      flush_gap !pc;
      sites := (!pc, insn, size) :: !sites;
      pc := !pc + size
    | exception Decode.Unknown_opcode _ ->
      if !gap_start < 0 then gap_start := !pc;
      incr pc
  done;
  flush_gap !pc;
  (Array.of_list (List.rev !sites), Array.of_list (List.rev !gaps))

(* Static successors of one instruction, for the reachability sweep.
   CALL/RCALL/ICALL and the yield points fall through (the callee
   returns / the task resumes); RET/RETI/BREAK and unconditional jumps
   do not. *)
let successors addr insn size =
  let fall = addr + size in
  let explicit =
    match Isa.relative_target insn with
    | Some k -> [ fall + k ]
    | None -> (match insn with Jmp a | Call a -> [ a ] | _ -> [])
  in
  match insn with
  | Jmp _ | Rjmp _ | Ijmp | Ret | Reti | Break -> explicit
  | _ -> fall :: explicit

let run (img : Asm.Image.t) : t =
  let sites, gaps = decode_tolerant img.words img.text_words in
  let site_index = Hashtbl.create (Array.length sites) in
  Array.iteri (fun i (a, _, _) -> Hashtbl.replace site_index a i) sites;
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  Array.iter
    (fun (a, n) ->
      diag
        (Diagnostic.make Recovery Warning ~addr:a "gap"
           "%d undecodable word%s copied verbatim" n (if n = 1 then "" else "s")))
    gaps;
  (* --- target set ------------------------------------------------------- *)
  let targets = Hashtbl.create 64 in
  let add_target a = Hashtbl.replace targets a () in
  let explicit_targets = ref [] in
  Array.iter
    (fun (addr, insn, size) ->
      let tgt =
        match Isa.relative_target insn with
        | Some k -> Some (addr + size + k)
        | None -> (match insn with Jmp a | Call a -> Some a | _ -> None)
      in
      match tgt with
      | Some t ->
        add_target t;
        explicit_targets := (addr, t) :: !explicit_targets
      | None -> ())
    sites;
  let text_symbols =
    List.filter_map
      (function _, Asm.Image.Text a -> Some a | _ -> None)
      img.symbols
  in
  List.iter add_target text_symbols;
  let computed_jumps =
    Array.exists (fun (_, i, _) -> i = Isa.Ijmp || i = Isa.Icall) sites
  in
  let conservative = text_symbols = [] && computed_jumps in
  if conservative then begin
    (* No symbol table to bound the indirect targets: every instruction
       start may be one.  Grouping degrades to per-instruction patches
       but the rewrite stays correct. *)
    Array.iter (fun (a, _, _) -> add_target a) sites;
    diag
      (Diagnostic.make Recovery Warning "conservative"
         "image has computed jumps but no symbols; every instruction start \
          treated as a potential target (grouping disabled)")
  end;
  (* --- reachability ------------------------------------------------------ *)
  let reachable = Hashtbl.create (Array.length sites) in
  let work = Queue.create () in
  let push a =
    if Hashtbl.mem site_index a && not (Hashtbl.mem reachable a) then begin
      Hashtbl.replace reachable a ();
      Queue.add a work
    end
  in
  push img.entry;
  List.iter push text_symbols;
  if conservative then Array.iter (fun (a, _, _) -> push a) sites;
  while not (Queue.is_empty work) do
    let a = Queue.pop work in
    let _, insn, size = sites.(Hashtbl.find site_index a) in
    List.iter push (successors a insn size)
  done;
  let unreachable_insns =
    Array.fold_left
      (fun acc (a, _, _) -> if Hashtbl.mem reachable a then acc else acc + 1)
      0 sites
  in
  if unreachable_insns > 0 then
    diag
      (Diagnostic.make Recovery Info "unreachable"
         "%d instruction%s unreachable from the entry and exported symbols \
          (patched conservatively)"
         unreachable_insns
         (if unreachable_insns = 1 then "" else "s"));
  (* --- unrelocatable terms ----------------------------------------------- *)
  let unrelocatable =
    List.filter
      (fun (_, t) -> t < img.text_words && not (Hashtbl.mem site_index t))
      (List.rev !explicit_targets)
  in
  List.iter
    (fun (src, t) ->
      diag
        (Diagnostic.make Recovery Error ~addr:src "unrelocatable"
           "branch target 0x%04x begins no recovered instruction" t))
    unrelocatable;
  (* --- block slicing ------------------------------------------------------ *)
  let n = Array.length sites in
  let leaders = Hashtbl.create 64 in
  if n > 0 then begin
    let first, _, _ = sites.(0) in
    Hashtbl.replace leaders first ()
  end;
  if Hashtbl.mem site_index img.entry then Hashtbl.replace leaders img.entry ();
  Hashtbl.iter
    (fun a () -> if Hashtbl.mem site_index a then Hashtbl.replace leaders a ())
    targets;
  Array.iteri
    (fun i (_, insn, _) ->
      if (Isa.ends_block insn || Isa.is_cond_branch insn) && i + 1 < n then begin
        let a, _, _ = sites.(i + 1) in
        Hashtbl.replace leaders a ()
      end)
    sites;
  let blocks = ref [] in
  let flush start stop_words insns =
    if insns > 0 then
      blocks :=
        { b_start = start;
          b_words = stop_words - start;
          b_insns = insns;
          b_reachable = Hashtbl.mem reachable start }
        :: !blocks
  in
  let b_start = ref 0 and b_insns = ref 0 in
  Array.iter
    (fun (a, _, size) ->
      if Hashtbl.mem leaders a && !b_insns > 0 then begin
        flush !b_start a !b_insns;
        b_insns := 0
      end;
      if !b_insns = 0 then b_start := a;
      incr b_insns;
      ignore size)
    sites;
  if n > 0 then begin
    let last, _, lsize = sites.(n - 1) in
    flush !b_start (last + lsize) !b_insns
  end;
  let blocks = Array.of_list (List.rev !blocks) in
  let small_blocks =
    Array.fold_left
      (fun acc b -> if b.b_insns <= small_block_insns then acc + 1 else acc)
      0 blocks
  in
  { sites;
    gaps;
    targets;
    explicit_targets = List.rev !explicit_targets;
    reachable;
    blocks;
    small_blocks;
    unreachable_insns;
    conservative;
    unrelocatable;
    diags = List.rev !diags }
