(* Tier-2 execution engine: ahead-of-time translation of a flash image
   to compiled OCaml.

   Where tier-1 threads one pre-built closure per instruction through
   each block, tier-2 translates the whole image to OCaml source — one
   function per superblock, registers as let-bound SSA locals, SREG
   recomputed only where a later instruction or an exit can observe it,
   cycle counts folded to per-path constants — compiles it with the
   host toolchain and Dynlink-loads the result.  Compiled code runs on
   the machine record itself: it reads and writes {!State.t}'s fields
   and calls {!State.read8}, {!State.write8} and {!State.flash_byte}
   for what it does not inline.  Plugins compile against the [machine]
   library's interfaces only, so an interface change makes a cached
   artifact fail to load, and it is compiled afresh.

   Soundness mirrors tier-1's argument: a block is entered only when
   its worst-case cycle cost fits under the caller's horizon, every
   instruction reproduces {!State.step}'s semantics exactly, and any PC
   without a compiled block returns to the host with [m.pc] set and no
   partial instruction executed.  So does every SLEEP, BREAK and
   SYSCALL: the host runs them through {!State.exec_insn}, as tiers 0
   and 1 do.  Stop points and every architectural counter are
   therefore bit-identical to tiers 0/1 under any block partitioning;
   test/test_tiers.ml enforces this differentially.

   Flag elision: flags are fully lazy.  An ALU instruction emits no
   flag code at all — each SREG bit it writes is recorded as a pure
   expression over the instruction's SSA atoms, and the expression is
   materialized only where that bit is actually observed: a conditional
   branch binds the one bit it tests, while SREG flushes (exit arms and
   host-call barriers) splice the full byte composition inline, off
   the straight-line path.  A flag overwritten before any observation
   is never computed.  Any host call that can read or write the SREG data
   address remains a full barrier (flush before, drop the tracked state
   after a possible write).

   Artifacts are content-addressed on a digest of the flash image plus
   generator/toolchain versions, cached on disk, and registered in the
   process-wide registry ({!State.register}) — a 10 k-mote fleet booted
   from one shared template image compiles once.  Compilation is further
   gated behind an executed-instruction threshold so short runs never
   pay a toolchain invocation, and even past it nothing blocks: the
   compile runs as a child process in the background while the machine
   keeps running on tier-1, and binds when the artifact loads.  One
   compile runs at a time; a machine whose image is not the one
   compiling waits on tier-1, untranslated, until the slot is free.  A
   run that ends first waits for its compile at exit, so the next run
   finds the artifact in the cache.  When no working
   toolchain is available tier-2 disables itself globally with a single
   warning and callers fall back to tier-1. *)

open Avr
open State

(* Bumped whenever generated code changes shape: it salts the content
   digest, so stale on-disk artifacts can never be loaded into a newer
   simulator. *)
let generator_version = 8

(* ------------------------------------------------------------------ *)
(* Content digest *)

let digest_of_flash (flash : int array) : string =
  (* The whole 64 K-word flash: the erased tail past the array's end is
     hashed too, so the digest depends on content, not on length. *)
  let b = Bytes.make (Layout.flash_words * 2) '\xFF' in
  for i = 0 to min (Array.length flash) Layout.flash_words - 1 do
    let w = Array.unsafe_get flash i in
    Bytes.unsafe_set b (i * 2) (Char.unsafe_chr (w land 0xFF));
    Bytes.unsafe_set b (i * 2 + 1) (Char.unsafe_chr ((w lsr 8) land 0xFF))
  done;
  Digest.to_hex
    (Digest.string
       (Digest.bytes b
       ^ Printf.sprintf "|v%d|%s|%b" generator_version Sys.ocaml_version
           Dynlink.is_native))

(* The digest of [m]'s flash.  A shared image is never written
   (copy-on-write), so its digest is computed once and kept on the
   image; two domains racing here both compute the same string.
   Private flash can be patched at any time and is re-digested on each
   (rare) re-install. *)
let digest_of (m : t) : string =
  if not m.flash_shared then digest_of_flash m.flash
  else
    match m.image.i_digest with
    | Some d -> d
    | None ->
      let d = digest_of_flash m.flash in
      m.image.i_digest <- Some d;
      d

(* ------------------------------------------------------------------ *)
(* Block discovery: the superblocks of {!Block.form}, the former tier-1
   compiles from, found statically from the flash image alone. *)

(* Runaway backstop, far above any realistic image: discovery stops
   adding blocks past this count; uncovered entries simply miss to
   tier-1 at run time, which is always sound. *)
let max_blocks = 4096

(* Entry points: PC 0, plus the static target of every branch/jump/call
   decodable at *any* word offset of the image (operand words decode as
   spurious instructions, whose spurious targets compile to harmless
   unreachable blocks — the scan needs no reachability oracle and is a
   pure function of the image, which keeps the digest → artifact map
   exact), plus block fall-throughs and call return sites found while
   collecting.  Only entries below [hi] are kept: the generated dispatch
   table has [hi] slots, and a PC past the image misses to tier-1. *)
let discover fetch hi : (int, Block.superblock) Hashtbl.t =
  let blocks = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  let pending = Queue.create () in
  let push pc =
    let pc = pc land 0xFFFF in
    if pc < hi && not (Hashtbl.mem seen pc) then begin
      Hashtbl.add seen pc ();
      Queue.add pc pending
    end
  in
  let decode pc = fst (Decode.at fetch pc) in
  push 0;
  for w = 0 to hi - 1 do
    match Decode.at fetch w with
    | exception Decode.Unknown_opcode _ -> ()
    | insn, size -> (
      match insn with
      | Isa.Rjmp k | Isa.Rcall k -> push (w + 1 + k)
      | Isa.Brbs (_, k) | Isa.Brbc (_, k) -> push (w + size + k)
      | Isa.Jmp a | Isa.Call a -> push a
      | _ -> ())
  done;
  while (not (Queue.is_empty pending)) && Hashtbl.length blocks < max_blocks do
    let pc = Queue.pop pending in
    match Block.form decode pc with
    | None -> ()
    | Some b ->
      Hashtbl.replace blocks pc b;
      Array.iter
        (fun (insn, p) ->
          match insn with
          | Isa.Brbs (_, k) | Isa.Brbc (_, k) -> push (p + 1 + k)
          | _ -> ())
        b.body;
      (match b.term with
       | None -> push b.term_pc
       | Some t ->
         let fall = b.term_pc + Isa.words t in
         (match t with
          | Isa.Rjmp k -> push (b.term_pc + 1 + k)
          | Isa.Rcall k ->
            push (b.term_pc + 1 + k);
            push fall
          | Isa.Jmp a -> push a
          | Isa.Call a ->
            push a;
            push fall
          | Isa.Icall | Isa.Sleep | Isa.Syscall _ -> push fall
          | Isa.Ijmp | Isa.Ret | Isa.Reti | Isa.Break -> ()
          | _ -> ()))
  done;
  blocks

(* ------------------------------------------------------------------ *)
(* The emitter.  Registers live as SSA locals: [env.(i)] is the atom
   (variable name or integer literal) currently holding r[i], [dirty]
   marks values not yet stored back; SREG likewise.  Cycle costs and
   statically-resolved memory-access counters accumulate as
   compile-time constants ([cyc]/[mr]/[mw]) and are flushed before any
   host call (peripherals are clocked off [m.cycles]) and at
   every exit.  Exit emission ([exit_prologue]/[chain]) never mutates
   emitter state: a conditional branch's taken arm is emitted mid-body
   and the fall-through continues from the same state. *)

type est = {
  b : Buffer.t;
  mutable id : int;  (* fresh-name counter, module-wide *)
  env : string option array;  (* 32 register atoms *)
  dirty : bool array;
  mutable sgb : string option;
      (* atom holding the SREG base byte ([None] = the [m.sreg] field);
         bits in [fbit] override it *)
  fbit : string option array;
      (* per-flag lazy expressions (8 entries, bit number = SREG bit):
         [Some e] means the current value of that flag is [e] — an
         UNBOUND pure expression over in-scope SSA atoms ("0" and "1"
         literals included).  Nothing is emitted when a flag is set;
         the expression is materialized only where the flag is actually
         observed (a conditional branch binds one bit; exit flushes
         splice the full byte composition inline, off the hot path).
         This is per-bit flag elision without any static liveness
         analysis: an expression never observed is never emitted. *)
  mutable sg_dirty : bool;  (* current SREG differs from [m.sreg] *)
  mutable cyv : string option;
      (* local holding the current value of [m.cycles] (the flushed
         base, excluding [cyc] pending); lets boundary guards and
         flushes run on a register instead of re-loading the mutable
         field *)
  mutable cyc : int;  (* pending cycles *)
  mutable ret : int;  (* pending retired-instruction count *)
  mutable mr : int;  (* pending mem_reads *)
  mutable mw : int;  (* pending mem_writes *)
  mutable ind : int;  (* indentation depth *)
  mutable ends : int;  (* open [else begin]s to close at block end *)
}

let est_new () =
  { b = Buffer.create 65536;
    id = 0;
    env = Array.make 32 None;
    dirty = Array.make 32 false;
    sgb = None;
    fbit = Array.make 8 None;
    sg_dirty = false;
    cyv = None;
    cyc = 0;
    ret = 0;
    mr = 0;
    mw = 0;
    ind = 0;
    ends = 0 }

let raw st s =
  Buffer.add_string st.b (String.make (st.ind * 2) ' ');
  Buffer.add_string st.b s;
  Buffer.add_char st.b '\n'

(* A statement line (caller includes any trailing ';' in the format). *)
let stmt st fmt = Printf.ksprintf (raw st) fmt

let fresh st p =
  st.id <- st.id + 1;
  Printf.sprintf "%s%d" p st.id

let bind st p expr =
  let v = fresh st p in
  stmt st "let %s = %s in" v expr;
  v

let use_reg st i =
  match st.env.(i) with
  | Some a -> a
  | None ->
    let v = bind st "r" (Printf.sprintf "Array.unsafe_get rg %d" i) in
    st.env.(i) <- Some v;
    v

let set_reg st i atom =
  st.env.(i) <- Some atom;
  st.dirty.(i) <- true

let def_reg st i expr = set_reg st i (bind st "r" expr)

(* --- lazy flags ---------------------------------------------------- *)

(* [set_bit] records a flag's new value as a pure expression and emits
   nothing; [use_bit] materializes (binds) a bit where it is actually
   observed; [sreg_expr] composes the whole byte as one expression for
   flushes.  Emitters therefore pay zero flag cost on the straight-line
   path — the compositions land only inside (cold) exit arms and at
   host-call flushes, and a flag overwritten before any observation
   costs nothing at all. *)

let set_bit st i expr =
  st.fbit.(i) <- Some expr;
  st.sg_dirty <- true

(* The flag as an expression, without binding it (callers building a
   larger expression; exit arms, which must not mutate emitter state). *)
let peek_bit st i =
  match st.fbit.(i) with
  | Some e -> e
  | None ->
    let base = match st.sgb with Some a -> a | None -> "m.sreg" in
    if i = 0 then Printf.sprintf "%s land 1" base
    else Printf.sprintf "(%s lsr %d) land 1" base i

(* The flag as a bound 0/1 atom, cached for further observers.  The
   cache entry stays valid even when it came from [m.sreg]: everything
   that can write the field ([kill_sg] sites) also drops the entry. *)
let use_bit st i =
  match st.fbit.(i) with
  | Some e when not (String.contains e ' ') -> e  (* atom or literal *)
  | _ ->
    let v = bind st "f" (peek_bit st i) in
    st.fbit.(i) <- Some v;
    v

(* The whole byte as one pure expression: tracked bits spliced over the
   base with constant folding for "0"/"1" literals. *)
let sreg_expr st =
  let base = match st.sgb with Some a -> a | None -> "m.sreg" in
  let mask = ref 0 and parts = ref [] in
  for i = 7 downto 0 do
    match st.fbit.(i) with
    | None -> ()
    | Some e ->
      mask := !mask lor (1 lsl i);
      (match e with
       | "0" -> ()
       | "1" -> parts := string_of_int (1 lsl i) :: !parts
       | e ->
         parts :=
           (if i = 0 then Printf.sprintf "(%s)" e
            else Printf.sprintf "((%s) lsl %d)" e i)
           :: !parts)
  done;
  if !mask = 0 then base
  else begin
    let parts =
      if !mask = 0xFF then !parts
      else Printf.sprintf "(%s land %d)" base (0xFF land lnot !mask) :: !parts
    in
    match parts with [] -> "0" | l -> String.concat " lor " l
  end

let use_cy st =
  match st.cyv with
  | Some a -> a
  | None ->
    let v = bind st "cy" "m.cycles" in
    st.cyv <- Some v;
    v

(* Formats "the clock right now" from the tracked base + pending. *)
let cy_expr st extra =
  let p = st.cyc + extra in
  match st.cyv with
  | Some a -> if p = 0 then a else Printf.sprintf "%s + %d" a p
  | None -> if p = 0 then "m.cycles" else Printf.sprintf "m.cycles + %d" p

let flush_cyc st =
  if st.cyc > 0 then begin
    stmt st "m.cycles <- %s;" (cy_expr st 0);
    st.cyc <- 0;
    st.cyv <- None
  end

let flush_sg st =
  if st.sg_dirty then begin
    stmt st "m.sreg <- %s;" (sreg_expr st);
    st.sg_dirty <- false
  end

(* The tracked SREG state is stale once a host call may have written
   [m.sreg]; drop everything so the next use reloads the field. *)
let kill_sg st =
  st.sgb <- None;
  Array.fill st.fbit 0 8 None;
  st.sg_dirty <- false

(* Flush everything the host can observe at an exit, *without*
   mutating emitter state (side exits are emitted mid-body). [extra]
   is the exit's own cycle cost (terminator base, or the taken-branch
   extra); [bump] its own retired count on top of the pending
   [st.ret]. *)
let exit_prologue st ~extra ~bump =
  if st.cyc + extra > 0 then stmt st "m.cycles <- %s;" (cy_expr st extra);
  let rt = st.ret + bump in
  if rt > 0 then stmt st "m.insns <- m.insns + %d;" rt;
  if st.mr > 0 then stmt st "m.mem_reads <- m.mem_reads + %d;" st.mr;
  if st.mw > 0 then stmt st "m.mem_writes <- m.mem_writes + %d;" st.mw;
  for i = 0 to 31 do
    if st.dirty.(i) then
      stmt st "Array.unsafe_set rg %d %s;" i (Option.get st.env.(i))
  done;
  if st.sg_dirty then stmt st "m.sreg <- %s;" (sreg_expr st)

(* Snapshot / restore of the value-tracking half of the emitter state,
   bracketing an inlined chain target: the inline arm sits inside a
   conditional, so the fall-through path must resume from the state at
   the branch point. *)
let save_st st =
  ( Array.copy st.env,
    Array.copy st.dirty,
    st.sgb,
    Array.copy st.fbit,
    st.sg_dirty,
    st.cyv,
    st.cyc,
    st.ret,
    st.mr,
    st.mw )

let restore_st st (env, dirty, sgb, fbit, sgd, cyv, cyc, ret, mr, mw) =
  Array.blit env 0 st.env 0 32;
  Array.blit dirty 0 st.dirty 0 32;
  st.sgb <- sgb;
  Array.blit fbit 0 st.fbit 0 8;
  st.sg_dirty <- sgd;
  st.cyv <- cyv;
  st.cyc <- cyc;
  st.ret <- ret;
  st.mr <- mr;
  st.mw <- mw

let fname e = Printf.sprintf "b_%04x" (e land 0xFFFF)

(* Return to the host at [pc] (see {!State.program}); the last
   expression of its arm. *)
let stop st pc = stmt st "m.pc <- %d" pc

(* Transfer control to [tgt]: a direct (tail) call when the target has
   a compiled block, otherwise a miss back to the host.  The target's
   own entry guard re-checks the horizon. *)
let chain st blocks tgt =
  let tgt = tgt land 0xFFFF in
  if Hashtbl.mem blocks tgt then stmt st "%s m li" (fname tgt)
  else stop st tgt

(* --- ALU groups.  Each mirrors the corresponding State helper;
   results are bound, flags are only *recorded* as lazy expressions
   over the bound atoms (see [set_bit]) so a flag nobody observes is
   free. --- *)

let zof res = Printf.sprintf "(if %s = 0 then 1 else 0)" res
let nof res = Printf.sprintf "%s lsr 7" res

(* C,Z,N,V replaced (C preserved when [c] is [None]), S = N lxor V
   with "0" folding; H,T,I preserved (shift/rotate/INC/DEC/ADIW). *)
let set_cznv st ~c ~z ~n ~v =
  (match c with None -> () | Some e -> set_bit st 0 e);
  set_bit st 1 z;
  set_bit st 2 n;
  set_bit st 3 v;
  set_bit st 4
    (if n = "0" then v
     else if v = "0" then n
     else Printf.sprintf "(%s) lxor (%s)" n v)

let emit_add st ~carry d r =
  let a = use_reg st d and bb = use_reg st r in
  let cin = if carry then use_bit st 0 else "" in
  let t =
    bind st "t"
      (if carry then Printf.sprintf "%s + %s + %s" a bb cin
       else Printf.sprintf "%s + %s" a bb)
  in
  let res = bind st "x" (Printf.sprintf "%s land 0xFF" t) in
  let v = Printf.sprintf "((%s lxor %s) land (%s lxor %s)) lsr 7" a res bb res in
  set_cznv st ~c:(Some (Printf.sprintf "%s lsr 8" t)) ~z:(zof res) ~n:(nof res)
    ~v;
  set_bit st 5
    (if carry then
       Printf.sprintf "((%s land 0xF) + (%s land 0xF) + %s) lsr 4" a bb cin
     else Printf.sprintf "((%s land 0xF) + (%s land 0xF)) lsr 4" a bb);
  set_reg st d res

(* SUB/SBC/CP/CPC and immediate forms; [store] = false for compares. *)
let emit_sub st ~borrow ~keep_z ~store d batom =
  let a = use_reg st d in
  let cin = if borrow then use_bit st 0 else "" in
  let t =
    bind st "t"
      (if borrow then Printf.sprintf "%s - %s - %s" a batom cin
       else Printf.sprintf "%s - %s" a batom)
  in
  let res = bind st "x" (Printf.sprintf "%s land 0xFF" t) in
  let z =
    if keep_z then
      (* CPC/SBC clear Z on a non-zero result and otherwise keep it:
         the old Z expression is spliced in *before* it is replaced. *)
      Printf.sprintf "(if %s <> 0 then 0 else (%s))" res (peek_bit st 1)
    else zof res
  in
  let h =
    if borrow then
      Printf.sprintf "(if (%s land 0xF) - (%s land 0xF) - %s < 0 then 1 else 0)"
        a batom cin
    else
      Printf.sprintf "(if (%s land 0xF) - (%s land 0xF) < 0 then 1 else 0)" a
        batom
  in
  let v = Printf.sprintf "((%s lxor %s) land (%s lxor %s)) lsr 7" a batom a res in
  set_cznv st
    ~c:(Some (Printf.sprintf "(if %s < 0 then 1 else 0)" t))
    ~z ~n:(nof res) ~v;
  set_bit st 5 h;
  if store then set_reg st d res

let emit_logic st d expr =
  let res = bind st "x" expr in
  set_cznv st ~c:None ~z:(zof res) ~n:(nof res) ~v:"0";
  set_reg st d res

(* Pointer-mode resolution: returns the effective-address atom and
   applies post-inc / pre-dec register updates, mirroring
   [State.ptr_addr]. *)
let emit_ptr st (p : Isa.ptr) : string =
  let pre base =
    let lo = use_reg st base and hi = use_reg st (base + 1) in
    bind st "a" (Printf.sprintf "%s lor (%s lsl 8)" lo hi)
  in
  let post_inc base =
    let a = pre base in
    def_reg st base (Printf.sprintf "(%s + 1) land 0xFF" a);
    def_reg st (base + 1) (Printf.sprintf "((%s + 1) lsr 8) land 0xFF" a);
    a
  in
  let pre_dec base =
    let lo = use_reg st base and hi = use_reg st (base + 1) in
    let a =
      bind st "a" (Printf.sprintf "((%s lor (%s lsl 8)) - 1) land 0xFFFF" lo hi)
    in
    def_reg st base (Printf.sprintf "%s land 0xFF" a);
    def_reg st (base + 1) (Printf.sprintf "(%s lsr 8) land 0xFF" a);
    a
  in
  match p with
  | Isa.X -> pre 26
  | Isa.X_inc -> post_inc 26
  | Isa.X_dec -> pre_dec 26
  | Isa.Y_inc -> post_inc 28
  | Isa.Y_dec -> pre_dec 28
  | Isa.Z_inc -> post_inc 30
  | Isa.Z_dec -> pre_dec 30

(* Dynamic data-space accesses inline the pure-SRAM fast path and only
   call {!State.read8}/{!State.write8} (I/O dispatch, SP/SREG) for
   addresses below the I/O frontier or past the end of SRAM.  Stack
   traffic — push/pop/frame loads, the bulk of compiled code's memory
   ops — thus costs a bounds test and a [Bytes] access.  [a] is always a
   bound atom [<= 0xFFFF + 63], so their [land 0xFFFF] is a no-op on the
   fast range and semantics match theirs exactly, counters included. *)
let read8_expr a =
  Printf.sprintf
    "(if %s >= %d && %s < %d then (m.mem_reads <- m.mem_reads + 1; Char.code \
     (Bytes.unsafe_get m.sram %s)) else Machine.State.read8 m %s)"
    a Layout.io_size a Layout.data_size a a

let emit_write8 st a v =
  stmt st "if %s >= %d && %s < %d then begin" a Layout.io_size a
    Layout.data_size;
  stmt st "  m.mem_writes <- m.mem_writes + 1;";
  stmt st "  Bytes.unsafe_set m.sram %s (Char.unsafe_chr %s)" a v;
  stmt st "end else Machine.State.write8 m %s %s;" a v

(* Emit one non-branching body instruction (own address [pc]).  The
   instruction's base cycle cost is already in [st.cyc].  Conditional
   branches are handled by [emit_seq], which owns side-exit emission. *)
let rec emit_insn st (insn : Isa.t) ~pc =
  match insn with
  | Isa.Nop | Isa.Wdr -> ()
  | Isa.Movw (d, r) ->
    let vr = use_reg st r and vr1 = use_reg st (r + 1) in
    set_reg st d vr;
    set_reg st (d + 1) vr1
  | Isa.Add (d, r) -> emit_add st ~carry:false d r
  | Isa.Adc (d, r) -> emit_add st ~carry:true d r
  | Isa.Sub (d, r) ->
    emit_sub st ~borrow:false ~keep_z:false ~store:true d (use_reg st r)
  | Isa.Sbc (d, r) ->
    emit_sub st ~borrow:true ~keep_z:true ~store:true d (use_reg st r)
  | Isa.And (d, r) ->
    emit_logic st d (Printf.sprintf "%s land %s" (use_reg st d) (use_reg st r))
  | Isa.Or (d, r) ->
    emit_logic st d (Printf.sprintf "%s lor %s" (use_reg st d) (use_reg st r))
  | Isa.Eor (d, r) ->
    emit_logic st d (Printf.sprintf "%s lxor %s" (use_reg st d) (use_reg st r))
  | Isa.Mov (d, r) -> set_reg st d (use_reg st r)
  | Isa.Cp (d, r) ->
    emit_sub st ~borrow:false ~keep_z:false ~store:false d (use_reg st r)
  | Isa.Cpc (d, r) ->
    emit_sub st ~borrow:true ~keep_z:true ~store:false d (use_reg st r)
  | Isa.Mul (d, r) ->
    let a = use_reg st d and bb = use_reg st r in
    let p = bind st "t" (Printf.sprintf "%s * %s" a bb) in
    def_reg st 0 (Printf.sprintf "%s land 0xFF" p);
    def_reg st 1 (Printf.sprintf "(%s lsr 8) land 0xFF" p);
    set_bit st 0 (Printf.sprintf "%s lsr 15" p);
    set_bit st 1 (zof p)
  | Isa.Cpi (d, k) ->
    emit_sub st ~borrow:false ~keep_z:false ~store:false d (string_of_int k)
  | Isa.Sbci (d, k) ->
    emit_sub st ~borrow:true ~keep_z:true ~store:true d (string_of_int k)
  | Isa.Subi (d, k) ->
    emit_sub st ~borrow:false ~keep_z:false ~store:true d (string_of_int k)
  | Isa.Ori (d, k) ->
    emit_logic st d (Printf.sprintf "%s lor %d" (use_reg st d) k)
  | Isa.Andi (d, k) ->
    emit_logic st d (Printf.sprintf "%s land %d" (use_reg st d) k)
  | Isa.Ldi (d, k) -> set_reg st d (string_of_int k)
  | Isa.Adiw (d, k) | Isa.Sbiw (d, k) ->
    let sub = match insn with Isa.Sbiw _ -> true | _ -> false in
    let lo = use_reg st d and hi = use_reg st (d + 1) in
    let w = bind st "w" (Printf.sprintf "%s lor (%s lsl 8)" lo hi) in
    let res =
      bind st "x"
        (Printf.sprintf "(%s %s %d) land 0xFFFF" w (if sub then "-" else "+") k)
    in
    def_reg st d (Printf.sprintf "%s land 0xFF" res);
    def_reg st (d + 1) (Printf.sprintf "(%s lsr 8) land 0xFF" res);
    let wh7 = Printf.sprintf "(%s lsr 15)" w in
    let r15 = Printf.sprintf "(%s lsr 15)" res in
    let v, cf =
      if sub then
        ( Printf.sprintf "%s land (1 - %s)" wh7 r15,
          Printf.sprintf "%s land (1 - %s)" r15 wh7 )
      else
        ( Printf.sprintf "(1 - %s) land %s" wh7 r15,
          Printf.sprintf "(1 - %s) land %s" r15 wh7 )
    in
    set_cznv st ~c:(Some cf) ~z:(zof res) ~n:r15 ~v
  | Isa.Com d ->
    let a = use_reg st d in
    let res = bind st "x" (Printf.sprintf "0xFF - %s" a) in
    set_cznv st ~c:(Some "1") ~z:(zof res) ~n:(nof res) ~v:"0";
    set_reg st d res
  | Isa.Neg d ->
    let a = use_reg st d in
    let res = bind st "x" (Printf.sprintf "(0x100 - %s) land 0xFF" a) in
    set_cznv st
      ~c:(Some (Printf.sprintf "(if %s <> 0 then 1 else 0)" res))
      ~z:(zof res) ~n:(nof res)
      ~v:(Printf.sprintf "(if %s = 0x80 then 1 else 0)" res);
    set_bit st 5 (Printf.sprintf "((%s lor %s) lsr 3) land 1" res a);
    set_reg st d res
  | Isa.Swap d ->
    let a = use_reg st d in
    def_reg st d (Printf.sprintf "((%s lsl 4) lor (%s lsr 4)) land 0xFF" a a)
  | Isa.Inc d | Isa.Dec d ->
    let inc = match insn with Isa.Inc _ -> true | _ -> false in
    let a = use_reg st d in
    let res =
      bind st "x"
        (Printf.sprintf "(%s %s 1) land 0xFF" a (if inc then "+" else "-"))
    in
    set_cznv st ~c:None ~z:(zof res) ~n:(nof res)
      ~v:
        (Printf.sprintf "(if %s = %s then 1 else 0)" a
           (if inc then "0x7F" else "0x80"));
    set_reg st d res
  | Isa.Asr d | Isa.Lsr d ->
    let asr_ = match insn with Isa.Asr _ -> true | _ -> false in
    let a = use_reg st d in
    let res =
      bind st "x"
        (if asr_ then Printf.sprintf "(%s lsr 1) lor (%s land 0x80)" a a
         else Printf.sprintf "%s lsr 1" a)
    in
    let cf = Printf.sprintf "%s land 1" a in
    let n = if asr_ then nof res else "0" in
    let v = if asr_ then Printf.sprintf "(%s) lxor (%s)" n cf else cf in
    set_cznv st ~c:(Some cf) ~z:(zof res) ~n ~v;
    set_reg st d res
  | Isa.Ror d ->
    let a = use_reg st d in
    let oc = use_bit st 0 in
    let res = bind st "x" (Printf.sprintf "(%s lsr 1) lor (%s lsl 7)" a oc) in
    let cf = Printf.sprintf "%s land 1" a in
    set_cznv st ~c:(Some cf) ~z:(zof res) ~n:oc
      ~v:(Printf.sprintf "%s lxor (%s)" oc cf);
    set_reg st d res
  | Isa.Ld (d, p) ->
    let a = emit_ptr st p in
    flush_cyc st;
    flush_sg st;
    let v = bind st "v" (read8_expr a) in
    set_reg st d v
  | Isa.Ldd (d, b, q) ->
    let base = match b with Isa.Ybase -> 28 | Isa.Zbase -> 30 in
    let lo = use_reg st base and hi = use_reg st (base + 1) in
    let a = bind st "a" (Printf.sprintf "(%s lor (%s lsl 8)) + %d" lo hi q) in
    flush_cyc st;
    flush_sg st;
    let v = bind st "v" (read8_expr a) in
    set_reg st d v
  | Isa.St (p, r) ->
    (* Value is read before the pointer's side effect, as in [step]. *)
    let v = use_reg st r in
    let a = emit_ptr st p in
    flush_cyc st;
    flush_sg st;
    emit_write8 st a v;
    kill_sg st
  | Isa.Std (b, q, r) ->
    let v = use_reg st r in
    let base = match b with Isa.Ybase -> 28 | Isa.Zbase -> 30 in
    let lo = use_reg st base and hi = use_reg st (base + 1) in
    let a = bind st "a" (Printf.sprintf "(%s lor (%s lsl 8)) + %d" lo hi q) in
    flush_cyc st;
    flush_sg st;
    emit_write8 st a v;
    kill_sg st
  | Isa.Lds (d, a) ->
    if a >= Layout.io_size then begin
      (* Pure SRAM (or off-the-end) load: no peripheral can observe it,
         so it needs neither a cycle flush nor a host call. *)
      st.mr <- st.mr + 1;
      if a < Layout.data_size then
        def_reg st d (Printf.sprintf "Char.code (Bytes.unsafe_get m.sram %d)" a)
      else set_reg st d "0"
    end
    else begin
      flush_cyc st;
      if a = sreg_addr then flush_sg st;
      let v = bind st "v" (Printf.sprintf "Machine.State.read8 m %d" a) in
      set_reg st d v
    end
  | Isa.Sts (a, r) ->
    let v = use_reg st r in
    if a >= Layout.io_size then begin
      st.mw <- st.mw + 1;
      if a < Layout.data_size then
        stmt st "Bytes.unsafe_set m.sram %d (Char.unsafe_chr %s);" a v
    end
    else begin
      flush_cyc st;
      stmt st "Machine.State.write8 m %d %s;" a v;
      if a = sreg_addr then kill_sg st
    end
  | Isa.Lpm (d, inc) ->
    let lo = use_reg st 30 and hi = use_reg st 31 in
    let z = bind st "a" (Printf.sprintf "%s lor (%s lsl 8)" lo hi) in
    let v = bind st "v" (Printf.sprintf "Machine.State.flash_byte m.flash %s" z) in
    set_reg st d v;
    if inc then begin
      (* Register write order matches [step]: the loaded value lands
         first, then the Z update (which wins when d is r30/r31). *)
      def_reg st 30 (Printf.sprintf "(%s + 1) land 0xFF" z);
      def_reg st 31 (Printf.sprintf "((%s + 1) lsr 8) land 0xFF" z)
    end
  | Isa.Push r ->
    let v = use_reg st r in
    flush_cyc st;
    flush_sg st;
    emit_write8 st "m.sp" v;
    stmt st "m.sp <- (m.sp - 1) land 0xFFFF;";
    kill_sg st
  | Isa.Pop d ->
    flush_cyc st;
    flush_sg st;
    stmt st "m.sp <- (m.sp + 1) land 0xFFFF;";
    let v = bind st "v" (read8_expr "m.sp") in
    set_reg st d v
  | Isa.In (d, a) -> emit_insn st (Isa.Lds (d, Layout.io_data_addr a)) ~pc
  | Isa.Out (a, r) -> emit_insn st (Isa.Sts (Layout.io_data_addr a, r)) ~pc
  | Isa.Bset s -> set_bit st s "1"
  | Isa.Bclr s -> set_bit st s "0"
  | Isa.Brbs _ | Isa.Brbc _ | Isa.Rjmp _ | Isa.Rcall _ | Isa.Jmp _
  | Isa.Call _ | Isa.Ijmp | Isa.Icall | Isa.Ret | Isa.Reti | Isa.Sleep
  | Isa.Break | Isa.Syscall _ ->
    invalid_arg "Aot.emit_insn: control instruction in block body"

(* Per-function inline budget in retired instructions: chained blocks
   are inlined into their predecessor until the path has this many
   instructions, so a hot loop becomes one long straight-line function
   with registers and flags in locals across the original block
   boundaries.  Each boundary keeps its own horizon check (the target
   block's worst case against the same limit tier-1 would test), so
   stop points are unchanged; the budget only bounds code size and
   guarantees the emitter terminates on cyclic control flow.  The
   budget is one shared pool per emitted function — consumed by every
   inlined block across all branch arms — because a per-path budget
   would let fall-through arms multiply into exponentially many
   inlined copies. *)
let inline_budget = 192

(* Transfer control to [tgt] from an exit whose own cost is [extra]
   cycles and [bump] retired instructions (on top of the pending
   [st.ret]): inline the target block when the budget allows, keeping
   all tracked values live; otherwise flush and chain (a direct tail
   call, or a miss back to the host).  Never net-mutates emitter state,
   so branch fall-throughs resume from the branch point. *)
let rec goto st blocks tgt ~extra ~bump ~budget =
  let tgt = tgt land 0xFFFF in
  match (if !budget > 0 then Hashtbl.find_opt blocks tgt else None) with
  | Some tb when tb.Block.retired <= !budget ->
    budget := !budget - tb.retired;
    let saved = save_st st in
    st.cyc <- st.cyc + extra;
    st.ret <- st.ret + bump;
    let cyv = use_cy st in
    stmt st "if %s + %d > li then begin" cyv (st.cyc + tb.worst);
    st.ind <- st.ind + 1;
    exit_prologue st ~extra:0 ~bump:0;
    stop st tgt;
    st.ind <- st.ind - 1;
    stmt st "end";
    stmt st "else begin";
    st.ind <- st.ind + 1;
    emit_seq st blocks tb ~budget;
    st.ind <- st.ind - 1;
    stmt st "end";
    restore_st st saved
  | _ ->
    exit_prologue st ~extra ~bump;
    chain st blocks tgt

(* Emit the body and terminator of [b] continuing from the current
   emitter state; closes every side-exit arm it opens. *)
and emit_seq st blocks (b : Block.superblock) ~budget =
  let ends0 = st.ends in
  Array.iter
    (fun (insn, pc) ->
      st.cyc <- st.cyc + Cycles.base insn;
      st.ret <- st.ret + 1;
      match insn with
      | Isa.Brbs (s, k) | Isa.Brbc (s, k) ->
        let want = match insn with Isa.Brbs _ -> 1 | _ -> 0 in
        let tgt = (pc + 1 + k) land 0xFFFF in
        stmt st "if %s = %d then begin" (use_bit st s) want;
        st.ind <- st.ind + 1;
        goto st blocks tgt ~extra:Cycles.branch_taken_extra ~bump:0 ~budget;
        st.ind <- st.ind - 1;
        stmt st "end";
        stmt st "else begin";
        st.ind <- st.ind + 1;
        st.ends <- st.ends + 1
      | _ -> emit_insn st insn ~pc)
    b.body;
  emit_term st blocks b ~budget;
  while st.ends > ends0 do
    st.ind <- st.ind - 1;
    stmt st "end";
    st.ends <- st.ends - 1
  done

(* Emit the terminator (or the cap/undecodable fall-through). *)
and emit_term st blocks (b : Block.superblock) ~budget =
  let push16 v =
    emit_write8 st "m.sp" (string_of_int (v land 0xFF));
    stmt st "m.sp <- (m.sp - 1) land 0xFFFF;";
    emit_write8 st "m.sp" (string_of_int ((v lsr 8) land 0xFF));
    stmt st "m.sp <- (m.sp - 1) land 0xFFFF;"
  in
  match b.term with
  | None -> goto st blocks b.term_pc ~extra:0 ~bump:0 ~budget
  | Some t ->
    let fall = (b.term_pc + Isa.words t) land 0xFFFF in
    let extra = Cycles.base t in
    (match t with
     | Isa.Rjmp k -> goto st blocks (b.term_pc + 1 + k) ~extra ~bump:1 ~budget
     | Isa.Jmp a -> goto st blocks a ~extra ~bump:1 ~budget
     | Isa.Rcall k ->
       (* Calls flush anyway (the return-address push can land in the
          I/O shadow), so inlining the callee would only save the tail
          call: keep them as chains. *)
       exit_prologue st ~extra ~bump:1;
       push16 fall;
       chain st blocks (b.term_pc + 1 + k)
     | Isa.Call a ->
       exit_prologue st ~extra ~bump:1;
       push16 fall;
       chain st blocks a
     | Isa.Icall ->
       let lo = use_reg st 30 and hi = use_reg st 31 in
       let z = bind st "a" (Printf.sprintf "%s lor (%s lsl 8)" lo hi) in
       exit_prologue st ~extra ~bump:1;
       push16 fall;
       stmt st "m.pc <- %s;" z;
       stmt st "dispatch m li"
     | Isa.Ijmp ->
       let lo = use_reg st 30 and hi = use_reg st 31 in
       let z = bind st "a" (Printf.sprintf "%s lor (%s lsl 8)" lo hi) in
       exit_prologue st ~extra ~bump:1;
       stmt st "m.pc <- %s;" z;
       stmt st "dispatch m li"
     | Isa.Ret | Isa.Reti ->
       exit_prologue st ~extra ~bump:1;
       stmt st "m.sp <- (m.sp + 1) land 0xFFFF;";
       let ph = bind st "v" (read8_expr "m.sp") in
       stmt st "m.sp <- (m.sp + 1) land 0xFFFF;";
       let pl = bind st "v" (read8_expr "m.sp") in
       stmt st "m.pc <- (%s lsl 8) lor %s;" ph pl;
       if t = Isa.Reti then stmt st "m.sreg <- m.sreg lor 0x80;";
       stmt st "dispatch m li"
     | Isa.Sleep | Isa.Break | Isa.Syscall _ ->
       (* The host runs these: miss in front of the terminator.  Never
          a chain, which would loop on a block that is only this. *)
       exit_prologue st ~extra:0 ~bump:0;
       stop st (b.term_pc land 0xFFFF)
     | _ -> invalid_arg "Aot.emit_term: not a block terminator")

let emit_block st blocks entry (b : Block.superblock) ~first =
  Array.fill st.env 0 32 None;
  Array.fill st.dirty 0 32 false;
  st.sgb <- None;
  Array.fill st.fbit 0 8 None;
  st.sg_dirty <- false;
  st.cyv <- None;
  st.cyc <- 0;
  st.ret <- 0;
  st.mr <- 0;
  st.mw <- 0;
  st.ends <- 0;
  st.ind <- 0;
  stmt st "%s %s (m : Machine.State.t) li =" (if first then "let rec" else "and")
    (fname entry);
  st.ind <- 1;
  stmt st "if m.cycles + %d > li then m.pc <- %d" b.worst entry;
  stmt st "else begin";
  st.ind <- 2;
  stmt st "let rg = m.regs in";
  ignore (use_cy st);
  emit_seq st blocks b ~budget:(ref (inline_budget - b.retired));
  st.ind <- 1;
  stmt st "end";
  st.ind <- 0

(* Translate a flash image (erased past its end) to the source of one
   plugin module.  [None] when the image is blank.  Deterministic: block set and
   emission order are functions of the image alone, so one digest maps
   to exactly one source text. *)
let translate ~digest (flash : int array) : string option =
  let fetch = flash_word flash in
  let hi = ref (Array.length flash) in
  while !hi > 0 && flash.(!hi - 1) = 0xFFFF do decr hi done;
  let hi = !hi in
  if hi = 0 then None
  else begin
    let blocks = discover fetch hi in
    if Hashtbl.length blocks = 0 then None
    else begin
      let entries =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) blocks [])
      in
      let st = est_new () in
      stmt st "(* Generated by the sensmart tier-2 translator.";
      stmt st "   Flash digest %s.  Do not edit. *)" digest;
      stmt st "let miss (_ : Machine.State.t) (_ : int) = ()";
      stmt st "let table = Array.make %d miss" hi;
      stmt st "let dispatch (m : Machine.State.t) li =";
      stmt st "  let pc = m.pc land 0xFFFF in";
      stmt st "  if pc < %d then (Array.unsafe_get table pc) m li" hi;
      List.iteri
        (fun i entry -> emit_block st blocks entry (Hashtbl.find blocks entry)
            ~first:(i = 0))
        entries;
      stmt st "let () =";
      List.iter
        (fun entry ->
          stmt st "  Array.unsafe_set table %d %s;" entry (fname entry))
        entries;
      stmt st "  Machine.State.register";
      stmt st "    { Machine.State.digest = %S; enter = dispatch }" digest;
      Some (Buffer.contents st.b)
    end
  end

(* ------------------------------------------------------------------ *)
(* Toolchain: compile generated source out of process and Dynlink the
   artifact.  One slot holds the only compile in flight, a child
   process: the simulator keeps its core while the machines that wait
   for the slot, or for the compile in it, carry on at tier-1.
   [big_lock] guards the slot, the counters and Dynlink; it is never
   held across a compile (only across the one-time [-version] probe).
   A failure disables tier-2 for the process with one warning (callers
   fall back to tier-1, never an error). *)

let big_lock = Mutex.create ()
let enabled = ref true

(* Stats surfaced through bench metrics. *)
let compiles = ref 0
let launched = ref 0
let cache_hits = ref 0
let compile_ms = ref 0.0
let disabled : string option ref = ref None

(* Instructions retired inside compiled code, summed by {!Cpu.run} over
   every [enter].  Host-side, like {!Block.stats}: updated without
   [big_lock] from every domain that runs a machine. *)
let t2_insns = Atomic.make 0

type stat = {
  compiles : int;  (** toolchain runs that produced an artifact *)
  launched : int;  (** toolchain runs started *)
  cache_hits : int;  (** cached artifacts that loaded and registered *)
  compile_ms : float;  (** host ms callers spent blocked on the toolchain *)
  disabled : string option;  (** why tier-2 turned itself off, if it did *)
  t2_insns : int;  (** instructions retired by compiled code *)
}

let stats () =
  { compiles = !compiles;
    launched = !launched;
    cache_hits = !cache_hits;
    compile_ms = !compile_ms;
    disabled = !disabled;
    t2_insns = Atomic.get t2_insns }

let pp_stats fmt s =
  Format.fprintf fmt
    "tier-2: %d instructions in compiled code; %d compiles, %d cache hits, %d launched"
    s.t2_insns s.compiles s.cache_hits s.launched;
  Option.iter (Format.fprintf fmt "; off: %s") s.disabled

(* Compile threshold, in executed instructions: a machine must retire
   this many instructions after its flash is (re)installed before it
   asks for a compile, so short runs — and kernels that keep patching
   their image — stay on tier-1.  A disk-cached artifact bypasses the
   wait (the fleet case: mote #2..#10000 pay only a registry lookup).
   At 0 every machine compiles before it runs and waits for the result
   (the differential tests' eager mode). *)
let default_threshold =
  match Sys.getenv_opt "SENSMART_AOT_THRESHOLD" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> n
    | _ -> 250_000)
  | None -> 250_000

let threshold = ref default_threshold
let set_threshold n = threshold := max 0 n

let rec mkdirs d =
  if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove_dir d =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (try Sys.readdir d with Sys_error _ -> [||]);
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let cache_dir =
  lazy
    (let d =
       match Sys.getenv_opt "SENSMART_AOT_CACHE" with
       | Some d when d <> "" -> d
       | _ ->
         let base =
           match Sys.getenv_opt "XDG_CACHE_HOME" with
           | Some b when b <> "" -> b
           | _ -> (
             match Sys.getenv_opt "HOME" with
             | Some h when h <> "" -> Filename.concat h ".cache"
             | _ ->
               Filename.concat (Filename.get_temp_dir_name ()) "sensmart-cache")
         in
         Filename.concat (Filename.concat base "sensmart") "aot"
     in
     mkdirs d;
     d)

let artifact digest = Filename.concat (Lazy.force cache_dir) (digest ^ ".cmxs")

(* Start [argv] as a child process, with no shell in between: stdin
   from /dev/null, stdout and stderr to the file [log].  [None] when the
   program cannot be started. *)
let spawn argv ~log =
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid =
    try Some (Unix.create_process argv.(0) argv null fd fd)
    with Unix.Unix_error _ -> None
  in
  Unix.close null;
  Unix.close fd;
  pid

(* [waitpid] on [pid]; [None] while a [WNOHANG] wait finds it running. *)
let rec reap flags pid =
  match Unix.waitpid flags pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (EINTR, _, _) -> reap flags pid
  | exception Unix.Unix_error _ -> Some (Unix.WEXITED 255)

let run_tool argv ~log = Option.bind (spawn argv ~log) (reap [])

(* Directory holding machine.cmi and its modules' interfaces, the one
   compilation input beyond the generated source (cmi only: an artifact
   then depends on the interfaces alone, not on their implementations).
   Probed from the env override, then by walking up from the executable
   and the cwd into a dune _build tree, then via findlib for installed
   setups. *)
let find_inc_dir () : string option =
  let ok d = d <> "" && Sys.file_exists (Filename.concat d "machine.cmi") in
  match Sys.getenv_opt "SENSMART_AOT_INC" with
  | Some d when ok d -> Some d
  | _ ->
    let sub =
      Filename.concat
        (Filename.concat "lib" "machine")
        (Filename.concat ".machine.objs" "byte")
    in
    let rec walk d n =
      if n > 12 then None
      else if ok (Filename.concat (Filename.concat d (Filename.concat "_build" "default")) sub)
      then Some (Filename.concat (Filename.concat d (Filename.concat "_build" "default")) sub)
      else if ok (Filename.concat d sub) then Some (Filename.concat d sub)
      else
        let parent = Filename.dirname d in
        if parent = d then None else walk parent (n + 1)
    in
    let first = walk (Filename.dirname Sys.executable_name) 0 in
    (match first with
     | Some _ as r -> r
     | None -> (
       match walk (Sys.getcwd ()) 0 with
       | Some _ as r -> r
       | None ->
         let tmp = Filename.temp_file "sensmart_aot" ".path" in
         let res =
           match
             run_tool [| "ocamlfind"; "query"; "sensmart.machine" |] ~log:tmp
           with
           | Some (WEXITED 0) -> (
             let ic = open_in tmp in
             let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
             close_in ic;
             match line with Some d when ok d -> Some d | _ -> None)
           | _ -> None
         in
         (try Sys.remove tmp with Sys_error _ -> ());
         res))

let compiler =
  lazy
    (let works argv =
       run_tool (Array.append argv [| "-version" |]) ~log:"/dev/null"
       = Some (Unix.WEXITED 0)
     in
     List.find_opt works
       [ [| "ocamlfind"; "ocamlopt" |]; [| "ocamlopt.opt" |]; [| "ocamlopt" |] ])

let unit_name digest = "sensmart_aot_" ^ String.sub digest 0 16

let load_artifact path : (unit, string) result =
  try
    Dynlink.loadfile_private path;
    Ok ()
  with
  | Dynlink.Error e -> Error (Dynlink.error_message e)
  | e -> Error (Printexc.to_string e)

(* The compile in flight: one toolchain run that links the modules of
   [digests] into the artifact [out], as compiler [pid] in build dir
   [tmp]. *)
type compile = { digests : string list; out : string; pid : int; tmp : string }

let slot : compile option ref = ref None

(* Set while a caller waits on the running compiler with [big_lock]
   released: nobody else may reap it meanwhile. *)
let reaping = ref false

(* Broadcast whenever that caller is done waiting. *)
let settled = Condition.create ()

(* From here to [shutdown], which takes it itself, callers hold
   [big_lock]. *)

let disable msg =
  if !enabled then begin
    enabled := false;
    disabled := Some msg;
    Printf.eprintf "sensmart: tier-2 unavailable (%s); falling back to tier-1\n%!"
      msg
  end

(* Start compiling [sources] (digest, source) into the artifact [out]
   in the slot, which must be free. *)
let start sources out =
  match (Dynlink.is_native, Lazy.force compiler, find_inc_dir ()) with
  | false, _, _ -> disable "tier-2 needs a native-code build"
  | _, None, _ -> disable "no OCaml compiler on PATH"
  | _, _, None -> disable "machine.cmi not found (set SENSMART_AOT_INC)"
  | true, Some cc, Some inc -> (
    let tmp =
      Filename.concat (Filename.dirname out)
        (Printf.sprintf "build-%d-%s" (Unix.getpid ())
           (String.sub (fst (List.hd sources)) 0 16))
    in
    mkdirs tmp;
    let mls =
      List.map
        (fun (digest, src) ->
          let ml = Filename.concat tmp (unit_name digest ^ ".ml") in
          Out_channel.with_open_bin ml (fun oc -> output_string oc src);
          ml)
        sources
    in
    let argv =
      Array.concat
        [ cc;
          [| "-shared"; "-w"; "-a"; "-I"; inc |];
          Array.of_list mls;
          [| "-o"; Filename.concat tmp (Filename.basename out) |] ]
    in
    match spawn argv ~log:(Filename.concat tmp "log") with
    | None ->
      remove_dir tmp;
      disable ("cannot start " ^ cc.(0))
    | Some pid ->
      incr launched;
      slot := Some { digests = List.map fst sources; out; pid; tmp })

(* Empty the slot of [c], whose compiler has exited with [status]: move
   its artifact into the cache and, unless [~load] is false, load it;
   or disable tier-2 with the toolchain's first line of output. *)
let finish ?(load = true) c status =
  slot := None;
  (match status with
   | Unix.WEXITED 0 -> (
     incr compiles;
     (* Loaded from its build path, which no earlier load has named: the
        dynamic linker keeps a stale artifact that failed to load open
        under the cache path, and would hand it back for that path. *)
     let built = Filename.concat c.tmp (Filename.basename c.out) in
     match if load then load_artifact built else Ok () with
     | Error msg -> disable msg
     | Ok () when load && List.exists (fun d -> find d = None) c.digests ->
       disable "loaded module did not register"
     | Ok () -> ( try Sys.rename built c.out with Sys_error msg -> disable msg))
   | status ->
     let first_line =
       try In_channel.with_open_bin (Filename.concat c.tmp "log") In_channel.input_line
       with Sys_error _ -> None
     in
     disable
       (Printf.sprintf "toolchain %s%s"
          (match status with
           | WEXITED n -> Printf.sprintf "exit %d" n
           | WSIGNALED n | WSTOPPED n -> Printf.sprintf "killed by signal %d" n)
          (match first_line with Some l when l <> "" -> ": " ^ l | _ -> "")));
  remove_dir c.tmp

(* Empty the slot if its compiler has exited: one [waitpid] that never
   blocks. *)
let poll () =
  match !slot with
  | Some c when not !reaping -> Option.iter (finish c) (reap [ WNOHANG ] c.pid)
  | _ -> ()

(* Block until the slot is free, reaping its compiler with [big_lock]
   released unless another caller already does. *)
let wait_slot ?load () =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    match !slot with
    | None -> ()
    | Some _ when !reaping ->
      Condition.wait settled big_lock;
      loop ()
    | Some c ->
      reaping := true;
      Mutex.unlock big_lock;
      let status = reap [] c.pid in
      Mutex.lock big_lock;
      reaping := false;
      Option.iter (finish ?load c) status;
      Condition.broadcast settled;
      loop ()
  in
  loop ();
  compile_ms := !compile_ms +. ((Unix.gettimeofday () -. t0) *. 1000.)

(** Wait for the compile in flight, if any, and move its artifact into
    the cache without loading it, so no compiler outlives the process
    and the next machine of that image, in this run or a later one,
    binds from the disk cache.  Runs at exit. *)
let shutdown () =
  Mutex.lock big_lock;
  wait_slot ~load:false ();
  Mutex.unlock big_lock

let () = at_exit shutdown

(* ------------------------------------------------------------------ *)
(* Binding a machine to its compiled program. *)

let bind_ready m digest =
  match find digest with
  | Some p ->
    m.t2 <- T2_ready p;
    true
  | None -> false

let bound m = match m.t2 with T2_ready p -> Some p | _ -> None

(* Load the cached artifact [path], which must register [digests].  A
   hit counts only once it has; a stale or corrupt file is removed, so
   the caller compiles afresh.  Caller holds [big_lock]. *)
let load_cached path digests =
  Sys.file_exists path
  &&
  match load_artifact path with
  | Ok () when List.for_all (fun d -> find d <> None) digests ->
    incr cache_hits;
    true
  | Ok () | Error _ ->
    (try Sys.remove path with Sys_error _ -> ());
    false

(* Bind [m] to the program for [digest], loading its cached artifact
   first if need be.  Caller holds [big_lock]. *)
let bind_cached m digest =
  bind_ready m digest || (load_cached (artifact digest) [ digest ] && bind_ready m digest)

(* Tier-1 instructions a machine retires between two polls of the
   compile slot; a poll is one lock and one [waitpid]. *)
let poll_every = 16_384

(* [m] is due for tier-2: bind it when its program is loaded or loads
   from the cache.  Otherwise, if the slot is free, translate its flash
   and start the compile; while another compile holds the slot, [m]
   translates nothing.  Then either wait for the compile ([~eager],
   which first waits for the slot) or look again after [poll_every]
   more instructions. *)
let advance ~eager m digest =
  Mutex.lock big_lock;
  poll ();
  if eager then wait_slot ();
  (if bind_cached m digest then ()
   else if not !enabled then m.t2 <- T2_off
   else if Option.is_some !slot then m.t2 <- T2_wait (digest, m.insns + poll_every)
   else
     match translate ~digest m.flash with
     | None -> m.t2 <- T2_off (* blank image: nothing tier-2 can run *)
     | Some source ->
       start [ (digest, source) ] (artifact digest);
       if not eager then m.t2 <- T2_wait (digest, m.insns + poll_every)
       else begin
         wait_slot ();
         if not (bind_ready m digest) then m.t2 <- T2_off
       end);
  Mutex.unlock big_lock

(* The tier-2 run loop's entry point: the compiled program for [m]'s
   current flash, if available now.  Drives the [t2] state
   machine: digest on first sight, bind at once from the registry or
   the disk cache, otherwise wait out the execution-count threshold,
   then start a background compile once the slot is free and poll it
   until it binds.  At threshold 0 the machine waits for its compile
   instead.  Cheap on the hot paths: [T2_ready] is field access;
   [T2_wait] is an int compare. *)
let attempt (m : t) : program option =
  match m.t2 with
  | T2_ready p -> Some p
  | T2_off -> None
  | (T2_wait _ | T2_unknown) when not !enabled ->
    m.t2 <- T2_off;
    None
  | T2_wait (digest, ready_at) ->
    if m.insns < ready_at then None
    else begin
      advance ~eager:false m digest;
      bound m
    end
  | T2_unknown ->
    let digest = digest_of m in
    if bind_ready m digest then bound m
    else if !threshold = 0 then begin
      advance ~eager:true m digest;
      bound m
    end
    else begin
      Mutex.lock big_lock;
      if not (bind_cached m digest) then m.t2 <- T2_wait (digest, m.insns + !threshold);
      Mutex.unlock big_lock;
      bound m
    end

(* ------------------------------------------------------------------ *)
(* Batch pre-compilation: translate many images and compile them in
   chunks through the slot, one after another, waiting for each as the
   eager path does.  Used by the differential test harness, where 1200
   randomized programs would otherwise mean 1200 compiler invocations.
   An image reads as erased past its end, exactly as a machine's flash
   does ({!State.flash_word}), so no padding is needed: digests match a
   machine booted from the same image. *)

let preload (images : int array list) : unit =
  Mutex.lock big_lock;
  wait_slot ();
  if !enabled then begin
    let seen = Hashtbl.create 64 in
    (* Load per-digest artifacts that already exist (before paying any
       translation), and translate the rest. *)
    let missing =
      List.filter_map
        (fun img ->
          let digest = digest_of_flash img in
          if Hashtbl.mem seen digest || find digest <> None then None
          else begin
            Hashtbl.add seen digest ();
            if load_cached (artifact digest) [ digest ] then None
            else Option.map (fun src -> (digest, src)) (translate ~digest img)
          end)
        images
    in
    let chunk = 100 in
    let rec batches = function
      | [] -> ()
      | l ->
        let now = List.filteri (fun i _ -> i < chunk) l
        and rest = List.filteri (fun i _ -> i >= chunk) l in
        (* The batch key is content-derived, so an existing artifact
           holds exactly these modules: load it instead of
           recompiling. *)
        let key = Digest.to_hex (Digest.string (String.concat "" (List.map fst now))) in
        let out = artifact ("batch-" ^ key) in
        if !enabled && not (load_cached out (List.map fst now)) then begin
          start now out;
          wait_slot ()
        end;
        batches rest
    in
    batches missing
  end;
  Mutex.unlock big_lock
