(* Trampoline code generation (Section IV-A of the paper).

   Every patched instruction is replaced in place by a single JMP or CALL
   into a trampoline appended after the program, so the instruction
   *count* of the patched text equals the original's.  Trampolines are
   real AVR code: the cycle overheads of Table II emerge from executing
   these sequences on the simulator, not from charged constants.

   Trampolines execute with *physical* addressing (they are generated,
   trusted code); only the rewritten application instructions carry
   logical addresses.  They may scratch the stack below SP by a few
   bytes, which is covered by {!Kcells.stack_reserve} that every stack
   check keeps in hand.

   A context switch can only happen inside a syscall (trap / yield /
   stack-grow), and no trampoline holds a translated (physical) pointer
   in a register across a syscall — this is the invariant that makes
   stack relocation safe: suspended tasks never hold physical data
   addresses anywhere but SP, which the kernel adjusts. *)

open Avr.Isa

(** One data access performed through a translated pointer. *)
type access =
  | Load of int * int  (** (destination reg, displacement q) *)
  | Store of int * int  (** (source reg, displacement q) *)

type ptr_mode = Plain | Postinc | Predec

type indirect = {
  ptr : int;  (** low register of the pointer pair: 26 (X), 28 (Y) or 30 (Z) *)
  mode : ptr_mode;  (** only meaningful for single plain-[Ld]/[St] accesses *)
  accesses : access list;
}

(* Dedup key: trampolines with equal keys share one body, the paper's
   trampoline merging.  Keys that embed a return address (`next`) only
   merge across identical fall-through sites; keys without one (calls,
   indirect branches, shared services) merge freely. *)
type key =
  | Svc_counter
  | Svc_check of int  (* bytes of headroom to require (reserve included) *)
  | Svc_xlat of int  (* shared pointer classification/translation for a pair *)
  | Cond_branch of int * bool * int * int  (* sreg bit, if_set, nat target, nat fall *)
  | Cond_island of int * bool * int * int
      (* range island for an out-of-reach *forward* branch: no trap
         counter, since only backward branches count *)
  | Back_jump of int  (* nat target *)
  | Call_check of int  (* nat target *)
  | Icall_tr
  | Ijmp_tr
  | Yield of int  (* nat next *)
  | Exit_tr
  | Direct of bool * int * int  (* is_store, reg, logical data address *)
  | Indirect of indirect  (* call-style: single access, returns to the site *)
  | Indirect_grp of indirect * int  (* jmp-style grouped run; int = nat next *)
  | Push_head of int * int * int  (* reg, bytes incl. reserve, nat next *)
  | Getsp of int list * int  (* dest regs for [SPL; SPH] prefix, nat next *)
  | Setsp of [ `Both | `Lo | `Hi ] * int list * int  (* which, source regs, nat next *)
  | Timer3_rd of int list * bool * int  (* dest regs, starts_at_high, nat next *)
  | Lpm_tr of int * bool * int * int  (* rd, post-inc, delta bytes, nat next *)

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Pick a scratch register (>= 16, for CPI/LDI) outside [avoid]. *)
let scratch avoid =
  match List.find_opt (fun r -> not (List.mem r avoid)) [ 16; 17; 18; 19; 20 ] with
  | Some r -> r
  | None -> unsupported "no scratch register available"

let sreg_io = Machine.Io.sreg

open Asm.Macros

(* Save scratch [s] and SREG on the stack / restore them. *)
let save_sreg s = [ push s; in_ s sreg_io; push s ]
let restore_sreg s = [ pop s; out sreg_io s; pop s ]

let lds_abs r a = i (Lds (r, a))
let sts_abs a r = i (Sts (a, r))
let jmp_abs a = i (Jmp a)
let syscall k = i (Syscall k)

(* The shared backward-branch counter service (Section IV-B): one out of
   [Kcells.trap_period] backward branches falls through into the kernel. *)
let svc_counter_body =
  let enter = fresh "cnt_enter" in
  save_sreg 16
  @ [ lds_abs 16 Kcells.cnt; subi 16 1; sts_abs Kcells.cnt 16; breq enter ]
  @ restore_sreg 16 @ [ ret ]
  @ [ lbl enter ] @ restore_sreg 16
  @ [ syscall Kcells.sys_trap; ret ]

(* The shared stack-check service for [n] bytes of headroom: enters the
   kernel's grow path when SP - n would cross the physical floor. *)
let svc_check_body n =
  let ok = fresh "chk_ok" and again = fresh "chk_again" in
  save_sreg 16
  @ [ push 17; push 18;
      lbl again;
      in_ 16 Machine.Io.spl; in_ 17 Machine.Io.sph;
      subi 16 (n land 0xFF); sbci 17 ((n lsr 8) land 0xFF);
      lds_abs 18 Kcells.floor_phys_lo; cp 16 18;
      lds_abs 18 Kcells.floor_phys_hi; cpc 17 18;
      brcc ok;
      (* The kernel grants at least a few bytes per grow (or terminates
         the task), so re-checking converges. *)
      syscall Kcells.sys_stack_grow;
      rjmp again;
      lbl ok; pop 18; pop 17 ]
  @ restore_sreg 16 @ [ ret ]

(* Shared pointer classification/translation service: classify the
   logical address in the pair as I/O / heap / stack and replace it with
   the physical address, using r16 as scratch (the caller has saved r16
   and SREG).  This is the part of indirect translation that is common
   to every access through a given pointer pair, so emitting it once and
   calling it from each access trampoline is the main instance of the
   paper's trampoline merging. *)
let svc_xlat_body ~heap_end ptr =
  if ptr <> 26 && ptr <> 28 && ptr <> 30 then unsupported "bad pointer pair r%d" ptr;
  let pl = ptr and ph = ptr + 1 in
  let l_stack = fresh "xl_stk" and l_fault = fresh "xl_flt" and l_io = fresh "xl_io" in
  [ cpi ph 0x01; brcs l_io;
    ldi 16 ((heap_end lsr 8) land 0xFF); cpi pl (heap_end land 0xFF);
    cpc ph 16; brcc l_stack;
    lds_abs 16 Kcells.hdisp_lo; add pl 16;
    lds_abs 16 Kcells.hdisp_hi; adc ph 16; ret;
    lbl l_stack;
    (* Upper bound first: a logical address at or above the 0x1100
       address-space top would translate past the task's region top into
       a sibling's memory (sdisp maps logical 0x1100 to physical p_u).
       An overflowing buffer fill driven by a malicious radio frame is
       exactly this access pattern — fault it instead of translating. *)
    cpi ph ((Machine.Layout.data_size lsr 8) land 0xFF); brcc l_fault;
    lds_abs 16 Kcells.floor_log_lo; cp pl 16;
    lds_abs 16 Kcells.floor_log_hi; cpc ph 16;
    brcs l_fault;
    lds_abs 16 Kcells.sdisp_lo; add pl 16;
    lds_abs 16 Kcells.sdisp_hi; adc ph 16;
    lbl l_io; ret;
    lbl l_fault; syscall Kcells.sys_fault ]

(* Indirect-access trampoline: save r16/SREG and the logical pointer,
   have the shared service translate it, perform the access(es)
   physically, then restore the logical pointer.  A multi-access list is
   the grouped-access optimization of Section IV-C2. *)
let indirect_body ~service ~tail { ptr; mode; accesses } =
  if ptr <> 26 && ptr <> 28 && ptr <> 30 then unsupported "bad pointer pair r%d" ptr;
  let pl = ptr and ph = ptr + 1 in
  let loads = List.filter_map (function Load (r, _) -> Some r | Store _ -> None) accesses in
  let stores = List.filter_map (function Store (r, _) -> Some r | Load _ -> None) accesses in
  if mode <> Plain && List.length accesses <> 1 then
    unsupported "pointer side effects on a grouped access";
  if mode <> Plain && List.exists (fun r -> r = pl || r = ph) loads then
    unsupported "ld r%d, P+/-P is undefined" (List.hd loads);
  List.iter
    (fun (a : access) ->
      let q = match a with Load (_, q) | Store (_, q) -> q in
      if ptr = 26 && q <> 0 then unsupported "X pointer has no displacement mode")
    accesses;
  (* Stores whose source is the pointer pair or the service scratch r16
     need a snapshot taken before either is clobbered. *)
  let conflicts r = r = pl || r = ph || r = 16 in
  let conflict_store = List.exists conflicts stores in
  let s2 = if conflict_store then scratch (16 :: pl :: ph :: (loads @ stores)) else -1 in
  let snapshot_of r = if conflict_store && conflicts r then s2 else r in
  (* The SREG save normally uses r16 (which the service scratches anyway);
     when a load targets r16 its old value is dead but the SREG home must
     move to another register. *)
  let s = if List.mem 16 loads then scratch (16 :: s2 :: pl :: ph :: (loads @ stores)) else 16 in
  let do_access (a : access) =
    match (a, ptr) with
    | Load (rd, 0), 26 -> ld rd X
    | Load (rd, q), 28 -> ldd rd Ybase q
    | Load (rd, q), 30 -> ldd rd Zbase q
    | Store (rr, 0), 26 -> st X (snapshot_of rr)
    | Store (rr, q), 28 -> std Ybase q (snapshot_of rr)
    | Store (rr, q), 30 -> std Zbase q (snapshot_of rr)
    | _ -> unsupported "bad access/pointer combination"
  in
  (if conflict_store then
     push s2
     :: List.filter_map (fun r -> if conflicts r then Some (mov s2 r) else None) stores
   else [])
  @ save_sreg s
  @ (match mode with Predec -> [ sbiw pl 1 ] | Plain | Postinc -> [])
  @ [ push pl; push ph ]
  @ [ call (service (Svc_xlat ptr)) ]
  @ List.map do_access accesses
  @ [ (if List.mem ph loads then pop s else pop ph);
      (if List.mem pl loads then pop s else pop pl) ]
  @ (match mode with Postinc -> [ adiw pl 1 ] | Plain | Predec -> [])
  @ restore_sreg s
  @ (if conflict_store then [ pop s2 ] else [])
  @ [ tail ]

(* Direct (LDS/STS) heap access: the address is static, so the
   base-station rewriter has already bounds-checked it against the
   symbol list; only the displacement addition remains at run time. *)
let direct_body ~is_store ~reg ~addr =
  let ptr = if reg = 30 || reg = 31 then 26 else 30 in
  let pl = ptr and ph = ptr + 1 in
  let s = scratch [ reg; pl; ph ] in
  let access =
    if is_store then (if ptr = 26 then st X reg else std Zbase 0 reg)
    else if ptr = 26 then ld reg X
    else ldd reg Zbase 0
  in
  let neg = (-addr) land 0xFFFF in
  save_sreg s
  @ [ push pl; push ph;
      lds_abs pl Kcells.hdisp_lo; lds_abs ph Kcells.hdisp_hi;
      subi pl (neg land 0xFF); sbci ph ((neg lsr 8) land 0xFF);
      access;
      pop ph; pop pl ]
  @ restore_sreg s
  @ [ ret ]

let lpm_body ~rd ~post_inc ~delta ~next =
  if rd = 30 || rd = 31 then unsupported "lpm into Z under translation";
  let s = scratch [ rd ] in
  let neg = (-delta) land 0xFFFF in
  save_sreg s
  @ [ subi 30 (neg land 0xFF); sbci 31 ((neg lsr 8) land 0xFF);
      lpm rd ~inc:post_inc;
      subi 30 (delta land 0xFF); sbci 31 ((delta lsr 8) land 0xFF) ]
  @ restore_sreg s
  @ [ jmp_abs next ]

(** Generate the body of a trampoline.  [service] resolves a shared
    service key to its label (services are emitted once per program). *)
let body ~heap_end ~service (k : key) : Asm.Ast.stmt list =
  match k with
  | Svc_counter -> svc_counter_body
  | Svc_check n -> svc_check_body n
  | Svc_xlat ptr -> svc_xlat_body ~heap_end ptr
  | Cond_branch (bit, if_set, nat_target, nat_fall) ->
    (* The condition is re-tested here: the JMP that brought control in
       does not touch SREG, so the original compare's flags are live.
       The +2 offset hops over the fall-through jump. *)
    [ (if if_set then i (Brbs (bit, 2)) else i (Brbc (bit, 2)));
      jmp_abs nat_fall;
      call (service Svc_counter);
      jmp_abs nat_target ]
  | Cond_island (bit, if_set, nat_target, nat_fall) ->
    [ (if if_set then i (Brbs (bit, 2)) else i (Brbc (bit, 2)));
      jmp_abs nat_fall;
      jmp_abs nat_target ]
  | Back_jump nat_target ->
    [ call (service Svc_counter); jmp_abs nat_target ]
  | Call_check nat_target ->
    [ call (service (Svc_check 16)); jmp_abs nat_target ]
  | Icall_tr ->
    (* Z must stay logical across the call: the program may reuse the
       function pointer.  Save it, translate, call, restore. *)
    [ call (service (Svc_check 16));
      push 30; push 31;
      syscall Kcells.sys_translate_z; icall;
      pop 31; pop 30; ret ]
  | Ijmp_tr ->
    (* The kernel performs the dispatch itself so Z keeps its logical
       value at the target. *)
    [ syscall Kcells.sys_ijmp ]
  | Yield next -> [ syscall Kcells.sys_yield; jmp_abs next ]
  | Exit_tr -> [ syscall Kcells.sys_exit ]
  | Direct (is_store, reg, addr) -> direct_body ~is_store ~reg ~addr
  | Indirect ind -> indirect_body ~service ~tail:ret ind
  | Indirect_grp (ind, next) -> indirect_body ~service ~tail:(jmp_abs next) ind
  | Push_head (reg, bytes, next) ->
    [ call (service (Svc_check bytes)); push reg; jmp_abs next ]
  | Getsp (dests, next) ->
    (syscall Kcells.sys_getsp
     :: List.mapi
          (fun idx rd -> lds_abs rd (if idx = 0 then Kcells.arg_lo else Kcells.arg_hi))
          dests)
    @ [ jmp_abs next ]
  | Setsp (which, srcs, next) ->
    (match (which, srcs) with
     | `Both, [ rl; rh ] ->
       [ sts_abs Kcells.arg_lo rl; sts_abs Kcells.arg_hi rh;
         syscall Kcells.sys_setsp16; jmp_abs next ]
     | `Lo, [ r ] ->
       [ sts_abs Kcells.arg_lo r; syscall Kcells.sys_setspl; jmp_abs next ]
     | `Hi, [ r ] ->
       [ sts_abs Kcells.arg_lo r; syscall Kcells.sys_setsph; jmp_abs next ]
     | _ -> unsupported "setsp arity")
  | Timer3_rd (dests, starts_high, next) ->
    (syscall Kcells.sys_timer3
     :: List.mapi
          (fun idx rd ->
            let high = if starts_high then idx = 0 else idx = 1 in
            lds_abs rd (if high then Kcells.arg_hi else Kcells.arg_lo))
          dests)
    @ [ jmp_abs next ]
  | Lpm_tr (rd, post_inc, delta, next) -> lpm_body ~rd ~post_inc ~delta ~next
