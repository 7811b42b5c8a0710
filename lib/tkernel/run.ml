(* Execution harness for a t-kernel-rewritten program: one application,
   kernel-only protection, software-trap preemption points, and the
   on-node rewriting warm-up charged at load time.

   The harness is split into [start] / [continue] so callers that need
   to perturb the machine mid-run (the adversarial campaigns of
   [lib/attack] inject radio frames between bounded segments) see
   exactly the same execution as one monolithic [run]: [continue] takes
   an absolute cycle horizon, like {!Machine.Cpu.run_native}. *)

type report = {
  halt : Machine.Cpu.halt option;
  cycles : int;
  active_cycles : int;
  warmup_cycles : int;
  traps : int;
  translations : int;
  machine : Machine.Cpu.t;
}

type t = {
  rw : Rewrite.t;
  machine : Machine.Cpu.t;
  traps : int ref;
  translations : int ref;
}

let translate_cost n = 40 + (22 * int_of_float (ceil (log (float_of_int (n + 2)) /. log 2.)))

let start (t : Rewrite.t) : t =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m t.image.words;
  (* Data placement is unchanged by t-kernel rewriting: initialize from
     the source image. *)
  List.iter (fun (a, b) -> Machine.Cpu.write8 m a b) t.source.data_init;
  m.pc <- (match Hashtbl.find_opt t.addr_map t.source.entry with
           | Some a -> a
           | None -> t.image.entry);
  Machine.Cpu.write8 m Rewrite.cnt_cell 0;
  Machine.Cpu.write8 m Rewrite.page_cell 1;
  (* On-node rewriting happens before the first run: the warm-up. *)
  m.cycles <- t.warmup_cycles;
  let traps = ref 0 and translations = ref 0 in
  let n_map = Hashtbl.length t.addr_map in
  m.on_syscall <-
    Some
      (fun m k ->
        if k = Rewrite.sys_trap then begin
          incr traps;
          Machine.Cpu.write8 m Rewrite.cnt_cell 0;
          Machine.Cpu.write8 m Rewrite.page_cell 1;
          m.cycles <- m.cycles + 30
        end
        else if k = Rewrite.sys_translate then begin
          incr translations;
          let z = Machine.Cpu.zreg m in
          (match Hashtbl.find_opt t.addr_map z with
           | Some a -> Machine.Cpu.set_zreg m a
           | None -> m.halted <- Some (Fault (Printf.sprintf "tk: bad indirect 0x%04x" z)));
          m.cycles <- m.cycles + translate_cost n_map
        end
        else if k = Rewrite.sys_ijmp then begin
          incr translations;
          let z = Machine.Cpu.zreg m in
          (match Hashtbl.find_opt t.addr_map z with
           | Some a -> m.pc <- a
           | None -> m.halted <- Some (Fault (Printf.sprintf "tk: bad ijmp 0x%04x" z)));
          m.cycles <- m.cycles + translate_cost n_map
        end
        else if k = Rewrite.sys_fault then
          m.halted <- Some (Fault "tk: kernel-area access")
        else if k = Rewrite.sys_exit then m.halted <- Some Break_hit
        else m.halted <- Some (Fault (Printf.sprintf "tk: unknown syscall %d" k)));
  { rw = t; machine = m; traps; translations }

let continue_ ?max_cycles (s : t) : Machine.Cpu.halt option =
  Machine.Cpu.run_native ?max_cycles s.machine

let report_of (s : t) ~(halt : Machine.Cpu.halt option) : report =
  let m = s.machine in
  { halt; cycles = m.cycles; active_cycles = Machine.Cpu.active_cycles m;
    warmup_cycles = s.rw.warmup_cycles; traps = !(s.traps);
    translations = !(s.translations); machine = m }

let run ?(max_cycles = 2_000_000_000) (t : Rewrite.t) : report =
  let s = start t in
  let halt = continue_ ~max_cycles s in
  report_of s ~halt

(** Read a 16-bit variable via the source image's symbol table (data
    addresses are unchanged under t-kernel rewriting). *)
let read_var (t : Rewrite.t) (r : report) name =
  match Asm.Image.find_symbol t.source name with
  | Some (Data a) -> Machine.Cpu.read16 r.machine a
  | _ -> invalid_arg (Printf.sprintf "no data symbol %s" name)

let result t r = read_var t r "bench_result"
