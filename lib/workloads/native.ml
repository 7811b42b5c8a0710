(* Bare-metal execution of one program image, with no operating system:
   the baseline of Figures 5 and 6 ("native"). *)

type report = {
  halt : Machine.Cpu.halt option;
  cycles : int;
  active_cycles : int;
  insns : int;
  machine : Machine.Cpu.t;
}

(** Load [img] at flash 0, initialize its data section, and run it to
    completion (or [max_cycles]).  The default uses the tier-1 block
    engine; [~tier:0] forces the tier-0 interpreter (differential
    testing), and [~tier:2] requests ahead-of-time compiled execution
    (falling back tier by tier wherever unavailable). *)
let run ?tier ?(max_cycles = 2_000_000_000) (img : Asm.Image.t) : report =
  let m = Machine.Cpu.create () in
  Machine.Cpu.load m img.words;
  List.iter (fun (a, b) -> Machine.Cpu.write8 m a b) img.data_init;
  m.pc <- img.entry;
  let halt = Machine.Cpu.run_native ?tier ~max_cycles m in
  { halt; cycles = m.cycles; active_cycles = Machine.Cpu.active_cycles m;
    insns = m.insns; machine = m }

(** Read a 16-bit little-endian variable of the finished program. *)
let read_var (img : Asm.Image.t) (r : report) name =
  match Asm.Image.find_symbol img name with
  | Some (Data a) -> Machine.Cpu.read16 r.machine a
  | _ -> invalid_arg (Printf.sprintf "no data symbol %s in %s" name img.name)

(** The 16-bit result the kernel benchmarks store in "bench_result". *)
let result img r = read_var img r "bench_result"
