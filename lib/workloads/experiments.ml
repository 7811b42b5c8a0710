(* The paper's evaluation, said once.  Each entry is one table or
   figure: its name (the CLI subcommand and the EXPERIMENTS.md marker),
   its title, its full and --quick parameters, and a function that
   measures it into a plain table.  The bench harness, the CLI and the
   golden blocks of EXPERIMENTS.md all print through [lines]. *)

type table = { header : string list; rows : string list list }

type t = {
  name : string;
  title : string;
  table : quick:bool -> table;
}

(** A sweep's full-size and [--quick] parameters. *)
type 'a sweep = { full : 'a; quick : 'a }

(* The paper sweeps up to ~10^6 instructions with 300 activations on
   real motes; these subsets keep the same saturation shape. *)
let fig6_points =
  { full = [ 2_000; 10_000; 20_000; 40_000; 60_000; 90_000; 130_000; 180_000 ];
    quick = [ 2_000; 30_000; 90_000 ] }

let fig7_sizes = { full = [ 10; 20; 30; 40; 50; 60; 80 ]; quick = [ 10; 40; 80 ] }
let fig8_sizes = { full = [ 10; 20; 30; 40 ]; quick = [ 10; 40 ] }
let concurrent_tasks = { full = [ 1; 2; 4; 8 ]; quick = [ 1; 4 ] }

(* Seeded packet variants per (system, class) cell; the full size is
   [sensmart_cli attack]'s default. *)
let attack_trials = { full = 2; quick = 1 }

(** Markdown rows of a table: header, rule, one line per row. *)
let lines { header; rows } =
  let line cells = "| " ^ String.concat " | " cells ^ " |" in
  line header :: line (List.map (fun _ -> "---") header) :: List.map line rows

let print ~quick e =
  Printf.printf "\n=== %s ===\n" e.title;
  List.iter print_endline (lines (e.table ~quick));
  flush stdout

let int = string_of_int
let fixed d = Printf.sprintf "%.*f" d
let pct x = Printf.sprintf "%.1f%%" (100. *. x)
let ratio a b = fixed 2 (float_of_int a /. float_of_int b)
let table header f rows = { header; rows = List.map f rows }

let once name title f = { name; title; table = (fun ~quick:_ -> f ()) }

let swept name title sweep f =
  { name; title;
    table = (fun ~quick -> f (if quick then sweep.quick else sweep.full)) }

let sizes rows =
  table
    [ "program"; "native"; "rewritten"; "shift"; "trampolines"; "SenSmart";
      "ratio"; "t-kernel" ]
    (fun (r : Kernel_bench.size_row) ->
      let total = Kernel_bench.sensmart_total r in
      [ r.name; int r.native_bytes; int r.rewritten_bytes; int r.shift_bytes;
        int r.tramp_bytes; int total; ratio total r.native_bytes;
        int r.tkernel_bytes ])
    rows

let all =
  [ once "table1" "Table I: feature comparison" (fun () ->
        table ("Feature" :: Features.columns)
          (fun (r : Features.row) ->
            r.feature
            :: List.map Features.show
                 [ r.tinyos; r.mate; r.mantis; r.tkernel; r.retos; r.liteos;
                   r.sensmart ])
          Features.rows);
    once "table2" "Table II: overhead of key operations (cycles)" (fun () ->
        table [ "Operation"; "paper"; "here"; "how" ]
          (fun (r : Overhead.row) ->
            [ r.operation; r.paper; int r.measured; r.note ])
          (Overhead.table ()));
    once "fig4" "Figure 4: code inflation of kernel benchmarks (bytes)"
      (fun () -> sizes (Kernel_bench.fig4 ()));
    once "fig5" "Figure 5: execution time of kernel benchmarks (s)" (fun () ->
        table
          [ "program"; "native"; "SenSmart mem-only"; "SenSmart full";
            "t-kernel" ]
          (fun (r : Kernel_bench.time_row) ->
            r.name
            :: List.map (fixed 3)
                 [ r.native_s; r.mem_only_s; r.full_s; r.tkernel_s ])
          (Kernel_bench.fig5 ()));
    swept "fig6" "Figure 6: PeriodicTask execution time and CPU utilization"
      fig6_points (fun points ->
        table
          [ "insns"; "native (s)"; "native util"; "SenSmart (s)";
            "SenSmart util"; "t-kernel (s)"; "Maté (s)" ]
          (fun (p : Periodic.point) ->
            [ int p.insns; fixed 2 p.native_s; pct p.native_util;
              fixed 2 p.sensmart_s; pct p.sensmart_util; fixed 2 p.tkernel_s;
              fixed 2 p.mate_s ])
          (Periodic.sweep points));
    swept "fig7" "Figure 7: stack versatility vs binary-tree size" fig7_sizes
      (fun nodes ->
        table
          [ "nodes/tree"; "schedulable search tasks"; "avg stack/task (B)";
            "relocations" ]
          (fun (r : Versatility.fig7_row) ->
            [ int r.nodes; int r.max_tasks; fixed 1 r.avg_stack;
              int r.relocations ])
          (Versatility.fig7 nodes));
    swept "fig8" "Figure 8: SenSmart vs LiteOS schedulable tasks" fig8_sizes
      (fun nodes ->
        table
          [ "nodes/tree"; "stack budget (B)"; "SenSmart tasks"; "LiteOS tasks" ]
          (fun (r : Versatility.fig8_row) ->
            [ int r.nodes; int r.budget; int r.sensmart_tasks;
              int r.liteos_tasks ])
          (Versatility.fig8 nodes));
    once "fig4-minic" "Figure 4 at compiler scale: minic-built benchmarks"
      (fun () -> sizes (Kernel_bench.fig4_minic ()));
    once "fig4-firmware"
      "Figure 4 on firmware: avr-gcc-shaped HEX images, loaded symbol-less"
      (fun () ->
        table
          [ "program"; "native"; "SenSmart"; "ratio"; "blocks (small)";
            "shift"; "trampolines (merged)"; "unreachable"; "conservative" ]
          (fun (r : Rewriter.Report.t) ->
            [ r.program; int r.native_bytes; int r.total_bytes;
              ratio r.total_bytes r.native_bytes;
              Printf.sprintf "%d (%d)" r.blocks_recovered r.small_blocks;
              int r.shift_entries;
              Printf.sprintf "%d (%d)" r.trampolines r.trampolines_merged;
              int r.unreachable_insns; (if r.conservative then "yes" else "no") ])
          (Kernel_bench.firmware ()));
    swept "concurrent"
      "Concurrent PeriodicTask applications (Table I: SenSmart-only)"
      concurrent_tasks (fun counts ->
        table [ "tasks"; "all finished"; "total (s)"; "avg current (mA)" ]
          (fun (p : Periodic.multi_point) ->
            [ int p.tasks; (if p.all_finished then "yes" else "NO");
              fixed 2 p.total_s; fixed 3 p.avg_current_ma ])
          (Periodic.multi counts));
    once "ablation-grouping"
      "Ablation: grouped-rewriting optimizations (Section IV-C2)" (fun () ->
        table [ "variant"; "bytes"; "cycles" ]
          (fun (r : Ablation.group_row) -> [ r.variant; int r.bytes; int r.cycles ])
          (Ablation.grouping ()));
    once "ablation-trap" "Ablation: software-trap period vs preemption latency"
      (fun () ->
        table
          [ "trap period N"; "cycles"; "avg latency (µs)"; "max latency (µs)" ]
          (fun (r : Ablation.trap_row) ->
            [ int r.period; int r.cycles; fixed 2 r.avg_latency_us;
              fixed 2 r.max_latency_us ])
          (Ablation.trap_period_sweep ()));
    once "ablation-slice" "Ablation: time-slice length" (fun () ->
        table [ "slice (cycles)"; "switches"; "total cycles" ]
          (fun (r : Ablation.slice_row) ->
            [ int r.slice; int r.switches; int r.total_cycles ])
          (Ablation.slice_sweep ()));
    swept "attack-matrix"
      "Attack containment: worst verdict per system and attack class"
      attack_trials (fun trials ->
        let m = Attack.campaign ~trials ~seed:1 () in
        table ("system" :: List.map Attack.cls_name Attack.all_classes)
          (fun s ->
            s
            :: List.map
                 (fun c ->
                   Option.fold ~none:"-" ~some:Attack.verdict_name
                     (Attack.cell m s c))
                 Attack.all_classes)
          Attack.all_systems) ]

let find name = List.find_opt (fun e -> e.name = name) all

(** [regenerate doc] replaces the body of every
    [<!-- sensmart:NAME -->] ... [<!-- /sensmart:NAME -->] block of
    [doc] with experiment NAME's full-size table and leaves every other
    line as it is. *)
let regenerate doc =
  let opening = "<!-- sensmart:" and ending = " -->" in
  let marker l =
    if String.starts_with ~prefix:opening l && String.ends_with ~suffix:ending l
    then
      let n = String.length opening in
      find (String.sub l n (String.length l - n - String.length ending))
    else None
  in
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest -> (
      match marker l with
      | None when String.starts_with ~prefix:opening l ->
        failwith ("unknown experiment marker: " ^ l)
      | None -> go (l :: acc) rest
      | Some e ->
        let close = "<!-- /sensmart:" ^ e.name ^ ending in
        let rec skip = function
          | [] -> failwith ("unclosed experiment block: " ^ l)
          | c :: rest when c = close -> rest
          | _ :: rest -> skip rest
        in
        let body = ("" :: lines (e.table ~quick:false)) @ [ ""; close ] in
        go (List.rev_append body (l :: acc)) (skip rest))
  in
  String.concat "\n" (go [] (String.split_on_char '\n' doc))
