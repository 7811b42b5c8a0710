(* Figures 7 and 8: stack versatility under the sense-and-send binary
   tree workload — one feeder task plus as many search tasks as the
   system can accommodate without terminating any of them. *)

let assemble = Asm.Assembler.assemble

(* Build the task set: feeder + k search tasks with distinct seeds. *)
let task_images ~trees ~nodes k =
  assemble (Programs.Bintree.feeder ~trees ~nodes ())
  :: List.init k (fun i ->
         assemble
           (Programs.Bintree.search
              ~name:(Printf.sprintf "search%d" i)
              ~nodes
              ~seed:(0x1357 + (i * 0x2467))
              ()))

type probe = {
  survived : bool;
  relocations : int;
  avg_stack : float;  (** mean stack allocation across search tasks *)
  searches : int;  (** total completed searches, sanity signal *)
}

(* Run feeder + k searchers for [window] cycles under [budget]. *)
let probe ?stack_budget ~trees ~nodes ~window k : probe option =
  match
    Kernel.boot
      ~config:{ Kernel.default_config with stack_budget }
      (task_images ~trees ~nodes k)
  with
  | exception Kernel.Admission_failure _ -> None
  | kern ->
    (match Kernel.run ~max_cycles:window kern with
     | Machine.Cpu.Out_of_fuel | Machine.Cpu.Halted Break_hit -> ()
     | s -> Fmt.failwith "versatility probe: %a" Machine.Cpu.pp_stop s);
    Kernel.check_invariants kern;
    let search_tasks =
      List.filter (fun (t : Kernel.Task.t) -> t.id > 0) kern.tasks
    in
    let live =
      List.filter Kernel.Task.is_live search_tasks
    in
    let feeder_ok = Kernel.Task.is_live (Kernel.find_task kern 0) in
    let avg_stack =
      match live with
      | [] -> 0.
      | _ ->
        float_of_int
          (List.fold_left (fun a t -> a + Kernel.Task.stack_alloc t) 0 live)
        /. float_of_int (List.length live)
    in
    let searches =
      List.fold_left
        (fun a (t : Kernel.Task.t) ->
          match t.status with
          | Exited _ -> a
          | _ -> a + Kernel.read_var kern t.id "searches")
        0 search_tasks
    in
    Some
      { survived = feeder_ok && List.length live = k;
        relocations = kern.stats.relocations;
        avg_stack;
        searches }

(** Largest k such that feeder + k search tasks all survive [window],
    with that run's metrics. *)
let max_schedulable ?stack_budget ?(k_cap = 36) ~trees ~nodes ~window () =
  let rec down k =
    if k = 0 then (0, None)
    else
      match probe ?stack_budget ~trees ~nodes ~window k with
      | Some p when p.survived -> (k, Some p)
      | Some _ | None -> down (k - 1)
  in
  down k_cap

type fig7_row = {
  nodes : int;
  max_tasks : int;
  avg_stack : float;
  relocations : int;
}

let fig7 ?(trees = 6) ?(window = 3_000_000) ?(k_cap = 42)
    (node_sizes : int list) : fig7_row list =
  List.map
    (fun nodes ->
      let max_tasks, p = max_schedulable ~k_cap ~trees ~nodes ~window () in
      match p with
      | Some p ->
        { nodes; max_tasks; avg_stack = p.avg_stack; relocations = p.relocations }
      | None -> { nodes; max_tasks; avg_stack = 0.; relocations = 0 })
    node_sizes

(* --- Figure 8: SenSmart vs LiteOS under equal stack budgets ------------- *)

type fig8_row = {
  nodes : int;
  sensmart_tasks : int;
  liteos_tasks : int;
  budget : int;  (** stack bytes both systems were given *)
}

(* LiteOS: fixed worst-case partitions; count search threads that are
   admitted and survive the window. *)
let liteos_max ~trees ~nodes ~window ~thread_stack ~k_cap =
  let builders k =
    ("feed",
     fun ~data_base:_ ~sp_top ->
       Programs.Bintree.feeder ~name:"feed" ~sp_top ~trees ~nodes ())
    :: List.init k (fun i ->
           ( Printf.sprintf "search%d" i,
             fun ~data_base:_ ~sp_top ->
               Programs.Bintree.search
                 ~name:(Printf.sprintf "search%d" i)
                 ~sp_top ~nodes
                 ~seed:(0x1357 + (i * 0x2467))
                 () ))
  in
  let rec down k =
    if k = 0 then 0
    else
      match
        Liteos.boot
          ~config:{ Liteos.default_config with thread_stack }
          (builders k)
      with
      | exception Liteos.Admission_failure _ -> down (k - 1)
      | sys ->
        (match Liteos.run ~max_cycles:window sys with
         | Machine.Cpu.Out_of_fuel | Machine.Cpu.Halted _ -> ()
         | Machine.Cpu.Sleeping | Machine.Cpu.Preempted -> ());
        if Liteos.casualties sys = [] then k else down (k - 1)
  in
  down k_cap

let fig8 ?(trees = 2) ?(window = 3_000_000) ?(k_cap = 40)
    (node_sizes : int list) : fig8_row list =
  List.map
    (fun nodes ->
      (* LiteOS sizes every thread's partition for the worst case. *)
      let thread_stack = Programs.Bintree.search_peak_stack ~nodes + 16 in
      let liteos_tasks =
        liteos_max ~trees ~nodes ~window ~thread_stack ~k_cap
      in
      (* Hand SenSmart exactly the stack space LiteOS's pool offers. *)
      let budget =
        Liteos.stack_space ~config:Liteos.default_config
          ~total_heap:(Programs.Bintree.feeder_heap ~trees ~nodes () + (k_cap * 2))
      in
      let sensmart_tasks, _ =
        max_schedulable ~stack_budget:budget ~k_cap ~trees ~nodes ~window ()
      in
      { nodes; sensmart_tasks; liteos_tasks; budget })
    node_sizes
