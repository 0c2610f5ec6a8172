(** The concolic loop of the paper's Figure 1: concrete execution →
    trace → symbolic reasoning → constraint negation → new test case →
    schedule — a generational search with branch-flip memoisation as
    the checkpoint mechanism. *)

module E = Smt.Expr

(** How the engine declares argv[1] symbolic. *)
type argv_model =
  | Fixed_seed      (** symbolic bytes exactly as long as the seed *)
  | Wide of int
      (** a fixed-size symbolic buffer; shorter strings arise from a
          NUL model byte — Angr's "specify a fixed length of bits" *)

type config = {
  trace_cfg : Trace_exec.config;
  argv : argv_model;
  max_iterations : int;
  max_events : int;
  solver : Smt.Solver.config;
  incremental : bool;
      (** solve branch flips through one {!Smt.Session}: each flip
          shares the path-predicate prefix of the previous one, so the
          encoding and learnt clauses carry over *)
}

let default_config trace_cfg =
  { trace_cfg;
    argv = Fixed_seed;
    max_iterations = 24;
    max_events = 400_000;
    solver = { Smt.Solver.default_config with conflict_budget = 20_000 };
    incremental = true }

(** The system under test, abstracted from bombs so examples can reuse
    the driver. *)
type target = {
  image : Asm.Image.t;
  run_config : string -> Vm.Machine.config;  (** argv[1] -> machine config *)
  detonated : Vm.Machine.run_result -> bool;
}

type verdict = {
  solved_input : string option;
  iterations : int;
  traces_run : int;
  diags : Error.diag list;
  solver_unknowns : int;
  fp_constraints : bool;
  constraints_seen : int;
}

let dedup_diags diags =
  List.sort_uniq Error.compare_diag diags

let m_traces = Telemetry.Metrics.counter "concolic.traces"
let m_branch_flips = Telemetry.Metrics.counter "concolic.branch_flips"

let explore ?(seed = "5") (config : config) (target : target) : verdict =
  Telemetry.with_span "concolic.driver" @@ fun () ->
  let pad_seed s =
    match config.argv with
    | Fixed_seed -> s
    | Wide n ->
      if String.length s >= n then String.sub s 0 n
      else s ^ String.make (n - String.length s) 'x'
  in
  let width =
    match config.argv with
    | Fixed_seed -> String.length seed
    | Wide n -> n
  in
  let stats = Smt.Stats.create () in
  let session =
    if config.incremental then
      Some (Smt.Session.create ~config:config.solver ~stats ())
    else None
  in
  let solve cs = Smt.Solver.solve ~config:config.solver ~stats ?session cs in
  let worklist = Queue.create () in
  Queue.add (pad_seed seed) worklist;
  let tried : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  (* a flip is identified by (branch pc, nth occurrence on the path,
     direction) so each loop iteration is negatable independently *)
  let flipped : (int64 * int * bool, unit) Hashtbl.t = Hashtbl.create 64 in
  let diags = ref [] in
  let unknowns = ref 0 in
  let fp_seen = ref false in
  let iterations = ref 0 in
  let traces = ref 0 in
  let solved = ref None in
  (try
     while !solved = None && !iterations < config.max_iterations do
       incr iterations;
       (* each iteration records and replays a whole trace, so poll the
          deadline once per iteration *)
       Robust.Meter.checkpoint_ambient ();
       let input =
         match Queue.take_opt worklist with
         | Some i -> i
         | None -> raise Exit
       in
       if not (Hashtbl.mem tried input) then begin
         Hashtbl.replace tried input ();
         incr traces;
         Telemetry.Metrics.incr m_traces;
         let run_config = target.run_config input in
         let trace =
           Trace.record ~max_events:config.max_events ~config:run_config
             target.image
         in
         if target.detonated trace.result then solved := Some input
         else begin
           let path = Trace_exec.run config.trace_cfg ?session trace in
           diags := path.diags @ !diags;
           let ordered = Array.of_list path.constraints in
           if E.exists_fp (List.map fst path.constraints) then
             fp_seen := true;
           (* negate each unflipped branch, oldest first *)
           let occurrence : (int64, int) Hashtbl.t = Hashtbl.create 16 in
           List.iter
             (fun (b : Trace_exec.branch) ->
                let occ =
                  Option.value ~default:0 (Hashtbl.find_opt occurrence b.pc)
                in
                Hashtbl.replace occurrence b.pc (occ + 1);
                let key = (b.pc, occ, b.taken) in
                if
                  !solved = None
                  && not (Hashtbl.mem flipped key)
                  && b.seq < Array.length ordered
                then begin
                  Hashtbl.replace flipped key ();
                  let prefix =
                    Array.to_list (Array.sub ordered 0 b.seq)
                    |> List.map fst
                  in
                  let negated = E.not_ b.cond in
                  let cs = prefix @ [ negated ] in
                  (* skip solving when the predicted CNF is larger
                     than the blow-up guard *)
                  let cap = State.max_blast_cost in
                  let rec total acc = function
                    | [] -> acc
                    | c :: rest ->
                      let acc = acc + E.blast_cost ~cap c in
                      if acc > cap then acc else total acc rest
                  in
                  let cost = total 0 cs in
                  match
                    if cost > cap then
                      Smt.Solver.Unknown Smt.Solver.Budget
                    else solve cs
                  with
                  | Smt.Solver.Sat model ->
                    Telemetry.Metrics.incr m_branch_flips;
                    let input' =
                      State.input_of_model ~fill:input ~empty:"\001" ~width
                        model
                    in
                    if not (Hashtbl.mem tried input') then
                      Queue.add input' worklist
                  | Smt.Solver.Unsat -> ()
                  | Smt.Solver.Unknown Smt.Solver.Fp_unsupported ->
                    fp_seen := true;
                    diags := Error.Fp_constraint :: !diags
                  | Smt.Solver.Unknown _ ->
                    incr unknowns;
                    diags := Error.Solver_budget :: !diags
                end)
             path.branches
         end
       end
     done
   with Exit -> ());
  (* surface degradation-ladder outcomes as diags so grading and
     --explain can attribute a P (degraded) cell to its rung *)
  List.iter
    (fun rung -> diags := Error.Solver_degraded rung :: !diags)
    (Smt.Stats.degraded_rungs stats);
  { solved_input = !solved;
    iterations = !iterations;
    traces_run = !traces;
    diags = dedup_diags !diags;
    solver_unknowns = !unknowns;
    fp_constraints = !fp_seen;
    constraints_seen = Hashtbl.length flipped }
