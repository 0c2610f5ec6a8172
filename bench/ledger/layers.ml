(** Per-layer attribution from outside the program.

    Counts are deltas of the always-on [Telemetry.Metrics] counters
    (and the solver's [smt.wall_s] mirror of [Smt.Stats.wall_time])
    over the untraced phase.  Times come from a separate traced pass
    that calls each layer's public entry point itself, around the same
    inputs, and times the call.  No in-program span is involved. *)

open Engines

let now = Unix.gettimeofday

(** Named sums; keys starting with [_] are intermediate. *)
type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 64
let get (acc : acc) k = Option.value ~default:0. (Hashtbl.find_opt acc k)
let add acc k v = Hashtbl.replace acc k (get acc k +. v)

(** [f ()], adding its wall time in ms to [k] even when it raises. *)
let timed acc k f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add acc k (1000. *. (now () -. t0))) f

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counters =
  [ "vm.steps"; "trace.events"; "lifter.insns_lifted";
    "concolic.constraints"; "concolic.traces"; "dse.steps"; "dse.states";
    "dse.forks"; "smt.queries"; "smt.cache_hits"; "smt.blasted_nodes";
    "smt.conflicts"; "solver.degraded"; "diskio.appends"; "diskio.bytes";
    "journal.appended"; "fleet.dispatched"; "fleet.redispatched";
    "fleet.worker_deaths"; "fleet.frames_nacked"; "serve.rejected";
    "serve.shed" ]

let smt_wall () = Telemetry.Metrics.gauge_value_of "smt.wall_s"

(** This process's counters, plus solver time as [smt.check_ms]. *)
let read () =
  ("smt.check_ms", 1000. *. smt_wall ())
  :: List.map
       (fun n -> (n, float_of_int (Telemetry.Metrics.counter_value n)))
       counters

(** [after - before] by name, as an accumulator. *)
let delta before after : acc =
  let acc = create () in
  List.iter
    (fun (k, b) ->
       add acc k (b -. Option.value ~default:0. (List.assoc_opt k before)))
    after;
  acc

(* ------------------------------------------------------------------ *)
(* Decomposed cells                                                    *)
(* ------------------------------------------------------------------ *)

(* the stages whose times cover a cell; the rest of its wall is
   unattributed *)
let stage_keys =
  [ "trace.record_ms"; "concolic.trace_exec_ms"; "_bap_check_ms";
    "concolic.driver_ms"; "concolic.dse_ms"; "grade.replay_ms";
    "smt.simplify_ms"; "smt.blast_ms"; "smt.sat_ms" ]

(** [Profile.run_bap] (incremental, default ladder) stage by stage:
    [Trace.record] → [Trace_exec.run] → [Session.check_assertions],
    each timed. *)
let bap_stages acc (bomb : Bombs.Common.t) image config : Profile.attempt =
  let stats = Smt.Stats.create () in
  let session = Smt.Session.create ~config:Profile.solver_config ~stats () in
  let trace =
    timed acc "trace.record_ms" (fun () ->
        Trace.record ~max_events:400_000 ~config image)
  in
  let path =
    timed acc "concolic.trace_exec_ms" (fun () ->
        Concolic.Trace_exec.run Concolic.Trace_exec.bap_like_config ~session
          trace)
  in
  let cs = List.map fst path.constraints in
  let attempt =
    { Profile.proposed = None;
      diags = path.diags;
      crashed = false;
      budget_exhausted = false;
      fp_seen = List.exists Smt.Expr.contains_fp cs;
      symbolic_branches = List.length path.branches;
      trace_based = true;
      work = trace.result.steps }
  in
  if Profile.path_too_large path then
    { attempt with
      diags = Concolic.Error.Solver_budget :: path.diags;
      budget_exhausted = true }
  else
    let proposed, extra =
      match
        timed acc "_bap_check_ms" (fun () ->
            Smt.Session.check_assertions session cs)
      with
      | Smt.Solver.Sat model ->
          let width = String.length (Bombs.Common.winning_argv bomb) in
          (Some (Profile.input_of_model ~width model), [])
      | Smt.Solver.Unsat -> (None, [])
      | Smt.Solver.Unknown Smt.Solver.Fp_unsupported ->
          (None, [ Concolic.Error.Fp_constraint ])
      | Smt.Solver.Unknown _ -> (None, [ Concolic.Error.Solver_budget ])
    in
    let degraded =
      List.map
        (fun r -> Concolic.Error.Solver_degraded r)
        (Smt.Stats.degraded_rungs stats)
    in
    { attempt with
      proposed;
      diags = degraded @ extra @ path.diags;
      budget_exhausted = List.mem Concolic.Error.Solver_budget extra }

(* probes beside a BAP cell's own stages: a bare VM run of the config
   it records, and taint over a trace of that run *)
let probe_vm_taint acc image config =
  let r =
    timed acc "vm.run_ms" (fun () -> Vm.Machine.run_image ~config image)
  in
  add acc "_probe_steps" (float_of_int r.steps);
  let trace = Trace.record ~max_events:400_000 ~config image in
  let sources =
    match Concolic.Trace_exec.argv1_source_opt trace with
    | Some s -> [ (s.s_addr, s.s_len) ]
    | None -> []
  in
  ignore
    (timed acc "taint.analyze_ms" (fun () ->
         Taint.analyze
           ~policy:Concolic.Trace_exec.bap_like_config.taint_policy ~sources
           trace))

(** One Table II cell through its tool's stages, each timed, under the
    cell budget a supervisor would install.  Returns what
    [Supervisor.run_cell] grades: proposed input and cell. *)
let cell acc ~(tool : Profile.tool) ~(bomb : Bombs.Common.t)
    ~(budget : Robust.Budget.t) =
  let image = Bombs.Catalog.image bomb in
  let run_config input = Bombs.Common.config_for ~winning:false bomb input in
  if tool = Profile.Bap then
    probe_vm_taint acc image (run_config (Bombs.Common.winning_argv bomb));
  let stages () =
    let attempt =
      match tool with
      | Profile.Bap ->
          bap_stages acc bomb image
            (run_config (Bombs.Common.winning_argv bomb))
      | Profile.Triton ->
          timed acc "concolic.driver_ms" (fun () ->
              Profile.run_triton ~image ~run_config
                ~detonated:Bombs.Common.triggered ~seed:bomb.decoy ())
      | Profile.Angr | Profile.Angr_nolib ->
          let mode =
            if tool = Profile.Angr then Concolic.Dse.With_libs
            else Concolic.Dse.No_libs
          in
          let w0 = smt_wall () in
          Fun.protect
            ~finally:(fun () ->
              add acc "_dse_smt_ms" (1000. *. (smt_wall () -. w0)))
            (fun () ->
               timed acc "concolic.dse_ms" (fun () ->
                   Profile.run_angr ~mode ~image ()))
    in
    timed acc "grade.replay_ms" (fun () -> Grade.grade bomb attempt)
  in
  match
    Robust.Meter.with_ambient (Robust.Meter.create budget) stages
  with
  | g when Concolic.Error.has_degraded g.diags ->
      (g.proposed, Concolic.Error.Partial)
  | g -> (g.proposed, g.cell)
  | exception Robust.Meter.Exhausted _ -> (None, Concolic.Error.Abnormal)

(** The one-shot solver pipeline over a fixture, layer by layer:
    [Simplify.run] → [Blast.lit_of] → [Blast.solve], as a session
    runs it on a fresh query. *)
let fixture acc ~conflict_budget cs =
  let cache = Smt.Simplify.create_cache () in
  let simplified =
    timed acc "smt.simplify_ms" (fun () ->
        List.map (Smt.Simplify.run ~cache) cs)
  in
  let b = Smt.Blast.create () in
  match
    timed acc "smt.blast_ms" (fun () ->
        List.map (Smt.Blast.lit_of b) simplified)
  with
  | exception Smt.Blast.Unsupported_fp -> ()
  | assumptions ->
      ignore
        (timed acc "smt.sat_ms" (fun () ->
             Smt.Blast.solve ~conflict_budget ~assumptions b));
      let vars, clauses, conflicts = Smt.Blast.stats b in
      add acc "sat.vars" (float_of_int vars);
      add acc "sat.clauses" (float_of_int clauses);
      add acc "_sat_conflicts" (float_of_int conflicts)

(* ------------------------------------------------------------------ *)
(* Per-pass values                                                     *)
(* ------------------------------------------------------------------ *)

(** Every per-layer metric of {!Spec.per_layer}, per workload pass:
    [counts] over [count_passes] untraced passes, [times] over one
    traced pass.  [cell_ms] is one untraced pass's summed item wall,
    [traced_s]/[untraced_s] the pass walls compared for the tracing
    overhead, [fleet_overhead_ms] the serve-only IPC cost. *)
let values ~counts ~count_passes ~times ~cell_ms ~traced_s ~untraced_s
    ~fleet_overhead_ms =
  let c k = get counts k /. count_passes and t k = get times k in
  let ratio = Stats.ratio in
  let check_ms = c "smt.check_ms" +. t "smt.check_ms" in
  let unattributed =
    cell_ms -. List.fold_left (fun s k -> s +. t k) 0. stage_keys
  in
  [ ("vm.steps", c "vm.steps"); ("vm.run_ms", t "vm.run_ms");
    ("vm.steps_per_s", ratio (t "_probe_steps") (t "vm.run_ms" /. 1000.));
    ("trace.record_ms", t "trace.record_ms");
    ("trace.events", c "trace.events");
    ("trace.record_overhead_ms", t "trace.record_ms" -. t "vm.run_ms");
    ("taint.analyze_ms", t "taint.analyze_ms");
    ("concolic.trace_exec_ms", t "concolic.trace_exec_ms");
    ("lifter.insns_lifted", c "lifter.insns_lifted");
    ("concolic.constraints", c "concolic.constraints");
    ("concolic.driver_ms", t "concolic.driver_ms");
    ("concolic.traces", c "concolic.traces");
    ("concolic.dse_ms", t "concolic.dse_ms");
    ("concolic.dse_self_ms", t "concolic.dse_ms" -. t "_dse_smt_ms");
    ("dse.steps", c "dse.steps"); ("dse.states", c "dse.states");
    ("dse.forks", c "dse.forks");
    ("dse.steps_per_s", ratio (c "dse.steps") (t "concolic.dse_ms" /. 1000.));
    ("smt.check_ms", check_ms); ("smt.queries", c "smt.queries");
    ("smt.cache_hit_ratio", ratio (c "smt.cache_hits") (c "smt.queries"));
    ("smt.blasted_nodes", c "smt.blasted_nodes");
    ("smt.conflicts", c "smt.conflicts");
    ("smt.conflicts_per_s", ratio (c "smt.conflicts") (check_ms /. 1000.));
    ("solver.degraded", c "solver.degraded");
    ("smt.simplify_ms", t "smt.simplify_ms");
    ("smt.blast_ms", t "smt.blast_ms"); ("smt.sat_ms", t "smt.sat_ms");
    ("sat.vars", t "sat.vars"); ("sat.clauses", t "sat.clauses");
    ("sat.conflicts_per_s",
     ratio (t "_sat_conflicts") (t "smt.sat_ms" /. 1000.));
    ("grade.replay_ms", t "grade.replay_ms");
    ("cell.unattributed_ms", unattributed);
    ("cell.unattributed_frac", ratio unattributed cell_ms);
    ("diskio.appends", c "diskio.appends"); ("diskio.bytes", c "diskio.bytes");
    ("diskio.append_us",
     ratio (t "_append_us") (t "_appends_probed"));
    ("journal.appended", c "journal.appended");
    ("fleet.dispatched", c "fleet.dispatched");
    ("fleet.redispatched", c "fleet.redispatched");
    ("fleet.worker_deaths", c "fleet.worker_deaths");
    ("fleet.frames_nacked", c "fleet.frames_nacked");
    ("serve.rejected", c "serve.rejected"); ("serve.shed", c "serve.shed");
    ("fleet.overhead_ms", fleet_overhead_ms);
    ("bench.trace_overhead_frac", ratio traced_s untraced_s -. 1.) ]
