(** Cell supervision: crash isolation and graceful degradation for
    Table II.

    Every (tool × bomb) cell runs under a fresh {!Robust.Meter}
    installed as the ambient meter, so budgets govern the whole engine
    stack without parameter threading.  A tripped budget or any
    unexpected exception is caught here, mapped to the paper's [E]/[P]
    grades with an Es-stage attribution ({!stage_of_resource}), and counted
    in [robust.*] telemetry — the rest of the table is never
    disturbed.  Each cell runs once, under one policy. *)

open Concolic.Error

(** Why a supervised cell did not complete normally. *)
type cause =
  | Exhausted of Robust.Meter.resource  (** typed budget trip *)
  | Crashed of string  (** unexpected exception *)
  | Injected of string
      (** nothing produces this; graded as {!Crashed}.  It stays only
          because [bench/ledger] matches on it, and goes with the
          ledger change listed under ROADMAP item 4 *)
  | Degraded of string
      (** the cell completed, but only because the solver degradation
          ladder answered budget-tripped checks; names the deepest
          rung that fired (see {!Smt.Degrade}) *)

let cause_name = function
  | Exhausted r -> "exhausted:" ^ Robust.Meter.resource_name r
  | Crashed _ | Injected _ -> "crash"
  | Degraded rung -> "degraded:" ^ rung

type policy = {
  budget : Robust.Budget.t;  (** caps on the cell's one attempt *)
  ladder : Smt.Degrade.rung list;
      (** what a tripped solver budget does: walk these rungs and
          grade the cell P if they decide it, or, when empty, abort
          the cell (graded E) *)
}

(** No caps, the default ladder: supervised output is identical to
    running the engine bare (the supervisor only adds the catch). *)
let default_policy =
  { budget = Robust.Budget.unlimited; ladder = Smt.Degrade.default_ladder }

type outcome = {
  graded : Grade.graded;
  cause : cause option;  (** [None]: the cell completed *)
  stage : stage option;  (** Es attribution of [cause] *)
  attempts : int;
      (** 1 for a cell that ran; a cell the fleet lost with its
          workers carries the dispatches it took *)
}

(* robust.* accounting: per-resource cause counters live in
   Robust itself (they fire at the raise site); these count what the
   supervisor did about it *)
let m_cells = Telemetry.Metrics.counter "robust.cells"
let m_cells_e = Telemetry.Metrics.counter "robust.cells_e"
let m_cells_p = Telemetry.Metrics.counter "robust.cells_p"
let m_crashes = Telemetry.Metrics.counter "robust.crashes"

let m_stage =
  List.map
    (fun (name, s) -> (s, Telemetry.Metrics.counter ("robust.stage." ^ name)))
    [ ("es0", Some Es0); ("es1", Some Es1); ("es2", Some Es2);
      ("es3", Some Es3); ("none", None) ]

(** The Es-stage a tripped budget belongs to: instruction-count caps
    die while tracing/lifting (Es1), a taint-event cap dies in data
    propagation (Es2), solver and expression caps die in constraint
    modeling (Es3).  The deadline and a fleet's cancellation are
    whole-cell conditions with no single pipeline stage. *)
let stage_of_resource : Robust.Meter.resource -> stage option = function
  | Robust.Meter.Vm_steps | Robust.Meter.Lifted_insns -> Some Es1
  | Robust.Meter.Taint_events -> Some Es2
  | Robust.Meter.Solver_conflicts | Robust.Meter.Expr_nodes -> Some Es3
  | Robust.Meter.Deadline | Robust.Meter.Cancelled -> None

(** Es-stage of a degraded cell. *)
let stage_of_cause = function
  | Exhausted r -> stage_of_resource r
  | Crashed _ | Injected _ -> None
  | Degraded _ -> Some Es3  (* constraint modeling, like a solver trip *)

(** A cancelled cell is a partial result ([P]); every other cause is
    an abnormal exit ([E]), matching the paper's reading of tool
    deaths vs interrupted-but-salvageable runs. *)
let cell_of_cause = function
  | Exhausted Robust.Meter.Cancelled -> Partial
  | Degraded _ -> Partial
  | Exhausted _ | Injected _ | Crashed _ -> Abnormal

let diag_of_cause = function
  | Exhausted (Robust.Meter.Solver_conflicts | Robust.Meter.Expr_nodes) ->
      Solver_budget
  | Exhausted Robust.Meter.Cancelled -> Engine_crash "cancelled"
  | Exhausted _ -> State_budget
  | Crashed msg | Injected msg -> Engine_crash msg
  | Degraded rung -> Solver_degraded rung

(* deepest ladder rung recorded for a cell: a give-up outranks an
   enumeration outranks a resimplification *)
let rung_depth = function
  | "resimplify" -> 0
  | "enumerate" -> 1
  | _ -> 2 (* give_up *)

let deepest_rung = function
  | [] -> None
  | rungs ->
      Some
        (List.fold_left
           (fun best r -> if rung_depth r > rung_depth best then r else best)
           (List.hd rungs) (List.tl rungs))

(** Supervised version of {!Grade.run_cell}.  With {!default_policy}
    the graded result is exactly what the bare engine produces. *)
let run_cell ?incremental ?(policy = default_policy) (tool : Profile.tool)
    (bomb : Bombs.Common.t) : outcome =
  Telemetry.Metrics.incr m_cells;
  let meter = Robust.Meter.create policy.budget in
  match
    Robust.Meter.with_ambient meter (fun () ->
        Grade.run_cell ?incremental ~ladder:policy.ladder tool bomb)
  with
  | graded -> (
      match deepest_rung (degraded_rungs graded.diags) with
      | None -> { graded; cause = None; stage = None; attempts = 1 }
      | Some rung ->
          (* completed, but only thanks to off-budget fallbacks: a
             graded partial success, attributed to the deepest rung *)
          let cause = Degraded rung in
          let stage = stage_of_cause cause in
          Telemetry.Metrics.incr m_cells_p;
          Telemetry.Metrics.incr (List.assoc stage m_stage);
          { graded = { graded with cell = Partial };
            cause = Some cause; stage; attempts = 1 })
  | exception e ->
      let cause =
        match e with
        | Robust.Meter.Exhausted { resource; _ } -> Exhausted resource
        | e ->
            Telemetry.Metrics.incr m_crashes;
            Crashed (Printexc.to_string e)
      in
      let cell = cell_of_cause cause in
      let stage = stage_of_cause cause in
      Telemetry.Metrics.incr (if cell = Partial then m_cells_p else m_cells_e);
      Telemetry.Metrics.incr (List.assoc stage m_stage);
      { graded =
          { cell; proposed = None; detonated = false;
            false_positive = false; diags = [ diag_of_cause cause ];
            work = meter.Robust.Meter.vm_steps };
        cause = Some cause; stage; attempts = 1 }
