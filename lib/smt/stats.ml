(** Solver-work accounting.  The [smt.*] and [solver.degraded*]
    counters of {!Telemetry.Metrics} are the only count of solver work
    ([eval profile], the perf ledger and [--metrics-out] read them);
    each helper below declares its counters and does one registry
    update.  {!t} is only the degraded-rung accumulator engines grade
    from: one per {!Session}, or one shared by a cell's one-shot
    {!Solver.solve} calls. *)

type t = {
  mutable degraded_resimplify : int;  (** decided by the resimplify rung *)
  mutable degraded_enumerate : int;  (** decided by exhaustive enumeration *)
  mutable degraded_give_up : int;  (** no ladder rung could decide *)
}

let create () =
  { degraded_resimplify = 0; degraded_enumerate = 0; degraded_give_up = 0 }

let m_queries = Telemetry.Metrics.counter "smt.queries"
let m_cache_hits = Telemetry.Metrics.counter "smt.cache_hits"
let m_sat = Telemetry.Metrics.counter "smt.sat"
let m_unsat = Telemetry.Metrics.counter "smt.unsat"
let m_unknown = Telemetry.Metrics.counter "smt.unknown"
let record_query () = Telemetry.Metrics.incr m_queries
let record_cache_hit () = Telemetry.Metrics.incr m_cache_hits
let record_sat () = Telemetry.Metrics.incr m_sat
let record_unsat () = Telemetry.Metrics.incr m_unsat
let record_unknown () = Telemetry.Metrics.incr m_unknown

(* term nodes newly encoded to CNF, and one CDCL search's deltas *)
let m_blasted = Telemetry.Metrics.counter "smt.blasted_nodes"
let m_conflicts = Telemetry.Metrics.counter "smt.conflicts"
let m_decisions = Telemetry.Metrics.counter "smt.decisions"
let m_propagations = Telemetry.Metrics.counter "smt.propagations"
let add_blasted n = Telemetry.Metrics.add m_blasted n

let add_search ~conflicts ~decisions ~propagations =
  Telemetry.Metrics.add m_conflicts conflicts;
  Telemetry.Metrics.add m_decisions decisions;
  Telemetry.Metrics.add m_propagations propagations

(* wall-clock seconds inside [check]: a gauge, so it stays out of the
   deterministic counters *)
let m_wall = Telemetry.Metrics.gauge "smt.wall_s"
let add_wall dt = Telemetry.Metrics.gauge_add m_wall dt

(* checks that came back [Unknown Budget], the conflicts they spent and
   their wall time: solver time that bought no answer *)
let m_unknown_budget = Telemetry.Metrics.counter "smt.unknown_budget"
let m_unknown_budget_conflicts =
  Telemetry.Metrics.counter "smt.unknown_budget_conflicts"
let m_unknown_budget_wall = Telemetry.Metrics.gauge "smt.unknown_budget_wall_s"

let record_unknown_budget ~conflicts ~wall =
  Telemetry.Metrics.incr m_unknown_budget;
  Telemetry.Metrics.add m_unknown_budget_conflicts conflicts;
  Telemetry.Metrics.gauge_add m_unknown_budget_wall wall

(* checks a session solved on a strict cone of its CNF (see {!Blast}),
   the cone sizes and the session sizes they were cut from *)
let m_cone_checks = Telemetry.Metrics.counter "smt.cone_checks"
let m_cone_vars = Telemetry.Metrics.counter "smt.cone_vars"
let m_session_vars = Telemetry.Metrics.counter "smt.session_vars"

let record_cone ~cone_vars ~session_vars =
  Telemetry.Metrics.incr m_cone_checks;
  Telemetry.Metrics.add m_cone_vars cone_vars;
  Telemetry.Metrics.add m_session_vars session_vars

(* degradation-ladder outcomes: one total plus a per-rung breakdown,
   keyed by the rung names {!Degrade.rung_name} reports *)
let m_degraded = Telemetry.Metrics.counter "solver.degraded"
let m_resimplify = Telemetry.Metrics.counter "solver.degraded.resimplify"
let m_enumerate = Telemetry.Metrics.counter "solver.degraded.enumerate"
let m_give_up = Telemetry.Metrics.counter "solver.degraded.give_up"

(** Record a budget-tripped check resolved (or abandoned) by the
    ladder rung named [rung], in the registry and in [s]. *)
let record_degraded s rung =
  Telemetry.Metrics.incr m_degraded;
  match rung with
  | "resimplify" ->
    s.degraded_resimplify <- s.degraded_resimplify + 1;
    Telemetry.Metrics.incr m_resimplify
  | "enumerate" ->
    s.degraded_enumerate <- s.degraded_enumerate + 1;
    Telemetry.Metrics.incr m_enumerate
  | _ ->
    s.degraded_give_up <- s.degraded_give_up + 1;
    Telemetry.Metrics.incr m_give_up

(** Rung names with a nonzero degraded count, shallowest first
    (resimplify < enumerate < give_up) — callers that want "the rung
    that decided the cell" take the last element. *)
let degraded_rungs s =
  List.filter_map
    (fun (n, name) -> if n > 0 then Some name else None)
    [ (s.degraded_resimplify, "resimplify");
      (s.degraded_enumerate, "enumerate");
      (s.degraded_give_up, "give_up") ]
