(** Solver-side counters, accumulated per {!Session} (or shared across
    many one-shot sessions when the caller passes one accumulator in).
    Every solver mutation also lands in the global [smt.*] telemetry
    counters, so the cost of solving is measured, not guessed. *)

type t = {
  mutable queries : int;        (** [check] calls, including cache hits *)
  mutable cache_hits : int;     (** answered from the session query cache *)
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable blasted_nodes : int;  (** term nodes newly encoded to CNF *)
  mutable conflicts : int;      (** CDCL conflicts spent in [check] *)
  mutable decisions : int;      (** CDCL decision levels opened in [check] *)
  mutable propagations : int;   (** CDCL trail literals propagated in [check] *)
  mutable wall_time : float;    (** wall-clock seconds inside [check] *)
  mutable degraded_resimplify : int;
      (** budget-tripped checks decided by the resimplify rung *)
  mutable degraded_enumerate : int;
      (** budget-tripped checks decided by exhaustive enumeration *)
  mutable degraded_give_up : int;
      (** budget-tripped checks no ladder rung could decide *)
  mutable unknown_budget : int;
      (** checks that spent their conflict budget: [Unknown Budget] *)
  mutable unknown_budget_conflicts : int;  (** the conflicts they spent *)
  mutable unknown_budget_wall : float;  (** their wall-clock seconds *)
}

let create () =
  { queries = 0;
    cache_hits = 0;
    sat = 0;
    unsat = 0;
    unknown = 0;
    blasted_nodes = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    wall_time = 0.0;
    degraded_resimplify = 0;
    degraded_enumerate = 0;
    degraded_give_up = 0;
    unknown_budget = 0;
    unknown_budget_conflicts = 0;
    unknown_budget_wall = 0.0 }

(** Independent copy (for snapshots of a live accumulator). *)
let copy s =
  { queries = s.queries;
    cache_hits = s.cache_hits;
    sat = s.sat;
    unsat = s.unsat;
    unknown = s.unknown;
    blasted_nodes = s.blasted_nodes;
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    wall_time = s.wall_time;
    degraded_resimplify = s.degraded_resimplify;
    degraded_enumerate = s.degraded_enumerate;
    degraded_give_up = s.degraded_give_up;
    unknown_budget = s.unknown_budget;
    unknown_budget_conflicts = s.unknown_budget_conflicts;
    unknown_budget_wall = s.unknown_budget_wall }

(* ------------------------------------------------------------------ *)
(* Telemetry registry mirrors                                          *)
(* ------------------------------------------------------------------ *)

(* The per-session record stays authoritative (engines read their own
   session's degradation rungs off it); the helpers below additionally
   fold each mutation into the global registry so one `smt.*` namespace
   aggregates solver work across every session in a run.  Sessions
   mutate stats only through these. *)

let m_queries = Telemetry.Metrics.counter "smt.queries"
let m_cache_hits = Telemetry.Metrics.counter "smt.cache_hits"
let m_sat = Telemetry.Metrics.counter "smt.sat"
let m_unsat = Telemetry.Metrics.counter "smt.unsat"
let m_unknown = Telemetry.Metrics.counter "smt.unknown"
let m_blasted = Telemetry.Metrics.counter "smt.blasted_nodes"
let m_conflicts = Telemetry.Metrics.counter "smt.conflicts"
let m_decisions = Telemetry.Metrics.counter "smt.decisions"
let m_propagations = Telemetry.Metrics.counter "smt.propagations"
let m_wall = Telemetry.Metrics.gauge "smt.wall_s"

let record_query s =
  s.queries <- s.queries + 1;
  Telemetry.Metrics.incr m_queries

let record_cache_hit s =
  s.cache_hits <- s.cache_hits + 1;
  Telemetry.Metrics.incr m_cache_hits

let record_sat s =
  s.sat <- s.sat + 1;
  Telemetry.Metrics.incr m_sat

let record_unsat s =
  s.unsat <- s.unsat + 1;
  Telemetry.Metrics.incr m_unsat

let record_unknown s =
  s.unknown <- s.unknown + 1;
  Telemetry.Metrics.incr m_unknown

let add_blasted s n =
  s.blasted_nodes <- s.blasted_nodes + n;
  Telemetry.Metrics.add m_blasted n

(** Fold one CDCL search's counter deltas in. *)
let add_search s ~conflicts ~decisions ~propagations =
  s.conflicts <- s.conflicts + conflicts;
  s.decisions <- s.decisions + decisions;
  s.propagations <- s.propagations + propagations;
  Telemetry.Metrics.add m_conflicts conflicts;
  Telemetry.Metrics.add m_decisions decisions;
  Telemetry.Metrics.add m_propagations propagations

(* checks that came back [Unknown Budget], the conflicts they spent and
   their wall time: solver time that bought no answer.  No engine
   grades off them.  The wall time is a gauge, so it stays out of the
   deterministic counters. *)
let m_unknown_budget = Telemetry.Metrics.counter "smt.unknown_budget"
let m_unknown_budget_conflicts =
  Telemetry.Metrics.counter "smt.unknown_budget_conflicts"
let m_unknown_budget_wall = Telemetry.Metrics.gauge "smt.unknown_budget_wall_s"

let record_unknown_budget s ~conflicts ~wall =
  s.unknown_budget <- s.unknown_budget + 1;
  s.unknown_budget_conflicts <- s.unknown_budget_conflicts + conflicts;
  s.unknown_budget_wall <- s.unknown_budget_wall +. wall;
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

let add_wall s dt =
  s.wall_time <- s.wall_time +. dt;
  Telemetry.Metrics.gauge_add m_wall dt

(* degradation-ladder outcomes: one total plus a per-rung breakdown,
   keyed by the rung names {!Degrade.rung_name} reports *)
let m_degraded = Telemetry.Metrics.counter "solver.degraded"
let m_degraded_resimplify = Telemetry.Metrics.counter "solver.degraded.resimplify"
let m_degraded_enumerate = Telemetry.Metrics.counter "solver.degraded.enumerate"
let m_degraded_give_up = Telemetry.Metrics.counter "solver.degraded.give_up"

(** Record a budget-tripped check resolved (or abandoned) by the
    degradation-ladder rung named [rung]. *)
let record_degraded s rung =
  Telemetry.Metrics.incr m_degraded;
  match rung with
  | "resimplify" ->
    s.degraded_resimplify <- s.degraded_resimplify + 1;
    Telemetry.Metrics.incr m_degraded_resimplify
  | "enumerate" ->
    s.degraded_enumerate <- s.degraded_enumerate + 1;
    Telemetry.Metrics.incr m_degraded_enumerate
  | _ ->
    s.degraded_give_up <- s.degraded_give_up + 1;
    Telemetry.Metrics.incr m_degraded_give_up

(** Rung names with a nonzero degraded count, shallowest first
    (resimplify < enumerate < give_up) — callers that want "the rung
    that decided the cell" take the last element. *)
let degraded_rungs s =
  List.filter_map
    (fun (n, name) -> if n > 0 then Some name else None)
    [ (s.degraded_resimplify, "resimplify");
      (s.degraded_enumerate, "enumerate");
      (s.degraded_give_up, "give_up") ]
