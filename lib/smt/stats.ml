(** Solver-side counters, accumulated per {!Session} (or shared across
    many one-shot sessions when the caller passes one accumulator in).
    Every engine surfaces these on its outcome so the cost of solving
    is measured, not guessed. *)

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
  mutable wall_time : float;    (** seconds spent inside [check] *)
  mutable degraded_resimplify : int;
      (** budget-tripped checks decided by the resimplify rung *)
  mutable degraded_enumerate : int;
      (** budget-tripped checks decided by exhaustive enumeration *)
  mutable degraded_give_up : int;
      (** budget-tripped checks no ladder rung could decide *)
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
    degraded_give_up = 0 }

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
    degraded_give_up = s.degraded_give_up }

(** Add [src] into [dst] (merging per-engine accumulators). *)
let add ~into:dst src =
  dst.queries <- dst.queries + src.queries;
  dst.cache_hits <- dst.cache_hits + src.cache_hits;
  dst.sat <- dst.sat + src.sat;
  dst.unsat <- dst.unsat + src.unsat;
  dst.unknown <- dst.unknown + src.unknown;
  dst.blasted_nodes <- dst.blasted_nodes + src.blasted_nodes;
  dst.conflicts <- dst.conflicts + src.conflicts;
  dst.decisions <- dst.decisions + src.decisions;
  dst.propagations <- dst.propagations + src.propagations;
  dst.wall_time <- dst.wall_time +. src.wall_time;
  dst.degraded_resimplify <- dst.degraded_resimplify + src.degraded_resimplify;
  dst.degraded_enumerate <- dst.degraded_enumerate + src.degraded_enumerate;
  dst.degraded_give_up <- dst.degraded_give_up + src.degraded_give_up

(* ------------------------------------------------------------------ *)
(* Telemetry registry mirrors                                          *)
(* ------------------------------------------------------------------ *)

(* The per-session record stays authoritative (engines surface exact
   per-outcome accounting off it); the helpers below additionally fold
   each mutation into the global registry so one `smt.*` namespace
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

let degraded_total s =
  s.degraded_resimplify + s.degraded_enumerate + s.degraded_give_up

let to_string s =
  let base =
    Printf.sprintf
      "queries=%d hits=%d sat=%d unsat=%d unknown=%d blasted=%d conflicts=%d \
       decisions=%d propagations=%d wall=%.4fs"
      s.queries s.cache_hits s.sat s.unsat s.unknown s.blasted_nodes
      s.conflicts s.decisions s.propagations s.wall_time
  in
  if degraded_total s = 0 then base
  else
    Printf.sprintf "%s degraded=%d(resimplify=%d,enumerate=%d,give_up=%d)"
      base (degraded_total s) s.degraded_resimplify s.degraded_enumerate
      s.degraded_give_up

(** The fields as JSON object members (no enclosing braces), for the
    bench harness's machine-readable output. *)
let to_json_fields s =
  Printf.sprintf
    "\"queries\": %d, \"cache_hits\": %d, \"sat\": %d, \"unsat\": %d, \
     \"unknown\": %d, \"blasted_nodes\": %d, \"conflicts\": %d, \
     \"decisions\": %d, \"propagations\": %d, \"solver_wall_s\": %.6f, \
     \"degraded_resimplify\": %d, \"degraded_enumerate\": %d, \
     \"degraded_give_up\": %d"
    s.queries s.cache_hits s.sat s.unsat s.unknown s.blasted_nodes s.conflicts
    s.decisions s.propagations s.wall_time s.degraded_resimplify
    s.degraded_enumerate s.degraded_give_up
