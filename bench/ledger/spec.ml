(** The metrics the ledger reports — names, units, layers — and the
    check that BENCHMARK.json names exactly these. *)

open Telemetry.Trace_check

(** End-to-end metrics: every workload reports each one. *)
let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("latency_ms_geomean", "ms");
    ("latency_ms_tail10", "ms"); ("peak_rss_mb", "MB") ]

(** Per-layer metrics as (layer, name, unit).  Traced runs report each
    one for every workload, as a value per workload pass; a layer the
    workload never enters reads 0. *)
let per_layer =
  [ ("vm", "vm.steps", "count"); ("vm", "vm.run_ms", "ms");
    ("vm", "vm.steps_per_s", "1/s");
    ("trace", "trace.record_ms", "ms"); ("trace", "trace.events", "count");
    ("trace", "trace.record_overhead_ms", "ms");
    ("taint", "taint.analyze_ms", "ms");
    ("concolic", "concolic.trace_exec_ms", "ms");
    ("concolic", "lifter.insns_lifted", "count");
    ("concolic", "concolic.constraints", "count");
    ("concolic", "concolic.driver_ms", "ms");
    ("concolic", "concolic.traces", "count");
    ("concolic", "concolic.dse_ms", "ms");
    ("concolic", "concolic.dse_self_ms", "ms");
    ("concolic", "dse.steps", "count"); ("concolic", "dse.states", "count");
    ("concolic", "dse.forks", "count"); ("concolic", "dse.steps_per_s", "1/s");
    ("smt", "smt.check_ms", "ms"); ("smt", "smt.queries", "count");
    ("smt", "smt.cache_hit_ratio", "ratio");
    ("smt", "smt.blasted_nodes", "count"); ("smt", "smt.conflicts", "count");
    ("smt", "smt.conflicts_per_s", "1/s");
    ("smt", "solver.degraded", "count"); ("smt", "smt.simplify_ms", "ms");
    ("smt", "smt.blast_ms", "ms"); ("smt", "smt.sat_ms", "ms");
    ("smt", "sat.vars", "count"); ("smt", "sat.clauses", "count");
    ("smt", "sat.conflicts_per_s", "1/s");
    ("engines", "grade.replay_ms", "ms");
    ("engines", "cell.unattributed_ms", "ms");
    ("engines", "cell.unattributed_frac", "ratio");
    ("robust", "diskio.appends", "count"); ("robust", "diskio.bytes", "B");
    ("robust", "diskio.append_us", "us");
    ("robust", "journal.appended", "count");
    ("fleet", "fleet.dispatched", "count");
    ("fleet", "fleet.redispatched", "count");
    ("fleet", "fleet.worker_deaths", "count");
    ("fleet", "fleet.frames_nacked", "count");
    ("fleet", "serve.rejected", "count"); ("fleet", "serve.shed", "count");
    ("fleet", "fleet.overhead_ms", "ms");
    ("ledger", "bench.trace_overhead_frac", "ratio") ]

(** Correctness checks, printed beside the metrics.  They decide a
    run's [correct] and [failed] fields instead of being metrics: each
    must read its golden value, not move within a bound. *)
let checks =
  [ ("failed_frac", "ratio"); ("golden_mismatch", "count");
    ("paper_agreement", "cells"); ("decided_frac", "ratio");
    ("decomposition_mismatch", "count") ]

let layer_of name =
  if List.mem_assoc name end_to_end then "end_to_end"
  else if List.mem_assoc name checks then "checks"
  else
    match List.find_opt (fun (_, n, _) -> n = name) per_layer with
    | Some (layer, _, _) -> layer
    | None -> invalid_arg ("Spec.layer_of: " ^ name)

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> (
      match List.assoc_opt name checks with
      | Some u -> u
      | None -> (
          match List.find_opt (fun (_, n, _) -> n = name) per_layer with
          | Some (_, _, u) -> u
          | None -> invalid_arg ("Spec.unit_of: " ^ name)))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

type t = {
  workloads : string list;
  run_seconds : float;
  e2e : metric list;
  layers : metric list;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let load path : t =
  let j =
    match parse (Robust.Diskio.read_all path) with
    | j -> j
    | exception Parse_error e -> invalid "%s: %s" path e
  in
  let field k o =
    match member k o with Some v -> v | None -> invalid "%s: no %S" path k
  in
  let str k o =
    match field k o with Str s -> s | _ -> invalid "%s: %S not a string" path k
  in
  let arr k o =
    match field k o with Arr l -> l | _ -> invalid "%s: %S not a list" path k
  in
  let num k o =
    match field k o with Num n -> n | _ -> invalid "%s: %S not a number" path k
  in
  let metric ~bounded o =
    { name = str "name" o;
      unit_ = str "unit" o;
      lower_is_better = str "better" o = "lower";
      bound = (if bounded then num "bound" o else 0.) }
  in
  { workloads = List.map (str "name") (arr "workloads" j);
    run_seconds = num "run_seconds" j;
    e2e = List.map (metric ~bounded:true) (arr "end_to_end" j);
    layers = List.map (metric ~bounded:false) (arr "per_layer" j) }

(** BENCHMARK.json must name exactly the metrics above, with the same
    units, so the file and the ledger cannot drift apart. *)
let verify (b : t) =
  let theirs ms = List.map (fun m -> (m.name, m.unit_)) ms in
  let same a b = List.sort compare a = List.sort compare b in
  if not (same end_to_end (theirs b.e2e)) then
    invalid "BENCHMARK.json end_to_end metrics differ from the ledger's";
  if not (same (List.map (fun (_, n, u) -> (n, u)) per_layer) (theirs b.layers))
  then
    invalid "BENCHMARK.json per_layer metrics differ from the ledger's"
