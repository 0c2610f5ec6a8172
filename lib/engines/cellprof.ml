(** Per-cell resource profiler: wraps a supervised cell run and
    records what it cost — wall time broken down by span phase, VM
    steps, lifted instructions, solver blast/conflict/cache counters,
    budget-Unknown solver checks and their wall time, taint coverage —
    keyed so a whole Table II run persists as a JSONL sidecar next to
    the journal.

    The measurement is a counter-delta around the run (the registry is
    cumulative), so profiles compose with journaling, the fleet (a
    worker ships its sample back in its reply and the master appends
    it, like an in-process run does) without touching
    {!Supervisor.outcome}.  The phase breakdown comes
    from the cell's spans, which the caller captures ({!phases_of}). *)

open Concolic.Error

type sample = {
  p_key : string;  (** "TOOL/bomb" *)
  p_grade : string;  (** {!Concolic.Error.cell_symbol} *)
  p_stage : string option;  (** Es attribution when supervised *)
  p_cause : string option;
      (** {!Supervisor.cause_name} — carries the degradation rung for
          degraded cells ("degraded:enumerate") *)
  p_wall_us : float;
  p_vm_steps : int;
  p_lifted : int;
  p_blasted : int;
  p_conflicts : int;
  p_cache_hits : int;
  p_queries : int;
  p_tainted : int;
  p_unknown_budget : int;  (** solver checks that spent their budget *)
  p_unknown_budget_ms : float;  (** their wall time *)
  p_phases : (string * float) list;
      (** inclusive µs per span phase (a phase nested under another is
          counted in both), name-sorted; empty unless the run was traced *)
}

(* the span names the engine stack actually emits *)
let phase_names =
  [ "cell"; "trace.record"; "vm.run"; "taint.analyze"; "concolic.driver";
    "concolic.trace_exec"; "concolic.dse"; "smt.check" ]

(** Inclusive µs per span phase over [spans] (a phase nested under
    another is counted in both), name-sorted. *)
let phases_of (spans : Telemetry.span list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Telemetry.span) ->
       if List.mem s.name phase_names then
         Hashtbl.replace tbl s.name
           (Telemetry.duration_us s
            +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** Run [run] under the profiler: deltas of the deterministic engine
    counters across the call.  The sample's [p_phases] is empty; a
    caller that traced the run fills it from the run's spans with
    {!phases_of}. *)
let profiled ~key (run : unit -> Supervisor.outcome) :
  Supervisor.outcome * sample =
  let base = Telemetry.Snapshot.capture () in
  let unknown_wall () =
    Telemetry.Metrics.gauge_value_of "smt.unknown_budget_wall_s"
  in
  let unknown_wall0 = unknown_wall () in
  let t0 = Unix.gettimeofday () in
  let o = run () in
  let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  let delta n =
    Telemetry.Metrics.counter_value n - Telemetry.Snapshot.find_counter base n
  in
  let sample =
    { p_key = key;
      p_grade = cell_symbol o.Supervisor.graded.Grade.cell;
      p_stage = Option.map show_stage o.Supervisor.stage;
      p_cause = Option.map Supervisor.cause_name o.Supervisor.cause;
      p_wall_us = wall_us;
      p_vm_steps = delta "vm.steps";
      p_lifted = delta "lifter.insns_lifted";
      p_blasted = delta "smt.blasted_nodes";
      p_conflicts = delta "smt.conflicts";
      p_cache_hits = delta "smt.cache_hits";
      p_queries = delta "smt.queries";
      p_tainted = delta Taint.metric_tainted_insns;
      p_unknown_budget = delta "smt.unknown_budget";
      p_unknown_budget_ms = 1000. *. (unknown_wall () -. unknown_wall0);
      p_phases = [] }
  in
  (o, sample)

(* ------------------------------------------------------------------ *)
(* JSONL codec and sidecar files                                       *)
(* ------------------------------------------------------------------ *)

let esc = Telemetry.Trace_check.json_escape

let encode (s : sample) =
  let opt = function
    | Some v -> Printf.sprintf "\"%s\"" (esc v)
    | None -> "null"
  in
  Printf.sprintf
    "{\"key\":\"%s\",\"grade\":\"%s\",\"stage\":%s,\"cause\":%s,\
     \"wall_us\":%.1f,\"vm_steps\":%d,\"lifted\":%d,\
     \"blasted\":%d,\"conflicts\":%d,\"cache_hits\":%d,\"queries\":%d,\
     \"tainted\":%d,\"unknown_budget\":%d,\"unknown_budget_ms\":%.3f,\
     \"phases\":{%s}}"
    (esc s.p_key) (esc s.p_grade) (opt s.p_stage) (opt s.p_cause)
    s.p_wall_us s.p_vm_steps s.p_lifted s.p_blasted
    s.p_conflicts s.p_cache_hits s.p_queries s.p_tainted s.p_unknown_budget
    s.p_unknown_budget_ms
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\":%.1f" (esc k) v)
          s.p_phases))

let decode line : sample option =
  let open Telemetry.Trace_check in
  match parse_opt line with
  | None -> None
  | Some j -> (
      let str k = match member k j with Some (Str s) -> Some s | _ -> None in
      let num k = match member k j with Some (Num n) -> Some n | _ -> None in
      let int k = Option.map int_of_float (num k) in
      match
        (str "key", str "grade", num "wall_us", int "vm_steps",
         int "lifted", int "blasted", int "conflicts")
      with
      | Some key, Some grade, Some wall, Some vm,
        Some lifted, Some blasted, Some conflicts ->
          let phases =
            match member "phases" j with
            | Some (Obj fields) ->
                List.filter_map
                  (fun (k, v) ->
                     match v with Num f -> Some (k, f) | _ -> None)
                  fields
                |> List.sort compare
            | _ -> []
          in
          Some
            { p_key = key;
              p_grade = grade;
              p_stage = str "stage";
              p_cause = str "cause";
              p_wall_us = wall;
              p_vm_steps = vm;
              p_lifted = lifted;
              p_blasted = blasted;
              p_conflicts = conflicts;
              p_cache_hits = Option.value ~default:0 (int "cache_hits");
              p_queries = Option.value ~default:0 (int "queries");
              p_tainted = Option.value ~default:0 (int "tainted");
              (* absent from sidecars written before it was recorded *)
              p_unknown_budget =
                Option.value ~default:0 (int "unknown_budget");
              p_unknown_budget_ms =
                Option.value ~default:0.0 (num "unknown_budget_ms");
              p_phases = phases }
      | _ -> None)

(** Append one sample to the sidecar (one JSON object per line,
    append-only — same torn-tail discipline as the journal).
    Profiles are observability, not results: a full disk sheds the
    sample instead of failing the cell. *)
let append ~path (s : sample) =
  try
    let h = Robust.Diskio.open_append path in
    Robust.Diskio.append h (encode s ^ "\n");
    Robust.Diskio.close h
  with Robust.Diskio.Full _ -> ()

let m_skipped = Telemetry.Metrics.counter "profile.skipped"

(** Load a sidecar: last sample wins per key (a resumed run re-appends
    the cells it re-executed).  An undecodable line (a torn tail, a
    flipped byte) is skipped with a {!Telemetry.Log} warning and
    counted in [profile.skipped], as {!Robust.Journal.load} does. *)
let load path : sample list =
  let ic = open_in path in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       match decode line with
       | Some s ->
           if not (Hashtbl.mem tbl s.p_key) then
             order := s.p_key :: !order;
           Hashtbl.replace tbl s.p_key s
       | None ->
           Telemetry.Metrics.incr m_skipped;
           Telemetry.Log.warnf "profile: skipping undecodable sample at %s:%d"
             path !lineno
     done
   with End_of_file -> ());
  close_in ic;
  List.rev_map (fun k -> Hashtbl.find tbl k) !order

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let split_key key =
  match String.index_opt key '/' with
  | Some i ->
      ( String.sub key 0 i,
        String.sub key (i + 1) (String.length key - i - 1) )
  | None -> (key, key)

let mean f l =
  match l with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc s -> acc +. f s) 0.0 l
      /. float_of_int (List.length l)

(** [eval profile]'s report: the top-[top] slowest cells with their
    phase breakdown, a per-bomb × per-tool wall-time table, and the
    Es-stage × resource correlation (which stage the expensive cells
    die at, and what they burn doing it). *)
let render_report ?(top = 10) (samples : sample list) : string =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ms us = us /. 1e3 in
  (* --- top-K slowest cells --- *)
  let slowest =
    List.sort (fun a b -> compare b.p_wall_us a.p_wall_us) samples
  in
  pr "top %d slowest cells (%d profiled):\n"
    (min top (List.length samples))
    (List.length samples);
  List.iteri
    (fun i s ->
       if i < top then begin
         pr
           "  %-28s %8.1f ms  %s  vm:%d blast:%d cdcl:%d q:%d hit:%d \
            unk:%d/%.1fms%s%s\n"
           s.p_key (ms s.p_wall_us) s.p_grade s.p_vm_steps s.p_blasted
           s.p_conflicts s.p_queries s.p_cache_hits s.p_unknown_budget
           s.p_unknown_budget_ms
           (match s.p_cause with Some c -> "  [" ^ c ^ "]" | None -> "")
           (match s.p_stage with Some st -> " @" ^ st | None -> "");
         match s.p_phases with
         | [] -> ()
         | phases ->
             pr "    %s\n"
               (String.concat "  "
                  (List.map
                     (fun (k, v) -> Printf.sprintf "%s:%.1fms" k (ms v))
                     (List.sort
                        (fun (_, a) (_, b) -> compare b a)
                        phases)))
       end)
    slowest;
  (* --- per-bomb x per-tool wall table --- *)
  let tools =
    List.sort_uniq compare (List.map (fun s -> fst (split_key s.p_key)) samples)
  in
  let bombs =
    List.sort_uniq compare (List.map (fun s -> snd (split_key s.p_key)) samples)
  in
  pr "\nwall time (ms) per bomb x tool:\n";
  pr "  %-20s" "bomb";
  List.iter (fun t -> pr " %10s" t) tools;
  pr "\n";
  List.iter
    (fun bomb ->
       pr "  %-20s" bomb;
       List.iter
         (fun tool ->
            match
              List.find_opt (fun s -> s.p_key = tool ^ "/" ^ bomb) samples
            with
            | Some s -> pr " %10.1f" (ms s.p_wall_us)
            | None -> pr " %10s" "-")
         tools;
       pr "\n")
    bombs;
  (* --- Es-stage x resource correlation --- *)
  (* the supervised [stage] when the supervisor attributed a cause;
     otherwise the grade itself, which already carries the Es symbol
     for error cells *)
  let stage_of s = Option.value ~default:s.p_grade s.p_stage in
  let stages = List.sort_uniq compare (List.map stage_of samples) in
  pr "\nEs-stage x resources (mean per cell):\n";
  pr "  %-10s %5s %10s %12s %10s %10s\n" "stage" "cells" "wall(ms)"
    "vm_steps" "blasted" "cdcl";
  List.iter
    (fun stage ->
       let group = List.filter (fun s -> stage_of s = stage) samples in
       pr "  %-10s %5d %10.1f %12.0f %10.0f %10.0f\n" stage
         (List.length group)
         (ms (mean (fun s -> s.p_wall_us) group))
         (mean (fun s -> float_of_int s.p_vm_steps) group)
         (mean (fun s -> float_of_int s.p_blasted) group)
         (mean (fun s -> float_of_int s.p_conflicts) group))
    stages;
  Buffer.contents buf
