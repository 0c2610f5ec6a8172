(** Cell supervision: crash isolation and graceful degradation for
    Table II.

    Every (tool × bomb) cell runs under a fresh {!Robust.Meter}
    installed as the ambient meter, so budgets govern the whole engine
    stack without parameter threading.  A tripped budget, an injected
    chaos fault, or any unexpected exception is caught here, mapped to
    the paper's [E]/[P] grades with the Es-stage attribution from
    {!Explain}, and counted in [robust.*] telemetry — the rest of the
    table is never disturbed.  Optionally the cell is retried with an
    escalated budget before being graded as degraded. *)

open Concolic.Error

(** Why a supervised cell did not complete normally. *)
type cause =
  | Exhausted of Robust.Meter.resource  (** typed budget trip *)
  | Injected of Robust.Chaos.point  (** chaos fault (never retried) *)
  | Crashed of string  (** unexpected exception *)
  | Degraded of string
      (** the cell completed, but only because the solver degradation
          ladder answered budget-tripped checks; names the deepest
          rung that fired (see {!Smt.Degrade}) *)

let cause_name = function
  | Exhausted r -> "exhausted:" ^ Robust.Meter.resource_name r
  | Injected p -> "injected:" ^ Robust.Chaos.point_name p
  | Crashed _ -> "crash"
  | Degraded rung -> "degraded:" ^ rung

type policy = {
  budget : Robust.Budget.t;  (** caps for the first attempt *)
  retries : int;  (** extra attempts after a budget trip *)
  backoff : float;  (** budget scale factor per retry *)
  chaos : Robust.Chaos.plan option;  (** fault-injection plan *)
}

(** No caps, no retries, no chaos: supervised output is identical to
    running the engine bare (the supervisor only adds the catch). *)
let default_policy =
  { budget = Robust.Budget.unlimited; retries = 0; backoff = 10.0;
    chaos = None }

(** The policy for dispatch [attempt] of a cell whose earlier
    attempts died with their worker: the budget scaled by
    [backoff ** (attempt - 1)], as that many supervisor retries would
    have scaled it. *)
let escalate policy ~attempt =
  if attempt <= 1 then policy
  else
    { policy with
      budget =
        Robust.Budget.scale
          (policy.backoff ** float_of_int (attempt - 1))
          policy.budget }

type outcome = {
  graded : Grade.graded;
  cause : cause option;  (** [None]: the final attempt completed *)
  stage : stage option;  (** Es attribution of [cause] *)
  attempts : int;
  fired : (Robust.Chaos.point * int) list;
      (** chaos faults fired during the final attempt *)
}

(* robust.* accounting: per-resource/per-point cause counters live in
   Robust itself (they fire at the raise site); these count what the
   supervisor did about it *)
let m_cells = Telemetry.Metrics.counter "robust.cells"
let m_cells_e = Telemetry.Metrics.counter "robust.cells_e"
let m_cells_p = Telemetry.Metrics.counter "robust.cells_p"
let m_retries = Telemetry.Metrics.counter "robust.retries"
let m_crashes = Telemetry.Metrics.counter "robust.crashes"

let m_stage =
  List.map
    (fun (name, s) -> (s, Telemetry.Metrics.counter ("robust.stage." ^ name)))
    [ ("es0", Some Es0); ("es1", Some Es1); ("es2", Some Es2);
      ("es3", Some Es3); ("none", None) ]

(** Es-stage of a degraded cell, reusing {!Explain}'s budget/probe
    attribution tables. *)
let stage_of_cause = function
  | Exhausted r -> Explain.stage_of_resource r
  | Injected p -> Explain.stage_of_point p
  | Crashed _ -> None
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
  | Injected p -> Engine_crash ("injected:" ^ Robust.Chaos.point_name p)
  | Crashed msg -> Engine_crash msg
  | Degraded rung -> Solver_degraded rung

let retryable = function
  | Exhausted Robust.Meter.Cancelled -> false  (* cancellation is final *)
  | Exhausted _ -> true
  | Degraded _ -> true  (* an escalated budget may decide it cleanly *)
  | Injected _ | Crashed _ -> false

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
let run_cell ?incremental ?ladder ?(policy = default_policy)
    (tool : Profile.tool) (bomb : Bombs.Common.t) : outcome =
  Telemetry.Metrics.incr m_cells;
  let rec attempt n budget =
    (* fresh chaos hit-state per attempt: a retried cell replays the
       same plan deterministically *)
    let chaos = Option.map Robust.Chaos.start policy.chaos in
    let meter = Robust.Meter.create ?chaos budget in
    let fired () = match chaos with Some st -> st.fired | None -> [] in
    match
      Robust.Meter.with_ambient meter (fun () ->
          Grade.run_cell ?incremental ?ladder tool bomb)
    with
    | graded -> (
        match deepest_rung (degraded_rungs graded.diags) with
        | None ->
            { graded; cause = None; stage = None; attempts = n;
              fired = fired () }
        | Some _ when n <= policy.retries ->
            (* the cell only survived through the ladder; a scaled
               budget may decide it without degradation *)
            Telemetry.Metrics.incr m_retries;
            attempt (n + 1) (Robust.Budget.scale policy.backoff budget)
        | Some rung ->
            (* completed, but only thanks to off-budget fallbacks: a
               graded partial success, attributed to the deepest rung *)
            let cause = Degraded rung in
            let stage = stage_of_cause cause in
            Telemetry.Metrics.incr m_cells_p;
            Telemetry.Metrics.incr (List.assoc stage m_stage);
            { graded = { graded with cell = Partial };
              cause = Some cause; stage; attempts = n; fired = fired () })
    | exception e ->
        let cause =
          match e with
          | Robust.Meter.Exhausted { resource; _ } -> Exhausted resource
          | Robust.Chaos.Injected { point; _ } -> Injected point
          | e ->
              Telemetry.Metrics.incr m_crashes;
              Crashed (Printexc.to_string e)
        in
        if retryable cause && n <= policy.retries then begin
          Telemetry.Metrics.incr m_retries;
          attempt (n + 1) (Robust.Budget.scale policy.backoff budget)
        end
        else begin
          let cell = cell_of_cause cause in
          let stage = stage_of_cause cause in
          Telemetry.Metrics.incr
            (if cell = Partial then m_cells_p else m_cells_e);
          Telemetry.Metrics.incr (List.assoc stage m_stage);
          { graded =
              { cell; proposed = None; detonated = false;
                false_positive = false; diags = [ diag_of_cause cause ];
                work = meter.Robust.Meter.vm_steps };
            cause = Some cause; stage; attempts = n; fired = fired () }
        end
  in
  attempt 1 policy.budget

(* ------------------------------------------------------------------ *)
(* Chaos soak                                                          *)
(* ------------------------------------------------------------------ *)

type soak_report = {
  seed : int64;
  plans : int;
  cells_run : int;  (** chaos cells (excluding the two baseline passes) *)
  faults_fired : int;
  degraded_e : int;
  degraded_p : int;
  clean : int;  (** cells whose plan never fired — must match baseline *)
  violations : string list;
  baseline_stable : bool;
      (** the clean baseline re-run after the soak still matches —
          no chaos cell leaked state into a neighbour *)
}

let contained r = r.violations = [] && r.baseline_stable

let default_soak_bombs = [ "time_bomb"; "argvlen_bomb" ]
let default_soak_tools = [ Profile.Bap; Profile.Triton ]

(** Run [plans] seed-derived fault plans over every (tool × bomb)
    cell, checking each injected fault is contained to its cell:
    degraded cells grade [E]/[P] with a recorded cause, untouched
    cells match a clean baseline, and the baseline itself still holds
    after the whole soak. *)
let soak ?incremental ?(tools = default_soak_tools)
    ?(bombs = default_soak_bombs) ~seed ~plans () : soak_report =
  let bombs = List.map Bombs.Catalog.find bombs in
  let pairs =
    List.concat_map (fun t -> List.map (fun b -> (t, b)) bombs) tools
  in
  let run_clean () =
    List.map
      (fun (tool, bomb) ->
         (run_cell ?incremental ~policy:default_policy tool bomb).graded.cell)
      pairs
  in
  let baseline = run_clean () in
  let faults_fired = ref 0 in
  let degraded_e = ref 0 in
  let degraded_p = ref 0 in
  let clean = ref 0 in
  let violations = ref [] in
  let violation plan (tool, (bomb : Bombs.Common.t)) fmt =
    Printf.ksprintf
      (fun msg ->
         violations :=
           Format.asprintf "plan %a · %s × %s: %s" Robust.Chaos.pp_plan plan
             (Profile.name tool) bomb.name msg
           :: !violations)
      fmt
  in
  let cells_run = ref 0 in
  for i = 0 to plans - 1 do
    let plan =
      Robust.Chaos.plan_of_seed (Int64.add seed (Int64.of_int i))
    in
    List.iteri
      (fun j ((tool, bomb) as pair) ->
         incr cells_run;
         let policy = { default_policy with chaos = Some plan } in
         match run_cell ?incremental ~policy tool bomb with
         | exception e ->
             (* the whole point of the supervisor: nothing escapes *)
             violation plan pair "escaped the supervisor: %s"
               (Printexc.to_string e)
         | o ->
             faults_fired := !faults_fired + List.length o.fired;
             let raising =
               List.exists
                 (fun (p, _) -> p <> Robust.Chaos.Cancellation)
                 o.fired
             in
             let symbol = cell_symbol o.graded.cell in
             if raising then (
               match (o.graded.cell, o.cause) with
               | Abnormal, Some (Injected _) -> incr degraded_e
               | _ ->
                   violation plan pair
                     "fault fired but cell graded %s (cause %s)" symbol
                     (match o.cause with
                      | Some c -> cause_name c
                      | None -> "none"))
             else if o.fired <> [] then (
               (* only cancellations fired: either the flag was polled
                  (graded P) or the run finished first (baseline) *)
               match o.graded.cell with
               | Partial when o.cause = Some (Exhausted Robust.Meter.Cancelled)
                 ->
                   incr degraded_p
               | c when c = List.nth baseline j -> incr clean
               | _ ->
                   violation plan pair
                     "cancellation fired but cell graded %s" symbol)
             else if o.graded.cell = List.nth baseline j then incr clean
             else
               violation plan pair
                 "no fault fired yet cell drifted from baseline to %s" symbol)
      pairs
  done;
  let baseline_stable = run_clean () = baseline in
  { seed; plans; cells_run = !cells_run; faults_fired = !faults_fired;
    degraded_e = !degraded_e; degraded_p = !degraded_p; clean = !clean;
    violations = List.rev !violations; baseline_stable }

let render_soak (r : soak_report) =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "chaos soak: seed=0x%Lx plans=%d cells=%d\n" r.seed r.plans r.cells_run;
  pr "  faults fired: %d (graded E: %d, graded P: %d, clean: %d)\n"
    r.faults_fired r.degraded_e r.degraded_p r.clean;
  pr "  baseline stable after soak: %b\n" r.baseline_stable;
  (match r.violations with
   | [] -> pr "  containment: OK — every fault confined to its cell\n"
   | vs ->
       pr "  containment VIOLATIONS (%d):\n" (List.length vs);
       List.iter (fun v -> pr "    - %s\n" v) vs);
  Buffer.contents buf
