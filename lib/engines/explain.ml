(** Error-stage attribution: run one (tool × bomb) cell under span
    tracing and report *where* symbolic reasoning lost the input.

    The diagnosis reuses {!Grade.run_cell} verbatim — the reported
    stage is derived from the same graded cell that Table II prints,
    so the two cannot disagree — and then walks the recorded span tree
    to mark the pipeline stage (trace, lift, taint, solve) where that
    class of error is introduced (§IV-A of the paper). *)

open Concolic.Error

type t = {
  bomb : Bombs.Common.t;
  tool : Profile.tool;
  graded : Grade.graded;
  stage : stage option;  (** [None] for Success / Abnormal cells *)
}

(** The Es-stage a Table II cell attributes its failure to.  [Partial]
    cells are data-propagation artifacts (SimOS invented values the
    real kernel would not produce), hence Es2. *)
let stage_of_cell = function
  | Fail s -> Some s
  | Partial -> Some Es2
  | Success | Abnormal -> None

let stage_blurb = function
  | Es0 ->
    "symbolic variable declaration: the input never became symbolic \
     anywhere the guard could see (e.g. it entered through a syscall \
     the tool does not treat as a source)"
  | Es1 ->
    "instruction tracing / lifting: an instruction on the data-flow \
     path could not be traced or lifted, so its semantics vanished \
     from the symbolic state"
  | Es2 ->
    "data propagation: the symbolic/tainted data was lost en route to \
     the guard (kernel round trip, unmodeled propagation channel, or \
     simulated values standing in for real ones)"
  | Es3 ->
    "constraint modeling: the guard was reached with symbolic data \
     but its predicate could not be expressed or solved (symbolic \
     addresses, computed jumps, floating point, solver budget)"

(** Span names where each stage's failure is introduced, most specific
    first; the first recorded span matching is marked. *)
let spans_of_stage = function
  | Es0 -> [ "trace.record"; "concolic.dse"; "cell" ]
  | Es1 -> [ "concolic.trace_exec"; "concolic.dse"; "cell" ]
  | Es2 -> [ "taint.analyze"; "concolic.trace_exec"; "concolic.dse"; "cell" ]
  | Es3 -> [ "smt.check"; "concolic.dse"; "cell" ]

let mark_stage stage =
  let spans = Telemetry.finished_spans () in
  let mark_text = show_stage stage ^ " introduced here" in
  let rec try_names = function
    | [] -> ()
    | name :: rest -> (
        match List.find_opt (fun (s : Telemetry.span) -> s.name = name) spans with
        | Some s -> s.attrs <- ("mark", mark_text) :: s.attrs
        | None -> try_names rest)
  in
  try_names (spans_of_stage stage)

(** Run the cell with tracing enabled and attribute the outcome.
    Spans and metrics are reset first and left in place afterwards so
    the caller can render or dump them through any sink; the previous
    tracing enablement is restored.

    [policy] meters the cell like a supervised run would, so a
    diagnosis can reproduce budget-tripped behaviour — including the
    degradation-ladder rungs — for one cell in isolation. *)
let run ?incremental ?(policy = Supervisor.default_policy)
    (tool : Profile.tool) (bomb : Bombs.Common.t) : t =
  let was_enabled = Telemetry.is_enabled () in
  Telemetry.reset ();
  Telemetry.Metrics.reset ();
  Telemetry.enable ();
  let meter = Robust.Meter.create policy.budget in
  let graded =
    match
      Robust.Meter.with_ambient meter (fun () ->
          Grade.run_cell ?incremental ~ladder:policy.ladder tool bomb)
    with
    | g -> g
    | exception Robust.Meter.Exhausted { resource; _ } ->
      (* graded as the supervisor grades a tripped cell, so the
         explained cell matches what Table II would print *)
      { Grade.cell = Abnormal;
        proposed = None; detonated = false; false_positive = false;
        diags = [ Supervisor.diag_of_cause (Supervisor.Exhausted resource) ];
        work = meter.Robust.Meter.vm_steps }
  in
  if not was_enabled then Telemetry.disable ();
  let stage = stage_of_cell graded.cell in
  (match stage with Some s -> mark_stage s | None -> ());
  { bomb; tool; graded; stage }

let render (r : t) =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%s x %s -> %s\n" r.bomb.name (Profile.name r.tool)
    (cell_symbol r.graded.cell);
  (match r.graded.proposed with
   | Some input ->
     pr "  proposed input: %S (detonated: %b%s)\n" input r.graded.detonated
       (if r.graded.false_positive then ", FALSE POSITIVE" else "")
   | None -> pr "  proposed input: none\n");
  (match r.stage with
   | Some s -> pr "  failure stage: %s — %s\n" (show_stage s) (stage_blurb s)
   | None ->
     (match r.graded.cell with
      | Success -> pr "  no failure: the proposed input detonates the bomb\n"
      | _ ->
        pr "  abnormal: the engine crashed or exhausted its budget \
           before any stage could be attributed\n"));
  (match r.graded.diags with
   | [] -> ()
   | diags ->
     pr "  engine diagnostics:\n";
     List.iter (fun d -> pr "    - %s\n" (show_diag d)) diags);
  (match degraded_rungs r.graded.diags with
   | [] -> ()
   | rungs ->
     pr "  solver degradation: budget-tripped checks were decided by \
        ladder rung%s %s; a supervised run grades this cell P \
        (degraded)\n"
       (if List.length rungs > 1 then "s" else "")
       (String.concat ", " rungs));
  pr "  span tree (! marks the attributed stage):\n";
  String.split_on_char '\n' (Telemetry.render_tree ())
  |> List.iter (fun line -> if line <> "" then pr "    %s\n" line);
  pr "  metrics:\n%s" (Telemetry.Metrics.render ());
  Buffer.contents buf
