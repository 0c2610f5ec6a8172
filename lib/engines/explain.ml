(** Error-stage attribution: run one (tool × bomb) cell under span
    tracing and report *where* symbolic reasoning lost the input.

    The cell runs through {!Supervisor.run_cell} under the same
    {!Supervisor.policy} Table II would use, so its grade, cause and
    stage are the ones [eval table2] prints for that cell.  The
    diagnosis then walks the recorded span tree to mark the pipeline
    stage (trace, lift, taint, solve) where that class of error is
    introduced (§IV-A of the paper). *)

open Concolic.Error

type t = {
  bomb : Bombs.Common.t;
  tool : Profile.tool;
  outcome : Supervisor.outcome;  (** the supervised cell *)
  stage : stage option;
      (** the supervisor's stage when it set a cause, else
          {!stage_of_cell}; [None] for Success and for an E cell with
          no stage (a crash, a deadline) *)
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

(** Run the supervised cell with tracing enabled and attribute the
    outcome.  Spans and metrics are reset first and left in place
    afterwards so the caller can render or dump them; the previous
    tracing enablement is restored. *)
let run ?policy (tool : Profile.tool) (bomb : Bombs.Common.t) : t =
  let was_enabled = Telemetry.is_enabled () in
  Telemetry.reset ();
  Telemetry.Metrics.reset ();
  Telemetry.enable ();
  let outcome = Supervisor.run_cell ?policy tool bomb in
  if not was_enabled then Telemetry.disable ();
  let stage =
    match outcome.cause with
    | Some _ -> outcome.stage
    | None -> stage_of_cell outcome.graded.cell
  in
  Option.iter mark_stage stage;
  { bomb; tool; outcome; stage }

let render (r : t) =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let graded = r.outcome.graded in
  pr "%s\n" (Supervisor.describe ~bomb:r.bomb.name r.tool r.outcome);
  (match graded.proposed with
   | Some input ->
     pr "  proposed input: %S (detonated: %b%s)\n" input graded.detonated
       (if graded.false_positive then ", FALSE POSITIVE" else "")
   | None -> pr "  proposed input: none\n");
  (match r.stage with
   | Some s -> pr "  failure stage: %s — %s\n" (show_stage s) (stage_blurb s)
   | None ->
     (match graded.cell with
      | Success -> pr "  no failure: the proposed input detonates the bomb\n"
      | _ ->
        pr "  abnormal: the engine crashed or exhausted its budget \
           before any stage could be attributed\n"));
  (match graded.diags with
   | [] -> ()
   | diags ->
     pr "  engine diagnostics:\n";
     List.iter (fun d -> pr "    - %s\n" (show_diag d)) diags);
  pr "  span tree (! marks the attributed stage):\n";
  String.split_on_char '\n' (Telemetry.render_tree ())
  |> List.iter (fun line -> if line <> "" then pr "    %s\n" line);
  pr "  metrics:\n%s" (Telemetry.Metrics.render ());
  Buffer.contents buf
