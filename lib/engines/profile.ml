(** The three modelled tools (four columns): BAP-like, Triton-like,
    Angr-like with and without library loading.

    Each profile is a capability bundle over the shared concolic core;
    each also carries the paper's per-tool *methodology* (§V-B): BAP
    is driven from the triggering input and asked to re-derive it,
    Triton explores concolically from a neutral seed, Angr performs
    directed symbolic execution toward the bomb. *)

type tool = Bap | Triton | Angr | Angr_nolib
[@@deriving show { with_path = false }, eq, ord, enum]

let all = [ Bap; Triton; Angr; Angr_nolib ]

let name = function
  | Bap -> "BAP"
  | Triton -> "Triton"
  | Angr -> "Angr"
  | Angr_nolib -> "Angr-NoLib"

(** Inverse of {!name}, case-insensitive, accepting common spellings. *)
let of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "bap" -> Some Bap
  | "triton" -> Some Triton
  | "angr" -> Some Angr
  | "angr-nolib" | "angr_nolib" | "nolib" -> Some Angr_nolib
  | _ -> None

(** What an engine run produced, in tool-independent form. *)
type attempt = {
  proposed : string option;   (** candidate argv[1] *)
  diags : Concolic.Error.diag list;
  crashed : bool;
  budget_exhausted : bool;
  fp_seen : bool;
  symbolic_branches : int;
  trace_based : bool;
      (** Pin-style executor (affects error attribution: a symbolic
          jump is a constraint-extraction failure for these tools) *)
  work : int;                 (** instructions / steps spent *)
}

(** Constraint-system blow-up guard: bit-blasting a crypto-sized
    predicate is the "memory out" of the paper's E rows. *)
let max_blast_cost = 300_000

let path_too_large (path : Concolic.Trace_exec.path) =
  match path.constraints with
  | [] -> false
  | cs ->
    let _, (info : Concolic.State.info) = List.nth cs (List.length cs - 1) in
    info.cost > max_blast_cost

(* ------------------------------------------------------------------ *)
(* BAP-like: replay-and-rederive from the triggering input            *)
(* ------------------------------------------------------------------ *)

let solver_config =
  { Smt.Solver.default_config with conflict_budget = 20_000 }

let input_of_model ~width (model : Smt.Solver.model) =
  let b = Bytes.create width in
  for i = 0 to width - 1 do
    let v =
      match List.assoc_opt (Printf.sprintf "argv1_%d" i) model with
      | Some x -> Int64.to_int (Int64.logand x 0xffL)
      | None -> Char.code 'A'  (* neutral filler, never the seed *)
    in
    Bytes.set b i (Char.chr v)
  done;
  let s = Bytes.to_string b in
  match String.index_opt s '\000' with
  | Some 0 -> "A"
  | Some i -> String.sub s 0 i
  | None -> s

let run_bap ?(incremental = true) ?(ladder = Smt.Degrade.default_ladder)
    ~(image : Asm.Image.t) ~(run_config : string -> Vm.Machine.config)
    ~(seed : string) () : attempt =
  let solver_config = { solver_config with ladder } in
  (* one accumulator across session and one-shot solves, so
     degradation-ladder outcomes surface as diags either way *)
  let stats = Smt.Stats.create () in
  (* one trace, one query: the session buys no cross-query reuse here,
     but attaching it lets replay intern constraints as they are
     recorded, so the final solve starts with warm memo tables *)
  let session =
    if incremental then
      Some (Smt.Session.create ~config:solver_config ~stats ())
    else None
  in
  let trace =
    Trace.record ~max_events:400_000 ~config:(run_config seed) image
  in
  let path =
    Concolic.Trace_exec.run Concolic.Trace_exec.bap_like_config ?session trace
  in
  let cs = List.map fst path.constraints in
  let fp = Smt.Expr.exists_fp cs in
  let symbolic_branches = List.length path.branches in
  if path_too_large path then
    { proposed = None;
      diags = Concolic.Error.Solver_budget :: path.diags;
      crashed = false;
      budget_exhausted = true;
      fp_seen = fp;
      symbolic_branches;
      trace_based = true;
      work = trace.result.steps }
  else
    let proposed, extra =
      match Smt.Solver.solve ~config:solver_config ~stats ?session cs with
      | Smt.Solver.Sat model ->
        (Some (input_of_model ~width:(String.length seed) model), [])
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
    { proposed;
      diags = degraded @ extra @ path.diags;
      crashed = false;
      budget_exhausted =
        List.exists (fun d -> d = Concolic.Error.Solver_budget) extra;
      fp_seen = fp;
      symbolic_branches;
      trace_based = true;
      work = trace.result.steps }

(* ------------------------------------------------------------------ *)
(* Triton-like: concolic exploration from a neutral seed              *)
(* ------------------------------------------------------------------ *)

let run_triton ?(incremental = true) ?(ladder = Smt.Degrade.default_ladder)
    ~(image : Asm.Image.t) ~(run_config : string -> Vm.Machine.config)
    ~(detonated : Vm.Machine.run_result -> bool) ~(seed : string) () : attempt =
  let config =
    { (Concolic.Driver.default_config Concolic.Trace_exec.triton_like_config)
      with solver = { solver_config with ladder }; incremental }
  in
  let target =
    { Concolic.Driver.image; run_config; detonated }
  in
  let v = Concolic.Driver.explore ~seed config target in
  { proposed = v.solved_input;
    diags = v.diags;
    crashed = false;
    budget_exhausted = v.solver_unknowns > 0;
    fp_seen = v.fp_constraints;
    symbolic_branches = v.constraints_seen;
    trace_based = true;
    work = v.traces_run }

(* ------------------------------------------------------------------ *)
(* Angr-like: directed DSE                                             *)
(* ------------------------------------------------------------------ *)

(** The DSE configuration an Angr column runs with. *)
let angr_config ?(incremental = true) ?(ladder = Smt.Degrade.default_ladder)
    (mode : Concolic.Dse.mode) =
  let base = Concolic.Dse.default_config mode in
  { base with incremental; solver = { base.solver with ladder } }

let attempt_of_dse (outcome : Concolic.Dse.outcome) =
  let proposed =
    match outcome.claims with
    | { input; _ } :: _ -> Some input
    | [] -> None
  in
  let claim_diags =
    List.concat_map (fun (c : Concolic.Dse.claim) -> c.diags) outcome.claims
  in
  { proposed;
    diags =
      List.sort_uniq Concolic.Error.compare_diag (claim_diags @ outcome.diags);
    crashed = outcome.crashed <> None;
    budget_exhausted = outcome.budget_exhausted || outcome.solver_unknowns > 0;
    fp_seen = outcome.fp_seen;
    symbolic_branches = outcome.symbolic_branches;
    trace_based = false;
    work = outcome.steps }

let run_angr ?incremental ?ladder ~(mode : Concolic.Dse.mode)
    ~(image : Asm.Image.t) () : attempt =
  match Concolic.Dse.explore (angr_config ?incremental ?ladder mode) image with
  | outcome -> attempt_of_dse outcome
  | exception e when not (Robust.is_fault e) ->
    (* budget trips must reach the cell supervisor for cause
       attribution — only unexpected engine crashes degrade to an
       Engine_crash diag here *)
    { proposed = None;
      diags = [ Concolic.Error.Engine_crash (Printexc.to_string e) ];
      crashed = true;
      budget_exhausted = false;
      fp_seen = false;
      symbolic_branches = 0;
      trace_based = false;
      work = 0 }
