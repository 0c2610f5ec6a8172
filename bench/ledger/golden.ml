(** Known answers under the ledger's data directory, and their
    re-derivation from the program under test.

    [golden.tsv] holds the default-flag grade of each of the 84
    non-srand Table II cells, the grade of each capped grid-dse cell
    under its cap, and each solver fixture's verdict class at the
    engine's 20,000-conflict budget; [fixtures/<bomb>.smt2] holds each
    fixture as SMT-LIB2.  Every run re-derives both and counts drift as
    a golden mismatch. *)

type t = {
  grades : (string, string) Hashtbl.t;  (** "TOOL/bomb" -> cell symbol *)
  verdicts : (string, string) Hashtbl.t;  (** bomb -> sat | unsat | unknown *)
}

let tsv dir = Filename.concat dir "golden.tsv"

let fixture_path dir bomb =
  Filename.concat (Filename.concat dir "fixtures") (bomb ^ ".smt2")

let load dir : t =
  let g = { grades = Hashtbl.create 128; verdicts = Hashtbl.create 32 } in
  String.split_on_char '\n' (Robust.Diskio.read_all (tsv dir))
  |> List.iter (fun line ->
      match String.split_on_char '\t' line with
      | [ "cell"; key; grade ] -> Hashtbl.replace g.grades key grade
      | [ "fixture"; bomb; verdict ] -> Hashtbl.replace g.verdicts bomb verdict
      | _ -> ());
  g

(** The bombs the grid workloads draw from: all of Table II except
    srand_bomb, whose Angr cell alone runs for minutes.  The
    solver-fixtures workload stands in for it. *)
let grid_bombs =
  List.filter
    (fun (b : Bombs.Common.t) -> b.name <> "srand_bomb")
    Bombs.Catalog.table2

type fixture = {
  bomb : string;
  constraints : Smt.Expr.t list;
  witness : Smt.Eval.env;
      (** the winning argv's bytes: a SAT answer that does not depend
          on the solver under test *)
}

(** Every path constraint BAP hands its solver: the bomb's trace under
    its winning argv, replayed as [Profile.run_bap] replays it.  Paths
    over the blast-cost guard never reach the solver, and paths without
    a symbolic branch leave nothing to solve. *)
let derive_fixtures () =
  List.filter_map
    (fun (bomb : Bombs.Common.t) ->
       let config =
         Bombs.Common.config_for bomb (Bombs.Common.winning_argv bomb)
       in
       let trace =
         Trace.record ~max_events:400_000 ~config (Bombs.Catalog.image bomb)
       in
       let path =
         Concolic.Trace_exec.run Concolic.Trace_exec.bap_like_config trace
       in
       match List.map fst path.constraints with
       | [] -> None
       | _ when Engines.Profile.path_too_large path -> None
       | constraints ->
           Some { bomb = bomb.name; constraints; witness = path.input_env })
    Bombs.Catalog.table2

let script f = Smt.Printer.smtlib_script f.constraints

let verdict = function
  | Smt.Solver.Sat _ -> "sat"
  | Smt.Solver.Unsat -> "unsat"
  | Smt.Solver.Unknown _ -> "unknown"

let holds env cs =
  try List.for_all (Smt.Eval.holds env) cs with Smt.Eval.Unbound _ -> false

(** Bombs whose fixture drifted: the re-derived script differs from the
    committed file, or a committed verdict has no fixture behind it. *)
let drift dir (g : t) fixtures =
  let changed =
    List.filter_map
      (fun f ->
         match Robust.Diskio.read_all (fixture_path dir f.bomb) with
         | s when s = script f -> None
         | _ -> Some f.bomb
         | exception Sys_error _ -> Some f.bomb)
      fixtures
  in
  let orphaned =
    Hashtbl.fold
      (fun bomb _ acc ->
         if List.exists (fun f -> f.bomb = bomb) fixtures then acc
         else bomb :: acc)
      g.verdicts []
  in
  changed @ orphaned

(** Rewrite [golden.tsv] and [fixtures/] from measured answers. *)
let write dir ~grades ~fixtures =
  let fixtures_dir = Filename.concat dir "fixtures" in
  if not (Sys.file_exists fixtures_dir) then Sys.mkdir fixtures_dir 0o755;
  List.iter
    (fun (f, _) ->
       Robust.Diskio.write_atomic ~path:(fixture_path dir f.bomb) (script f))
    fixtures;
  let lines =
    ("# kind\tkey\tanswer (cell: grade under default flags, or under the "
     ^ "budget the key names; fixture: verdict at 20000 conflicts)")
    :: List.map (fun (key, grade) -> "cell\t" ^ key ^ "\t" ^ grade) grades
    @ List.map (fun (f, v) -> "fixture\t" ^ f.bomb ^ "\t" ^ v) fixtures
  in
  Robust.Diskio.write_atomic ~path:(tsv dir) (String.concat "\n" lines ^ "\n")
