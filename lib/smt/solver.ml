(** One-shot solver front-end: simplify → bit-blast → CDCL, with a
    search-based fallback for constraints containing floating-point
    terms.

    Since the session refactor this is a thin wrapper that runs a fresh
    {!Session} per call, so the pipeline (and every outcome) is exactly
    the incremental path minus cross-query reuse.  Engines that model
    the paper's tools faithfully solve through here; the DSE/driver
    layers hold a long-lived {!Session} instead.

    The FP fallback is an *extension* relative to the paper's tools
    (which simply fail on FP, the Es3 rows): engines keep it disabled
    to reproduce Table II, and the extension is exercised by its own
    tests and example. *)

type model = Session.model

type reason = Session.reason =
  | Budget          (** conflict budget exhausted *)
  | Fp_unsupported  (** FP present and the search fallback is off *)
  | Search_failed   (** FP search exhausted its iterations *)

type outcome = Session.outcome = Sat of model | Unsat | Unknown of reason

type config = Session.config = {
  conflict_budget : int;
  enable_fp_search : bool;
  fp_search_iters : int;
  fp_rng_seed : int64;
      (** xorshift seed for the FP search fallback — explicit so unit
          and fuzz runs are reproducible and independently seedable *)
  seeds : Eval.env list;
      (** candidate assignments the caller wants tried first (e.g.
          small decimal strings for argv-byte groups) *)
  ladder : Degrade.rung list;
      (** degradation rungs tried when a cell budget trips mid-check;
          [[]] restores the hard-failure behaviour (re-raise) *)
}

let default_config = Session.default_config

(** Free variables of a constraint set, de-duplicated. *)
let all_vars = Expr.vars_of_list

(** Solve the conjunction of [constraints] — the engines' one solve
    site.  With [session] the check runs there, reusing its learned
    clauses and query cache ([config] overrides the session's for this
    check only); without, a fresh session answers it one-shot, and
    [stats], when given, accumulates the degraded-ladder rungs across
    such calls.  A returned model is validated by concrete evaluation
    before being reported. *)
let solve ?config ?stats ?session (constraints : Expr.t list) : outcome =
  let session =
    match session with
    | Some s -> s
    | None -> Session.create ?config ?stats ()
  in
  Session.check_assertions ?config session constraints

let outcome_to_string = function
  | Sat m ->
    "sat "
    ^ String.concat ", "
      (List.map (fun (n, v) -> Printf.sprintf "%s=0x%Lx" n v) m)
  | Unsat -> "unsat"
  | Unknown Budget -> "unknown (budget)"
  | Unknown Fp_unsupported -> "unknown (fp unsupported)"
  | Unknown Search_failed -> "unknown (search failed)"
