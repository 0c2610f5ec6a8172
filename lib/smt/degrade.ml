(** Solver degradation ladder: bounded fallback strategies tried when
    a budgeted {!Session.check} trips its cell meter mid-solve.

    The logic-bomb benchmark papers attribute most engine "failures"
    on small binaries to solver timeouts, not wrong answers — the
    query was decidable, just not within the cell's budget.  Rather
    than aborting the cell, the session walks a ladder of strictly
    cheaper, strictly bounded strategies over the *same* assertion
    set:

    - {b resimplify}: pin every variable asserted equal to a constant,
      substitute, re-simplify to a fixpoint, and solve the (usually
      much smaller) residual in a fresh throwaway blaster under a
      small rung-local conflict budget;
    - {b enumerate}: when the free variables of the query span few
      enough total bits, decide it exactly by exhaustive concrete
      evaluation through {!Eval} (handles FP terms for free);
    - give-up: fall off the ladder and report [Undecided], which the
      session surfaces as [Unknown Budget].

    Every rung runs {e off-meter}: the cell budget has already
    tripped, so the ladder's cost is bounded by its own rung
    parameters instead (a metered retry would re-raise on the first
    charge).  Sat answers are validated against the original
    constraints through {!Eval} before being trusted; Unsat answers
    are sound by construction (substitution only uses asserted
    equalities, enumeration is exhaustive). *)

type rung =
  | Resimplify of { conflicts : int }
      (** constant-pinning + re-simplification, then a fresh solve
          bounded by [conflicts] CDCL conflicts *)
  | Enumerate of { max_bits : int }
      (** exhaustive model enumeration when the free variables span at
          most [max_bits] total bits *)

let rung_name = function
  | Resimplify _ -> "resimplify"
  | Enumerate _ -> "enumerate"

(** Name reported when every rung declines — falling off the ladder is
    itself an outcome the supervisor and telemetry attribute. *)
let give_up_name = "give_up"

let default_ladder =
  [ Resimplify { conflicts = 10_000 }; Enumerate { max_bits = 16 } ]

(** Compact spec for run fingerprints and reports: ["off"] for the
    empty ladder, else e.g. ["resimplify:10000,enumerate:16"]. *)
let ladder_to_string = function
  | [] -> "off"
  | rungs ->
    String.concat ","
      (List.map
         (function
           | Resimplify { conflicts } ->
             Printf.sprintf "resimplify:%d" conflicts
           | Enumerate { max_bits } ->
             Printf.sprintf "enumerate:%d" max_bits)
         rungs)

type verdict =
  | Sat of (string * int64) list
  | Unsat
  | Undecided  (** this rung cannot decide the query; try the next *)

(* ------------------------------------------------------------------ *)
(* Rung: resimplify                                                    *)
(* ------------------------------------------------------------------ *)

(* variables asserted equal to a constant anywhere in the set — the
   cheapest unit information a path predicate carries (argv bytes
   pinned by earlier branches are the common case) *)
let pinned_vars cs : (string * int64) list =
  List.filter_map
    (fun (c : Expr.t) ->
       match c with
       | Cmp (Eq, Var v, Const (x, _)) | Cmp (Eq, Const (x, _), Var v) ->
         Some (v.vname, Int64.logand x (Expr.mask v.width))
       | _ -> None)
    cs

(* substitute pinned variables by constants; plain tree recursion is
   fine here because [Simplify.run] immediately re-shares via its own
   memo and rung inputs are single constraints, not whole programs *)
let rec subst (pins : (string, int64) Hashtbl.t) (e : Expr.t) : Expr.t =
  let s = subst pins in
  match e with
  | Expr.Var v -> (
      match Hashtbl.find_opt pins v.vname with
      | Some x -> Expr.Const (Int64.logand x (Expr.mask v.width), v.width)
      | None -> e)
  | Const _ -> e
  | Unop (op, a) -> Unop (op, s a)
  | Binop (op, a, b) -> Binop (op, s a, s b)
  | Cmp (op, a, b) -> Cmp (op, s a, s b)
  | Ite (c, a, b) -> Ite (s c, s a, s b)
  | Extract (hi, lo, a) -> Extract (hi, lo, s a)
  | Concat (a, b) -> Concat (s a, s b)
  | Zext (w, a) -> Zext (w, s a)
  | Sext (w, a) -> Sext (w, s a)
  | Fbin (op, a, b) -> Fbin (op, s a, s b)
  | Fcmp (op, a, b) -> Fcmp (op, s a, s b)
  | Fsqrt a -> Fsqrt (s a)
  | Fof_int a -> Fof_int (s a)
  | Fto_int a -> Fto_int (s a)

let resimplify ~conflicts cs : verdict =
  let pins = Hashtbl.create 16 in
  List.iter (fun (n, x) -> Hashtbl.replace pins n x) (pinned_vars cs);
  let residual =
    List.filter_map
      (fun c ->
         let c' = Simplify.run (subst pins c) in
         if Expr.is_true c' then None else Some c')
      cs
  in
  if List.exists Expr.is_false residual then
    (* pins came from asserted equalities, so a contradicted residual
       contradicts the original set *)
    Unsat
  else if Expr.exists_fp residual then Undecided
  else begin
    (* fresh throwaway blaster, deliberately un-metered: the rung's
       own conflict budget is the bound *)
    let b = Blast.create () in
    match List.map (Blast.lit_of b) residual with
    | exception Blast.Unsupported_fp -> Undecided
    | assumptions -> (
        match Blast.solve ~conflict_budget:conflicts ~assumptions b with
        | Sat.Unsat -> Unsat
        | Sat.Unknown -> Undecided
        | Sat.Sat ->
          let residual_model =
            List.filter
              (fun (n, _) -> not (Hashtbl.mem pins n))
              (Blast.model b)
          in
          let m =
            List.map
              (fun (v : Expr.var) ->
                 match Hashtbl.find_opt pins v.vname with
                 | Some x -> (v.vname, Int64.logand x (Expr.mask v.width))
                 | None -> (
                     match List.assoc_opt v.vname residual_model with
                     | Some x -> (v.vname, Int64.logand x (Expr.mask v.width))
                     | None -> (v.vname, 0L)))
              (Expr.vars_of_list cs)
          in
          if Eval.satisfies_all (Eval.env_of_list m) cs then Sat m
          else Undecided)
  end

(* ------------------------------------------------------------------ *)
(* Rung: enumerate                                                     *)
(* ------------------------------------------------------------------ *)

let enumerate ~max_bits cs : verdict =
  let vars = Expr.vars_of_list cs in
  let total_bits =
    List.fold_left (fun acc (v : Expr.var) -> acc + v.width) 0 vars
  in
  (* >= 63 also guards the [1L lsl total_bits] limit below *)
  if total_bits > max_bits || max_bits <= 0 || total_bits >= 63 then Undecided
  else begin
    let env : Eval.env = Hashtbl.create 16 in
    (* walk the combined assignment space as one [total_bits]-wide
       counter, slicing each variable's bits out in declaration order;
       2^max_bits is the rung's explicit cost bound *)
    let limit = Int64.shift_left 1L total_bits in
    let rec try_assignment (n : int64) : verdict =
      if Int64.unsigned_compare n limit >= 0 then Unsat
      else begin
        let off = ref 0 in
        List.iter
          (fun (v : Expr.var) ->
             let x =
               Int64.logand
                 (Int64.shift_right_logical n !off)
                 (Expr.mask v.width)
             in
             Hashtbl.replace env v.vname x;
             off := !off + v.width)
          vars;
        if Eval.satisfies_all env cs then
          Sat (List.map (fun (v : Expr.var) -> (v.vname, Hashtbl.find env v.vname)) vars)
        else try_assignment (Int64.add n 1L)
      end
    in
    try_assignment 0L
  end

(* ------------------------------------------------------------------ *)
(* Ladder walk                                                         *)
(* ------------------------------------------------------------------ *)

let attempt rung cs =
  match rung with
  | Resimplify { conflicts } -> resimplify ~conflicts cs
  | Enumerate { max_bits } -> enumerate ~max_bits cs

(** Walk [ladder] over the constraint set; returns the verdict plus
    the name of the rung that decided it ([give_up_name] when every
    rung declined).  Budget trips are never swallowed; any other rung-internal exception just advances to the
    next rung. *)
let run ~ladder cs : verdict * string =
  let rec go = function
    | [] -> (Undecided, give_up_name)
    | rung :: rest -> (
        let v =
          try attempt rung cs
          with e when not (Robust.is_fault e) -> Undecided
        in
        match v with Undecided -> go rest | decided -> (decided, rung_name rung))
  in
  go ladder
