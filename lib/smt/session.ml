(** Stateful solver sessions: a push/pop assertion stack over one
    long-lived bit-blaster and CDCL instance, with hash-consed terms,
    a query cache, and a {!Stats.t} of degraded-ladder rungs.

    The paper's Table II engines issue thousands of near-identical
    feasibility queries — each branch negation shares the entire
    path-predicate prefix with its predecessor.  A session exploits
    that three ways:

    - {b hash-consing}: every asserted term is interned to a canonical
      physical node, so the simplifier and bit-blaster memo tables
      (both keyed on physical identity) hit across [check] calls
      instead of re-walking the whole predicate;
    - {b incremental CDCL}: assertions are encoded once and passed to
      {!Sat.solve} as assumptions, so popping a level never discards
      CNF, learnt clauses, or variable activity;
    - {b query cache}: each checked assertion set is keyed by its
      interned node ids (exact within a session — no hash collisions).
      Cached sat models are revalidated through {!Eval} before reuse;
      cached unsat answers are reused directly.

    A check pays for what is new on its path, not for the whole
    prefix again: a node's floating-point flag is set when it is
    consed, from its children's flags, and a constraint's variables
    are collected once, the first time a model is restricted to it.
    What stays per check is one pass over the asserted list and the
    validation of each model, which evaluates every constraint under
    one memo ({!Eval.satisfies_all}).

    Floating-point constraints fall back to the one-shot search solver
    ({!Search}), exactly as the non-incremental front-end does.
    {!Solver.solve} is a thin one-shot wrapper over a fresh session, so
    engines that opt out of incrementality keep their behaviour. *)

type model = (string * int64) list

type reason =
  | Budget          (** conflict budget exhausted *)
  | Fp_unsupported  (** FP present and the search fallback is off *)
  | Search_failed   (** FP search exhausted its iterations *)

type outcome = Sat of model | Unsat | Unknown of reason

type config = {
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

let default_config =
  { conflict_budget = 200_000;
    enable_fp_search = false;
    fp_search_iters = 50_000;
    fp_rng_seed = Search.default_rng_seed;
    seeds = [];
    ladder = Degrade.default_ladder }

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

module Phys = Expr.Phys

(* shallow structural key: constructor tag + immediate payload +
   canonical child ids.  Children are interned first, so two nodes
   with equal keys are structurally equal whole terms. *)
module Key = struct
  type t = { tag : int; i : int64; n : int; s : string; kids : int array }

  let equal a b =
    a.tag = b.tag && Int64.equal a.i b.i && a.n = b.n
    && String.equal a.s b.s && a.kids = b.kids

  let hash = Hashtbl.hash
end

module Ktbl = Hashtbl.Make (Key)

(* [fp]: the term uses a floating-point operation, set once when the
   node is consed from its own constructor and its children's flags *)
type interned = { node : Expr.t; id : int; fp : bool }

type frame = {
  mutable asserted : interned list;  (* newest first *)
  mutable src : Expr.t option;
      (* the raw constraint [set_assertions] stacked this frame for *)
}

type cached = Cached_sat of model | Cached_unsat

(* query-cache key: the sorted, de-duplicated interned ids of the
   checked set, hashed over every id (the polymorphic hash would read
   only a prefix, and checks share long prefixes) *)
module Qkey = Hashtbl.Make (struct
    type t = int array

    let equal (a : t) b =
      Array.length a = Array.length b && Array.for_all2 Int.equal a b

    let hash (a : t) =
      Array.fold_left (fun h id -> (h * 31) + id) (Array.length a) a
  end)

type t = {
  mutable config : config;
  mutable frames : frame list;   (* newest first; base frame always last *)
  simp_cache : Simplify.cache;
  intern_memo : interned Phys.t; (* raw node -> canonical, O(1) re-intern *)
  consed : interned Ktbl.t;
  vars : (string, Expr.var) Hashtbl.t;  (* every interned variable *)
  names : (int, Expr.var list) Hashtbl.t;
      (* id -> the variables of that asserted constraint, filled the
         first time a model is restricted to it *)
  mutable next_id : int;
  blast : Blast.t;
  lits : (int, int) Hashtbl.t;          (* id -> assumption literal *)
  query_cache : cached Qkey.t;
  stats : Stats.t;
  meter : Robust.Meter.t option;
      (** cell budget accounting: node interning charges the
          expr-node cap, [check] polls the deadline and
          threads the meter into the CDCL core *)
}

let create ?meter ?(config = default_config) ?stats () =
  let meter = Robust.Meter.default meter in
  { config;
    frames = [ { asserted = []; src = None } ];
    simp_cache = Simplify.create_cache ();
    intern_memo = Phys.create 1024;
    consed = Ktbl.create 1024;
    vars = Hashtbl.create 32;
    names = Hashtbl.create 64;
    next_id = 0;
    blast = Blast.create ();
    lits = Hashtbl.create 64;
    query_cache = Qkey.create 64;
    stats = (match stats with Some s -> s | None -> Stats.create ());
    meter }

let key ?(i = 0L) ?(n = 0) ?(s = "") tag kids : Key.t =
  { Key.tag; i; n; s; kids }

let rec intern_node t (e : Expr.t) : interned =
  match Phys.find_opt t.intern_memo (Obj.repr e) with
  | Some i -> i
  | None ->
    let i = cons t e in
    Phys.replace t.intern_memo (Obj.repr e) i;
    i

and cons t (e : Expr.t) : interned =
  let open Expr in
  (* a node uses FP when it is an FP operation or a child does *)
  let fp =
    ref (match e with
        | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ -> true
        | _ -> false)
  in
  let sub a =
    let i = intern_node t a in
    if i.fp then fp := true;
    i
  in
  let k, node =
    match e with
    | Var v -> (key 0 ~n:v.width ~s:v.vname [||], e)
    | Const (v, w) -> (key 1 ~i:v ~n:w [||], e)
    | Unop (op, a) ->
      let a = sub a in
      (key 2 ~n:(Hashtbl.hash op) [| a.id |], Unop (op, a.node))
    | Binop (op, a, b) ->
      let a = sub a and b = sub b in
      (key 3 ~n:(Hashtbl.hash op) [| a.id; b.id |], Binop (op, a.node, b.node))
    | Cmp (op, a, b) ->
      let a = sub a and b = sub b in
      (key 4 ~n:(Hashtbl.hash op) [| a.id; b.id |], Cmp (op, a.node, b.node))
    | Ite (c, a, b) ->
      let c = sub c and a = sub a and b = sub b in
      (key 5 [| c.id; a.id; b.id |], Ite (c.node, a.node, b.node))
    | Extract (hi, lo, a) ->
      let a = sub a in
      (key 6 ~i:(Int64.of_int lo) ~n:hi [| a.id |], Extract (hi, lo, a.node))
    | Concat (a, b) ->
      let a = sub a and b = sub b in
      (key 7 [| a.id; b.id |], Concat (a.node, b.node))
    | Zext (w, a) ->
      let a = sub a in
      (key 8 ~n:w [| a.id |], Zext (w, a.node))
    | Sext (w, a) ->
      let a = sub a in
      (key 9 ~n:w [| a.id |], Sext (w, a.node))
    | Fbin (op, a, b) ->
      let a = sub a and b = sub b in
      (key 10 ~n:(Hashtbl.hash op) [| a.id; b.id |], Fbin (op, a.node, b.node))
    | Fcmp (op, a, b) ->
      let a = sub a and b = sub b in
      (key 11 ~n:(Hashtbl.hash op) [| a.id; b.id |], Fcmp (op, a.node, b.node))
    | Fsqrt a ->
      let a = sub a in
      (key 12 [| a.id |], Fsqrt a.node)
    | Fof_int a ->
      let a = sub a in
      (key 13 [| a.id |], Fof_int a.node)
    | Fto_int a ->
      let a = sub a in
      (key 14 [| a.id |], Fto_int a.node)
  in
  match Ktbl.find_opt t.consed k with
  | Some i -> i
  | None ->
    (* a genuinely fresh node: charge the interned-node budget before
       allocating the id *)
    (match t.meter with
     | Some m -> Robust.Meter.charge_expr_nodes m 1
     | None -> ());
    let id = t.next_id in
    t.next_id <- id + 1;
    (match node with
     | Var v -> Hashtbl.replace t.vars v.vname v
     | _ -> ());
    let i = { node; id; fp = !fp } in
    Ktbl.replace t.consed k i;
    i

(** Canonical physical representative of [e] in this session.  Terms
    interned here share memo entries with every other interned term,
    so building constraints through [intern] maximises cache hits. *)
let intern t e = (intern_node t e).node

(** Every variable seen by this session's hash-consing — the
    deduplicated set {!Solver.all_vars} used to recompute per call. *)
let all_vars t =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.vars []
  |> List.sort (fun (a : Expr.var) b -> compare a.vname b.vname)

let stats t = t.stats

(* ------------------------------------------------------------------ *)
(* Assertion stack                                                     *)
(* ------------------------------------------------------------------ *)

let push_frame t src = t.frames <- { asserted = []; src } :: t.frames
let push t = push_frame t None

let pop t =
  match t.frames with
  | _ :: (_ :: _ as rest) -> t.frames <- rest
  | _ -> invalid_arg "Smt.Session.pop: stack is empty"

let depth t = List.length t.frames - 1

let assert_interned t (i : interned) =
  match t.frames with
  | f :: _ -> f.asserted <- i :: f.asserted
  | [] -> assert false

let assert_ t e =
  assert_interned t (intern_node t (Simplify.run ~cache:t.simp_cache e))

(* asserted set, oldest first *)
let asserted t =
  List.fold_left (fun acc f -> List.rev_append f.asserted acc) [] t.frames

(** Current assertions in push order (simplified, interned). *)
let assertions t = List.map (fun i -> i.node) (asserted t)

(** Replace the assertion stack with [cs], one frame per constraint,
    popping only the suffix that differs from what is already pushed.
    Consecutive path predicates share long prefixes, so the usual cost
    is one pop and one push. *)
let set_assertions t cs =
  (* current stack, bottom-up, excluding the base frame *)
  let stacked = List.rev t.frames |> List.tl in
  (* frames stacked for these very terms: the simplifier and intern
     memos would map each term to the node already asserted there *)
  let rec same n cs (fs : frame list) =
    match (cs, fs) with
    | c :: cs', { src = Some s; asserted = [ _ ] } :: fs' when s == c ->
      same (n + 1) cs' fs'
    | _ -> (n, cs, fs)
  in
  let same_n, cs, fs = same 0 cs stacked in
  let target =
    List.map
      (fun c -> (c, intern_node t (Simplify.run ~cache:t.simp_cache c)))
      cs
  in
  let rec shared n (xs : (Expr.t * interned) list) (fs : frame list) =
    match (xs, fs) with
    | (c, x) :: xs', ({ asserted = [ y ]; _ } as f) :: fs' when x.id = y.id ->
      f.src <- Some c;
      shared (n + 1) xs' fs'
    | _ -> n
  in
  let keep = same_n + shared 0 target fs in
  for _ = 1 to List.length stacked - keep do pop t done;
  List.iteri
    (fun idx (c, i) ->
       if same_n + idx >= keep then begin
         push_frame t (Some c);
         assert_interned t i
       end)
    target

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let model_holds (m : model) cs = Eval.satisfies_all (Eval.env_of_list m) cs

(* the variables of one asserted constraint, walked once per session *)
let names_of t (i : interned) =
  match Hashtbl.find_opt t.names i.id with
  | Some vs -> vs
  | None ->
    let vs = Expr.vars i.node in
    Hashtbl.replace t.names i.id vs;
    vs

(* restrict a session-wide model to the variables of the checked set,
   matching the one-shot front-end's model shape *)
let restrict_model t m cs_i =
  let names = Hashtbl.create 16 in
  List.iter
    (fun i ->
       List.iter
         (fun (v : Expr.var) -> Hashtbl.replace names v.vname ())
         (names_of t i))
    cs_i;
  List.filter (fun (n, _) -> Hashtbl.mem names n) m

(** The floating-point flag and the variables of [e]'s interned node:
    what a check reads instead of walking the term. *)
let node_fp t e = (intern_node t e).fp

let node_vars t e = names_of t (intern_node t e)

let solve_uncached t (cfg : config) (cs_i : interned list) : outcome =
  let cs = List.map (fun i -> i.node) cs_i in
  if List.exists (fun (i : interned) -> i.fp) cs_i then begin
    if not cfg.enable_fp_search then Unknown Fp_unsupported
    else
      match
        Search.fp_search ~iters:cfg.fp_search_iters ~seeds:cfg.seeds
          ~rng_seed:cfg.fp_rng_seed cs
      with
      | Some m -> Sat m
      | None -> Unknown Search_failed
  end
  else begin
    (* try caller seeds before paying for bit-blasting *)
    let seed_hit =
      List.find_opt (fun seed -> Eval.satisfies_all seed cs) cfg.seeds
    in
    match seed_hit with
    | Some seed ->
      Sat
        (List.map
           (fun (v : Expr.var) -> (v.vname, Hashtbl.find seed v.vname))
           (Expr.vars_of_list cs))
    | None -> (
        let nodes_before = Blast.num_nodes t.blast in
        match
          (* clear any stale model before encoding: [add_clause] reads
             level-0 assignments as facts *)
          Blast.reset t.blast;
          List.map
            (fun (i : interned) ->
               match Hashtbl.find_opt t.lits i.id with
               | Some l -> l
               | None ->
                 let l = Blast.lit_of t.blast i.node in
                 Hashtbl.replace t.lits i.id l;
                 l)
            cs_i
        with
        | exception Blast.Unsupported_fp -> Unknown Fp_unsupported
        | assumptions -> (
            Stats.add_blasted (Blast.num_nodes t.blast - nodes_before);
            let sat = t.blast.Blast.sat in
            let c0 = Sat.num_conflicts sat and d0 = Sat.num_decisions sat
            and p0 = Sat.num_propagations sat in
            (* account the search also when a budget trip unwinds it *)
            let account () =
              Stats.add_search ~conflicts:(Sat.num_conflicts sat - c0)
                ~decisions:(Sat.num_decisions sat - d0)
                ~propagations:(Sat.num_propagations sat - p0)
            in
            match
              Fun.protect ~finally:account (fun () ->
                  Blast.solve ~conflict_budget:cfg.conflict_budget
                    ?meter:t.meter ~assumptions t.blast)
            with
            | Sat ->
              let m = restrict_model t (Blast.model t.blast) cs_i in
              (* defensive validation, as in the one-shot front-end *)
              if model_holds m cs then Sat m else Unknown Budget
            | Unsat -> Unsat
            | Unknown -> Unknown Budget))
  end

(** Decide the current assertion set.  [config] overrides the session
    config for this call only (engines use a small budget for
    feasibility pruning and a large one for final queries). *)
let check ?config t : outcome =
  Telemetry.with_span "smt.check" @@ fun () ->
  (* budget gate on every solver entry: a past-deadline cell stops
     before paying for blasting *)
  (match t.meter with
   | Some m -> Robust.Meter.checkpoint m
   | None -> ());
  let cfg = Option.value ~default:t.config config in
  (* wall-clock time on the spans' clock, not process CPU time; it
     counts also when a budget trip escapes the check *)
  let t0 = Telemetry.clock_us () in
  let wall () = (Telemetry.clock_us () -. t0) /. 1e6 in
  Fun.protect ~finally:(fun () -> Stats.add_wall (wall ()))
  @@ fun () ->
  Stats.record_query ();
  let conflicts0 = Sat.num_conflicts t.blast.Blast.sat in
  let cs_i = asserted t in
  let result =
    if List.exists (fun (i : interned) -> Expr.is_false i.node) cs_i then Unsat
    else begin
      let cs_i =
        List.filter (fun (i : interned) -> not (Expr.is_true i.node)) cs_i
      in
      if cs_i = [] then Sat []
      else begin
        (* interned ids are exact within the session: the key admits no
           collisions, so unsat entries are reusable as-is *)
        let key =
          List.sort_uniq Int.compare (List.map (fun (i : interned) -> i.id) cs_i)
          |> Array.of_list
        in
        let cs = List.map (fun (i : interned) -> i.node) cs_i in
        let cached =
          match Qkey.find_opt t.query_cache key with
          | Some Cached_unsat -> Some Unsat
          | Some (Cached_sat m) when model_holds m cs -> Some (Sat m)
          | _ -> None
        in
        match cached with
        | Some r ->
          Stats.record_cache_hit ();
          r
        | None ->
          let r =
            try solve_uncached t cfg cs_i with
            | Robust.Meter.Exhausted
                { resource =
                    ( Robust.Meter.Solver_conflicts | Robust.Meter.Expr_nodes
                    | Robust.Meter.Deadline );
                  _ }
              when cfg.ladder <> [] -> (
                (* the cell budget tripped mid-solve: walk the
                   degradation ladder over the same assertion set
                   instead of aborting the cell.  Only these three
                   resources degrade; any other trip escapes. *)
                match Degrade.run ~ladder:cfg.ladder cs with
                | Degrade.Sat m, rung when model_holds m cs ->
                  Stats.record_degraded t.stats rung;
                  Sat m
                | Degrade.Unsat, rung ->
                  Stats.record_degraded t.stats rung;
                  Unsat
                | (Degrade.Sat _ | Degrade.Undecided), _ ->
                  (* an invalid ladder model counts as give-up too *)
                  Stats.record_degraded t.stats Degrade.give_up_name;
                  Unknown Budget)
          in
          (match r with
           | Sat m -> Qkey.replace t.query_cache key (Cached_sat m)
           | Unsat -> Qkey.replace t.query_cache key Cached_unsat
           | Unknown _ -> () (* budget-dependent: not cacheable *));
          r
      end
    end
  in
  (match result with
   | Sat _ -> Stats.record_sat ()
   | Unsat -> Stats.record_unsat ()
   | Unknown reason ->
     Stats.record_unknown ();
     if reason = Budget then
       Stats.record_unknown_budget
         ~conflicts:(Sat.num_conflicts t.blast.Blast.sat - conflicts0)
         ~wall:(wall ()));
  result

(** [set_assertions] followed by [check] — the engines' entry point.

    Exception-safe: if a budget trip or any other exception escapes
    mid-call, the assertion stack is rolled back to its pre-call state
    so a failed cell cannot poison a reused session.  Restoring the saved frame list is sound because
    [set_assertions] never changes what a surviving frame asserts — it
    only pops suffixes and pushes fresh frames, which the restore
    discards (a frame's [src] may be re-pointed at an equal term, which
    maps to the same node). *)
let check_assertions ?config t cs =
  let saved = t.frames in
  match
    set_assertions t cs;
    check ?config t
  with
  | outcome -> outcome
  | exception e ->
    t.frames <- saved;
    raise e
