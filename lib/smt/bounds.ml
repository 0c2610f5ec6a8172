(** Word-level unsigned interval bounds, applied before bit-blasting.

    A path predicate from lifted code compares many terms against
    constants: atoi's digit guards bound each input byte to
    ['0'..'9'], and a later test bounds the parsed value.  The
    blaster cannot see such bounds, so an atoi chain of 64-bit
    multiply-and-add steps is blasted with all 64 bits live even when
    its value is below 10^8.  This pass reads the bounds and narrows
    the arithmetic:

    - {b sources}: a comparison of a term against a constant ([ult],
      [ule], [eq] and their negations, with [t - c = 0] read as
      [t = c]), and conjunctions and disjunctions of those (the lifted
      [jbe] test is [t < c \/ t - c = 0]).  A bound on [zext x] is
      kept on [x];
    - {b transfer}: [zext], low [extract], [add]/[sub]/[mul] that
      cannot wrap, [and], [lshr] by a constant and [ite];
    - {b rewrite}: an [add], [sub] or [mul] whose interval is
      [[0, 2^j)] with [j] below its width becomes
      [zext (extract (j-1..0, t))], so its upper bits are constants
      and {!Blast} folds every gate above them.

    Soundness: each constraint is rewritten only with bounds from
    constraints strictly older on the path.  By induction the
    rewritten prefix then has exactly the models of the original, so
    verdicts and models carry over.  A constraint is never narrowed by
    its own bound: that would make it vacuous.

    Cost: a constraint with no [mul] comes back physically unchanged.
    Only a multiply turns live upper bits into quadratic blasting work,
    and a rewritten constraint is a new term the session blasts again.
    A {!t} memoises each constraint per bound environment, so states
    forked from one prefix share the work.  The DSE engine runs
    every query through here; the trace engines and the one-shot
    {!Solver.solve} do not. *)

module Phys = Expr.Phys

(** An unsigned interval [lo <= x <= hi] of a term's value. *)
type itv = { lo : int64; hi : int64 }

(** Deliberately wrong variants of the pass.  They exist only so the
    difftest oracle can show it catches each class of bug; nothing
    else passes one. *)
type fault =
  | Upper_off_by_one  (** every upper bound one too tight *)
  | Add_ignores_wrap  (** [add] bounded even when it can wrap *)
  | Own_bound  (** a constraint narrowed by its own bound *)

let ule a b = Int64.unsigned_compare a b <= 0
let ult a b = Int64.unsigned_compare a b < 0
let umin a b = if ule a b then a else b
let umax a b = if ule a b then b else a
let top w = { lo = 0L; hi = Expr.mask w }
let point v = { lo = v; hi = v }
let hull a b = { lo = umin a.lo b.lo; hi = umax a.hi b.hi }

(* does [i] fit in [w] bits? *)
let fits i w = w >= 64 || ult i.hi (Int64.shift_left 1L w)

let meet a b =
  let i = { lo = umax a.lo b.lo; hi = umin a.hi b.hi } in
  if ule i.lo i.hi then Some i else None

(* bits needed for the unsigned value [v] *)
let bit_length v =
  let rec go n v = if v = 0L then n else go (n + 1) (Int64.shift_right_logical v 1) in
  go 0 v

(* structural equality that stops at shared nodes: the path's terms
   share most of their structure, but the two solver paths (session and
   one-shot) do not hash-cons them alike, so bounds are matched by
   structure, never by identity alone *)
let rec same (a : Expr.t) (b : Expr.t) =
  a == b
  ||
  match (a, b) with
  | Var x, Var y -> x.width = y.width && String.equal x.vname y.vname
  | Const (x, w), Const (y, v) -> Int64.equal x y && w = v
  | Unop (o, x), Unop (p, y) -> o = p && same x y
  | Binop (o, x1, x2), Binop (p, y1, y2) -> o = p && same x1 y1 && same x2 y2
  | Cmp (o, x1, x2), Cmp (p, y1, y2) -> o = p && same x1 y1 && same x2 y2
  | Ite (c, x1, x2), Ite (d, y1, y2) -> same c d && same x1 y1 && same x2 y2
  | Extract (h, l, x), Extract (h', l', y) -> h = h' && l = l' && same x y
  | Concat (x1, x2), Concat (y1, y2) -> same x1 y1 && same x2 y2
  | Zext (w, x), Zext (v, y) | Sext (w, x), Sext (v, y) -> w = v && same x y
  | _ -> Expr.equal a b

(* ------------------------------------------------------------------ *)
(* Bound sources                                                       *)
(* ------------------------------------------------------------------ *)

(** Bounds a path has asserted, each on a term; [id] names the
    environment for the memo. *)
type env = { id : int; bounds : (Expr.t * int * itv) list (* term, width *) }

let find env w e =
  List.find_map
    (fun (k, kw, i) -> if kw = w && same k e then Some i else None)
    env.bounds

(* [x op (Const c)] holding ([pos]) or failing, as an interval of [x];
   [None] when the outcome says nothing or nothing can hold *)
let cmp_itv ?fault op ~const_right c w pos =
  let m = Expr.mask w in
  let below c = if c = 0L then None else Some { lo = 0L; hi = Int64.pred c } in
  let above c = if c = m then None else Some { lo = Int64.succ c; hi = m } in
  let i =
    match (op : Expr.cmpop), const_right, pos with
    | Ult, true, true -> below c
    | Ult, true, false -> Some { lo = c; hi = m }
    | Ule, true, true -> Some { lo = 0L; hi = c }
    | Ule, true, false -> above c
    | Ult, false, true -> above c
    | Ult, false, false -> Some { lo = 0L; hi = c }
    | Ule, false, true -> Some { lo = c; hi = m }
    | Ule, false, false -> below c
    | Eq, _, true -> Some (point c)
    | _ -> None
  in
  match i with
  | Some i when fault = Some Upper_off_by_one && i.hi <> m && ult i.lo i.hi ->
    Some { i with hi = Int64.pred i.hi }
  | i -> i

(* a bound on [zext x] is a bound on [x] *)
let rec normalise (t : Expr.t) w i =
  match t with
  | Zext (_, x) ->
    let wx = Expr.width_of x in
    Option.bind (meet i (top wx)) (fun i -> normalise x wx i)
  | _ -> Some (t, w, i)

(** The bounds that [c] being [pos] implies, each on one term. *)
let rec facts ?fault pos (c : Expr.t) =
  match c with
  | Unop (Not, x) -> facts ?fault (not pos) x
  | Binop (And, a, b) when pos -> facts ?fault true a @ facts ?fault true b
  | Binop (Or, a, b) when not pos ->
    facts ?fault false a @ facts ?fault false b
  | Binop (And, a, b) -> either (facts ?fault false a) (facts ?fault false b)
  | Binop (Or, a, b) -> either (facts ?fault true a) (facts ?fault true b)
  | Cmp (Eq, Binop (Sub, t, Const (k, w)), Const (0L, _)) when pos ->
    Option.to_list (normalise t w (point k))
  | Cmp (op, t, Const (k, w)) | Cmp (op, Const (k, w), t) -> (
      match t with
      | Const _ -> []
      | _ ->
        let const_right = match c with Cmp (_, _, Const _) -> true | _ -> false in
        match cmp_itv ?fault op ~const_right k w pos with
        | Some i -> Option.to_list (normalise t w i)
        | None -> [])
  | _ -> []

(* [a \/ b]: a term bounded on both sides is bounded by the hull *)
and either fa fb =
  List.filter_map
    (fun (t, w, i) ->
       List.find_map
         (fun (t', w', i') ->
            if w = w' && same t t' then Some (t, w, hull i i') else None)
         fb)
    fa

let next_env = ref 0

(* [env] with the facts [fs] added; [env] itself when they add nothing,
   so the constraints after it keep their memo entries *)
let extend env fs =
  let bounds =
    List.fold_left
      (fun bounds (t, w, i) ->
         match find { env with bounds } w t with
         | None -> (t, w, i) :: bounds
         | Some old -> (
             match meet old i with
             | Some i when i <> old ->
               (t, w, i)
               :: List.filter (fun (k, kw, _) -> not (kw = w && same k t)) bounds
             | _ -> bounds (* nothing new, or an unsatisfiable prefix *)))
      env.bounds fs
  in
  if bounds == env.bounds then env
  else begin
    incr next_env;
    { id = !next_env; bounds }
  end

(* ------------------------------------------------------------------ *)
(* Transfer and rewrite                                                *)
(* ------------------------------------------------------------------ *)

(* what lies below a node: [has_mul] if some [mul], [has_fp] if some
   floating-point term.  Memoised on physical nodes for a whole
   exploration, since consecutive constraints share most of their DAG *)
let has_mul = 1
let has_fp = 2

let rec kinds memo (e : Expr.t) =
  match e with
  | Var _ | Const _ -> 0
  | _ -> (
      let key = Obj.repr e in
      match Phys.find_opt memo key with
      | Some k -> k
      | None ->
        let k =
          match e with
          | Var _ | Const _ -> 0
          | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ -> has_fp
          | Binop (Mul, a, b) -> has_mul lor kinds memo a lor kinds memo b
          | Unop (_, a) | Extract (_, _, a) | Zext (_, a) | Sext (_, a) ->
            kinds memo a
          | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) ->
            kinds memo a lor kinds memo b
          | Ite (c, a, b) -> kinds memo c lor kinds memo a lor kinds memo b
        in
        Phys.replace memo key k;
        k)

(* a [mul] below, and no floating-point term: a query with one is
   never bit-blasted, so narrowing cannot help it *)
let narrowable memo c = kinds memo c = has_mul

(** Rewrite [c] with the bounds of [env]: every [add], [sub] and [mul]
    whose interval fits in fewer bits than its width is cut down to
    them. *)
let rewrite ?fault env (c : Expr.t) : Expr.t =
  let memo : (Expr.t * int * itv) Phys.t = Phys.create 64 in
  let rec go (e : Expr.t) =
    let k = Obj.repr e in
    match Phys.find_opt memo k with
    | Some r -> r
    | None ->
      let r = compute e in
      Phys.replace memo k r;
      r
  and compute (e : Expr.t) : Expr.t * int * itv =
    let open Expr in
    let e', w, i =
      match e with
      | Const (v, w) -> (e, w, point v)
      | Var v -> (e, v.width, top v.width)
      | Zext (w, a) ->
        let a', _, ia = go a in
        ((if a' == a then e else Zext (w, a')), w, ia)
      | Extract (hi, lo, a) ->
        let a', _, ia = go a in
        let w = hi - lo + 1 in
        let i = if lo = 0 && fits ia w then ia else top w in
        ((if a' == a then e else Extract (hi, lo, a')), w, i)
      | Binop (op, a, b) ->
        let a', w, ia = go a and b', _, ib = go b in
        let m = mask w in
        let i =
          match op with
          | Add when fault = Some Add_ignores_wrap ->
            { lo = Int64.logand (Int64.add ia.lo ib.lo) m;
              hi = Int64.logand (Int64.add ia.hi ib.hi) m }
          | Add when ule ia.hi (Int64.sub m ib.hi) ->
            { lo = Int64.add ia.lo ib.lo; hi = Int64.add ia.hi ib.hi }
          | Sub when ule ib.hi ia.lo ->
            { lo = Int64.sub ia.lo ib.hi; hi = Int64.sub ia.hi ib.lo }
          | Mul when ib.hi = 0L || ule ia.hi (Int64.unsigned_div m ib.hi) ->
            { lo = Int64.mul ia.lo ib.lo; hi = Int64.mul ia.hi ib.hi }
          | And -> { lo = 0L; hi = umin ia.hi ib.hi }
          | Lshr -> (
              match b with
              | Const (s, _) when ult s (Int64.of_int w) ->
                let s = Int64.to_int s in
                { lo = Int64.shift_right_logical ia.lo s;
                  hi = Int64.shift_right_logical ia.hi s }
              | _ -> top w)
          | _ -> top w
        in
        ((if a' == a && b' == b then e else Binop (op, a', b')), w, i)
      | Ite (c, a, b) ->
        let c', _, _ = go c and a', w, ia = go a and b', _, ib = go b in
        ( (if c' == c && a' == a && b' == b then e else Ite (c', a', b')),
          w,
          hull ia ib )
      | Unop (op, a) ->
        let a', w, _ = go a in
        ((if a' == a then e else Unop (op, a')), w, top w)
      | Cmp (op, a, b) ->
        let a', _, _ = go a and b', _, _ = go b in
        ((if a' == a && b' == b then e else Cmp (op, a', b')), 1, top 1)
      | Concat (a, b) ->
        let a', wa, _ = go a and b', wb, _ = go b in
        ((if a' == a && b' == b then e else Concat (a', b')), wa + wb, top (wa + wb))
      | Sext (w, a) ->
        let a', _, _ = go a in
        ((if a' == a then e else Sext (w, a')), w, top w)
      | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ ->
        (e, width_of e, top (width_of e))
    in
    let i =
      match e with
      | Const _ -> i
      | _ -> (
          match find env w e with
          | Some b -> Option.value ~default:i (meet i b)
          | None -> i)
    in
    let j = bit_length i.hi in
    match e' with
    | Binop ((Add | Sub | Mul), _, _) when j > 0 && j < w ->
      (Zext (w, Extract (j - 1, 0, e')), w, i)
    | _ -> (e', w, i)
  in
  let c', _, _ = go c in
  c'

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let empty = { id = 0; bounds = [] }

(* one constraint under the bounds of the constraints before it: the
   rewritten constraint and the environment after it *)
let step ?fault kinds env c =
  let env' = extend env (facts ?fault true c) in
  let c' =
    if not (narrowable kinds c) then c
    else rewrite ?fault (if fault = Some Own_bound then env' else env) c
  in
  (c', env')

module Memo = Hashtbl.Make (struct
    type t = int * Obj.t

    let equal (i, a) (j, b) = i = j && a == b
    let hash (i, a) = Hashtbl.hash (i, Hashtbl.hash a)
  end)

(** The memo of one exploration: each constraint is rewritten once per
    bound environment it is reached under. *)
type t = { steps : (Expr.t * env) Memo.t; kinds : int Phys.t }

let create () = { steps = Memo.create 256; kinds = Phys.create 1024 }

(** [narrow t cs] is the path [cs] (oldest first) with each constraint
    rewritten under the bounds of the ones before it.  [fault] is for
    the difftest oracle only. *)
let narrow ?fault (t : t) cs =
  let _, rev =
    List.fold_left
      (fun (env, acc) c ->
         let key = (env.id, Obj.repr c) in
         let c', env' =
           match Memo.find_opt t.steps key with
           | Some r -> r
           | None ->
             let r = step ?fault t.kinds env c in
             Memo.replace t.steps key r;
             r
         in
         (env', c' :: acc))
      (empty, []) cs
  in
  List.rev rev

(** {!narrow} of one path, with a memo of its own. *)
let narrow_list ?fault cs = narrow ?fault (create ()) cs
