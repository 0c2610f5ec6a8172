(** Term simplification: constant folding plus the algebraic identities
    that matter for lifted machine code (flag computations produce many
    [x ^ x], [x & mask], double-extract patterns). *)

module Phys = Expr.Phys

let is_const = function Expr.Const _ -> true | _ -> false

let const_value = function
  | Expr.Const (v, _) -> v
  | _ -> invalid_arg "const_value"

(** Rewrite memo, keyed on physical identity.  A fresh one is made per
    [run] call unless the caller supplies a persistent one — sessions
    do, so re-simplifying a path-predicate prefix is a table lookup per
    node instead of a re-walk of the whole predicate. *)
type cache = Expr.t Phys.t

let create_cache () : cache = Phys.create 1024

let run ?cache (e : Expr.t) : Expr.t =
  let cache : Expr.t Phys.t =
    match cache with Some c -> c | None -> Phys.create 256
  in
  let rec go e =
    let key = Obj.repr e in
    match Phys.find_opt cache key with
    | Some v -> v
    | None ->
      let v = rewrite e in
      Phys.replace cache key v;
      v
  and rewrite (e : Expr.t) : Expr.t =
    let open Expr in
    match e with
    | Var _ | Const _ -> e
    | Unop (op, a) -> (
        let a = go a in
        match (op, a) with
        | _, Const _ -> fold (Unop (op, a))
        | Not, Unop (Not, x) -> x
        | Neg, Unop (Neg, x) -> x
        | _ -> Unop (op, a))
    | Binop (op, a, b) -> (
        let a = go a and b = go b in
        let w = width_of a in
        match (op, a, b) with
        | _, Const _, Const _ -> fold (Binop (op, a, b))
        | Add, x, Const (0L, _) | Add, Const (0L, _), x -> x
        | Sub, x, Const (0L, _) -> x
        | Sub, x, y when equal x y -> Const (0L, w)
        | Mul, _, Const (0L, _) | Mul, Const (0L, _), _ -> Const (0L, w)
        | Mul, x, Const (1L, _) | Mul, Const (1L, _), x -> x
        | And, _, Const (0L, _) | And, Const (0L, _), _ -> Const (0L, w)
        | And, x, Const (m, _) when m = mask w -> x
        | And, Const (m, _), x when m = mask w -> x
        | And, x, y when equal x y -> x
        | Or, x, Const (0L, _) | Or, Const (0L, _), x -> x
        | Or, x, y when equal x y -> x
        | Xor, x, Const (0L, _) | Xor, Const (0L, _), x -> x
        | Xor, x, y when equal x y -> Const (0L, w)
        | (Shl | Lshr | Ashr), x, Const (0L, _) -> x
        | _ -> Binop (op, a, b))
    | Cmp (op, a, b) -> (
        let a = go a and b = go b in
        match (op, a, b) with
        | _, Const _, Const _ -> fold (Cmp (op, a, b))
        | Eq, x, y when equal x y -> tru
        | (Ult | Slt), x, y when equal x y -> fls
        | (Ule | Sle), x, y when equal x y -> tru
        (* (x = c1) on zext/concat of a narrower term: push through *)
        | Eq, Zext (_, x), Const (v, _) ->
          let wx = width_of x in
          if Int64.logand v (Int64.lognot (mask wx)) <> 0L then fls
          else go (Cmp (Eq, x, Const (v, wx)))
        | _ -> Cmp (op, a, b))
    | Ite (c, a, b) -> (
        let c = go c and a = go a and b = go b in
        match c with
        | Const (1L, 1) -> a
        | Const (0L, 1) -> b
        | _ -> if Expr.equal a b then a else Ite (c, a, b))
    | Extract (hi, lo, a) -> (
        let a = go a in
        let w = width_of a in
        if lo = 0 && hi = w - 1 then a
        else
          match a with
          | Const _ -> fold (Extract (hi, lo, a))
          | Extract (_, lo', x) -> go (Extract (hi + lo', lo + lo', x))
          | Concat (hi_part, lo_part) ->
            (* stay within one side when possible *)
            let wl = width_of lo_part in
            if hi < wl then go (Extract (hi, lo, lo_part))
            else if lo >= wl then go (Extract (hi - wl, lo - wl, hi_part))
            else Extract (hi, lo, a)
          | Zext (_, x) when hi < width_of x -> go (Extract (hi, lo, x))
          | Zext (_, x) when lo >= width_of x -> Const (0L, hi - lo + 1)
          | _ -> Extract (hi, lo, a))
    | Concat (a, b) -> (
        let a = go a and b = go b in
        match (a, b) with
        | Const _, Const _ -> fold (Concat (a, b))
        | Const (0L, wz), x -> go (Zext (wz + width_of x, x))
        | _ -> Concat (a, b))
    | Zext (w, a) -> (
        let a = go a in
        if width_of a = w then a
        else
          match a with
          | Const _ -> fold (Zext (w, a))
          | Zext (_, x) -> go (Zext (w, x))
          | _ -> Zext (w, a))
    | Sext (w, a) -> (
        let a = go a in
        if width_of a = w then a
        else match a with Const _ -> fold (Sext (w, a)) | _ -> Sext (w, a))
    | Fbin (op, a, b) ->
      let a = go a and b = go b in
      if is_const a && is_const b then fold (Fbin (op, a, b))
      else Fbin (op, a, b)
    | Fcmp (op, a, b) ->
      let a = go a and b = go b in
      if is_const a && is_const b then fold (Fcmp (op, a, b))
      else Fcmp (op, a, b)
    | Fsqrt a ->
      let a = go a in
      if is_const a then fold (Fsqrt a) else Fsqrt a
    | Fof_int a ->
      let a = go a in
      if is_const a then fold (Fof_int a) else Fof_int a
    | Fto_int a ->
      let a = go a in
      if is_const a then fold (Fto_int a) else Fto_int a
  and fold e = Eval.fold e
  in
  go e
