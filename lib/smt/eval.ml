(** Concrete evaluation of terms under an assignment — used for model
    validation, counterexample checks, and the floating-point search
    solver. *)

exception Unbound of string

type env = (string, int64) Hashtbl.t

let env_of_list l : env =
  let h = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  h

let lookup ?default (env : env) (v : Expr.var) =
  match Hashtbl.find_opt env v.vname with
  | Some x -> Int64.logand x (Expr.mask v.width)
  | None -> (
      match default with
      | Some x -> Int64.logand x (Expr.mask v.width)
      | None -> raise (Unbound v.vname))

let sext_to64 w v =
  if w >= 64 then v
  else
    let sh = 64 - w in
    Int64.shift_right (Int64.shift_left v sh) sh

(* The value of the node [e] (masked to its width) when [value] gives
   its children's values.  [Var] has no children: {!evaluator} looks
   variables up itself, and [fold] has none to see. *)
let apply value (e : Expr.t) : int64 =
  let f64 x = Int64.float_of_bits x in
  let bits f = Int64.bits_of_float f in
  let v =
    match e with
    | Var v -> raise (Unbound v.vname)
    | Const (v, _) -> v
    | Unop (Neg, a) -> Int64.neg (value a)
    | Unop (Not, a) -> Int64.lognot (value a)
    | Binop (op, a, b) ->
      let w = Expr.width_of a in
      let x = value a and y = value b in
      (match op with
       | Add -> Int64.add x y
       | Sub -> Int64.sub x y
       | Mul -> Int64.mul x y
       | Udiv ->
         if y = 0L then Expr.mask w else Int64.unsigned_div x y
       | Urem -> if y = 0L then x else Int64.unsigned_rem x y
       | Sdiv ->
         if y = 0L then
           (* SMT-Lib: bvsdiv x 0 is -1 for x >= 0, +1 for x < 0 *)
           if sext_to64 w x < 0L then 1L else Expr.mask w
         else Int64.div (sext_to64 w x) (sext_to64 w y)
       | Srem ->
         if y = 0L then x
         else Int64.rem (sext_to64 w x) (sext_to64 w y)
       | And -> Int64.logand x y
       | Or -> Int64.logor x y
       | Xor -> Int64.logxor x y
       | Shl ->
         let s = Int64.to_int y in
         if s >= w then 0L else Int64.shift_left x s
       | Lshr ->
         let s = Int64.to_int y in
         if s >= w then 0L else Int64.shift_right_logical x s
       | Ashr ->
         let s = Int64.to_int y in
         let xs = sext_to64 w x in
         if s >= 64 then Int64.shift_right xs 63
         else Int64.shift_right xs (min s 63))
    | Cmp (op, a, b) ->
      let w = Expr.width_of a in
      let x = value a and y = value b in
      let r =
        match op with
        | Eq -> x = y
        | Ult -> Int64.unsigned_compare x y < 0
        | Ule -> Int64.unsigned_compare x y <= 0
        | Slt -> sext_to64 w x < sext_to64 w y
        | Sle -> sext_to64 w x <= sext_to64 w y
      in
      if r then 1L else 0L
    | Ite (c, a, b) -> if value c = 1L then value a else value b
    | Extract (hi, lo, a) ->
      Int64.shift_right_logical (value a) lo
      |> Int64.logand (Expr.mask (hi - lo + 1))
    | Concat (a, b) ->
      let wb = Expr.width_of b in
      Int64.logor (Int64.shift_left (value a) wb) (value b)
    | Zext (_, a) -> value a
    | Sext (_, a) -> sext_to64 (Expr.width_of a) (value a)
    | Fbin (op, a, b) ->
      let x = f64 (value a) and y = f64 (value b) in
      bits
        (match op with
         | Fadd -> x +. y
         | Fsub -> x -. y
         | Fmul -> x *. y
         | Fdiv -> x /. y)
    | Fcmp (op, a, b) ->
      let x = f64 (value a) and y = f64 (value b) in
      let r =
        match op with Feq -> x = y | Flt -> x < y | Fle -> x <= y
      in
      if r then 1L else 0L
    | Fsqrt a -> bits (Float.sqrt (f64 (value a)))
    | Fof_int a -> bits (Int64.to_float (sext_to64 (Expr.width_of a) (value a)))
    | Fto_int a -> Int64.of_float (Float.trunc (f64 (value a)))
  in
  Int64.logand v (Expr.mask (Expr.width_of e))

let const_value = function
  | Expr.Const (v, w) -> Int64.logand v (Expr.mask w)
  | e -> invalid_arg ("Eval.fold: a child is not a constant: " ^ Expr.show e)

(** The constant a node whose children are all constants folds to: one
    direct evaluation, equal to [Const (eval ~memo:false env e, w)]. *)
let fold (e : Expr.t) = Expr.Const (apply const_value e, Expr.width_of e)

(* memoised on physical identity so shared sub-DAGs evaluate once.  The
   table exists only when memoising.  One evaluator (and its memo) may
   serve several terms. *)
module Phys = Expr.Phys

let evaluator ~memo ?default (env : env) : Expr.t -> int64 =
  let cache : int64 Phys.t option =
    if memo then Some (Phys.create 256) else None
  in
  let rec go (e : Expr.t) : int64 =
    match cache with
    | None -> compute e
    | Some cache -> (
      let key = Obj.repr e in
      match Phys.find_opt cache key with
      | Some v -> v
      | None ->
        let v = compute e in
        Phys.replace cache key v;
        v)
  and compute (e : Expr.t) : int64 =
    match e with
    | Var v -> lookup ?default env v
    | _ -> apply go e
  in
  go

(** The value of [e] under [env].  A variable [env] does not bind is
    [default] when one is given, and raises [Unbound] otherwise. *)
let eval ?(memo = true) ?default env e = evaluator ~memo ?default env e

(** Does [env] satisfy the (1-bit) constraint? *)
let holds env e = eval env e = 1L

(** Is [env] a model of [e]: does [e] hold, with every variable bound?
    [Unbound] is the only exception [eval] raises. *)
let satisfies env e = try holds env e with Unbound _ -> false

(** [List.for_all (satisfies env) cs], with one memo over the whole
    list: the sub-DAGs constraints share are evaluated once. *)
let satisfies_all env cs =
  let go = evaluator ~memo:true env in
  try List.for_all (fun c -> go c = 1L) cs with Unbound _ -> false
