(** Quantifier-free bitvector terms (widths 1..64), with an IEEE-754
    double extension interpreted over 64-bit vectors.

    Booleans are 1-bit vectors, which keeps the language uniform: a
    path predicate is just a [Bv 1] term.  Memory reads with symbolic
    addresses are lowered to [Ite] chains by the engine's memory model
    before they reach the solver, so no array sort is needed — the
    same design choice Angr's default memory model makes. *)

type var = { vname : string; width : int }
[@@deriving show { with_path = false }, eq, ord]

type unop = Neg | Not [@@deriving show { with_path = false }, eq, ord]

type binop =
  | Add | Sub | Mul | Udiv | Urem | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr
[@@deriving show { with_path = false }, eq, ord]

type cmpop = Eq | Ult | Ule | Slt | Sle
[@@deriving show { with_path = false }, eq, ord]

(** Scalar-double operations over 64-bit vectors (IEEE-754 binary64). *)
type fbinop = Fadd | Fsub | Fmul | Fdiv
[@@deriving show { with_path = false }, eq, ord]

type fcmpop = Feq | Flt | Fle [@@deriving show { with_path = false }, eq, ord]

type t =
  | Var of var
  | Const of int64 * int              (** value (zero-extended), width *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Cmp of cmpop * t * t              (** result: Bv 1 *)
  | Ite of t * t * t                  (** cond: Bv 1 *)
  | Extract of int * int * t          (** [Extract (hi, lo, e)] inclusive *)
  | Concat of t * t                   (** high ++ low *)
  | Zext of int * t                   (** to the given width *)
  | Sext of int * t
  | Fbin of fbinop * t * t            (** double arithmetic on Bv 64 *)
  | Fcmp of fcmpop * t * t            (** double compare; Bv 1 *)
  | Fsqrt of t
  | Fof_int of t                      (** cvtsi2sd *)
  | Fto_int of t                      (** cvttsd2si *)
[@@deriving show { with_path = false }, eq, ord]

let mask width =
  if width >= 64 then -1L
  else Int64.sub (Int64.shift_left 1L width) 1L

let rec width_of = function
  | Var v -> v.width
  | Const (_, w) -> w
  | Unop (_, e) -> width_of e
  | Binop (_, a, _) -> width_of a
  | Cmp _ | Fcmp _ -> 1
  | Ite (_, a, _) -> width_of a
  | Extract (hi, lo, _) -> hi - lo + 1
  | Concat (a, b) -> width_of a + width_of b
  | Zext (w, _) | Sext (w, _) -> w
  | Fbin _ | Fsqrt _ | Fof_int _ -> 64
  | Fto_int _ -> 64

(** Hash table keyed on physical identity: structurally equal but
    physically distinct nodes are distinct keys.  Every memo over terms
    ([Eval], [Simplify], [Blast], [Session]) uses it. *)
module Phys = Hashtbl.Make (struct
    type t = Obj.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

(** A fresh visited set: [visit e] is [true] the first time it sees
    (physically) [e], [false] after. *)
let visitor () =
  let seen : unit Phys.t = Phys.create 256 in
  fun (e : t) ->
    let k = Obj.repr e in
    if Phys.mem seen k then false
    else begin
      Phys.add seen k ();
      true
    end

(* [f] on every node reachable from [es], each physically distinct node
   once, pre-order and left to right (a naive tree recursion is
   exponential on circuit-like terms).  [f] stops the walk by raising. *)
let iter_dag f es =
  let visit = visitor () in
  let rec go = function
    | [] -> ()
    | e :: rest when not (visit e) -> go rest
    | e :: rest ->
      f e;
      go
        (match e with
         | Var _ | Const _ -> rest
         | Unop (_, a) | Extract (_, _, a) | Zext (_, a) | Sext (_, a)
         | Fsqrt a | Fof_int a | Fto_int a -> a :: rest
         | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b)
         | Fbin (_, a, b) | Fcmp (_, a, b) -> a :: b :: rest
         | Ite (c, a, b) -> c :: a :: b :: rest)
  in
  go es

(** Does any term of [es] use a floating-point operation?  One walk over
    the union of their DAGs. *)
let exists_fp es =
  match
    iter_dag
      (function
        | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ -> raise Exit
        | _ -> ())
      es
  with
  | () -> false
  | exception Exit -> true

let contains_fp e = exists_fp [ e ]

(** Free variables of a constraint list, de-duplicated by name across
    the whole list in one walk (first-occurrence order).  This is the
    single var-collection used by {!Solver.all_vars}, the FP search and
    {!Session}. *)
let vars_of_list es =
  let names = Hashtbl.create 16 in
  let acc = ref [] in
  iter_dag
    (function
      | Var v when not (Hashtbl.mem names v.vname) ->
        Hashtbl.replace names v.vname ();
        acc := v :: !acc
      | _ -> ())
    es;
  List.rev !acc

let vars e = vars_of_list [ e ]

(** Bit-blast weight of one node: multiplications and divisions are
    quadratic in width, so a node count alone badly underestimates
    crypto-style terms. *)
let blast_weight = function
  | Binop ((Mul | Udiv | Urem | Sdiv | Srem), a, _) ->
    let w = width_of a in
    3 * w * w
  | Binop ((Shl | Lshr | Ashr), a, _) -> 24 * width_of a
  | Binop (_, a, _) -> 5 * width_of a
  | Cmp (_, a, _) -> 3 * width_of a
  | Ite (_, a, _) -> 4 * width_of a
  | Unop (Neg, a) -> 5 * width_of a
  | _ -> 1

(** Estimated CNF size if this term were bit-blasted: the sum of
    {!blast_weight} over its distinct nodes.  The traversal itself is
    budgeted — walking huge DAGs must not cost more than the solving it
    guards — so the result is exact up to [cap] and [node_budget]
    nodes; beyond either it saturates at [cap + 1] ([max_int] when
    [cap] is [max_int]), so [blast_cost ~cap e > cap] tests "too
    large". *)
let blast_cost ?(cap = max_int) ?(node_budget = 50_000) e =
  let cost = ref 0 and visited = ref 0 in
  match
    iter_dag
      (fun e ->
         incr visited;
         cost := !cost + blast_weight e;
         if !cost > cap || !visited > node_budget then raise Exit)
      [ e ]
  with
  | () -> !cost
  | exception Exit -> if cap = max_int then cap else cap + 1

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let var ?(width = 64) vname = Var { vname; width }
let const ?(width = 64) v = Const (Int64.logand v (mask width), width)
let const_int ?(width = 64) v = const ~width (Int64.of_int v)
let tru = Const (1L, 1)
let fls = Const (0L, 1)

let is_true = function Const (1L, 1) -> true | _ -> false
let is_false = function Const (0L, 1) -> true | _ -> false

let not_ = function
  | Const (v, 1) -> if v = 1L then fls else tru
  | Unop (Not, e) when width_of e = 1 -> e
  | e -> Unop (Not, e)

let and_ a b =
  if is_false a || is_false b then fls
  else if is_true a then b
  else if is_true b then a
  else Binop (And, a, b)

let or_ a b =
  if is_true a || is_true b then tru
  else if is_false a then b
  else if is_false b then a
  else Binop (Or, a, b)

let conj = function [] -> tru | e :: es -> List.fold_left and_ e es

let eq a b = Cmp (Eq, a, b)
let ne a b = not_ (eq a b)

let ite c a b = if is_true c then a else if is_false c then b else Ite (c, a, b)
