(** Tseitin bit-blasting of bitvector terms to CNF over {!Sat}.

    Every term maps to an array of SAT literals, LSB first, memoised on
    physical identity so shared sub-DAGs are encoded once.  Floating-
    point terms are not blastable ({!Unsupported_fp}); the front-end
    falls back to the search solver for those. *)

exception Unsupported_fp

module Phys = Hashtbl.Make (struct
    type t = Obj.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

type t = {
  sat : Sat.t;
  cache : int array Phys.t;
  var_bits : (string, int array) Hashtbl.t;
  true_lit : int;
}

let create () =
  let sat = Sat.create () in
  let tv = Sat.new_var sat in
  let true_lit = Sat.mk_lit tv true in
  Sat.add_clause sat [ true_lit ];
  { sat; cache = Phys.create 1024; var_bits = Hashtbl.create 32; true_lit }

let false_lit t = Sat.lit_neg t.true_lit

let lit_of_bool t b = if b then t.true_lit else false_lit t

let fresh t = Sat.mk_lit (Sat.new_var t.sat) true

(* ---- gates ---- *)

let g_and t a b =
  if a = t.true_lit then b
  else if b = t.true_lit then a
  else if a = false_lit t || b = false_lit t then false_lit t
  else if a = b then a
  else if a = Sat.lit_neg b then false_lit t
  else begin
    let c = fresh t in
    Sat.add_clause t.sat [ Sat.lit_neg a; Sat.lit_neg b; c ];
    Sat.add_clause t.sat [ a; Sat.lit_neg c ];
    Sat.add_clause t.sat [ b; Sat.lit_neg c ];
    c
  end

let g_or t a b = Sat.lit_neg (g_and t (Sat.lit_neg a) (Sat.lit_neg b))

let g_xor t a b =
  if a = false_lit t then b
  else if b = false_lit t then a
  else if a = t.true_lit then Sat.lit_neg b
  else if b = t.true_lit then Sat.lit_neg a
  else if a = b then false_lit t
  else if a = Sat.lit_neg b then t.true_lit
  else begin
    let c = fresh t in
    Sat.add_clause t.sat [ Sat.lit_neg a; Sat.lit_neg b; Sat.lit_neg c ];
    Sat.add_clause t.sat [ a; b; Sat.lit_neg c ];
    Sat.add_clause t.sat [ a; Sat.lit_neg b; c ];
    Sat.add_clause t.sat [ Sat.lit_neg a; b; c ];
    c
  end

(* c = if s then a else b *)
let g_mux t s a b =
  if s = t.true_lit then a
  else if s = false_lit t then b
  else if a = b then a
  else begin
    let c = fresh t in
    Sat.add_clause t.sat [ Sat.lit_neg s; Sat.lit_neg a; c ];
    Sat.add_clause t.sat [ Sat.lit_neg s; a; Sat.lit_neg c ];
    Sat.add_clause t.sat [ s; Sat.lit_neg b; c ];
    Sat.add_clause t.sat [ s; b; Sat.lit_neg c ];
    c
  end

(* full adder: (sum, carry_out) *)
let g_fa t a b cin =
  let sum = g_xor t (g_xor t a b) cin in
  let cout = g_or t (g_and t a b) (g_and t cin (g_xor t a b)) in
  (sum, cout)

(* ---- vectors ---- *)

let const_bits t v w =
  Array.init w (fun i ->
      lit_of_bool t (Int64.logand (Int64.shift_right_logical v i) 1L = 1L))

let add_vec t a b cin0 =
  let w = Array.length a in
  let out = Array.make w (false_lit t) in
  let carry = ref cin0 in
  for i = 0 to w - 1 do
    let s, c = g_fa t a.(i) b.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  (out, !carry)

let neg_vec t a =
  let inv = Array.map Sat.lit_neg a in
  fst (add_vec t inv (const_bits t 0L (Array.length a)) t.true_lit)

let sub_vec t a b =
  (* a - b = a + ~b + 1 *)
  fst (add_vec t a (Array.map Sat.lit_neg b) t.true_lit)

let mul_vec t a b =
  let w = Array.length a in
  let acc = ref (const_bits t 0L w) in
  for i = 0 to w - 1 do
    (* partial product: (a << i) AND b_i *)
    let pp =
      Array.init w (fun j -> if j < i then false_lit t
                     else g_and t a.(j - i) b.(i))
    in
    acc := fst (add_vec t !acc pp (false_lit t))
  done;
  !acc

(* a < b unsigned: borrow out of a - b *)
let ult_vec t a b =
  let w = Array.length a in
  (* carry chain of a + ~b + 1; no borrow <=> carry out = 1 *)
  let carry = ref t.true_lit in
  for i = 0 to w - 1 do
    let bi = Sat.lit_neg b.(i) in
    let c' = g_or t (g_and t a.(i) bi) (g_and t !carry (g_xor t a.(i) bi)) in
    carry := c'
  done;
  Sat.lit_neg !carry

let eq_vec t a b =
  let w = Array.length a in
  let acc = ref t.true_lit in
  for i = 0 to w - 1 do
    acc := g_and t !acc (Sat.lit_neg (g_xor t a.(i) b.(i)))
  done;
  !acc

let slt_vec t a b =
  let w = Array.length a in
  let sa = a.(w - 1) and sb = b.(w - 1) in
  let u = ult_vec t a b in
  (* different signs: a < b iff a negative; same signs: unsigned compare *)
  g_mux t (g_xor t sa sb) sa u

let mux_vec t s a b = Array.init (Array.length a) (fun i -> g_mux t s a.(i) b.(i))

(* barrel shifter over the low 6 amount bits, saturating when the
   amount is >= 64 (SMT-Lib semantics: logical shifts give 0,
   arithmetic right gives sign fill) *)
let shift_vec t dir a amt =
  (* dir: `L logical left, `R logical right, `A arithmetic right *)
  let w = Array.length a in
  let res = ref a in
  let fill = match dir with `A -> a.(w - 1) | _ -> false_lit t in
  let stages = 6 in
  for k = 0 to stages - 1 do
    let s = 1 lsl k in
    let shifted =
      Array.init w (fun i ->
          match dir with
          | `L -> if i - s >= 0 then !res.(i - s) else false_lit t
          | `R | `A -> if i + s < w then !res.(i + s) else fill)
    in
    let sel = if k < Array.length amt then amt.(k) else false_lit t in
    res := mux_vec t sel shifted !res
  done;
  (* any amount bit above the barrel's range saturates the shift *)
  let oversized = ref (false_lit t) in
  for k = stages to Array.length amt - 1 do
    oversized := g_or t !oversized amt.(k)
  done;
  mux_vec t !oversized (Array.make w fill) !res

(* restoring division: returns (quotient, remainder); SMT-Lib
   semantics at zero (q = ones, r = a) emerge from the circuit *)
let divmod_vec t a b =
  let w = Array.length a in
  let q = Array.make w (false_lit t) in
  let r = ref (const_bits t 0L w) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i *)
    let r' = Array.init w (fun j -> if j = 0 then a.(i) else !r.(j - 1)) in
    let ge = Sat.lit_neg (ult_vec t r' b) in
    q.(i) <- ge;
    r := mux_vec t ge (sub_vec t r' b) r'
  done;
  (q, !r)

let sdivmod_vec t a b =
  let w = Array.length a in
  let sa = a.(w - 1) and sb = b.(w - 1) in
  let ua = mux_vec t sa (neg_vec t a) a in
  let ub = mux_vec t sb (neg_vec t b) b in
  let uq, ur = divmod_vec t ua ub in
  let q = mux_vec t (g_xor t sa sb) (neg_vec t uq) uq in
  let r = mux_vec t sa (neg_vec t ur) ur in
  (q, r)

(* ---- terms ---- *)

let rec bits t (e : Expr.t) : int array =
  let key = Obj.repr e in
  match Phys.find_opt t.cache key with
  | Some v -> v
  | None ->
    let v = compute t e in
    Phys.replace t.cache key v;
    v

and compute t (e : Expr.t) : int array =
  match e with
  | Var { vname; width } -> (
      match Hashtbl.find_opt t.var_bits vname with
      | Some bs -> bs
      | None ->
        let bs = Array.init width (fun _ -> fresh t) in
        Hashtbl.replace t.var_bits vname bs;
        bs)
  | Const (v, w) -> const_bits t v w
  | Unop (Neg, a) -> neg_vec t (bits t a)
  | Unop (Not, a) -> Array.map Sat.lit_neg (bits t a)
  | Binop (op, a, b) -> (
      let va = bits t a and vb = bits t b in
      match op with
      | Add -> fst (add_vec t va vb (false_lit t))
      | Sub -> sub_vec t va vb
      | Mul -> mul_vec t va vb
      | Udiv -> fst (divmod_vec t va vb)
      | Urem -> snd (divmod_vec t va vb)
      | Sdiv -> fst (sdivmod_vec t va vb)
      | Srem -> snd (sdivmod_vec t va vb)
      | And -> Array.init (Array.length va) (fun i -> g_and t va.(i) vb.(i))
      | Or -> Array.init (Array.length va) (fun i -> g_or t va.(i) vb.(i))
      | Xor -> Array.init (Array.length va) (fun i -> g_xor t va.(i) vb.(i))
      | Shl -> shift_vec t `L va vb
      | Lshr -> shift_vec t `R va vb
      | Ashr -> shift_vec t `A va vb)
  | Cmp (op, a, b) -> (
      let va = bits t a and vb = bits t b in
      match op with
      | Eq -> [| eq_vec t va vb |]
      | Ult -> [| ult_vec t va vb |]
      | Ule -> [| Sat.lit_neg (ult_vec t vb va) |]
      | Slt -> [| slt_vec t va vb |]
      | Sle -> [| Sat.lit_neg (slt_vec t vb va) |])
  | Ite (c, a, b) ->
    let vc = bits t c in
    mux_vec t vc.(0) (bits t a) (bits t b)
  | Extract (hi, lo, a) ->
    let va = bits t a in
    Array.sub va lo (hi - lo + 1)
  | Concat (a, b) ->
    let va = bits t a and vb = bits t b in
    Array.append vb va
  | Zext (w, a) ->
    let va = bits t a in
    Array.init w (fun i -> if i < Array.length va then va.(i) else false_lit t)
  | Sext (w, a) ->
    let va = bits t a in
    let n = Array.length va in
    Array.init w (fun i -> if i < n then va.(i) else va.(n - 1))
  | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ -> raise Unsupported_fp

(** Assert a 1-bit term. *)
let assert_true t e =
  let v = bits t e in
  Sat.add_clause t.sat [ v.(0) ]

(** Encode a 1-bit term and return its literal *without* asserting it.
    Incremental sessions pass these literals as assumptions so an
    assertion can be popped while its CNF encoding (and any clauses
    learnt from it) stay behind for reuse. *)
let lit_of t e = (bits t e).(0)

(** Clear any assignment left by a previous [solve] — required before
    encoding new terms into a solver that answered Sat. *)
let reset t = Sat.reset_to_root t.sat

(** Distinct term nodes encoded so far (the per-session memo size). *)
let num_nodes t = Phys.length t.cache

let solve ?conflict_budget ?meter ?assumptions t =
  Sat.solve ?conflict_budget ?meter ?assumptions t.sat

(** Extract the model for the named variables after [Sat] answered. *)
let model t : (string * int64) list =
  Hashtbl.fold
    (fun name bs acc ->
       let v = ref 0L in
       Array.iteri
         (fun i l ->
            let b =
              (* unassigned vars default to false *)
              let var = Sat.lit_var l in
              let value = Sat.model_value t.sat var in
              if Sat.lit_sign l then value else not value
            in
            if b then v := Int64.logor !v (Int64.shift_left 1L i))
         bs;
       (name, !v) :: acc)
    t.var_bits []

let stats t = (Sat.num_vars t.sat, Sat.num_clauses t.sat, Sat.num_conflicts t.sat)
