(** Constraint-model printers: SMT-Lib 2 (what Triton/Angr emit) and a
    CVC-flavoured syntax (what BAP emits).  Useful for debugging and
    for the dumps the evaluation tools produce. *)

let bv_lit v w = Printf.sprintf "(_ bv%Lu %d)" (Int64.logand v (Expr.mask w)) w

let rec smtlib (e : Expr.t) : string =
  let bin op a b = Printf.sprintf "(%s %s %s)" op (smtlib a) (smtlib b) in
  match e with
  | Var v -> v.vname
  | Const (v, w) -> bv_lit v w
  | Unop (Neg, a) -> Printf.sprintf "(bvneg %s)" (smtlib a)
  | Unop (Not, a) -> Printf.sprintf "(bvnot %s)" (smtlib a)
  | Binop (op, a, b) ->
    let name =
      match op with
      | Add -> "bvadd" | Sub -> "bvsub" | Mul -> "bvmul"
      | Udiv -> "bvudiv" | Urem -> "bvurem" | Sdiv -> "bvsdiv"
      | Srem -> "bvsrem" | And -> "bvand" | Or -> "bvor" | Xor -> "bvxor"
      | Shl -> "bvshl" | Lshr -> "bvlshr" | Ashr -> "bvashr"
    in
    bin name a b
  | Cmp (op, a, b) ->
    let name =
      match op with
      | Eq -> "=" | Ult -> "bvult" | Ule -> "bvule" | Slt -> "bvslt"
      | Sle -> "bvsle"
    in
    (* comparisons are 1-bit vectors in our language; wrap back *)
    Printf.sprintf "(ite %s (_ bv1 1) (_ bv0 1))" (bin name a b)
  | Ite (c, a, b) ->
    Printf.sprintf "(ite (= %s (_ bv1 1)) %s %s)" (smtlib c) (smtlib a)
      (smtlib b)
  | Extract (hi, lo, a) ->
    Printf.sprintf "((_ extract %d %d) %s)" hi lo (smtlib a)
  | Concat (a, b) -> bin "concat" a b
  | Zext (w, a) ->
    Printf.sprintf "((_ zero_extend %d) %s)" (w - Expr.width_of a) (smtlib a)
  | Sext (w, a) ->
    Printf.sprintf "((_ sign_extend %d) %s)" (w - Expr.width_of a) (smtlib a)
  | Fbin (op, a, b) ->
    let name =
      match op with
      | Fadd -> "fp.add" | Fsub -> "fp.sub" | Fmul -> "fp.mul"
      | Fdiv -> "fp.div"
    in
    Printf.sprintf "(%s RNE %s %s)" name (smtlib a) (smtlib b)
  | Fcmp (op, a, b) ->
    let name =
      match op with Feq -> "fp.eq" | Flt -> "fp.lt" | Fle -> "fp.leq"
    in
    Printf.sprintf "(ite (%s %s %s) (_ bv1 1) (_ bv0 1))" name (smtlib a)
      (smtlib b)
  | Fsqrt a -> Printf.sprintf "(fp.sqrt RNE %s)" (smtlib a)
  | Fof_int a -> Printf.sprintf "((_ to_fp 11 53) RNE %s)" (smtlib a)
  | Fto_int a -> Printf.sprintf "((_ fp.to_sbv 64) RTZ %s)" (smtlib a)

(** A full (set-logic ...) (declare-const ...) (assert ...) script. *)
let smtlib_script (constraints : Expr.t list) : string =
  let buf = Buffer.create 1024 in
  let logic =
    if Expr.exists_fp constraints then "QF_FPBV" else "QF_BV"
  in
  Buffer.add_string buf (Printf.sprintf "(set-logic %s)\n" logic);
  List.iter
    (fun (v : Expr.var) ->
       Buffer.add_string buf
         (Printf.sprintf "(declare-const %s (_ BitVec %d))\n" v.vname v.width))
    (Solver.all_vars constraints);
  List.iter
    (fun c ->
       Buffer.add_string buf
         (Printf.sprintf "(assert (= %s (_ bv1 1)))\n" (smtlib c)))
    constraints;
  Buffer.add_string buf "(check-sat)\n(get-model)\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* CVC flavour (BAP's default)                                         *)
(* ------------------------------------------------------------------ *)

let rec cvc (e : Expr.t) : string =
  let bin op a b = Printf.sprintf "%s(%s, %s)" op (cvc a) (cvc b) in
  match e with
  | Var v -> v.vname
  | Const (v, w) -> Printf.sprintf "0bin%s" (to_bin v w)
  | Unop (Neg, a) -> Printf.sprintf "BVUMINUS(%s)" (cvc a)
  | Unop (Not, a) -> Printf.sprintf "~(%s)" (cvc a)
  | Binop (op, a, b) ->
    let name =
      match op with
      | Add -> "BVPLUS" | Sub -> "BVSUB" | Mul -> "BVMULT"
      | Udiv -> "BVDIV" | Urem -> "BVMOD" | Sdiv -> "SBVDIV"
      | Srem -> "SBVREM" | And -> "BVAND" | Or -> "BVOR" | Xor -> "BVXOR"
      | Shl -> "BVSHL" | Lshr -> "BVLSHR" | Ashr -> "BVASHR"
    in
    bin name a b
  | Cmp (op, a, b) ->
    let name =
      match op with
      | Eq -> "=" | Ult -> "BVLT" | Ule -> "BVLE" | Slt -> "SBVLT"
      | Sle -> "SBVLE"
    in
    Printf.sprintf "IF %s(%s, %s) THEN 0bin1 ELSE 0bin0 ENDIF" name (cvc a)
      (cvc b)
  | Ite (c, a, b) ->
    Printf.sprintf "IF %s = 0bin1 THEN %s ELSE %s ENDIF" (cvc c) (cvc a)
      (cvc b)
  | Extract (hi, lo, a) -> Printf.sprintf "(%s)[%d:%d]" (cvc a) hi lo
  | Concat (a, b) -> Printf.sprintf "(%s @ %s)" (cvc a) (cvc b)
  | Zext (w, a) ->
    Printf.sprintf "(0bin%s @ %s)"
      (String.make (w - Expr.width_of a) '0')
      (cvc a)
  | Sext (w, a) -> Printf.sprintf "BVSX(%s, %d)" (cvc a) w
  | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ ->
    (* CVC/STP has no FP theory: exactly BAP's limitation *)
    "UNSUPPORTED_FP"

and to_bin v w =
  String.init w (fun i ->
      if Int64.logand (Int64.shift_right_logical v (w - 1 - i)) 1L = 1L then '1'
      else '0')

let cvc_script (constraints : Expr.t list) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (v : Expr.var) ->
       Buffer.add_string buf
         (Printf.sprintf "%s : BITVECTOR(%d);\n" v.vname v.width))
    (Solver.all_vars constraints);
  List.iter
    (fun c ->
       Buffer.add_string buf (Printf.sprintf "ASSERT %s = 0bin1;\n" (cvc c)))
    constraints;
  Buffer.add_string buf "QUERY FALSE;\nCOUNTEREXAMPLE;\n";
  Buffer.contents buf
