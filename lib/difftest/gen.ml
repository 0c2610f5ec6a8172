(** Typed random generators for the differential-testing harness.

    Five case families, one per oracle:
    - 1-bit SMT constraints over a handful of narrow bitvector
      variables (small enough that satisfiability is decidable by
      brute-force enumeration);
    - incremental-session scripts of push / pop / assert / check
      operations over the same constraint language;
    - path predicates of constant-bound guards over narrow arithmetic,
      for the interval pass {!Smt.Bounds};
    - straight-line VX64 programs (integer ALU, memory, stack and
      scalar-double instructions — everything except control flow);
    - bomb-style guarded branches: an argv-byte transformation chain
      ending in a compare-and-jump guard.

    Everything is a {!QCheck2.Gen} generator driven through an explicit
    [Random.State] derived from a case seed, so every case is
    reproducible from its integer seed alone. *)

module E = Smt.Expr
module G = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Constraint expressions                                              *)
(* ------------------------------------------------------------------ *)

(** Variable pool of a constraint case.  Total bits stay small (<= 12)
    so the brute-force oracle enumerates at most 4096 assignments. *)
let gen_vars : E.var list G.t =
  let open G in
  let* n = int_range 1 3 in
  let rec pick k budget acc =
    if k = 0 || budget < 2 then return (List.rev acc)
    else
      let* w = int_range 2 (min 6 budget) in
      pick (k - 1) (budget - w)
        ({ E.vname = Printf.sprintf "v%d" (List.length acc); width = w } :: acc)
  in
  pick n 12 []

let gen_binop : E.binop G.t =
  G.oneofl
    [ E.Add; Sub; Mul; Udiv; Urem; Sdiv; Srem; And; Or; Xor; Shl; Lshr; Ashr ]

let gen_cmpop : E.cmpop G.t = G.oneofl [ E.Eq; Ult; Ule; Slt; Sle ]

(* a bitvector term of exactly [w] bits over [vars] *)
let rec gen_bv (vars : E.var list) w size : E.t G.t =
  let open G in
  let leaf =
    let var_leaves =
      List.filter_map
        (fun (v : E.var) -> if v.width = w then Some (E.Var v) else None)
        vars
    in
    let const =
      let+ bits = int_bound (Int64.to_int (E.mask w)) in
      E.Const (Int64.of_int bits, w)
    in
    if var_leaves = [] then const
    else oneof [ const; oneofl var_leaves ]
  in
  if size <= 0 then leaf
  else
    let sub = gen_bv vars w (size / 2) in
    let nodes =
      [ (3, leaf);
        ( 4,
          let* op = gen_binop and* a = sub and* b = sub in
          return (E.Binop (op, a, b)) );
        ( 1,
          let* op = oneofl [ E.Neg; E.Not ] and* a = sub in
          return (E.Unop (op, a)) );
        ( 1,
          let* c = gen_bool vars (size / 2) and* a = sub and* b = sub in
          return (E.Ite (c, a, b)) ) ]
      @ (if w < 8 then
           [ ( 1,
               let* ext = int_range 1 (8 - w) in
               let* a = gen_bv vars (w + ext) (size / 2) in
               let* lo = int_range 0 ext in
               return (E.Extract (lo + w - 1, lo, a)) ) ]
         else [])
      @ (if w >= 2 then
           [ ( 1,
               let* wa = int_range 1 (w - 1) in
               let* a = gen_bv vars wa (size / 2)
               and* b = gen_bv vars (w - wa) (size / 2) in
               return (E.Concat (a, b)) );
             ( 1,
               let* ws = int_range 1 (w - 1) in
               let* a = gen_bv vars ws (size / 2) in
               let+ signed = bool in
               if signed then E.Sext (w, a) else E.Zext (w, a) ) ]
         else [])
    in
    frequency nodes

(* a 1-bit condition over [vars] *)
and gen_bool (vars : E.var list) size : E.t G.t =
  let open G in
  let cmp =
    let* (v : E.var) = oneofl vars in
    let* op = gen_cmpop in
    let* a = gen_bv vars v.width (size / 2)
    and* b = gen_bv vars v.width (size / 2) in
    return (E.Cmp (op, a, b))
  in
  if size <= 0 then cmp
  else
    let sub = gen_bool vars (size / 2) in
    frequency
      [ (4, cmp);
        ( 2,
          let* op = oneofl [ E.And; E.Or; E.Xor ] and* a = sub and* b = sub in
          return (E.Binop (op, a, b)) );
        ( 1,
          let+ a = sub in
          E.Unop (E.Not, a) ) ]

(** One blast-oracle case: a 1-bit constraint over a small var pool. *)
let gen_constraint : E.t G.t =
  let open G in
  let* vars = gen_vars in
  let* size = int_range 2 12 in
  gen_bool vars size

(* ------------------------------------------------------------------ *)
(* Session scripts                                                     *)
(* ------------------------------------------------------------------ *)

type script_op = Push | Pop | Assert of E.t | Check

type script = { ops : script_op list }

(** A push/pop/assert/check script over one shared variable pool.
    Pops may outnumber pushes; the oracle treats an underflowing pop
    as a no-op so scripts stay valid under list shrinking. *)
let gen_script : script G.t =
  let open G in
  let* vars = gen_vars in
  let gen_op =
    frequency
      [ (2, return Push);
        (1, return Pop);
        ( 4,
          let* size = int_range 1 6 in
          let+ c = gen_bool vars size in
          Assert c );
        (3, return Check) ]
  in
  let* ops = list_size (int_range 3 20) gen_op in
  (* every script decides something at least once at full depth *)
  return { ops = ops @ [ Check ] }

(* ------------------------------------------------------------------ *)
(* Bounded-arithmetic paths                                            *)
(* ------------------------------------------------------------------ *)

(* a constant that mostly sits on, or one off, a power of two: where
   an off-by-one bound changes how many bits a term keeps *)
let gen_bound_const w : int64 G.t =
  let open G in
  let m = Int64.to_int (E.mask w) in
  let near =
    let* k = int_range 0 (w - 1) and* d = int_range (-1) 1 in
    return (max 0 (min m ((1 lsl k) + d)))
  in
  let+ v = frequency [ (3, near); (1, int_bound m) ] in
  Int64.of_int v

(* an arithmetic term of [w] bits over zero-extended narrow variables
   and the [shared] terms: the shapes the bounds pass has transfer
   rules for *)
let rec gen_arith (vars : E.var list) shared w size : E.t G.t =
  let open G in
  let leaf =
    frequency
      ([ ( 2,
           let+ (v : E.var) = oneofl vars in
           E.Zext (w, E.Var v) );
         ( 1,
           let+ c = gen_bound_const w in
           E.Const (c, w) ) ]
       @ if shared = [] then [] else [ (6, oneofl shared) ])
  in
  if size <= 0 then leaf
  else
    let sub = gen_arith vars shared w (size / 2) in
    frequency
      [ (2, leaf);
        ( 6,
          let* op = oneofl [ E.Add; E.Sub; E.Mul; E.Mul ] and* a = sub
          and* b = sub in
          return (E.Binop (op, a, b)) );
        ( 1,
          let* a = sub and* m = gen_bound_const w in
          return (E.Binop (E.And, a, E.Const (m, w))) );
        ( 1,
          let* a = sub and* k = int_range 1 (w - 1) in
          return (E.Binop (E.Lshr, a, E.const_int ~width:w k)) );
        ( 1,
          let* c = gen_guard vars shared w (size / 2) and* a = sub
          and* b = sub in
          return (E.Ite (c, a, b)) );
        ( 1,
          let* k = int_range 1 (w - 1) and* a = sub in
          return (E.Zext (w, E.Extract (k - 1, 0, a))) ) ]

(* a comparison of a term against a constant, in the shapes lifted
   branches take: [ult]/[ule]/[eq] either way round, negated or not,
   and the [jbe] disjunction [t < c \/ t - c = 0] *)
and gen_guard (vars : E.var list) shared w size : E.t G.t =
  let open G in
  let* t = gen_arith vars shared w size in
  guard_on t w

and guard_on t w : E.t G.t =
  let open G in
  let* c = gen_bound_const w in
  let c = E.Const (c, w) in
  let* g =
    oneof
      [ (let+ op = oneofl [ E.Ult; E.Ule; E.Eq ] in
         E.Cmp (op, t, c));
        (let+ op = oneofl [ E.Ult; E.Ule ] in
         E.Cmp (op, c, t));
        return (E.eq (E.Binop (E.Sub, t, c)) (E.Const (0L, w)));
        return
          (E.not_
             (E.and_
                (E.not_ (E.Cmp (E.Ult, t, c)))
                (E.not_ (E.eq (E.Binop (E.Sub, t, c)) (E.Const (0L, w)))))) ]
  in
  let+ negate = bool in
  if negate then E.not_ g else g

(** A path predicate for the bounds oracle, shaped like atoi's: guards
    on a few shared terms that can wrap (so only a guard bounds them),
    then guards on products over those terms, where a bound from an
    earlier guard narrows the arithmetic; random guards mixed in.
    Terms are 6 to 8 bits wide and the variables 3 to 6, at most 12
    bits in all, so brute force stays cheap and a term takes most of
    its values. *)
let gen_bounded_path : E.t list G.t =
  let open G in
  let* vars =
    let* n = int_range 1 2 in
    let+ ws = list_repeat n (int_range 3 6) in
    List.mapi (fun i width -> { E.vname = Printf.sprintf "v%d" i; width }) ws
  in
  let* w = int_range 6 8 in
  let const =
    let+ c = gen_bound_const w in
    E.Const (c, w)
  in
  let* shared =
    list_size (int_range 1 2)
      (let* op = oneofl [ E.Add; E.Sub; E.Mul ] and* (v : E.var) = oneofl vars
       and* c = int_bound (Int64.to_int (E.mask w)) in
       return (E.Binop (op, E.Zext (w, E.Var v), E.const_int ~width:w c)))
  in
  (* an upper bound a power of two: the bit count an off-by-one moves *)
  let upper t =
    let* k = int_range 1 (w - 2) in
    let p = Int64.shift_left 1L k in
    oneofl
      [ E.Cmp (E.Ule, t, E.Const (p, w));
        E.Cmp (E.Ult, t, E.Const (Int64.succ p, w));
        E.not_ (E.Cmp (E.Ult, E.Const (p, w), t)) ]
  in
  let on_shared =
    let* t = oneofl shared in
    frequency [ (3, upper t); (1, guard_on t w) ]
  in
  let product =
    let* t = oneofl shared and* k = const and* rest = gen_arith vars shared w 1 in
    let* t =
      oneofl [ E.Binop (E.Mul, t, k); E.Binop (E.Add, E.Binop (E.Mul, t, k), rest) ]
    in
    let* op = oneofl [ E.Ult; E.Ule ]
    and* c = int_bound (Int64.to_int (E.mask w)) in
    oneof [ return (E.Cmp (op, t, E.const_int ~width:w c)); guard_on t w ]
  in
  list_size (int_range 2 6)
    (frequency
       [ (2, on_shared);
         (2, product);
         ( 1,
           let* size = int_range 1 4 in
           gen_guard vars shared w size ) ])

(* ------------------------------------------------------------------ *)
(* Straight-line VX64 programs                                         *)
(* ------------------------------------------------------------------ *)

(** Scratch data region all generated memory operands fall inside. *)
let scratch_base = 0x5000L

let scratch_len = 0x200

(** Initial stack pointer for generated programs. *)
let stack_base = 0x7000_0000L

type prog = {
  insns : Isa.Insn.t list;
  init_regs : (Isa.Reg.t * int64) list;  (** RAX..RDI work registers *)
  init_xmm : (Isa.Reg.xmm * int64) list; (** double bit patterns *)
  init_mem : int list;                   (** scratch bytes, from [scratch_base] *)
}

let work_regs = [ Isa.Reg.RAX; RBX; RCX; RDX; RSI; RDI ]

let gen_width : Isa.Insn.width G.t = G.oneofl [ Isa.Insn.W8; W16; W32; W64 ]

let gen_cond : Isa.Insn.cond G.t =
  G.oneofl
    [ Isa.Insn.E; NE; L; LE; G; GE; B; BE; A; AE; S; NS; O; NO; P; NP ]

(* base R8 (pinned to [scratch_base]) + optional index R9 (pinned to a
   small count) keeps every effective address inside the scratch
   region regardless of what the program does to the work registers *)
let gen_mem : Isa.Insn.mem G.t =
  let open G in
  let* disp = int_bound 0x80 in
  let* indexed = bool in
  if indexed then
    let+ scale = oneofl [ 1; 2; 4; 8 ] in
    Isa.Insn.mem ~base:Isa.Reg.R8 ~index:Isa.Reg.R9 ~scale
      ~disp:(Int64.of_int disp) ()
  else return (Isa.Insn.mem ~base:Isa.Reg.R8 ~disp:(Int64.of_int disp) ())

let gen_reg : Isa.Reg.t G.t = G.oneofl work_regs

let gen_operand : Isa.Insn.operand G.t =
  let open G in
  frequency
    [ (4, map (fun r -> Isa.Insn.Reg r) gen_reg);
      (2, map (fun v -> Isa.Insn.Imm (Int64.of_int (v - 0x8000))) (int_bound 0xffff));
      (2, map (fun m -> Isa.Insn.Mem m) gen_mem) ]

let gen_dst : Isa.Insn.operand G.t =
  let open G in
  frequency
    [ (4, map (fun r -> Isa.Insn.Reg r) gen_reg);
      (1, map (fun m -> Isa.Insn.Mem m) gen_mem) ]

let gen_xmm : Isa.Reg.xmm G.t =
  G.oneofl [ Isa.Reg.XMM0; XMM1; XMM2; XMM3 ]

let gen_xsrc : Isa.Insn.xsrc G.t =
  let open G in
  frequency
    [ (3, map (fun x -> Isa.Insn.Xreg x) gen_xmm);
      (1, map (fun m -> Isa.Insn.Xmem m) gen_mem) ]

let gen_insn : Isa.Insn.t G.t =
  let open G in
  let open Isa.Insn in
  frequency
    [ ( 5,
        let* w = gen_width and* d = gen_dst and* s = gen_operand in
        return (Mov (w, d, s)) );
      ( 2,
        let* dw = oneofl [ W16; W32; W64 ] and* d = gen_reg in
        let* sw = oneofl [ W8; W16 ] and* s = gen_operand in
        let+ signed = bool in
        if signed then Movsx (dw, d, sw, s) else Movzx (dw, d, sw, s) );
      ( 1,
        let* d = gen_reg and* m = gen_mem in
        return (Lea (d, m)) );
      ( 8,
        let* op = oneofl [ Add; Sub; And; Or; Xor; Imul ] in
        let* w = gen_width and* d = gen_dst and* s = gen_operand in
        return (Alu (op, w, d, s)) );
      ( 3,
        (* shift amounts come from an immediate so they stay small *)
        let* op = oneofl [ Shl; Shr; Sar ] in
        let* w = gen_width and* d = gen_dst and* amt = int_bound 70 in
        return (Alu (op, w, d, Imm (Int64.of_int amt))) );
      ( 1,
        let* w = gen_width and* o = gen_dst in
        let+ neg = bool in
        if neg then Neg (w, o) else Not (w, o) );
      ( 1,
        let* w = gen_width and* o = gen_operand in
        return (Mul (w, o)) );
      ( 1,
        (* W64 excluded: OCaml's Int64.div traps on min_int / -1, the
           one 64-bit case the host cannot mirror *)
        let* w = oneofl [ W8; W16; W32 ] and* o = gen_operand in
        return (Idiv (w, o)) );
      ( 3,
        let* w = gen_width and* a = gen_dst and* b = gen_operand in
        let+ is_test = bool in
        if is_test then Test (w, a, b) else Cmp (w, a, b) );
      ( 2,
        let* c = gen_cond and* o = gen_dst in
        return (Setcc (c, o)) );
      ( 2,
        let* c = gen_cond and* d = gen_reg and* s = gen_operand in
        return (Cmovcc (c, d, s)) );
      ( 1,
        let* o = gen_operand in
        return (Push o) );
      ( 1,
        let* r = gen_reg in
        return (Pop (Reg r)) );
      ( 1,
        let* x = gen_xmm and* o = gen_operand in
        return (Cvtsi2sd (x, o)) );
      ( 1,
        let* x = gen_xmm and* o = gen_operand in
        return (Movq_xr (x, o)) );
      ( 1,
        let* o = gen_dst and* x = gen_xmm in
        return (Movq_rx (o, x)) );
      ( 1,
        let* f = oneofl [ Addsd; Subsd; Mulsd; Divsd; Sqrtsd ] in
        let* x = gen_xmm and* s = gen_xsrc in
        return (Farith (f, x, s)) );
      ( 1,
        let* x = gen_xmm and* s = gen_xsrc in
        return (Ucomisd (x, s)) );
      ( 1,
        let* x = gen_xmm and* s = gen_xsrc in
        return (Movsd (x, s)) ) ]

let gen_prog : prog G.t =
  let open G in
  let* insns = list_size (int_range 1 25) gen_insn in
  let* init_regs =
    flatten_l
      (List.map
         (fun r ->
            let+ v = int_bound 0xffffff in
            (* spread values across the signed/unsigned boundary *)
            (r, Int64.of_int ((v * 0x41c64e6d) land 0xffffffff)))
         work_regs)
  in
  let* init_xmm =
    flatten_l
      (List.map
         (fun x ->
            let+ v = int_bound 4000 in
            (x, Int64.bits_of_float (float_of_int (v - 2000) /. 8.0)))
         [ Isa.Reg.XMM0; XMM1; XMM2; XMM3 ])
  in
  let+ init_mem = list_repeat scratch_len (int_bound 0xff) in
  { insns; init_regs; init_xmm; init_mem }

(* ------------------------------------------------------------------ *)
(* Guarded branches (bomb-style)                                       *)
(* ------------------------------------------------------------------ *)

type guard_op =
  | Gadd of int
  | Gsub of int
  | Gxor of int
  | Gand of int   (** nonzero mask: may make the guard unsatisfiable *)
  | Gimul of int  (** odd multiplier *)
  | Gshl of int   (** 1..4 *)

type flip = {
  g_ops : guard_op list;
  g_target : int64;   (** compare value of the final guard *)
  g_decoy : char;     (** the seed input byte *)
}

(** Apply the transformation chain to a byte, exactly as the generated
    program does (64-bit arithmetic on a zero-extended byte). *)
let apply_ops ops (b : int) : int64 =
  List.fold_left
    (fun acc op ->
       match op with
       | Gadd k -> Int64.add acc (Int64.of_int k)
       | Gsub k -> Int64.sub acc (Int64.of_int k)
       | Gxor k -> Int64.logxor acc (Int64.of_int k)
       | Gand k -> Int64.logand acc (Int64.of_int k)
       | Gimul k -> Int64.mul acc (Int64.of_int k)
       | Gshl k -> Int64.shift_left acc k)
    (Int64.of_int b) ops

let gen_guard_op : guard_op G.t =
  let open G in
  frequency
    [ (3, map (fun k -> Gadd (k + 1)) (int_bound 200));
      (3, map (fun k -> Gsub (k + 1)) (int_bound 200));
      (3, map (fun k -> Gxor (k + 1)) (int_bound 0xff));
      (1, map (fun k -> Gand ((k lor 1) land 0xff)) (int_bound 0xfe));
      (2, map (fun k -> Gimul ((2 * k) + 3)) (int_bound 20));
      (1, map (fun k -> Gshl (k + 1)) (int_bound 3)) ]

let gen_flip : flip G.t =
  let open G in
  let* g_ops = list_size (int_range 1 4) gen_guard_op in
  let* decoy_i = int_range 0x21 0x7e in
  let g_decoy = Char.chr decoy_i in
  (* half the cases aim at a reachable value (guard satisfiable by
     construction), half at an arbitrary one (often unsatisfiable) *)
  let* reachable = bool in
  let+ g_target =
    if reachable then
      let+ b = int_range 1 255 in
      apply_ops g_ops b
    else
      let+ t = int_bound 1024 in
      Int64.of_int t
  in
  { g_ops; g_target; g_decoy }

(** Lower a flip case to a linkable object: argv prologue, the
    transformation chain on the first input byte, then the guard. *)
let flip_body (f : flip) : Asm.Ast.item list =
  let open Asm.Ast.Dsl in
  let xform op =
    match op with
    | Gadd k -> add rax (imm k)
    | Gsub k -> sub rax (imm k)
    | Gxor k -> xor rax (imm k)
    | Gand k -> and_ rax (imm k)
    | Gimul k -> imul rax (imm k)
    | Gshl k -> shl rax (imm k)
  in
  [ movzx rax ~sw:Isa.Insn.W8 (mreg Isa.Reg.RBX) ]
  @ List.map xform f.g_ops
  @ [ cmp rax (imm64 f.g_target); jne ".defused"; call "bomb";
      jmp ".defused" ]

let flip_image (f : flip) : Asm.Image.t =
  let obj = Bombs.Common.main_with_argv (flip_body f) in
  Libc.Runtime.link_with_libs (Asm.Ast.append obj Bombs.Common.bomb_obj)

(* ------------------------------------------------------------------ *)
(* Seed-driven generation                                              *)
(* ------------------------------------------------------------------ *)

(** Generate a case from an integer seed — the only entry point the
    harness and the corpus replayer use, so a case is fully determined
    by (oracle, seed). *)
let of_seed (g : 'a G.t) (seed : int) : 'a =
  let rand = Random.State.make [| 0x9e3779b9; seed |] in
  G.generate1 ~rand g
