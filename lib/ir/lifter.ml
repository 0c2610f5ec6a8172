(** Lifting VX64 instructions to {!Bil} statements.

    The lifter is parameterised by a {!features} record describing
    what the modelled tool can translate; an instruction outside the
    feature set lifts to [Special], which the concolic layer reports
    as an Es1 (instruction lifting) error — exactly the failure mode
    the paper observes for Triton/BAP on [cvtsi2sd]/[ucomisd]. *)

open Bil

type features = { lift_fp : bool }

let full = { lift_fp = true }
let no_fp = { lift_fp = false }

let reg_var r = Var (Isa.Reg.show r, 64)
let xmm_var x = Var (Isa.Reg.show_xmm x, 64)

let flag_z = "ZF"
let flag_s = "SF"
let flag_c = "CF"
let flag_o = "OF"
let flag_p = "PF"

let fvar f = Var (f, 1)

let bits_of w = Isa.Insn.bits_of_width w
let bytes_of w = Isa.Insn.bytes_of_width w

let ea_exp ({ base; index; scale; disp } : Isa.Insn.mem) =
  let parts =
    (match base with Some r -> [ reg_var r ] | None -> [])
    @ (match index with
       | Some r ->
         [ (if scale = 1 then reg_var r
            else Binop (Mul, reg_var r, i64 (Int64.of_int scale))) ]
       | None -> [])
    @ (if disp <> 0L then [ i64 disp ] else [])
  in
  match parts with
  | [] -> i64 0L
  | e :: rest -> List.fold_left (fun acc x -> Binop (Add, acc, x)) e rest

let read_operand w (o : Isa.Insn.operand) =
  let bits = bits_of w in
  match o with
  | Reg r -> if bits = 64 then reg_var r else Extract (bits - 1, 0, reg_var r)
  | Imm v -> Int (Int64.logand v (Smt.Expr.mask bits), bits)
  | Mem m -> Load (ea_exp m, bytes_of w)

(* register writes follow the CPU's merge semantics *)
let write_reg w r value =
  let bits = bits_of w in
  if bits = 64 then Set (Isa.Reg.show r, 64, value)
  else if bits = 32 then Set (Isa.Reg.show r, 64, Zext (64, value))
  else
    Set (Isa.Reg.show r, 64, Concat (Extract (63, bits, reg_var r), value))

let write_operand w (o : Isa.Insn.operand) value =
  match o with
  | Reg r -> [ write_reg w r value ]
  | Mem m -> [ Store (ea_exp m, bytes_of w, value) ]
  | Imm _ -> [ Special "write to immediate" ]

let msb w e = Extract (bits_of w - 1, bits_of w - 1, e)

(* PF: set when the low byte of the result has even parity *)
let parity_exp res =
  let bit i = Extract (i, i, res) in
  let x = List.fold_left (fun acc i -> xor1 acc (bit i)) (bit 0) [1;2;3;4;5;6;7] in
  not1 x

let logic_flags w res =
  [ Set (flag_z, 1, eq res (int_ 0 (bits_of w)));
    Set (flag_s, 1, msb w res);
    Set (flag_c, 1, b0);
    Set (flag_o, 1, b0);
    Set (flag_p, 1, parity_exp res) ]

let add_flags w a b res =
  let sa = msb w a and sb = msb w b and sr = msb w res in
  [ Set (flag_z, 1, eq res (int_ 0 (bits_of w)));
    Set (flag_s, 1, sr);
    Set (flag_c, 1, Cmp (Ult, res, a));
    Set (flag_o, 1, and1 (not1 (xor1 sa sb)) (xor1 sr sa));
    Set (flag_p, 1, parity_exp res) ]

let sub_flags w a b res =
  let sa = msb w a and sb = msb w b and sr = msb w res in
  [ Set (flag_z, 1, eq res (int_ 0 (bits_of w)));
    Set (flag_s, 1, sr);
    Set (flag_c, 1, Cmp (Ult, a, b));
    Set (flag_o, 1, and1 (xor1 sa sb) (xor1 sr sa));
    Set (flag_p, 1, parity_exp res) ]

let cond_exp (c : Isa.Insn.cond) =
  let zf = fvar flag_z and sf = fvar flag_s and cf = fvar flag_c in
  let o_f = fvar flag_o and pf = fvar flag_p in
  match c with
  | E -> zf
  | NE -> not1 zf
  | L -> xor1 sf o_f
  | LE -> or1 zf (xor1 sf o_f)
  | G -> and1 (not1 zf) (not1 (xor1 sf o_f))
  | GE -> not1 (xor1 sf o_f)
  | B -> cf
  | BE -> or1 cf zf
  | A -> and1 (not1 cf) (not1 zf)
  | AE -> not1 cf
  | S -> sf
  | NS -> not1 sf
  | O -> o_f
  | NO -> not1 o_f
  | P -> pf
  | NP -> not1 pf

let rsp = reg_var Isa.Reg.RSP
let set_rsp e = Set (Isa.Reg.show Isa.Reg.RSP, 64, e)

(* store first at old-rsp-8, then move rsp, so both statements read
   the pre-push RSP *)
let push_value e =
  [ Store (Binop (Sub, rsp, i64 8L), 8, e);
    set_rsp (Binop (Sub, rsp, i64 8L)) ]

let xsrc_exp (xs : Isa.Insn.xsrc) =
  match xs with
  | Xreg x -> xmm_var x
  | Xmem m -> Load (ea_exp m, 8)

(* unsigned 64x64 high-half product, schoolbook on 32-bit halves *)
let umulh a b =
  let lo32 e = Binop (And, e, i64 0xffffffffL) in
  let hi32 e = Binop (Lshr, e, i64 32L) in
  let ll = Binop (Mul, lo32 a, lo32 b) in
  let lh = Binop (Mul, lo32 a, hi32 b) in
  let hl = Binop (Mul, hi32 a, lo32 b) in
  let hh = Binop (Mul, hi32 a, hi32 b) in
  let carry =
    hi32
      (Binop (Add, Binop (Add, lo32 lh, lo32 hl), hi32 ll))
  in
  Binop (Add, Binop (Add, hh, carry), Binop (Add, hi32 lh, hi32 hl))

let m_insns_lifted = Telemetry.Metrics.counter "lifter.insns_lifted"
let m_unmodeled = Telemetry.Metrics.counter "lifter.unmodeled"

(** [lift features ~next insn] produces the statement list; [next] is
    the fall-through address (needed to lower calls). *)
let lift_insn (features : features) ~(next : int64) (insn : Isa.Insn.t) :
  stmt list =
  if Isa.Insn.is_fp insn && not features.lift_fp then
    [ Special (Printf.sprintf "unsupported fp instruction: %s"
                 (Isa.Insn.mnemonic insn)) ]
  else
    match insn with
    | Mov (w, d, s) -> write_operand w d (read_operand w s)
    | Movzx (dw, d, sw, s) ->
      [ write_reg dw d (Zext (bits_of dw, read_operand sw s)) ]
    | Movsx (dw, d, sw, s) ->
      [ write_reg dw d (Sext (bits_of dw, read_operand sw s)) ]
    | Lea (d, m) -> [ Set (Isa.Reg.show d, 64, ea_exp m) ]
    | Alu (op, w, d, s) -> (
        let a = read_operand w d and b = read_operand w s in
        match op with
        | Add ->
          let res = Binop (Add, a, b) in
          (* bind the result once so flags and writeback agree *)
          Set ("t_res", bits_of w, res)
          :: add_flags w a b (Var ("t_res", bits_of w))
          @ write_operand w d (Var ("t_res", bits_of w))
        | Sub ->
          let res = Binop (Sub, a, b) in
          Set ("t_res", bits_of w, res)
          :: sub_flags w a b (Var ("t_res", bits_of w))
          @ write_operand w d (Var ("t_res", bits_of w))
        | And | Or | Xor ->
          let bop : Smt.Expr.binop =
            match op with And -> And | Or -> Or | _ -> Xor
          in
          let res = Binop (bop, a, b) in
          Set ("t_res", bits_of w, res)
          :: logic_flags w (Var ("t_res", bits_of w))
          @ write_operand w d (Var ("t_res", bits_of w))
        | Shl | Shr | Sar ->
          (* the CPU masks the amount to 6 bits for every width *)
          let amt = Binop (And, Zext (bits_of w, read_operand W8 s), int_ 0x3f (bits_of w)) in
          let bop : Smt.Expr.binop =
            match op with Shl -> Shl | Shr -> Lshr | _ -> Ashr
          in
          let res = Binop (bop, a, amt) in
          Set ("t_res", bits_of w, res)
          :: logic_flags w (Var ("t_res", bits_of w))
          @ write_operand w d (Var ("t_res", bits_of w))
        | Imul ->
          let res = Binop (Mul, a, b) in
          Set ("t_res", bits_of w, res)
          :: logic_flags w (Var ("t_res", bits_of w))
          @ write_operand w d (Var ("t_res", bits_of w)))
    | Not (w, o) -> write_operand w o (Unop (Not, read_operand w o))
    | Neg (w, o) ->
      let a = read_operand w o in
      let res = Unop (Neg, a) in
      Set ("t_res", bits_of w, res)
      :: sub_flags w (int_ 0 (bits_of w)) a (Var ("t_res", bits_of w))
      @ write_operand w o (Var ("t_res", bits_of w))
    | Mul (w, o) ->
      let a = read_operand w (Reg Isa.Reg.RAX) and b = read_operand w o in
      let lo = Binop (Mul, a, b) in
      let hi =
        if bits_of w = 64 then umulh a b
        else int_ 0 64
      in
      (* [hi] reads RAX (and possibly the operand), so it must be
         captured before the low half lands in RAX *)
      [ Set ("t_lo", bits_of w, lo);
        Set ("t_hi", 64, hi);
        Set (Isa.Reg.show Isa.Reg.RAX, 64, Zext (64, Var ("t_lo", bits_of w)));
        Set (Isa.Reg.show Isa.Reg.RDX, 64, Var ("t_hi", 64)) ]
    | Idiv (w, o) ->
      (* divide-by-zero becomes a fault, handled by the executor via
         the trace's signal events; here we lift the success path *)
      let a = read_operand w (Reg Isa.Reg.RAX) and d = read_operand w o in
      [ Set ("t_q", bits_of w, Binop (Sdiv, a, d));
        Set ("t_r", bits_of w, Binop (Srem, a, d));
        Set (Isa.Reg.show Isa.Reg.RAX, 64, Zext (64, Var ("t_q", bits_of w)));
        Set (Isa.Reg.show Isa.Reg.RDX, 64, Zext (64, Var ("t_r", bits_of w))) ]
    | Cmp (w, a, b) ->
      let va = read_operand w a and vb = read_operand w b in
      Set ("t_res", bits_of w, Binop (Sub, va, vb))
      :: sub_flags w va vb (Var ("t_res", bits_of w))
    | Test (w, a, b) ->
      let va = read_operand w a and vb = read_operand w b in
      Set ("t_res", bits_of w, Binop (And, va, vb))
      :: logic_flags w (Var ("t_res", bits_of w))
    | Jmp (Direct a) -> [ Jmp (i64 a) ]
    | Jmp (Indirect o) -> [ Jmp (read_operand W64 o) ]
    | Jcc (c, a) -> [ Cjmp (cond_exp c, a) ]
    | Call (Direct a) -> push_value (i64 next) @ [ Jmp (i64 a) ]
    | Call (Indirect o) ->
      (* read the target before rsp moves *)
      Set ("t_tgt", 64, read_operand W64 o)
      :: push_value (i64 next)
      @ [ Jmp (Var ("t_tgt", 64)) ]
    | Ret ->
      [ Set ("t_ret", 64, Load (rsp, 8));
        set_rsp (Binop (Add, rsp, i64 8L));
        Jmp (Var ("t_ret", 64)) ]
    | Push o ->
      Set ("t_push", 64, read_operand W64 o) :: push_value (Var ("t_push", 64))
    | Pop o ->
      [ Set ("t_pop", 64, Load (rsp, 8)); set_rsp (Binop (Add, rsp, i64 8L)) ]
      @ write_operand W64 o (Var ("t_pop", 64))
    | Setcc (c, o) ->
      write_operand W8 o (Ite (cond_exp c, int_ 1 8, int_ 0 8))
    | Cmovcc (c, d, s) ->
      [ Set (Isa.Reg.show d, 64,
             Ite (cond_exp c, read_operand W64 s, reg_var d)) ]
    | Syscall -> [ Syscall ]
    | Cvtsi2sd (x, o) ->
      [ Set (Isa.Reg.show_xmm x, 64, Fof_int (read_operand W64 o)) ]
    | Cvttsd2si (r, xs) ->
      [ Set (Isa.Reg.show r, 64, Fto_int (xsrc_exp xs)) ]
    | Movq_xr (x, o) ->
      [ Set (Isa.Reg.show_xmm x, 64, read_operand W64 o) ]
    | Movq_rx (o, x) -> write_operand W64 o (xmm_var x)
    | Movsd (x, xs) -> [ Set (Isa.Reg.show_xmm x, 64, xsrc_exp xs) ]
    | Movsd_store (m, x) -> [ Store (ea_exp m, 8, xmm_var x) ]
    | Farith (op, x, xs) ->
      let fop : Smt.Expr.fbinop =
        match op with
        | Addsd -> Fadd | Subsd -> Fsub | Mulsd -> Fmul | Divsd -> Fdiv
        | Sqrtsd -> Fadd (* unused; sqrt handled below *)
      in
      if op = Sqrtsd then
        [ Set (Isa.Reg.show_xmm x, 64, Fsqrt (xsrc_exp xs)) ]
      else
        [ Set (Isa.Reg.show_xmm x, 64, Fbin (fop, xmm_var x, xsrc_exp xs)) ]
    | Ucomisd (x, xs) ->
      let a = xmm_var x and b = xsrc_exp xs in
      let unord = or1 (not1 (Fcmp (Feq, a, a))) (not1 (Fcmp (Feq, b, b))) in
      [ Set ("t_unord", 1, unord);
        Set (flag_z, 1, or1 (Fcmp (Feq, a, b)) (Var ("t_unord", 1)));
        Set (flag_c, 1, or1 (Fcmp (Flt, a, b)) (Var ("t_unord", 1)));
        Set (flag_p, 1, Var ("t_unord", 1));
        Set (flag_o, 1, b0);
        Set (flag_s, 1, b0) ]
    | Nop -> []
    | Hlt -> [ Special "hlt" ]

(* the counts every lift call makes, memoised or not *)
let count stmts =
  Telemetry.Metrics.incr m_insns_lifted;
  if List.exists (function Special _ -> true | _ -> false) stmts then
    Telemetry.Metrics.incr m_unmodeled;
  stmts

(** Instrumented entry point: counts lifted instructions and those
    whose lifting degrades to [Special] (the Es1 failure mode —
    semantics the IR cannot model). *)
let lift features ~next insn : stmt list =
  (* charge the ambient budget meter before doing the work: a tripped
     lifted-insn cap must stop the cell here, at the paper's Es1
     stage *)
  Robust.Meter.lift_tick ();
  count (lift_insn features ~next insn)

(** One lift per static instruction.  A trace replay meets the same
    few instructions over and over; a memo keeps, per pc, the
    instruction, its fall-through address and its statements, so each
    is encoded and lifted once per memo.  [lift_insn] is pure in
    [(features, next, insn)], and a hit also requires the instruction
    at the pc to equal the remembered one.  [Memo.lift] ticks the meter
    and the counters on every call, exactly as {!lift} does, so
    lifted-insn budgets and every count are unchanged. *)
module Memo = struct
  type entry = {
    insn : Isa.Insn.t;
    next : int64;  (** fall-through: pc + encoded size *)
    mutable stmts : stmt list option;  (** lifted on first [lift] *)
  }

  type t = { features : features; entries : (int64, entry) Hashtbl.t }

  let create features = { features; entries = Hashtbl.create 64 }

  (** The entry for [insn] at [pc], made (and encoded) on a miss. *)
  let find t ~pc insn =
    match Hashtbl.find_opt t.entries pc with
    | Some e when e.insn == insn || Isa.Insn.equal e.insn insn -> e
    | _ ->
      let next = Int64.add pc (Int64.of_int (Isa.Codec.encoded_size insn)) in
      let e = { insn; next; stmts = None } in
      Hashtbl.replace t.entries pc e;
      e

  let lift t e =
    Robust.Meter.lift_tick ();
    match e.stmts with
    | Some stmts -> count stmts
    | None ->
      let stmts = count (lift_insn t.features ~next:e.next e.insn) in
      e.stmts <- Some stmts;
      stmts
end
