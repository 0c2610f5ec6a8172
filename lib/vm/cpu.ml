(** CPU architectural state and single-instruction semantics.

    Pure state manipulation; anything that crosses the user/kernel
    boundary ([Syscall], faults, [Hlt]) is reported to the caller as an
    {!outcome} and handled by {!Machine}. *)

type flags = {
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable o_f : bool;  (* overflow flag; [of] is a keyword *)
  mutable pf : bool;
}

type t = {
  regs : Bytes.t;
      (* 16 GPRs, 8 little-endian bytes each at [8 * Reg.index]: a
         write stores the word in place, with no box to allocate *)
  xmm : float array;        (* 8 scalar doubles *)
  mutable pc : int64;
  flags : flags;
}

let regs_size = 8 * Isa.Reg.count

let create ?(pc = 0L) () =
  { regs = Bytes.make regs_size '\000';
    xmm = Array.make Isa.Reg.xmm_count 0.0;
    pc;
    flags = { zf = false; sf = false; cf = false; o_f = false; pf = false } }

let clone t =
  { regs = Bytes.copy t.regs;
    xmm = Array.copy t.xmm;
    pc = t.pc;
    flags = { t.flags with zf = t.flags.zf } }

let pack_flags t =
  let f = t.flags in
  (if f.zf then 1 else 0)
  lor (if f.sf then 2 else 0)
  lor (if f.cf then 4 else 0)
  lor (if f.o_f then 8 else 0)
  lor (if f.pf then 16 else 0)

let unpack_flags t v =
  let f = t.flags in
  f.zf <- v land 1 <> 0;
  f.sf <- v land 2 <> 0;
  f.cf <- v land 4 <> 0;
  f.o_f <- v land 8 <> 0;
  f.pf <- v land 16 <> 0

(** Register [i] (by {!Isa.Reg.index}) of a flat register file: the
    layout of [t.regs] and of a trace event's [regs_before]. *)
let get regs i = Bytes.get_int64_le regs (8 * i)

let reg t r = get t.regs (Isa.Reg.index r)
let set_reg t r v = Bytes.set_int64_le t.regs (8 * Isa.Reg.index r) v
let xmm t x = t.xmm.(Isa.Reg.xmm_index x)
let set_xmm t x v = t.xmm.(Isa.Reg.xmm_index x) <- v

(* ------------------------------------------------------------------ *)
(* Width arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

let mask_of_width (w : Isa.Insn.width) =
  match w with
  | W8 -> 0xffL
  | W16 -> 0xffffL
  | W32 -> 0xffffffffL
  | W64 -> -1L

let trunc w v = Int64.logand v (mask_of_width w)

(** Sign-extend the [w]-wide value [v] to 64 bits. *)
let sext w v =
  let bits = Isa.Insn.bits_of_width w in
  if bits = 64 then v
  else
    let shift = 64 - bits in
    Int64.shift_right (Int64.shift_left v shift) shift

let msb w v =
  let bits = Isa.Insn.bits_of_width w in
  Int64.logand (Int64.shift_right_logical v (bits - 1)) 1L = 1L

let parity v =
  let b = Int64.to_int (Int64.logand v 0xffL) in
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc lxor (b land 1)) in
  go b 0 = 0 (* PF set when low byte has even parity *)

(* ------------------------------------------------------------------ *)
(* Operand access                                                      *)
(* ------------------------------------------------------------------ *)

(** Effective address of a memory operand. *)
let ea t ({ base; index; scale; disp } : Isa.Insn.mem) =
  let b = match base with Some r -> reg t r | None -> 0L in
  let i =
    match index with
    | Some r -> Int64.mul (reg t r) (Int64.of_int scale)
    | None -> 0L
  in
  Int64.add (Int64.add b i) disp

(** Read [w]-wide operand, zero-extended to 64 bits. *)
let read_operand t mem w (o : Isa.Insn.operand) =
  match o with
  | Reg r -> trunc w (reg t r)
  | Imm v -> trunc w v
  | Mem m -> Mem.read mem (ea t m) (Isa.Insn.bytes_of_width w)

(** Write the low [w] bits of [v] to the operand.  Register semantics
    follow x86: a 32-bit write zeroes the upper half, 8/16-bit writes
    merge into the register. *)
let write_operand t mem w (o : Isa.Insn.operand) v =
  match o with
  | Reg r ->
    let v = trunc w v in
    let merged =
      match (w : Isa.Insn.width) with
      | W64 -> v
      | W32 -> v
      | W8 | W16 ->
        Int64.logor
          (Int64.logand (reg t r) (Int64.lognot (mask_of_width w)))
          v
    in
    set_reg t r merged
  | Mem m -> Mem.write mem (ea t m) (Isa.Insn.bytes_of_width w) v
  | Imm _ -> invalid_arg "Cpu.write_operand: immediate destination"

let read_xsrc t mem (xs : Isa.Insn.xsrc) =
  match xs with
  | Xreg x -> xmm t x
  | Xmem m -> Mem.read_f64 mem (ea t m)

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)
(* ------------------------------------------------------------------ *)

let set_logic_flags t w res =
  let f = t.flags in
  f.zf <- trunc w res = 0L;
  f.sf <- msb w res;
  f.cf <- false;
  f.o_f <- false;
  f.pf <- parity res

let set_add_flags t w a b res =
  let f = t.flags in
  let m = mask_of_width w in
  f.zf <- trunc w res = 0L;
  f.sf <- msb w res;
  f.pf <- parity res;
  (* unsigned carry: the w-wide sum wrapped *)
  let ua = Int64.logand a m and ub = Int64.logand b m in
  let sum = Int64.add ua ub in
  f.cf <-
    (match (w : Isa.Insn.width) with
     | W64 ->
       (* carry iff unsigned sum overflowed 64 bits *)
       Int64.unsigned_compare sum ua < 0
     | _ -> Int64.unsigned_compare sum m > 0);
  let sa = msb w a and sb = msb w b and sr = msb w res in
  f.o_f <- (sa = sb) && sr <> sa

let set_sub_flags t w a b res =
  let f = t.flags in
  let m = mask_of_width w in
  f.zf <- trunc w res = 0L;
  f.sf <- msb w res;
  f.pf <- parity res;
  f.cf <- Int64.unsigned_compare (Int64.logand a m) (Int64.logand b m) < 0;
  let sa = msb w a and sb = msb w b and sr = msb w res in
  f.o_f <- sa <> sb && sr <> sa

let cond_holds t (c : Isa.Insn.cond) =
  let f = t.flags in
  match c with
  | E -> f.zf
  | NE -> not f.zf
  | L -> f.sf <> f.o_f
  | LE -> f.zf || f.sf <> f.o_f
  | G -> (not f.zf) && f.sf = f.o_f
  | GE -> f.sf = f.o_f
  | B -> f.cf
  | BE -> f.cf || f.zf
  | A -> (not f.cf) && not f.zf
  | AE -> not f.cf
  | S -> f.sf
  | NS -> not f.sf
  | O -> f.o_f
  | NO -> not f.o_f
  | P -> f.pf
  | NP -> not f.pf

(* ------------------------------------------------------------------ *)
(* Step                                                                *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Next            (** fall through to the following instruction *)
  | Jumped          (** pc already updated by a taken branch *)
  | Do_syscall      (** [Syscall] executed; kernel takes over *)
  | Halted
  | Fault_div       (** #DE: division by zero *)

exception Bad_scale of int

let stack_push t mem v =
  let sp = Int64.sub (reg t Isa.Reg.RSP) 8L in
  set_reg t Isa.Reg.RSP sp;
  Mem.write mem sp 8 v

let stack_pop t mem =
  let sp = reg t Isa.Reg.RSP in
  let v = Mem.read mem sp 8 in
  set_reg t Isa.Reg.RSP (Int64.add sp 8L);
  v

let target_addr t mem (tg : Isa.Insn.target) =
  match tg with
  | Direct a -> a
  | Indirect o -> read_operand t mem W64 o

(** Execute one already-decoded instruction whose encoded size ends at
    [next_pc].  Returns the control outcome; [t.pc] is updated for
    branches, left untouched otherwise (the machine advances it). *)
let execute t mem ~next_pc (i : Isa.Insn.t) : outcome =
  let shift_amount s = Int64.to_int (Int64.logand s 0x3fL) in
  match i with
  | Mov (w, d, s) ->
    write_operand t mem w d (read_operand t mem w s);
    Next
  | Movzx (dw, d, sw, s) ->
    let v = read_operand t mem sw s in
    write_operand t mem dw (Reg d) v;
    Next
  | Movsx (dw, d, sw, s) ->
    let v = sext sw (read_operand t mem sw s) in
    write_operand t mem dw (Reg d) v;
    Next
  | Lea (d, m) -> set_reg t d (ea t m); Next
  | Alu (op, w, d, s) ->
    let a = read_operand t mem w d and b = read_operand t mem w s in
    let res =
      match op with
      | Add -> let r = Int64.add a b in set_add_flags t w a b r; r
      | Sub -> let r = Int64.sub a b in set_sub_flags t w a b r; r
      | And -> let r = Int64.logand a b in set_logic_flags t w r; r
      | Or -> let r = Int64.logor a b in set_logic_flags t w r; r
      | Xor -> let r = Int64.logxor a b in set_logic_flags t w r; r
      | Shl ->
        let r = Int64.shift_left a (shift_amount b) in
        set_logic_flags t w r; r
      | Shr ->
        let r = Int64.shift_right_logical (trunc w a) (shift_amount b) in
        set_logic_flags t w r; r
      | Sar ->
        let r = Int64.shift_right (sext w a) (shift_amount b) in
        set_logic_flags t w r; r
      | Imul ->
        let r = Int64.mul (sext w a) (sext w b) in
        set_logic_flags t w r;
        (* CF/OF set when the full product does not fit in w bits *)
        let fits = sext w r = r in
        t.flags.cf <- not fits;
        t.flags.o_f <- not fits;
        r
    in
    write_operand t mem w d res;
    Next
  | Not (w, o) ->
    write_operand t mem w o (Int64.lognot (read_operand t mem w o));
    Next
  | Neg (w, o) ->
    let v = read_operand t mem w o in
    let r = Int64.neg v in
    set_sub_flags t w 0L v r;
    write_operand t mem w o r;
    Next
  | Mul (w, o) ->
    (* unsigned RDX:RAX := RAX * src; we keep the low half in RAX and
       the high half in RDX (computed via unsigned widening) *)
    let a = trunc w (reg t Isa.Reg.RAX) and b = read_operand t mem w o in
    let lo = Int64.mul a b in
    let hi =
      (* high 64 bits of unsigned 64x64 product, schoolbook on 32-bit
         halves *)
      let alo = Int64.logand a 0xffffffffL
      and ahi = Int64.shift_right_logical a 32
      and blo = Int64.logand b 0xffffffffL
      and bhi = Int64.shift_right_logical b 32 in
      let ll = Int64.mul alo blo in
      let lh = Int64.mul alo bhi in
      let hl = Int64.mul ahi blo in
      let hh = Int64.mul ahi bhi in
      let carry =
        Int64.shift_right_logical
          (Int64.add
             (Int64.add (Int64.logand lh 0xffffffffL) (Int64.logand hl 0xffffffffL))
             (Int64.shift_right_logical ll 32))
          32
      in
      Int64.add
        (Int64.add hh carry)
        (Int64.add (Int64.shift_right_logical lh 32)
           (Int64.shift_right_logical hl 32))
    in
    set_reg t Isa.Reg.RAX (trunc w lo);
    set_reg t Isa.Reg.RDX (if w = W64 then hi else 0L);
    t.flags.cf <- hi <> 0L;
    t.flags.o_f <- hi <> 0L;
    Next
  | Idiv (w, o) ->
    let d = read_operand t mem w o in
    if trunc w d = 0L then Fault_div
    else begin
      (* simplified vs x86: 64-bit dividend in RAX only *)
      let a = sext w (trunc w (reg t Isa.Reg.RAX)) and dv = sext w d in
      set_reg t Isa.Reg.RAX (trunc w (Int64.div a dv));
      set_reg t Isa.Reg.RDX (trunc w (Int64.rem a dv));
      Next
    end
  | Cmp (w, a, b) ->
    let va = read_operand t mem w a and vb = read_operand t mem w b in
    set_sub_flags t w va vb (Int64.sub va vb);
    Next
  | Test (w, a, b) ->
    let va = read_operand t mem w a and vb = read_operand t mem w b in
    set_logic_flags t w (Int64.logand va vb);
    Next
  | Jmp tg -> t.pc <- target_addr t mem tg; Jumped
  | Jcc (c, a) ->
    if cond_holds t c then (t.pc <- a; Jumped) else Next
  | Call tg ->
    let dest = target_addr t mem tg in
    stack_push t mem next_pc;
    t.pc <- dest;
    Jumped
  | Ret -> t.pc <- stack_pop t mem; Jumped
  | Push o -> stack_push t mem (read_operand t mem W64 o); Next
  | Pop o ->
    let v = stack_pop t mem in
    write_operand t mem W64 o v;
    Next
  | Setcc (c, o) ->
    write_operand t mem W8 o (if cond_holds t c then 1L else 0L);
    Next
  | Cmovcc (c, d, s) ->
    if cond_holds t c then set_reg t d (read_operand t mem W64 s);
    Next
  | Syscall -> Do_syscall
  | Cvtsi2sd (x, o) ->
    set_xmm t x (Int64.to_float (read_operand t mem W64 o));
    Next
  | Cvttsd2si (r, xs) ->
    let f = read_xsrc t mem xs in
    set_reg t r (Int64.of_float (Float.trunc f));
    Next
  | Movq_xr (x, o) ->
    set_xmm t x (Int64.float_of_bits (read_operand t mem W64 o));
    Next
  | Movq_rx (o, x) ->
    write_operand t mem W64 o (Int64.bits_of_float (xmm t x));
    Next
  | Movsd (x, xs) -> set_xmm t x (read_xsrc t mem xs); Next
  | Movsd_store (m, x) -> Mem.write_f64 mem (ea t m) (xmm t x); Next
  | Farith (op, x, xs) ->
    let a = xmm t x and b = read_xsrc t mem xs in
    let r =
      match op with
      | Addsd -> a +. b
      | Subsd -> a -. b
      | Mulsd -> a *. b
      | Divsd -> a /. b
      | Sqrtsd -> Float.sqrt b
    in
    set_xmm t x r;
    Next
  | Ucomisd (x, xs) ->
    let a = xmm t x and b = read_xsrc t mem xs in
    let f = t.flags in
    f.o_f <- false; f.sf <- false;
    if Float.is_nan a || Float.is_nan b then begin
      f.zf <- true; f.pf <- true; f.cf <- true
    end else begin
      f.pf <- false;
      f.zf <- a = b;
      f.cf <- a < b
    end;
    Next
  | Nop -> Next
  | Hlt -> Halted

(** Effective addresses an instruction will touch, for tracing. *)
let effective_addrs t (i : Isa.Insn.t) =
  let of_op : Isa.Insn.operand -> int64 list = function
    | Mem m -> [ ea t m ]
    | Reg _ | Imm _ -> []
  in
  let of_xsrc : Isa.Insn.xsrc -> int64 list = function
    | Xmem m -> [ ea t m ]
    | Xreg _ -> []
  in
  let sp = reg t Isa.Reg.RSP in
  match i with
  | Mov (_, d, s) | Alu (_, _, d, s) | Cmp (_, d, s) | Test (_, d, s) ->
    of_op d @ of_op s
  | Movzx (_, _, _, s) | Movsx (_, _, _, s) -> of_op s
  | Lea (_, m) -> [ ea t m ]
  | Not (_, o) | Neg (_, o) | Mul (_, o) | Idiv (_, o)
  | Setcc (_, o) -> of_op o
  | Push o -> of_op o @ [ Int64.sub sp 8L ]
  | Pop o -> sp :: of_op o
  | Cmovcc (_, _, s) -> of_op s
  | Jmp (Indirect o) -> of_op o
  | Call (Indirect o) -> of_op o @ [ Int64.sub sp 8L ]
  | Call (Direct _) -> [ Int64.sub sp 8L ]
  | Ret -> [ sp ]
  | Jmp (Direct _) | Jcc _ | Syscall | Nop | Hlt -> []
  | Cvtsi2sd (_, o) | Movq_xr (_, o) -> of_op o
  | Movq_rx (o, _) -> of_op o
  | Cvttsd2si (_, xs) | Movsd (_, xs) | Farith (_, _, xs) | Ucomisd (_, xs) ->
    of_xsrc xs
  | Movsd_store (m, _) -> [ ea t m ]
