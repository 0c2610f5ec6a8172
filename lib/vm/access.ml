(** Read/write classification of an instruction against a recorded
    register pre-state (a flat register file, see {!Cpu.get}): which
    registers, memory bytes, and flags it reads and writes.  Shared by
    the taint engine and the trace-based symbolic executor. *)

type access = {
  r_regs : Isa.Reg.t list;
  w_regs : Isa.Reg.t list;
  r_xmm : Isa.Reg.xmm list;
  w_xmm : Isa.Reg.xmm list;
  r_mem : (int64 * int) list;   (** (addr, bytes) *)
  w_mem : (int64 * int) list;
  r_flags : bool;
  w_flags : bool;
}

let no_access =
  { r_regs = []; w_regs = []; r_xmm = []; w_xmm = []; r_mem = []; w_mem = [];
    r_flags = false; w_flags = false }

(* effective address from the recorded pre-state *)
let ea_of regs ({ base; index; scale; disp } : Isa.Insn.mem) =
  let rv r = Cpu.get regs (Isa.Reg.index r) in
  let b = match base with Some r -> rv r | None -> 0L in
  let i =
    match index with
    | Some r -> Int64.mul (rv r) (Int64.of_int scale)
    | None -> 0L
  in
  Int64.add (Int64.add b i) disp

let operand_access regs w (o : Isa.Insn.operand) ~is_read ~is_write =
  let bytes = Isa.Insn.bytes_of_width w in
  match o with
  | Reg r ->
    { no_access with
      r_regs = (if is_read then [ r ] else []);
      w_regs = (if is_write then [ r ] else []) }
  | Imm _ -> no_access
  | Mem m ->
    let a = ea_of regs m in
    { no_access with
      r_regs = Isa.Insn.mem_regs m;
      r_mem = (if is_read then [ (a, bytes) ] else []);
      w_mem = (if is_write then [ (a, bytes) ] else []) }

let merge a b =
  { r_regs = a.r_regs @ b.r_regs;
    w_regs = a.w_regs @ b.w_regs;
    r_xmm = a.r_xmm @ b.r_xmm;
    w_xmm = a.w_xmm @ b.w_xmm;
    r_mem = a.r_mem @ b.r_mem;
    w_mem = a.w_mem @ b.w_mem;
    r_flags = a.r_flags || b.r_flags;
    w_flags = a.w_flags || b.w_flags }

let xsrc_access regs (xs : Isa.Insn.xsrc) =
  match xs with
  | Xreg x -> { no_access with r_xmm = [ x ] }
  | Xmem m ->
    { no_access with
      r_regs = Isa.Insn.mem_regs m;
      r_mem = [ (ea_of regs m, 8) ] }

(** What one executed instruction reads and writes. *)
let of_insn regs (insn : Isa.Insn.t) : access =
  let rsp = Cpu.get regs (Isa.Reg.index Isa.Reg.RSP) in
  let op = operand_access regs in
  match insn with
  | Mov (w, d, s) -> merge (op w d ~is_read:false ~is_write:true)
                       (op w s ~is_read:true ~is_write:false)
  | Movzx (dw, d, sw, s) | Movsx (dw, d, sw, s) ->
    merge (op dw (Reg d) ~is_read:false ~is_write:true)
      (op sw s ~is_read:true ~is_write:false)
  | Lea (d, m) ->
    { no_access with r_regs = Isa.Insn.mem_regs m; w_regs = [ d ] }
  | Alu (_, w, d, s) ->
    merge
      (merge (op w d ~is_read:true ~is_write:true)
         (op w s ~is_read:true ~is_write:false))
      { no_access with w_flags = true }
  | Not (w, o) | Neg (w, o) ->
    merge (op w o ~is_read:true ~is_write:true)
      { no_access with w_flags = true }
  | Mul (w, o) | Idiv (w, o) ->
    merge
      (op w o ~is_read:true ~is_write:false)
      { no_access with
        r_regs = [ Isa.Reg.RAX ];
        w_regs = [ Isa.Reg.RAX; Isa.Reg.RDX ];
        w_flags = true }
  | Cmp (w, a, b) | Test (w, a, b) ->
    merge
      (merge (op w a ~is_read:true ~is_write:false)
         (op w b ~is_read:true ~is_write:false))
      { no_access with w_flags = true }
  | Jmp (Direct _) -> no_access
  | Jmp (Indirect o) -> op W64 o ~is_read:true ~is_write:false
  | Jcc _ -> { no_access with r_flags = true }
  | Call (Direct _) ->
    { no_access with
      r_regs = [ Isa.Reg.RSP ];
      w_regs = [ Isa.Reg.RSP ];
      w_mem = [ (Int64.sub rsp 8L, 8) ] }
  | Call (Indirect o) ->
    merge
      (op W64 o ~is_read:true ~is_write:false)
      { no_access with
        r_regs = [ Isa.Reg.RSP ];
        w_regs = [ Isa.Reg.RSP ];
        w_mem = [ (Int64.sub rsp 8L, 8) ] }
  | Ret ->
    { no_access with
      r_regs = [ Isa.Reg.RSP ];
      w_regs = [ Isa.Reg.RSP ];
      r_mem = [ (rsp, 8) ] }
  | Push o ->
    merge
      (op W64 o ~is_read:true ~is_write:false)
      { no_access with
        r_regs = [ Isa.Reg.RSP ];
        w_regs = [ Isa.Reg.RSP ];
        w_mem = [ (Int64.sub rsp 8L, 8) ] }
  | Pop o ->
    merge
      (op W64 o ~is_read:false ~is_write:true)
      { no_access with
        r_regs = [ Isa.Reg.RSP ];
        w_regs = [ Isa.Reg.RSP ];
        r_mem = [ (rsp, 8) ] }
  | Setcc (_, o) ->
    merge (op W8 o ~is_read:false ~is_write:true)
      { no_access with r_flags = true }
  | Cmovcc (_, d, s) ->
    merge
      (merge
         (op W64 (Reg d) ~is_read:true ~is_write:true)
         (op W64 s ~is_read:true ~is_write:false))
      { no_access with r_flags = true }
  | Syscall -> no_access (* handled via Sys events *)
  | Cvtsi2sd (x, o) ->
    merge (op W64 o ~is_read:true ~is_write:false)
      { no_access with w_xmm = [ x ] }
  | Cvttsd2si (r, xs) ->
    merge (xsrc_access regs xs) { no_access with w_regs = [ r ] }
  | Movq_xr (x, o) ->
    merge (op W64 o ~is_read:true ~is_write:false)
      { no_access with w_xmm = [ x ] }
  | Movq_rx (o, x) ->
    merge (op W64 o ~is_read:false ~is_write:true)
      { no_access with r_xmm = [ x ] }
  | Movsd (x, xs) ->
    merge (xsrc_access regs xs) { no_access with w_xmm = [ x ] }
  | Movsd_store (m, x) ->
    { no_access with
      r_regs = Isa.Insn.mem_regs m;
      r_xmm = [ x ];
      w_mem = [ (ea_of regs m, 8) ] }
  | Farith (_, x, xs) ->
    merge (xsrc_access regs xs) { no_access with r_xmm = [ x ]; w_xmm = [ x ] }
  | Ucomisd (x, xs) ->
    merge (xsrc_access regs xs)
      { no_access with r_xmm = [ x ]; w_flags = true }
  | Nop | Hlt -> no_access

