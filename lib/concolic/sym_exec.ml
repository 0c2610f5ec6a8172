(** Evaluation of {!Ir.Bil} statements against a {!State}: the shared
    core of the trace-based executors (BAP/Triton-class) and the
    static DSE engine (Angr-class).

    The memory model is the load-bearing capability difference:

    - [Concrete_only] — a load/store whose address depends on the
      input is forced to the address observed concretely; the
      index/data relation is lost (Table II's symbolic-array failures
      for BAP and Triton).
    - [Indexed] — a symbolic load of bounded nesting depth becomes an
      if-then-else chain over a bounded address window plus a range
      constraint, Angr-style; deeper chains concretize, which is why
      the level-two array still fails. *)

module E = Smt.Expr

type mem_mode =
  | Concrete_only
  | Indexed of { window : int; max_depth : int }

type hooks = {
  concrete_var : string -> int64;
      (** live concrete value of an architectural variable *)
  concrete_byte : int64 -> int;  (** live concrete memory *)
  resolve_addr : E.t -> int64;
      (** concretization of a symbolic address *)
  zero_addr : E.t -> int64;
      (** a symbolic address with every input zero: the [Indexed]
          window's base candidate *)
  mode : mem_mode;
  keep_concrete_stores : bool;
      (** no replica runs alongside: shadow must hold constants too *)
}

module Phys = State.Phys

(* depth of symbolic-load nesting inside [e]; [depths] remembers the
   depth of previously built load results *)
let depth_of depths (e : E.t) =
  let best = ref 0 in
  E.iter_dag
    (fun e ->
       match Phys.find_opt depths (Obj.repr e) with
       | Some d when d > !best -> best := d
       | _ -> ())
    [ e ];
  !best

type ctx = {
  state : State.t;
  hooks : hooks;
}

(** [session], when given, is attached to [state] so every constraint
    the executor records (branches, address bounds, fault guards) is
    interned into the solver session as it is built. *)
let make_ctx ?session state hooks =
  (match session with Some s -> State.attach_session state s | None -> ());
  { state; hooks }

let sym_load ctx addr_e n =
  let st = ctx.state and h = ctx.hooks in
  match addr_e with
  | E.Const (a, _) -> State.load_concrete st a n ~concrete_byte:h.concrete_byte
  | _ -> (
      let caddr = h.resolve_addr addr_e in
      match h.mode with
      | Concrete_only ->
        State.diag st (Error.Concretized_load caddr);
        State.load_concrete st caddr n ~concrete_byte:h.concrete_byte
      | Indexed { window; max_depth } ->
        let d = depth_of ctx.state.State.load_depths addr_e in
        if d >= max_depth then begin
          State.diag st (Error.Concretized_load caddr);
          State.load_concrete st caddr n ~concrete_byte:h.concrete_byte
        end
        else begin
          (* base candidate: the address with all inputs zeroed tends
             to be the table base; fall back to the concrete one *)
          let a0 = h.zero_addr addr_e in
          let lo = if Int64.unsigned_compare a0 caddr <= 0 then a0 else caddr in
          (* the concretely-observed address must sit inside the
             window; recenter when the zero-input estimate is far off *)
          let lo =
            if
              Int64.unsigned_compare caddr
                (Int64.add lo (Int64.of_int window))
              >= 0
            then Int64.sub caddr (Int64.of_int (window / 2))
            else lo
          in
          (* range guard, mirroring Angr's pointer-resolution bound *)
          State.add_constraint st ~kind:Address_bound ~pc:0L ~taken:true
            (E.and_
               (E.Cmp (Ule, E.Const (lo, 64), addr_e))
               (E.Cmp (Ult, addr_e, E.Const (Int64.add lo (Int64.of_int window), 64))));
          let default =
            State.load_concrete st caddr n ~concrete_byte:h.concrete_byte
          in
          let result = ref default in
          for i = window - 1 downto 0 do
            let c = Int64.add lo (Int64.of_int i) in
            let v = State.load_concrete st c n ~concrete_byte:h.concrete_byte in
            result :=
              State.charge st
                (State.mk_ite
                   (State.charge st (State.mk_cmp Eq addr_e (E.Const (c, 64))))
                   v !result)
          done;
          Phys.replace ctx.state.State.load_depths (Obj.repr !result) (d + 1);
          !result
        end)

let sym_store ctx addr_e n value =
  let st = ctx.state and h = ctx.hooks in
  let keep_concrete = h.keep_concrete_stores in
  match addr_e with
  | E.Const (a, _) -> State.store_concrete ~keep_concrete st a n value
  | _ ->
    let caddr = h.resolve_addr addr_e in
    State.diag st (Error.Concretized_store caddr);
    State.store_concrete ~keep_concrete st caddr n value

let rec eval_exp ctx (exp : Ir.Bil.exp) : E.t =
  let go = eval_exp ctx in
  let st = ctx.state and h = ctx.hooks in
  let ch e = State.charge st e in
  match exp with
  | Var (n, w) -> State.read_var st n w ~concrete:h.concrete_var
  | Int (v, w) -> E.Const (Int64.logand v (E.mask w), w)
  | Load (a, n) -> sym_load ctx (go a) n
  | Unop (op, a) -> ch (State.mk_unop op (go a))
  | Binop (op, a, b) -> ch (State.mk_binop op (go a) (go b))
  | Cmp (op, a, b) -> ch (State.mk_cmp op (go a) (go b))
  | Ite (c, a, b) -> ch (State.mk_ite (go c) (go a) (go b))
  | Extract (hi, lo, a) -> ch (State.mk_extract hi lo (go a))
  | Concat (a, b) -> ch (State.mk_concat (go a) (go b))
  | Zext (w, a) -> ch (State.mk_zext w (go a))
  | Sext (w, a) -> ch (State.mk_sext w (go a))
  | Fbin (op, a, b) -> ch (State.mk_fbin op (go a) (go b))
  | Fcmp (op, a, b) -> ch (State.mk_fcmp op (go a) (go b))
  | Fsqrt a -> ch (State.mk_fsqrt (go a))
  | Fof_int a -> ch (State.mk_fof_int (go a))
  | Fto_int a -> ch (State.mk_fto_int (go a))

(** Result of running one instruction's statement list. *)
type control =
  | Fallthrough
  | Cond of E.t * int64     (** 1-bit condition, taken-target *)
  | Jump of E.t             (** possibly computed target *)
  | Sys_enter
  | Unliftable of string

let run_stmts ctx (stmts : Ir.Bil.stmt list) : control =
  let st = ctx.state in
  let rec go = function
    | [] -> Fallthrough
    | Ir.Bil.Set (name, _w, e) :: rest ->
      State.write_var st name (eval_exp ctx e);
      go rest
    | Store (addr, n, v) :: rest ->
      sym_store ctx (eval_exp ctx addr) n (eval_exp ctx v);
      go rest
    | Cjmp (cond, target) :: _ -> Cond (eval_exp ctx cond, target)
    | Jmp e :: _ -> Jump (eval_exp ctx e)
    | Syscall :: _ -> Sys_enter
    | Special msg :: _ -> Unliftable msg
  in
  go stmts
