(** Symbolic machine state shared by the trace-based executor and the
    static DSE engine: an environment for named state variables, a
    byte-granular symbolic memory shadow, and constant-folding term
    constructors (so fully concrete sub-computations never build
    symbolic structure). *)

module E = Smt.Expr

module Phys = E.Phys

(** Tables keyed by state-variable name and by byte address, hashed
    without the polymorphic hash. *)
module Env = Hashtbl.Make (struct
    type t = string

    let equal = String.equal

    let hash s =
      let h = ref 0 in
      for i = 0 to String.length s - 1 do
        h := (!h * 31) + Char.code s.[i]
      done;
      !h land max_int
  end)

module Shadow = Isa.Addr.Tbl

type t = {
  env : E.t Env.t;        (** registers, flags, temps *)
  shadow : E.t Shadow.t;  (** memory bytes with symbolic values *)
  mutable constraints : (E.t * info) list;  (** newest first *)
  mutable diags : Error.diag list;
  mutable load_depth : int;
      (** most deeply nested symbolic-load chain built so far *)
  mutable built_cost : int;
      (** running bit-blast cost of every symbolic node built in this
          state — a monotone overapproximation of any path-prefix
          cost, maintained incrementally so guards are O(1) *)
  load_depths : int Phys.t;
      (** symbolic-load nesting depth of load-result expressions *)
  mutable session : Smt.Session.t option;
      (** solver session constraints are interned into as they are
          recorded; clones share it, so a forked state's path-predicate
          prefix is already encoded when the engine checks the fork *)
  meter : Robust.Meter.t option;
      (** cell budget accounting, shared by clones; constraint
          recording doubles as a cooperative checkpoint *)
}

and info = {
  pc : int64;               (** branch instruction address *)
  taken : bool;             (** direction this path went *)
  kind : kind;
  cost : int;               (** [built_cost] when this was recorded *)
}

and kind = Branch | Fault_guard | Address_bound | Assumption of string

let create ?meter ?session () =
  { env = Env.create 64;
    shadow = Shadow.create 256;
    constraints = [];
    diags = [];
    load_depth = 0;
    built_cost = 0;
    load_depths = Phys.create 64;
    session;
    meter = Robust.Meter.default meter }

let clone t =
  { env = Env.copy t.env;
    shadow = Shadow.copy t.shadow;
    constraints = t.constraints;
    diags = t.diags;
    load_depth = t.load_depth;
    built_cost = t.built_cost;
    load_depths = Phys.copy t.load_depths;
    session = t.session;
    meter = t.meter }

let attach_session t session = t.session <- Some session

let diag t d = t.diags <- d :: t.diags

(** The constraint-system blow-up guard every engine shares: a path
    predicate whose bit-blast cost exceeds this is never solved — the
    crypto-bomb "memory out" of the paper's E rows.  Constraints past
    it are not interned either: crypto-sized DAGs are too deep to
    walk. *)
let max_blast_cost = 300_000

(** argv[1] from a model over [argv1_0 .. argv1_{width-1}]: a byte the
    model leaves out is [fill]'s byte at that position (NUL past its
    end), the string is cut at the first NUL, and a NUL first byte
    gives [empty] (an empty argv[1] would change the argv layout). *)
let input_of_model ~fill ~empty ~width (model : Smt.Solver.model) =
  let s =
    String.init width (fun i ->
        match List.assoc_opt (Printf.sprintf "argv1_%d" i) model with
        | Some x -> Char.chr (Int64.to_int (Int64.logand x 0xffL))
        | None -> if i < String.length fill then fill.[i] else '\000')
  in
  match String.index_opt s '\000' with
  | Some 0 -> empty
  | Some i -> String.sub s 0 i
  | None -> s

let add_constraint t ?(kind = Branch) ~pc ~taken e =
  (match t.meter with
   | Some m -> Robust.Meter.checkpoint m
   | None -> ());
  match e with
  | E.Const (1L, 1) -> ()   (* concretely true: no information *)
  | _ ->
    let e =
      match t.session with
      | Some s when t.built_cost <= max_blast_cost -> Smt.Session.intern s e
      | _ -> e
    in
    t.constraints <-
      (e, { pc; taken; kind; cost = t.built_cost }) :: t.constraints

(** Path predicate in execution order. *)
let path_condition t = List.rev_map fst t.constraints

(* ------------------------------------------------------------------ *)
(* Folding constructors                                                *)
(* ------------------------------------------------------------------ *)

let is_c = function E.Const _ -> true | _ -> false

(* [e] folded to its constant when [all_const] says its children are
   all constants *)
let fold_if all_const e = if all_const then Smt.Eval.fold e else e

(* light algebraic rules beyond folding keep lifted code small *)
let mk_binop op a b =
  match (op : E.binop), a, b with
  | Add, x, E.Const (0L, _) | Add, E.Const (0L, _), x -> x
  | Sub, x, E.Const (0L, _) -> x
  | (And | Or), x, y when x == y -> x
  | Xor, x, y when x == y -> E.Const (0L, E.width_of a)
  | And, _, E.Const (0L, w) | And, E.Const (0L, w), _ -> E.Const (0L, w)
  | Or, x, E.Const (0L, _) | Or, E.Const (0L, _), x -> x
  | Xor, x, E.Const (0L, _) | Xor, E.Const (0L, _), x -> x
  | _ -> fold_if (is_c a && is_c b) (E.Binop (op, a, b))

let mk_unop op a = fold_if (is_c a) (E.Unop (op, a))
let mk_cmp op a b = fold_if (is_c a && is_c b) (E.Cmp (op, a, b))

let mk_ite c a b =
  match c with
  | E.Const (1L, 1) -> a
  | E.Const (0L, 1) -> b
  | _ -> if a == b then a else E.Ite (c, a, b)

let mk_extract hi lo a =
  let w = E.width_of a in
  if lo = 0 && hi = w - 1 then a
  else
    match a with
    | E.Const _ -> Smt.Eval.fold (E.Extract (hi, lo, a))
    | E.Zext (_, x) when hi < E.width_of x -> E.Extract (hi, lo, x)
    | E.Zext (_, x) when lo >= E.width_of x -> E.Const (0L, hi - lo + 1)
    | E.Concat (_, lo_part) when hi < E.width_of lo_part ->
      if lo = 0 && hi = E.width_of lo_part - 1 then lo_part
      else E.Extract (hi, lo, lo_part)
    | _ -> E.Extract (hi, lo, a)

let mk_concat a b =
  match (a, b) with
  | E.Const _, E.Const _ -> Smt.Eval.fold (E.Concat (a, b))
  | E.Const (0L, wz), x -> E.Zext (wz + E.width_of x, x)
  | _ -> E.Concat (a, b)

let mk_zext w a =
  if E.width_of a = w then a
  else if is_c a then Smt.Eval.fold (E.Zext (w, a))
  else E.Zext (w, a)

let mk_sext w a =
  if E.width_of a = w then a
  else if is_c a then Smt.Eval.fold (E.Sext (w, a))
  else E.Sext (w, a)

let mk_fbin op a b = fold_if (is_c a && is_c b) (E.Fbin (op, a, b))
let mk_fcmp op a b = fold_if (is_c a && is_c b) (E.Fcmp (op, a, b))
let mk_fsqrt a = fold_if (is_c a) (E.Fsqrt a)
let mk_fof_int a = fold_if (is_c a) (E.Fof_int a)
let mk_fto_int a = fold_if (is_c a) (E.Fto_int a)

(* charge a state for a freshly built (non-constant) node, at the
   weight {!Smt.Expr.blast_cost} sums *)
let charge t (e : E.t) =
  (match e with
   | E.Const _ -> ()
   | _ -> t.built_cost <- t.built_cost + E.blast_weight e);
  e

(* ------------------------------------------------------------------ *)
(* Variables and memory                                                *)
(* ------------------------------------------------------------------ *)

(** Read a state variable; absent variables resolve through
    [concrete], which supplies the live concrete value. *)
let read_var t name width ~concrete =
  match Env.find t.env name with
  | e -> e
  | exception Not_found ->
    E.Const (Int64.logand (concrete name) (E.mask width), width)

let write_var t name e = Env.replace t.env name e

(* the bytes of an all-concrete load, little-endian *)
let word = Bytes.create 8

(** Read [n] shadow bytes at a concrete address; bytes with no shadow
    entry resolve through [concrete_byte].  Returns the little-endian
    concatenation: when every byte is a constant, the one constant of
    the whole word (the folded concatenation), and a 1-byte load
    returns the byte's shadow node itself. *)
let load_concrete t addr n ~concrete_byte =
  let byte i =
    let a = Int64.add addr (Int64.of_int i) in
    match Shadow.find t.shadow a with
    | e -> e
    | exception Not_found ->
      E.Const (Int64.of_int (concrete_byte a land 0xff), 8)
  in
  (* fill [word] from byte [i] on; false at the first symbolic byte *)
  let rec concrete i =
    i = n
    || (let a = Int64.add addr (Int64.of_int i) in
        match Shadow.find t.shadow a with
        | E.Const (v, 8) ->
          Bytes.set_uint8 word i (Int64.to_int v);
          concrete (i + 1)
        | _ -> false
        | exception Not_found ->
          Bytes.set_uint8 word i (concrete_byte a);
          concrete (i + 1))
  in
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) (charge t (mk_concat acc (byte i)))
  in
  if n = 1 then byte 0
  else if n <= 8 && concrete 0 then begin
    Bytes.fill word n (8 - n) '\000';
    E.Const (Bytes.get_int64_le word 0, 8 * n)
  end
  (* most significant byte first in the accumulator *)
  else build (n - 2) (byte (n - 1))

(** Store the [n]-byte value [e] at a concrete address.
    [keep_concrete] forces constant bytes into the shadow as well —
    required when there is no concrete replica running alongside
    (the DSE engine).  A constant [e] is cut into its bytes directly,
    with the nodes and costs of [mk_extract]. *)
let store_concrete ?(keep_concrete = false) t addr n e =
  let put a b =
    match b with
    | E.Const _ when (not keep_concrete) && not (Shadow.mem t.shadow a) ->
      (* concrete over concrete: the replica remembers it *)
      ()
    | _ -> Shadow.replace t.shadow a b
  in
  match e with
  | E.Const (v, w) ->
    let v = Int64.logand v (E.mask w) in
    for i = 0 to n - 1 do
      let lo = 8 * i in
      put
        (Int64.add addr (Int64.of_int i))
        (if lo = 0 && w = 8 then e
         else
           E.Const (Int64.logand (Int64.shift_right_logical v lo) 0xffL, 8))
    done
  | _ ->
    for i = 0 to n - 1 do
      put
        (Int64.add addr (Int64.of_int i))
        (charge t (mk_extract ((8 * i) + 7) (8 * i) e))
    done

(** Mark [len] bytes at [addr] as fresh symbolic input bytes named
    [prefix ^ "_" ^ i]. *)
let symbolize_region t ~prefix addr len =
  for i = 0 to len - 1 do
    Shadow.replace t.shadow
      (Int64.add addr (Int64.of_int i))
      (E.Var { vname = Printf.sprintf "%s_%d" prefix i; width = 8 })
  done
