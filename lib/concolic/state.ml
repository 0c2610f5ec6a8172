(** Symbolic machine state shared by the trace-based executor and the
    static DSE engine: an environment for named state variables, a
    byte-granular symbolic memory shadow, and constant-folding term
    constructors (so fully concrete sub-computations never build
    symbolic structure). *)

module E = Smt.Expr

module Phys = E.Phys

type t = {
  env : (string, E.t) Hashtbl.t;        (** registers, flags, temps *)
  shadow : (int64, E.t) Hashtbl.t;      (** memory bytes with symbolic values *)
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
  { env = Hashtbl.create 64;
    shadow = Hashtbl.create 256;
    constraints = [];
    diags = [];
    load_depth = 0;
    built_cost = 0;
    load_depths = Phys.create 64;
    session;
    meter = Robust.Meter.default meter }

let clone t =
  { env = Hashtbl.copy t.env;
    shadow = Hashtbl.copy t.shadow;
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

let fold1 mk a =
  let e = mk a in
  if is_c a then E.Const (Smt.Eval.eval ~memo:false Simplify_env.empty e,
                          E.width_of e)
  else e

let fold2 mk a b =
  let e = mk a b in
  if is_c a && is_c b then
    E.Const (Smt.Eval.eval ~memo:false Simplify_env.empty e, E.width_of e)
  else e

let fold3 mk a b c =
  let e = mk a b c in
  if is_c a && is_c b && is_c c then
    E.Const (Smt.Eval.eval ~memo:false Simplify_env.empty e, E.width_of e)
  else e

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
  | _ -> fold2 (fun a b -> E.Binop (op, a, b)) a b

let mk_unop op a = fold1 (fun a -> E.Unop (op, a)) a
let mk_cmp op a b = fold2 (fun a b -> E.Cmp (op, a, b)) a b

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
    | E.Const _ -> fold1 (fun a -> E.Extract (hi, lo, a)) a
    | E.Zext (_, x) when hi < E.width_of x -> E.Extract (hi, lo, x)
    | E.Zext (_, x) when lo >= E.width_of x -> E.Const (0L, hi - lo + 1)
    | E.Concat (_, lo_part) when hi < E.width_of lo_part ->
      if lo = 0 && hi = E.width_of lo_part - 1 then lo_part
      else E.Extract (hi, lo, lo_part)
    | _ -> E.Extract (hi, lo, a)

let mk_concat a b =
  match (a, b) with
  | E.Const _, E.Const _ -> fold2 (fun a b -> E.Concat (a, b)) a b
  | E.Const (0L, wz), x -> E.Zext (wz + E.width_of x, x)
  | _ -> E.Concat (a, b)

let mk_zext w a =
  if E.width_of a = w then a
  else if is_c a then fold1 (fun a -> E.Zext (w, a)) a
  else E.Zext (w, a)

let mk_sext w a =
  if E.width_of a = w then a
  else if is_c a then fold1 (fun a -> E.Sext (w, a)) a
  else E.Sext (w, a)

let mk_fbin op a b = fold2 (fun a b -> E.Fbin (op, a, b)) a b
let mk_fcmp op a b = fold2 (fun a b -> E.Fcmp (op, a, b)) a b
let mk_fsqrt a = fold1 (fun a -> E.Fsqrt a) a
let mk_fof_int a = fold1 (fun a -> E.Fof_int a) a
let mk_fto_int a = fold1 (fun a -> E.Fto_int a) a

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
  match Hashtbl.find_opt t.env name with
  | Some e -> e
  | None -> E.Const (Int64.logand (concrete name) (E.mask width), width)

let write_var t name e =
  match e with
  | E.Const _ -> Hashtbl.replace t.env name e
  | _ -> Hashtbl.replace t.env name e

(** Read [n] shadow bytes at a concrete address; bytes with no shadow
    entry resolve through [concrete_byte].  Returns the little-endian
    concatenation. *)
let load_concrete t addr n ~concrete_byte =
  let byte i =
    let a = Int64.add addr (Int64.of_int i) in
    match Hashtbl.find_opt t.shadow a with
    | Some e -> e
    | None -> E.Const (Int64.of_int (concrete_byte a land 0xff), 8)
  in
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) (charge t (mk_concat acc (byte i)))
  in
  (* most significant byte first in the accumulator *)
  if n = 1 then byte 0
  else build (n - 2) (byte (n - 1))

(** Store the [n]-byte value [e] at a concrete address.
    [keep_concrete] forces constant bytes into the shadow as well —
    required when there is no concrete replica running alongside
    (the DSE engine). *)
let store_concrete ?(keep_concrete = false) t addr n e =
  for i = 0 to n - 1 do
    let a = Int64.add addr (Int64.of_int i) in
    let b = charge t (mk_extract ((8 * i) + 7) (8 * i) e) in
    match b with
    | E.Const _ when (not keep_concrete) && not (Hashtbl.mem t.shadow a) ->
      (* concrete over concrete: the replica remembers it *)
      ()
    | _ -> Hashtbl.replace t.shadow a b
  done

(** Mark [len] bytes at [addr] as fresh symbolic input bytes named
    [prefix ^ "_" ^ i]. *)
let symbolize_region t ~prefix addr len =
  for i = 0 to len - 1 do
    Hashtbl.replace t.shadow
      (Int64.add addr (Int64.of_int i))
      (E.Var { vname = Printf.sprintf "%s_%d" prefix i; width = 8 })
  done
