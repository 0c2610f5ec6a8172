(** SMT substrate tests: SAT solver basics, bit-blaster vs evaluator
    agreement (property-based), simplifier soundness, solver outcomes
    on hand-picked constraints, and the FP search fallback. *)

open Smt

(* ---------------- SAT ---------------- *)

let sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.mk_lit a true; Sat.mk_lit b true ];
  Sat.add_clause s [ Sat.mk_lit a false ];
  (match Sat.solve s with
   | Sat -> ()
   | _ -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "a false" false (Sat.model_value s a);
  Alcotest.(check bool) "b true" true (Sat.model_value s b)

let sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ Sat.mk_lit a true ];
  Sat.add_clause s [ Sat.mk_lit a false ];
  match Sat.solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

(* pigeonhole PHP(4,3): unsat, requires real conflict analysis *)
let sat_pigeonhole () =
  let s = Sat.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for p = 0 to 3 do
    Sat.add_clause s (List.init 3 (fun h -> Sat.mk_lit v.(p).(h) true))
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Sat.add_clause s
          [ Sat.mk_lit v.(p1).(h) false; Sat.mk_lit v.(p2).(h) false ]
      done
    done
  done;
  match Sat.solve s with
  | Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole should be unsat"

(* random 3-SAT instances: solver's model must satisfy all clauses *)
let sat_random_models () =
  let rng = ref 123456789 in
  let rand n = rng := (!rng * 1103515245 + 12345) land 0x3fffffff; !rng mod n in
  for _case = 1 to 50 do
    let s = Sat.create () in
    let nv = 8 + rand 10 in
    let vars = Array.init nv (fun _ -> Sat.new_var s) in
    let clauses = ref [] in
    for _c = 1 to 3 * nv do
      let clause =
        List.init 3 (fun _ -> Sat.mk_lit vars.(rand nv) (rand 2 = 0))
      in
      clauses := clause :: !clauses;
      Sat.add_clause s clause
    done;
    match Sat.solve s with
    | Sat ->
      List.iter
        (fun clause ->
           let ok =
             List.exists
               (fun l ->
                  let v = Sat.model_value s (Sat.lit_var l) in
                  if Sat.lit_sign l then v else not v)
               clause
           in
           if not ok then Alcotest.fail "model does not satisfy clause")
        !clauses
    | Unsat -> () (* random instances may be unsat; fine *)
    | Unknown -> Alcotest.fail "unexpected unknown"
  done

(* Random CNF sessions over at most 12 variables: rounds of clauses
   added between solves, each solve under its own (possibly empty)
   assumptions.  A Sat answer must give a model of every clause so far
   and every assumption; an Unsat answer is checked against all 2^n
   assignments, so a solver that wrongly answers Unsat fails. *)
let gen_cnf_session =
  let open QCheck2.Gen in
  int_range 1 12 >>= fun nv ->
  let lit = map2 Sat.mk_lit (int_bound (nv - 1)) bool in
  let clause = list_size (int_range 1 4) lit in
  let round =
    pair (list_size (int_range 1 (3 * nv)) clause) (list_size (int_bound 3) lit)
  in
  map (fun rounds -> (nv, rounds)) (list_size (int_range 1 3) round)

let print_cnf_session (nv, rounds) =
  let lits ls = String.concat " " (List.map string_of_int ls) in
  Printf.sprintf "nvars=%d\n%s" nv
    (String.concat "\n"
       (List.map
          (fun (clauses, assume) ->
             Printf.sprintf "clauses [%s] assume [%s]"
               (String.concat "; " (List.map lits clauses))
               (lits assume))
          rounds))

let sat_answers_checked_by_enumeration =
  QCheck2.Test.make ~count:500
    ~name:"sat models hold, unsat confirmed by enumeration"
    ~print:print_cnf_session gen_cnf_session
    (fun (nv, rounds) ->
       let s = Sat.create () in
       for _ = 1 to nv do ignore (Sat.new_var s) done;
       let holds value l =
         if Sat.lit_sign l then value (Sat.lit_var l)
         else not (value (Sat.lit_var l))
       in
       let satisfied value clauses assume =
         List.for_all (List.exists (holds value)) clauses
         && List.for_all (holds value) assume
       in
       let some_model clauses assume =
         let rec from m =
           m < 1 lsl nv
           && (satisfied (fun v -> (m lsr v) land 1 = 1) clauses assume
               || from (m + 1))
         in
         from 0
       in
       let rec go clauses = function
         | [] -> true
         | (added, assume) :: rest ->
           Sat.reset_to_root s;
           List.iter (Sat.add_clause s) added;
           let clauses = added @ clauses in
           (match Sat.solve ~assumptions:assume s with
            | Sat.Sat -> satisfied (Sat.model_value s) clauses assume
            | Unsat -> not (some_model clauses assume)
            | Unknown -> false)
           && go clauses rest
       in
       go [] rounds)

(* ---------------- trajectory pins ---------------- *)

(* One solve's search trajectory as a row: verdict, then the deltas of
   the conflict, decision and propagation counters, then an MD5 prefix
   of the model over every variable ("-" unless Sat).  Equal rows mean
   the same decisions, propagation order and learnt clauses, so a
   data-structure change to the CDCL core must leave them all alone. *)
let trajectory s solve =
  let c0 = Sat.num_conflicts s
  and d0 = Sat.num_decisions s
  and p0 = Sat.num_propagations s in
  let r = solve () in
  let verdict, model =
    match r with
    | Sat.Sat ->
      let bits =
        String.init (Sat.num_vars s) (fun v ->
            if Sat.model_value s v then '1' else '0')
      in
      ("sat", String.sub (Digest.to_hex (Digest.string bits)) 0 12)
    | Unsat -> ("unsat", "-")
    | Unknown -> ("unknown", "-")
  in
  Printf.sprintf "%s c=%d d=%d p=%d m=%s" verdict
    (Sat.num_conflicts s - c0) (Sat.num_decisions s - d0)
    (Sat.num_propagations s - p0) model

(* [n] clauses of three distinct variables with random signs *)
let add_random_3sat rng s vars n =
  let nv = Array.length vars in
  for _ = 1 to n do
    let rec pick acc =
      if List.length acc = 3 then acc
      else
        let v = Random.State.int rng nv in
        pick (if List.mem v acc then acc else v :: acc)
    in
    Sat.add_clause s
      (List.map (fun v -> Sat.mk_lit vars.(v) (Random.State.bool rng)) (pick []))
  done

let ratio_426 nv = int_of_float (Float.round (4.26 *. float_of_int nv))

let pin_random_3sat () =
  let rows =
    List.map
      (fun (seed, nv) ->
         let rng = Random.State.make [| seed |] in
         let s = Sat.create () in
         let vars = Array.init nv (fun _ -> Sat.new_var s) in
         add_random_3sat rng s vars (ratio_426 nv);
         Printf.sprintf "seed=%d n=%d %s" seed nv
           (trajectory s (fun () -> Sat.solve s)))
      [ (1, 60); (2, 70); (3, 80); (4, 90); (5, 100); (6, 110); (7, 120);
        (8, 130); (9, 150); (10, 160); (11, 170); (12, 180) ]
  in
  Alcotest.(check (list string)) "random 3-sat trajectories"
    [ "seed=1 n=60 sat c=58 d=86 p=890 m=32e44c456cb1";
      "seed=2 n=70 sat c=195 d=248 p=3574 m=db8c1f33d652";
      "seed=3 n=80 sat c=216 d=272 p=4254 m=d79e59a6e093";
      "seed=4 n=90 sat c=183 d=256 p=3828 m=62eaf1db4896";
      "seed=5 n=100 sat c=354 d=477 p=8472 m=dc267d26575f";
      "seed=6 n=110 sat c=138 d=200 p=3217 m=2d60340a6124";
      "seed=7 n=120 unsat c=1202 d=1424 p=31936 m=-";
      "seed=8 n=130 sat c=370 d=465 p=11236 m=b9fefd2d6a63";
      "seed=9 n=150 sat c=294 d=408 p=8449 m=9e54b99e946d";
      "seed=10 n=160 sat c=817 d=1058 p=23966 m=9264c21e2a08";
      "seed=11 n=170 unsat c=8791 d=10500 p=281176 m=-";
      "seed=12 n=180 sat c=3618 d=4385 p=124946 m=32f0c4e38bb3" ]
    rows

let pin_pigeonhole () =
  let s = Sat.create () in
  let pigeons = 6 and holes = 5 in
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s))
  in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (List.init holes (fun h -> Sat.mk_lit v.(p).(h) true))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s
          [ Sat.mk_lit v.(p1).(h) false; Sat.mk_lit v.(p2).(h) false ]
      done
    done
  done;
  Alcotest.(check string) "PHP(6,5) trajectory" "unsat c=155 d=187 p=1779 m=-"
    (trajectory s (fun () -> Sat.solve s))

(* the session protocol: solve under assumptions, back to the root,
   more clauses, then solve again under a conflict budget *)
let pin_incremental () =
  let rng = Random.State.make [| 42 |] in
  let s = Sat.create () in
  let vars = Array.init 90 (fun _ -> Sat.new_var s) in
  add_random_3sat rng s vars 300;
  let assume = [ Sat.mk_lit vars.(0) true; Sat.mk_lit vars.(1) false;
                 Sat.mk_lit vars.(2) true ] in
  let first = trajectory s (fun () -> Sat.solve ~assumptions:assume s) in
  Sat.reset_to_root s;
  add_random_3sat rng s vars 90;
  let second =
    trajectory s (fun () -> Sat.solve ~conflict_budget:40 s)
  in
  let third = trajectory s (fun () -> Sat.solve s) in
  Alcotest.(check (list string)) "incremental trajectory"
    [ "sat c=34 d=59 p=701 m=23bb794b239d";
      "unknown c=40 d=56 p=726 m=-";
      "sat c=99 d=125 p=2167 m=94909ded6fd9" ]
    [ first; second; third ]

(* ---------------- expr generators ---------------- *)

let gen_expr_with_var : (Expr.t * int) QCheck2.Gen.t =
  (* returns (expr of given width, depth); one variable "x" of width 16 *)
  let open QCheck2.Gen in
  let leaf w =
    oneof
      [ map (fun v -> Expr.const ~width:w (Int64.of_int v)) (int_bound 0xffff);
        (if w = 16 then return (Expr.var ~width:16 "x")
         else return (Expr.const ~width:w 3L)) ]
  in
  let rec build w depth =
    if depth = 0 then leaf w
    else
      let sub = build w (depth - 1) in
      oneof
        [ leaf w;
          map2 (fun op (a, b) -> Expr.Binop (op, a, b))
            (oneofl
               [ Expr.Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Ashr; Udiv;
                 Urem; Sdiv; Srem ])
            (pair sub sub);
          map (fun a -> Expr.Unop (Not, a)) sub;
          map (fun a -> Expr.Unop (Neg, a)) sub;
          map3 (fun c a b -> Expr.ite c a b)
            (map2 (fun op (a, b) -> Expr.Cmp (op, a, b))
               (oneofl [ Expr.Eq; Ult; Ule; Slt; Sle ])
               (pair sub sub))
            sub sub ]
  in
  map (fun e -> (e, 3)) (build 16 3)

(* blast "e == value-under-env" and check SAT; i.e. the circuit agrees
   with the evaluator *)
let blast_agrees_with_eval =
  QCheck2.Test.make ~count:200 ~name:"bit-blaster agrees with evaluator"
    gen_expr_with_var
    (fun (e, _) ->
       let env = Eval.env_of_list [ ("x", 0xABCDL) ] in
       let expected = Eval.eval env e in
       let w = Expr.width_of e in
       let c =
         Expr.and_
           (Expr.eq e (Expr.const ~width:w expected))
           (Expr.eq (Expr.var ~width:16 "x") (Expr.const ~width:16 0xABCDL))
       in
       let ctx = Blast.create () in
       Blast.assert_true ctx c;
       match Blast.solve ctx with Sat -> true | _ -> false)

let simplify_sound =
  QCheck2.Test.make ~count:300 ~name:"simplify preserves evaluation"
    gen_expr_with_var
    (fun (e, _) ->
       let env = Eval.env_of_list [ ("x", 0x1234L) ] in
       let before = Eval.eval env e in
       let after = Eval.eval env (Simplify.run e) in
       Int64.equal before after)

(* ---------------- DAG walks ---------------- *)

let children (e : Expr.t) =
  match e with
  | Var _ | Const _ -> []
  | Unop (_, a) | Extract (_, _, a) | Zext (_, a) | Sext (_, a)
  | Fsqrt a | Fof_int a | Fto_int a -> [ a ]
  | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b)
  | Fbin (_, a, b) | Fcmp (_, a, b) -> [ a; b ]
  | Ite (c, a, b) -> [ c; a; b ]

(* naive tree-recursive references for the DAG walks *)
let rec naive_fp (e : Expr.t) =
  match e with
  | Fbin _ | Fcmp _ | Fsqrt _ | Fof_int _ | Fto_int _ -> true
  | _ -> List.exists naive_fp (children e)

let naive_var_names es =
  let rec go acc (e : Expr.t) =
    match e with
    | Var v -> if List.mem v.vname acc then acc else v.vname :: acc
    | _ -> List.fold_left go acc (children e)
  in
  List.rev (List.fold_left go [] es)

let naive_blast_cost e =
  let seen = ref [] in
  let rec go e =
    if not (List.memq e !seen) then begin
      seen := e :: !seen;
      List.iter go (children e)
    end
  in
  go e;
  List.fold_left (fun acc e -> acc + Expr.blast_weight e) 0 !seen

let var_names vs = List.map (fun (v : Expr.var) -> v.vname) vs

(* Term lists over a growing pool: every new node combines earlier pool
   nodes, so subterms are physically shared across and within terms.
   Variables of one name are built as distinct nodes, and FP appears
   both as leaves and as interior nodes. *)
let gen_shared_terms : Expr.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [ (4, map (fun i -> Expr.var ~width:8 (Printf.sprintf "v%d" i))
              (int_bound 4));
        (3, map (fun v -> Expr.const_int ~width:8 v) (int_bound 255));
        (1, map (fun i -> Expr.Fof_int (Expr.var (Printf.sprintf "f%d" i)))
              (int_bound 1)) ]
  in
  let step = tup4 (int_bound 7) nat nat nat in
  map3
    (fun leaves steps picks ->
       let pool =
         List.fold_left
           (fun pool (kind, i, j, k) ->
              let n = Array.length pool in
              let a = pool.(i mod n) and b = pool.(j mod n)
              and c = pool.(k mod n) in
              let e : Expr.t =
                match kind with
                | 0 -> Binop (Add, a, b)
                | 1 -> Binop (Mul, a, b)
                | 2 -> Cmp (Ult, a, b)
                | 3 -> Ite (c, a, b)
                | 4 -> Unop (Neg, a)
                | 5 -> Extract (3, 0, a)
                | 6 -> Concat (a, b)
                | _ -> Fbin (Fadd, a, b)
              in
              Array.append pool [| e |])
           (Array.of_list leaves) steps
       in
       List.map (fun i -> pool.(i mod Array.length pool)) picks)
    (list_size (int_range 1 5) leaf)
    (list_size (int_bound 10) step)
    (list_size (int_range 1 4) nat)

(* ---------------- evaluator ---------------- *)

(* Well-typed 8-bit terms over a growing pool (1-bit conditions kept in
   a pool of their own), so subterms are physically shared and the
   memoised evaluator meets them more than once. *)
let gen_eval_terms : Expr.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun i -> Expr.var ~width:8 (Printf.sprintf "v%d" i))
          (int_bound 3);
        map (fun v -> Expr.const_int ~width:8 v) (int_bound 255) ]
  in
  let step = tup4 (int_bound 21) nat nat nat in
  map3
    (fun leaves steps picks ->
       let pool = ref (Array.of_list leaves) and conds = ref [||] in
       let pick arr i = arr.(i mod Array.length arr) in
       List.iter
         (fun (kind, i, j, k) ->
            let a = pick !pool i and b = pick !pool j in
            let bv (op : Expr.binop) = Expr.Binop (op, a, b) in
            let cmp (op : Expr.cmpop) = Expr.Cmp (op, a, b) in
            let push e = pool := Array.append !pool [| e |] in
            let push_cond e = conds := Array.append !conds [| e |] in
            match kind with
            | 0 -> push (bv Add) | 1 -> push (bv Sub) | 2 -> push (bv Mul)
            | 3 -> push (bv And) | 4 -> push (bv Xor) | 5 -> push (bv Udiv)
            | 6 -> push (bv Urem) | 7 -> push (bv Sdiv) | 8 -> push (bv Srem)
            | 9 -> push (bv Shl) | 10 -> push (bv Lshr) | 11 -> push (bv Ashr)
            | 12 -> push (Expr.Unop (Neg, a))
            | 13 -> push (Expr.Unop (Not, a))
            | 14 -> push_cond (cmp Ult) | 15 -> push_cond (cmp Ule)
            | 16 -> push_cond (cmp Slt) | 17 -> push_cond (cmp Sle)
            | 18 -> push_cond (cmp Eq)
            | 19 ->
              let c =
                if !conds = [||] then Expr.Cmp (Eq, a, b) else pick !conds k
              in
              push (Expr.Ite (c, a, b))
            | 20 ->
              push (Expr.Concat (Expr.Extract (3, 0, a), Expr.Extract (7, 4, b)))
            | _ ->
              push
                (Expr.Binop
                   ( Xor,
                     Expr.Extract (11, 4, Expr.Zext (16, a)),
                     Expr.Extract (15, 8, Expr.Sext (16, b)) )))
         steps;
       List.map
         (fun i ->
            if i mod 3 = 0 && !conds <> [||] then pick !conds i
            else pick !pool i)
         picks)
    (list_size (int_range 1 4) leaf)
    (list_size (int_bound 24) step)
    (list_size (int_range 1 4) nat)

(* tree-recursive reference over OCaml ints (every width here is at
   most 16 bits), written apart from [Eval]'s Int64 code *)
let rec reference_eval env (e : Expr.t) =
  let mask w = (1 lsl w) - 1 in
  let signed w v = if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v in
  let w = Expr.width_of e in
  let go = reference_eval env in
  let r =
    match e with
    | Var v -> List.assoc v.vname env
    | Const (v, _) -> Int64.to_int v
    | Unop (Neg, a) -> - go a
    | Unop (Not, a) -> lnot (go a)
    | Binop (op, a, b) -> (
        let wa = Expr.width_of a in
        let x = go a and y = go b in
        let sx = signed wa x and sy = signed wa y in
        match op with
        | Add -> x + y
        | Sub -> x - y
        | Mul -> x * y
        | And -> x land y
        | Or -> x lor y
        | Xor -> x lxor y
        | Udiv -> if y = 0 then mask wa else x / y
        | Urem -> if y = 0 then x else x mod y
        | Sdiv -> if y = 0 then (if sx < 0 then 1 else mask wa) else sx / sy
        | Srem -> if y = 0 then x else sx mod sy
        | Shl -> if y >= wa then 0 else x lsl y
        | Lshr -> if y >= wa then 0 else x lsr y
        | Ashr -> sx asr min y (wa - 1))
    | Cmp (op, a, b) ->
      let wa = Expr.width_of a in
      let x = go a and y = go b in
      let holds =
        match op with
        | Eq -> x = y
        | Ult -> x < y
        | Ule -> x <= y
        | Slt -> signed wa x < signed wa y
        | Sle -> signed wa x <= signed wa y
      in
      Bool.to_int holds
    | Ite (c, a, b) -> if go c = 1 then go a else go b
    | Extract (hi, lo, a) -> (go a lsr lo) land mask (hi - lo + 1)
    | Concat (a, b) -> (go a lsl Expr.width_of b) lor go b
    | Zext (_, a) -> go a
    | Sext (_, a) -> signed (Expr.width_of a) (go a)
    | _ -> invalid_arg "reference_eval: operator outside the generator"
  in
  r land mask w

let eval_agrees_with_reference =
  QCheck2.Test.make ~count:500
    ~name:"eval ~memo:false = eval ~memo:true = tree reference"
    QCheck2.Gen.(pair gen_eval_terms (list_repeat 4 (int_bound 255)))
    (fun (terms, values) ->
       let binding = List.mapi (fun i v -> (Printf.sprintf "v%d" i, v)) values in
       let env =
         Eval.env_of_list
           (List.map (fun (n, v) -> (n, Int64.of_int v)) binding)
       in
       List.for_all
         (fun e ->
            let expected = Int64.of_int (reference_eval binding e) in
            Int64.equal (Eval.eval ~memo:false env e) expected
            && Int64.equal (Eval.eval ~memo:true env e) expected)
         terms)

(* one node over constant children: every operator, every width, and
   the values where folding goes wrong — division by zero, shift
   amounts at and past the width, sign bits, FP specials *)
let gen_fold_node : Expr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  (* a child's value beyond its width must be masked off, as [eval]
     masks it *)
  let const w =
    let m = Expr.mask w in
    map2
      (fun masked v -> Expr.Const ((if masked then Int64.logand v m else v), w))
      (frequencyl [ (4, true); (1, false) ])
      (oneof
         [ oneofl
             [ 0L; 1L; m; Int64.shift_right_logical m 1; Int64.of_int w;
               Int64.of_int (w - 1); Int64.of_int (w + 1); 64L; 65L ];
           ui64 ])
  in
  let double =
    map
      (fun f -> Expr.Const (Int64.bits_of_float f, 64))
      (oneof
         [ oneofl [ 0.; -0.; 1.5; -2.25; Float.nan; Float.infinity; 1e300 ];
           float ])
  in
  let* w = oneofl [ 1; 8; 16; 32; 64 ] in
  let* a = const w and* b = const w in
  oneof
    [ map (fun op -> Expr.Unop (op, a)) (oneofl [ Expr.Neg; Not ]);
      map
        (fun op -> Expr.Binop (op, a, b))
        (oneofl
           Expr.[ Add; Sub; Mul; Udiv; Urem; Sdiv; Srem; And; Or; Xor; Shl;
                  Lshr; Ashr ]);
      map
        (fun op -> Expr.Cmp (op, a, b))
        (oneofl Expr.[ Eq; Ult; Ule; Slt; Sle ]);
      map (fun c -> Expr.Ite (c, a, b)) (const 1);
      (let* lo = int_bound (w - 1) in
       let* hi = int_range lo (w - 1) in
       return (Expr.Extract (hi, lo, a)));
      (let* wa = int_range 1 63 in
       let* wb = int_range 1 (64 - wa) in
       map2 (fun x y -> Expr.Concat (x, y)) (const wa) (const wb));
      map (fun w' -> Expr.Zext (w', a)) (int_range w 64);
      map (fun w' -> Expr.Sext (w', a)) (int_range w 64);
      map3
        (fun op x y -> Expr.Fbin (op, x, y))
        (oneofl Expr.[ Fadd; Fsub; Fmul; Fdiv ]) double double;
      map3
        (fun op x y -> Expr.Fcmp (op, x, y))
        (oneofl Expr.[ Feq; Flt; Fle ]) double double;
      map (fun x -> Expr.Fsqrt x) double;
      map (fun x -> Expr.Fto_int x) double;
      return (Expr.Fof_int a) ]

let fold_agrees_with_eval =
  QCheck2.Test.make ~count:2000 ~name:"fold = eval ~memo:false"
    ~print:Expr.show gen_fold_node (fun e ->
        Expr.equal (Eval.fold e)
          (Expr.Const
             (Eval.eval ~memo:false (Eval.env_of_list []) e, Expr.width_of e)))

(* an unmemoised evaluation (the difftest IR interpreter's) must not
   build a memo table; the constant folds build no evaluator at all *)
let eval_unmemoised_allocation () =
  let e = Expr.Binop (Add, Expr.const 3L, Expr.const 4L) in
  let env = Eval.env_of_list [] in
  let calls = 1_000 in
  ignore (Eval.eval ~memo:false env e);
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Eval.eval ~memo:false env e))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per call < 64" per_call)
    true (per_call < 64.0);
  (* a fold builds no evaluator: its result, and the boxed values of
     its children *)
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Eval.fold e))
  done;
  let per_fold = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per fold < 16" per_fold)
    true (per_fold < 16.0)

let walks_match_tree_references =
  QCheck2.Test.make ~count:300
    ~name:"DAG walks match tree-recursive references"
    ~print:(fun es -> String.concat "\n" (List.map Expr.show es))
    gen_shared_terms
    (fun es ->
       let fp = Expr.exists_fp es in
       fp = List.exists Expr.contains_fp es
       && fp = List.exists naive_fp es
       && var_names (Expr.vars_of_list es) = naive_var_names es
       && List.for_all (fun e -> Expr.blast_cost e = naive_blast_cost e) es)

(* a session reads a node's FP flag and a constraint's variables off
   its interned node instead of walking the term: they must be what
   the walks return, for every node of every term *)
let session_facts_match_walks =
  QCheck2.Test.make ~count:300
    ~name:"session FP flags and variables match the walks"
    ~print:(fun es -> String.concat "\n" (List.map Expr.show es))
    gen_shared_terms
    (fun es ->
       let s = Session.create () in
       let nodes = ref [] in
       Expr.iter_dag (fun e -> nodes := e :: !nodes) es;
       List.for_all
         (fun e ->
            Session.node_fp s e = Expr.contains_fp e
            && List.equal Expr.equal_var (Session.node_vars s e) (Expr.vars e))
         !nodes)

(* some of v0..v3 bound, the rest unbound *)
let gen_terms_partial_env =
  QCheck2.Gen.(
    pair gen_eval_terms (list_repeat 4 (opt ~ratio:0.8 (int_bound 255))))

let partial_env values =
  List.concat
    (List.mapi
       (fun i v ->
          match v with
          | Some v -> [ (Printf.sprintf "v%d" i, Int64.of_int v) ]
          | None -> [])
       values)

let satisfies_all_is_for_all =
  QCheck2.Test.make ~count:500
    ~name:"satisfies_all = for_all satisfies, unbound variables included"
    gen_terms_partial_env
    (fun (terms, values) ->
       let env = Eval.env_of_list (partial_env values) in
       Eval.satisfies_all env terms = List.for_all (Eval.satisfies env) terms)

let eval_default_binds_the_rest =
  QCheck2.Test.make ~count:300
    ~name:"eval ~default = eval with the unbound variables bound"
    gen_terms_partial_env
    (fun (terms, values) ->
       let bound = partial_env values in
       let env = Eval.env_of_list bound in
       let full =
         Eval.env_of_list
           (List.init 4 (fun i ->
                let n = Printf.sprintf "v%d" i in
                (n, Option.value ~default:5L (List.assoc_opt n bound))))
       in
       List.for_all
         (fun e -> Int64.equal (Eval.eval ~default:5L env e) (Eval.eval full e))
         terms)

(* 64 levels of [Add (e, e)]: 65 distinct nodes, 2^64 tree paths *)
let doubling_chain base =
  let rec go e n = if n = 0 then e else go (Expr.Binop (Add, e, e)) (n - 1) in
  go base 64

let walks_on_doubling_chain () =
  let x = Expr.var ~width:64 "x" in
  let chain = doubling_chain x in
  Alcotest.(check bool) "no fp" false (Expr.exists_fp [ chain; chain ]);
  Alcotest.(check bool) "fp leaf found" true
    (Expr.contains_fp (doubling_chain (Expr.Fof_int x)));
  Alcotest.(check (list string)) "vars" [ "x" ]
    (var_names (Expr.vars_of_list [ chain; doubling_chain x ]));
  Alcotest.(check int) "cost" (1 + (64 * 5 * 64)) (Expr.blast_cost chain)

(* a node budget that trips must read as "too large", never wrap round
   to a negative cost *)
let blast_cost_saturates () =
  let rec chain e i =
    if i = 0 then e else chain (Expr.Binop (Add, e, Expr.const_int i)) (i - 1)
  in
  let e = chain (Expr.var "x") 30_000 in
  Alcotest.(check int) "default cap" max_int (Expr.blast_cost e);
  Alcotest.(check int) "explicit cap" 101 (Expr.blast_cost ~cap:100 e)

(* ---------------- end-to-end solver ---------------- *)

let solve_simple_eq () =
  let x = Expr.var ~width:8 "x" in
  let c = Expr.eq (Expr.Binop (Add, x, Expr.const ~width:8 5L))
      (Expr.const ~width:8 42L) in
  match Solver.solve [ c ] with
  | Sat m -> Alcotest.(check int64) "x" 37L (List.assoc "x" m)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

let solve_mul_inverse () =
  (* 3 * x == 51 over 16 bits: x = 17 (mod inverse also possible; any
     model must satisfy) *)
  let x = Expr.var ~width:16 "x" in
  let c =
    Expr.eq
      (Expr.Binop (Mul, Expr.const ~width:16 3L, x))
      (Expr.const ~width:16 51L)
  in
  match Solver.solve [ c ] with
  | Sat m ->
    let v = List.assoc "x" m in
    Alcotest.(check int64) "3x=51" 51L
      (Int64.logand (Int64.mul 3L v) 0xffffL)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

let solve_unsat () =
  let x = Expr.var ~width:8 "x" in
  let c1 = Expr.Cmp (Ult, x, Expr.const ~width:8 5L) in
  let c2 = Expr.Cmp (Ult, Expr.const ~width:8 10L, x) in
  match Solver.solve [ c1; c2 ] with
  | Unsat -> ()
  | o -> Alcotest.failf "expected unsat, got %s" (Solver.outcome_to_string o)

let solve_sdiv_by_zero_semantics () =
  (* our evaluator: sdiv by 0 = mask; the circuit must agree *)
  let x = Expr.var ~width:8 "x" in
  let c =
    Expr.eq
      (Expr.Binop (Udiv, Expr.const ~width:8 7L, Expr.const ~width:8 0L))
      x
  in
  match Solver.solve [ c ] with
  | Sat m -> Alcotest.(check int64) "7/0 = 0xff" 0xffL (List.assoc "x" m)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

let fp_needs_fallback () =
  let x = Expr.var ~width:64 "x" in
  let c = Expr.Fcmp (Feq, Expr.Fof_int x, Expr.const (Int64.bits_of_float 7.0))
  in
  (match Solver.solve [ c ] with
   | Unknown Fp_unsupported -> ()
   | o -> Alcotest.failf "expected fp-unsupported, got %s"
            (Solver.outcome_to_string o));
  let config = { Solver.default_config with enable_fp_search = true } in
  match Solver.solve ~config [ c ] with
  | Sat m -> Alcotest.(check int64) "x=7" 7L (List.assoc "x" m)
  | o -> Alcotest.failf "expected sat via search, got %s"
           (Solver.outcome_to_string o)

let fp_rounding_search () =
  (* the float bomb's core: 1024 + x == 1024 && x > 0 over doubles *)
  let x = Expr.var ~width:64 "x" in
  let c1024 = Expr.const (Int64.bits_of_float 1024.0) in
  let zero = Expr.const (Int64.bits_of_float 0.0) in
  let c1 = Expr.Fcmp (Feq, Expr.Fbin (Fadd, c1024, x), c1024) in
  let c2 = Expr.Fcmp (Flt, zero, x) in
  let config = { Solver.default_config with enable_fp_search = true } in
  match Solver.solve ~config [ c1; c2 ] with
  | Sat m ->
    let v = Int64.float_of_bits (List.assoc "x" m) in
    Alcotest.(check bool) "positive" true (v > 0.0);
    Alcotest.(check bool) "absorbed" true (1024.0 +. v = 1024.0)
  | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o)

(* ---------------- sessions ---------------- *)

(* solver work is counted in the [smt.*] registry only: after [let n =
   smt_since () in], [n "queries"] is the [smt.queries] count since *)
let smt_since () =
  let base = Telemetry.Snapshot.capture () in
  fun name ->
    Telemetry.Metrics.counter_value ("smt." ^ name)
    - Telemetry.Snapshot.find_counter base ("smt." ^ name)

let session_push_pop () =
  let x = Expr.var ~width:8 "x" in
  let s = Session.create () in
  Session.assert_ s (Expr.Cmp (Ult, x, Expr.const ~width:8 5L));
  Session.push s;
  Session.assert_ s (Expr.Cmp (Ult, Expr.const ~width:8 10L, x));
  (match Session.check s with
   | Session.Unsat -> ()
   | o -> Alcotest.failf "expected unsat, got %s" (Solver.outcome_to_string o));
  Session.pop s;
  match Session.check s with
  | Session.Sat m ->
    let v = List.assoc "x" m in
    Alcotest.(check bool) "x < 5" true (Int64.unsigned_compare v 5L < 0)
  | o ->
    Alcotest.failf "expected sat after pop, got %s" (Solver.outcome_to_string o)

(* the session pipeline must agree with the one-shot front-end, and the
   second round of identical queries must come from the query cache *)
let session_matches_oneshot_and_caches () =
  let x8 = Expr.var ~width:8 "x" in
  let y16 = Expr.var ~width:16 "y" in
  let sets =
    [ [ Expr.eq
          (Expr.Binop (Add, x8, Expr.const ~width:8 5L))
          (Expr.const ~width:8 42L) ];
      [ Expr.eq
          (Expr.Binop (Mul, Expr.const ~width:16 3L, y16))
          (Expr.const ~width:16 51L) ];
      [ Expr.Cmp (Ult, x8, Expr.const ~width:8 5L);
        Expr.Cmp (Ult, Expr.const ~width:8 10L, x8) ];
      [ Expr.Cmp (Ule, x8, Expr.const ~width:8 200L) ] ]
  in
  let s = Session.create () in
  let status = function
    | Session.Sat _ -> "sat"
    | Session.Unsat -> "unsat"
    | Session.Unknown _ -> "unknown"
  in
  (* the one-shot answers first, so [n] counts the session's work only *)
  let one_shot = List.map (fun cs -> (cs, status (Solver.solve cs))) sets in
  let n = smt_since () in
  let check_one (cs, one) =
    let inc = Session.check_assertions s cs in
    Alcotest.(check string) "status matches one-shot" one (status inc);
    match inc with
    | Session.Sat m ->
      let env = Eval.env_of_list m in
      List.iter
        (fun c ->
           Alcotest.(check bool) "session model holds" true (Eval.holds env c))
        cs
    | _ -> ()
  in
  List.iter check_one one_shot;
  List.iter check_one one_shot;
  Alcotest.(check int) "queries" 8 (n "queries");
  Alcotest.(check int) "second round served from cache" 4 (n "cache_hits")

let session_fp_fallback () =
  let x = Expr.var ~width:64 "x" in
  let c =
    Expr.Fcmp (Feq, Expr.Fof_int x, Expr.const (Int64.bits_of_float 7.0))
  in
  let s = Session.create () in
  (match Session.check_assertions s [ c ] with
   | Session.Unknown Session.Fp_unsupported -> ()
   | o ->
     Alcotest.failf "expected fp-unsupported, got %s"
       (Solver.outcome_to_string o));
  let config = { Session.default_config with enable_fp_search = true } in
  let s2 = Session.create ~config () in
  match Session.check_assertions s2 [ c ] with
  | Session.Sat m -> Alcotest.(check int64) "x=7" 7L (List.assoc "x" m)
  | o ->
    Alcotest.failf "expected sat via search, got %s"
      (Solver.outcome_to_string o)

(* a starved budget yields Unknown, which must NOT be cached: the same
   assertion set re-checked with the session's full budget decides *)
let session_budget_unknown () =
  (* expression-level pigeonhole (3 values in {0,1}, pairwise
     distinct): unsat, but only via conflict analysis, so a zero
     conflict budget must give up *)
  let p = Array.init 3 (fun i -> Expr.var ~width:2 (Printf.sprintf "p%d" i)) in
  let two = Expr.const ~width:2 2L in
  let ne a b = Expr.not_ (Expr.eq a b) in
  let cs =
    [ Expr.Cmp (Ult, p.(0), two); Expr.Cmp (Ult, p.(1), two);
      Expr.Cmp (Ult, p.(2), two); ne p.(0) p.(1); ne p.(0) p.(2);
      ne p.(1) p.(2) ]
  in
  let s = Session.create () in
  (* the registry counts the budget-Unknown check, its conflicts and
     its wall time *)
  let n = smt_since () in
  let gauge = Telemetry.Metrics.gauge_value_of in
  let wall0 = gauge "smt.wall_s"
  and unknown_wall0 = gauge "smt.unknown_budget_wall_s" in
  (match
     Session.check_assertions
       ~config:{ Session.default_config with conflict_budget = 0 }
       s cs
   with
   | Session.Unknown Session.Budget -> ()
   | o ->
     Alcotest.failf "expected budget unknown, got %s"
       (Solver.outcome_to_string o));
  let spent = n "conflicts" in
  (match Session.check s with
   | Session.Unsat -> ()
   | o ->
     Alcotest.failf "expected unsat with full budget, got %s"
       (Solver.outcome_to_string o));
  Alcotest.(check int) "no cache hit for unknown" 0 (n "cache_hits");
  Alcotest.(check int) "one budget unknown counted" 1 (n "unknown_budget");
  Alcotest.(check int) "its conflicts counted" spent
    (n "unknown_budget_conflicts");
  let unknown_wall = gauge "smt.unknown_budget_wall_s" -. unknown_wall0 in
  Alcotest.(check bool) "its wall time" true
    (unknown_wall > 0.0 && unknown_wall <= gauge "smt.wall_s" -. wall0)

(* exact accounting on a scripted session: every counter is predicted
   by the script, and cache hits must cost zero blasting/conflicts *)
let session_stats_exact () =
  let x = Expr.var ~width:8 "x" in
  let c1 = Expr.Cmp (Ult, x, Expr.const ~width:8 5L) in
  let c2 = Expr.Cmp (Ult, Expr.const ~width:8 10L, x) in
  let s = Session.create () in
  let n = smt_since () in
  let expect what outcome = function
    | true -> ()
    | false ->
      Alcotest.failf "%s: got %s" what (Solver.outcome_to_string outcome)
  in
  (* q1: {c1} — fresh, blasts, sat *)
  Session.assert_ s c1;
  let o = Session.check s in
  expect "q1 sat" o (match o with Session.Sat _ -> true | _ -> false);
  Alcotest.(check int) "q1 queries" 1 (n "queries");
  Alcotest.(check int) "q1 no hits" 0 (n "cache_hits");
  Alcotest.(check int) "q1 sat count" 1 (n "sat");
  Alcotest.(check bool) "q1 blasted nodes" true (n "blasted_nodes" > 0);
  let blasted_q1 = n "blasted_nodes" in
  let conflicts_q1 = n "conflicts" in
  (* q2: {c1} again — answered by the query cache *)
  let o = Session.check s in
  expect "q2 sat" o (match o with Session.Sat _ -> true | _ -> false);
  Alcotest.(check int) "q2 queries" 2 (n "queries");
  Alcotest.(check int) "q2 hit" 1 (n "cache_hits");
  Alcotest.(check int) "q2 sat count" 2 (n "sat");
  Alcotest.(check int) "q2 blasts nothing" blasted_q1 (n "blasted_nodes");
  Alcotest.(check int) "q2 zero conflicts" conflicts_q1 (n "conflicts");
  (* q3: {c1, c2} — new set, new nodes, unsat *)
  Session.push s;
  Session.assert_ s c2;
  let o = Session.check s in
  expect "q3 unsat" o (o = Session.Unsat);
  Alcotest.(check int) "q3 queries" 3 (n "queries");
  Alcotest.(check int) "q3 no new hit" 1 (n "cache_hits");
  Alcotest.(check int) "q3 unsat count" 1 (n "unsat");
  Alcotest.(check bool) "q3 blasted more" true
    (n "blasted_nodes" > blasted_q1);
  let blasted_q3 = n "blasted_nodes" in
  let conflicts_q3 = n "conflicts" in
  (* q4: {c1, c2} again — unsat from cache, zero solver work *)
  let o = Session.check s in
  expect "q4 unsat" o (o = Session.Unsat);
  Alcotest.(check int) "q4 queries" 4 (n "queries");
  Alcotest.(check int) "q4 hit" 2 (n "cache_hits");
  Alcotest.(check int) "q4 unsat count" 2 (n "unsat");
  Alcotest.(check int) "q4 blasts nothing" blasted_q3 (n "blasted_nodes");
  Alcotest.(check int) "q4 zero conflicts" conflicts_q3 (n "conflicts");
  (* q5: pop back to {c1} — still cached from q1 *)
  Session.pop s;
  let o = Session.check s in
  expect "q5 sat" o (match o with Session.Sat _ -> true | _ -> false);
  Alcotest.(check int) "q5 queries" 5 (n "queries");
  Alcotest.(check int) "q5 hit" 3 (n "cache_hits");
  Alcotest.(check int) "q5 sat count" 3 (n "sat");
  Alcotest.(check int) "q5 blasts nothing" blasted_q3 (n "blasted_nodes");
  Alcotest.(check int) "unknown never incremented" 0 (n "unknown")

(* identical scripts on two fresh sessions must produce identical
   counters (everything except wall time is deterministic) *)
let session_stats_deterministic () =
  let names =
    [ "queries"; "cache_hits"; "sat"; "unsat"; "unknown"; "blasted_nodes";
      "conflicts" ]
  in
  let script () =
    let s = Session.create () in
    let n = smt_since () in
    let x = Expr.var ~width:8 "x" in
    let y = Expr.var ~width:16 "y" in
    ignore (Session.check_assertions s [ Expr.Cmp (Ult, x, Expr.const ~width:8 9L) ]);
    ignore
      (Session.check_assertions s
         [ Expr.Cmp (Ult, x, Expr.const ~width:8 9L);
           Expr.eq
             (Expr.Binop (Mul, Expr.const ~width:16 3L, y))
             (Expr.const ~width:16 51L) ]);
    ignore (Session.check_assertions s [ Expr.fls ]);
    List.map n names
  in
  let a = script () in
  let b = script () in
  List.iter2
    (fun name (x, y) -> Alcotest.(check int) name x y)
    names (List.combine a b)

(* the [smt.wall_s] gauge is wall-clock time on the spans' clock.
   With a second domain spinning, process CPU time runs up to twice
   the wall clock on two cores, so a CPU clock would overshoot the
   wall time measured around the call. *)
let session_wall_time_is_wall_clock () =
  let x = Expr.var ~width:32 "x" and y = Expr.var ~width:32 "y" in
  let c w v = Expr.const ~width:w v in
  (* factor 65521 * 65519 over 16-bit factors: a CDCL search of many
     milliseconds, bounded by the conflict budget *)
  let cs =
    [ Expr.eq (Expr.Binop (Mul, x, y)) (c 32 4292870399L);
      Expr.Cmp (Ult, x, c 32 65536L); Expr.Cmp (Ult, y, c 32 65536L);
      Expr.Cmp (Ult, c 32 1L, x); Expr.Cmp (Ult, c 32 1L, y) ]
  in
  let config = { Session.default_config with conflict_budget = 3_000 } in
  let s = Session.create ~config () in
  let wall0 = Telemetry.Metrics.gauge_value_of "smt.wall_s" in
  let stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () -> while not (Atomic.get stop) do () done)
  in
  let wall =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true; Domain.join spinner)
      (fun () ->
         let t0 = Unix.gettimeofday () in
         ignore (Session.check_assertions s cs);
         Unix.gettimeofday () -. t0)
  in
  let reported = Telemetry.Metrics.gauge_value_of "smt.wall_s" -. wall0 in
  Alcotest.(check bool) "multi-millisecond check" true (wall >= 0.002);
  Alcotest.(check bool)
    (Printf.sprintf "wall_time %.4f s <= 1.5 x %.4f s" reported wall)
    true
    (reported <= 1.5 *. wall)

let printers_smoke () =
  let x = Expr.var ~width:8 "x" in
  let c = Expr.eq (Expr.Binop (Add, x, Expr.const ~width:8 1L))
      (Expr.const ~width:8 10L) in
  let s = Printer.smtlib_script [ c ] in
  let v = Printer.cvc_script [ c ] in
  Alcotest.(check bool) "smtlib mentions declare" true
    (String.length s > 0
     && String.sub s 0 10 = "(set-logic");
  Alcotest.(check bool) "cvc mentions BITVECTOR" true
    (String.length v > 0 && String.index_opt v 'B' <> None)

(* a full adder builds its half-sum XOR once: at width 64, x + y = z
   encodes to 637 variables, one per full adder fewer than the 701 of
   a [g_fa] that built that XOR twice *)
let blast_adder_size () =
  let v n = Expr.var ~width:64 n in
  let b = Blast.create () in
  Blast.assert_true b (Expr.eq (Expr.Binop (Add, v "x", v "y")) (v "z"));
  Alcotest.(check int) "CNF variables" 637 (Sat.num_vars b.Blast.sat)

(* ---------------- cone-restricted checks ---------------- *)

(* 2-4 constraints over the shared 6-bit variables a, b and c (with
   ite, so mux gates and their third input are in play), blasted into
   one session, then 3-8 checks of random subsets of them (bit masks) *)
let gen_cone_session =
  let open QCheck2.Gen in
  let w = 6 in
  let leaf =
    oneof
      [ map (fun v -> Expr.const_int ~width:w v) (int_bound 63);
        map (fun n -> Expr.var ~width:w n) (oneofl [ "a"; "b"; "c" ]) ]
  in
  let rec term d =
    if d = 0 then leaf
    else
      let sub = term (d - 1) in
      oneof
        [ leaf;
          map3
            (fun op x y -> Expr.Binop (op, x, y))
            (oneofl [ Expr.Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Udiv; Urem ])
            sub sub;
          map3 Expr.ite (cmp (d - 1)) sub sub ]
  and cmp d =
    map3
      (fun op x y -> Expr.Cmp (op, x, y))
      (oneofl [ Expr.Eq; Ult; Ule; Slt; Sle ])
      (term d) (term d)
  in
  pair
    (list_size (int_range 2 4) (cmp 2))
    (list_size (int_range 3 8) (int_bound 15))

let print_cone_session (cs, masks) =
  Printf.sprintf "%s\nchecks %s" (Printer.smtlib_script cs)
    (String.concat " " (List.map string_of_int masks))

(* every answer of a session check, on a strict cone or not, agrees
   with a one-shot solve of the same constraints (the plain full
   search), and every Sat model satisfies them.  The first constraint
   is asserted, so it is part of every check; the checks assume
   subsets of the others. *)
let cone_checks_agree_with_one_shot =
  QCheck2.Test.make ~count:300 ~name:"cone checks agree with one-shot solves"
    ~print:print_cone_session gen_cone_session
    (fun (cs, masks) ->
       let b = Blast.create () in
       let root, rest = (List.hd cs, List.tl cs) in
       let lits = List.map (Blast.lit_of b) rest in
       Blast.assert_true b root;
       List.for_all
         (fun mask ->
            let pick l = List.filteri (fun i _ -> (mask lsr i) land 1 = 1) l in
            let checked = root :: pick rest in
            Blast.reset b;
            let answer = Blast.solve ~assumptions:(pick lits) b in
            match answer, Solver.solve checked with
            | Sat.Sat, Solver.Sat _ ->
              let env = Eval.env_of_list (Blast.model b) in
              List.for_all (Eval.satisfies env) checked
            | Sat.Unsat, Solver.Unsat -> true
            | _ -> false)
         masks)

(* an asserted root belongs to every check's cone: with x * y = 15
   asserted, a check assuming only x = 3 must decide the multiplier
   too.  The live z = 7 constraint keeps the cone strict. *)
let cone_keeps_asserted_roots () =
  let v n = Expr.var ~width:8 n and c k = Expr.const_int ~width:8 k in
  let b = Blast.create () in
  ignore (Blast.lit_of b (Expr.eq (v "z") (c 7)));
  Blast.assert_true b (Expr.eq (Expr.Binop (Mul, v "x", v "y")) (c 15));
  let x3 = Blast.lit_of b (Expr.eq (v "x") (c 3)) in
  let cone_checks () = Telemetry.Metrics.counter_value "smt.cone_checks" in
  let before = cone_checks () in
  Blast.reset b;
  (match Blast.solve ~assumptions:[ x3 ] b with
   | Sat.Sat -> ()
   | _ -> Alcotest.fail "x * y = 15 with x = 3 is satisfiable");
  Alcotest.(check int) "solved on a strict cone" (before + 1) (cone_checks ());
  let m = Blast.model b in
  Alcotest.(check int64) "x" 3L (List.assoc "x" m);
  Alcotest.(check int64) "y" 5L (List.assoc "y" m)

(* level-0 propagation reaches every gate, in the cone or not: the
   first check fixes x's bits at level 0 while the gate x0 AND x1 of
   the earlier-blasted (x & (x >> 1)) = 0 is outside its cone.  Left
   unpropagated, both watched literals of that gate's clause
   (not x0, not x1, g) would stay false, and the second check could
   set g false unseen and answer Sat. *)
let cone_level0_reaches_all_gates () =
  let v n = Expr.var ~width:8 n and c k = Expr.const_int ~width:8 k in
  let b = Blast.create () in
  let x = v "x" in
  let zero_and =
    Blast.lit_of b
      (Expr.eq
         (Expr.Binop (And, x, Expr.Binop (Lshr, x, c 1)))
         (c 0))
  in
  let z1 = Blast.lit_of b (Expr.eq (v "z") (c 1)) in
  Blast.assert_true b (Expr.eq x (c 3));
  let check name assumptions expected =
    Blast.reset b;
    Alcotest.(check bool) name true (Blast.solve ~assumptions b = expected)
  in
  check "z = 1 beside x = 3" [ z1 ] Sat.Sat;
  check "3 & (3 >> 1) <> 0" [ zero_and ] Sat.Unsat

(* a check pays for its own cone only: after a 64-bit multiplication
   check, an unrelated 8-bit check in the same session propagates and
   decides the 8-bit circuit, not the multiplier it does not assert *)
let pin_cone_check_cost () =
  let x = Expr.var ~width:64 "x" and y = Expr.var ~width:64 "y" in
  let s = Session.create () in
  ignore
    (Session.check_assertions s
       [ Expr.eq (Expr.Binop (Mul, x, y)) (Expr.const 0x1234567L) ]);
  let n = smt_since () in
  let u = Expr.var ~width:8 "u" in
  (match
     Session.check_assertions s
       [ Expr.Cmp (Ult, Expr.const_int ~width:8 200, u) ]
   with
   | Session.Sat _ -> ()
   | o -> Alcotest.failf "expected sat, got %s" (Solver.outcome_to_string o));
  Alcotest.(check (pair int int)) "second check: propagations, decisions"
    (18, 9)
    (n "propagations", n "decisions")

(* a one-shot solve covers its whole CNF, so it runs the plain search:
   this trajectory is the one the solver had before cone checks *)
let pin_one_shot_trajectory () =
  let x = Expr.var ~width:16 "x" and y = Expr.var ~width:16 "y" in
  let c k = Expr.const_int ~width:16 k in
  let n = smt_since () in
  let o =
    Solver.solve
      [ Expr.eq (Expr.Binop (Mul, x, y)) (c 0xec4b);
        Expr.Cmp (Ult, c 1, x); Expr.Cmp (Ult, c 1, y);
        Expr.Cmp (Ult, x, y) ]
  in
  let verdict =
    match o with
    | Solver.Sat _ -> "sat"
    | Solver.Unsat -> "unsat"
    | Solver.Unknown _ -> "unknown"
  in
  Alcotest.(check string) "verdict c d p" "sat c=22 d=256 p=3170"
    (Printf.sprintf "%s c=%d d=%d p=%d" verdict (n "conflicts")
       (n "decisions") (n "propagations"))

(* ---------------- bounds ---------------- *)

(* jump_bomb's atoi query as the DSE lifts it: eight digit guards
   ('0' <= c as [not (c < '0')], c <= '9' as jbe's
   [c < '9' \/ c - '9' = 0]) and the parsed value bounded by 64 *)
let atoi_query () =
  let digit i = Expr.Zext (64, Expr.var ~width:8 (Printf.sprintf "argv1_%d" i)) in
  let c = Expr.const_int in
  let le t k =
    Expr.not_
      (Expr.and_
         (Expr.not_ (Expr.Cmp (Ult, t, c k)))
         (Expr.not_ (Expr.eq (Expr.Binop (Sub, t, c k)) (c 0))))
  in
  let guards =
    List.concat_map
      (fun i -> [ Expr.not_ (Expr.Cmp (Ult, digit i, c 48)); le (digit i) 57 ])
      (List.init 8 Fun.id)
  in
  let value =
    List.fold_left
      (fun acc i ->
         Expr.Binop
           (Sub, Expr.Binop (Add, Expr.Binop (Mul, acc, c 10), digit i), c 48))
      (Expr.Binop (Sub, digit 0, c 48))
      (List.init 7 (fun i -> i + 1))
  in
  guards @ [ le value 64 ]

let budget_1000 = { Solver.default_config with conflict_budget = 1_000 }

let bounds_decide_atoi () =
  let cs = atoi_query () in
  (match Solver.solve ~config:budget_1000 cs with
   | Solver.Unknown Solver.Budget -> ()
   | o ->
     Alcotest.failf "unnarrowed: expected unknown (budget), got %s"
       (Solver.outcome_to_string o));
  match Solver.solve ~config:budget_1000 (Bounds.narrow_list cs) with
  | Solver.Sat m ->
    Alcotest.(check bool) "the model satisfies the original query" true
      (List.for_all (Eval.satisfies (Eval.env_of_list m)) cs)
  | o ->
    Alcotest.failf "narrowed: expected sat, got %s" (Solver.outcome_to_string o)

(* the rewrite is confined to constraints with a multiply, and a
   constraint is never narrowed by its own bound *)
let bounds_leave_mul_free_and_own () =
  let cs = atoi_query () in
  let narrowed = Bounds.narrow_list cs in
  List.iteri
    (fun i (c, c') ->
       if i < List.length cs - 1 then
         Alcotest.(check bool) "guard physically unchanged" true (c == c'))
    (List.combine cs narrowed);
  (* [x * 3] can wrap, so only its own bound could narrow it *)
  let t = Expr.Binop (Mul, Expr.var "x", Expr.const_int 3) in
  let own = Expr.Cmp (Ult, t, Expr.const_int 16) in
  Alcotest.(check bool) "own bound unused" true
    (List.hd (Bounds.narrow_list [ own ]) == own);
  match Bounds.narrow_list [ own; Expr.eq t (Expr.const_int 9) ] with
  | [ _; Expr.Cmp (Eq, Expr.Zext (64, Expr.Extract (3, 0, t')), _) ] ->
    Alcotest.(check bool) "a later use is narrowed" true (t' == t)
  | _ -> Alcotest.fail "a later use of the bounded term was not narrowed"

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ blast_agrees_with_eval; simplify_sound ]

let () =
  Alcotest.run "smt"
    [ ("sat",
       [ Alcotest.test_case "basic" `Quick sat_basic;
         Alcotest.test_case "unsat" `Quick sat_unsat;
         Alcotest.test_case "pigeonhole" `Quick sat_pigeonhole;
         Alcotest.test_case "random 3-sat models" `Quick sat_random_models;
         Alcotest.test_case "pin random 3-sat" `Quick pin_random_3sat;
         Alcotest.test_case "pin pigeonhole" `Quick pin_pigeonhole;
         Alcotest.test_case "pin incremental" `Quick pin_incremental;
         QCheck_alcotest.to_alcotest sat_answers_checked_by_enumeration ]);
      ("blast",
       qcheck_tests
       @ [ Alcotest.test_case "adder CNF size" `Quick blast_adder_size ]);
      ("cone",
       [ QCheck_alcotest.to_alcotest cone_checks_agree_with_one_shot;
         Alcotest.test_case "asserted roots in the cone" `Quick
           cone_keeps_asserted_roots;
         Alcotest.test_case "level-0 facts reach every gate" `Quick
           cone_level0_reaches_all_gates;
         Alcotest.test_case "pin cone check cost" `Quick pin_cone_check_cost;
         Alcotest.test_case "pin one-shot trajectory" `Quick
           pin_one_shot_trajectory ]);
      ("eval",
       [ QCheck_alcotest.to_alcotest eval_agrees_with_reference;
         QCheck_alcotest.to_alcotest fold_agrees_with_eval;
         QCheck_alcotest.to_alcotest satisfies_all_is_for_all;
         QCheck_alcotest.to_alcotest eval_default_binds_the_rest;
         Alcotest.test_case "unmemoised allocation" `Quick
           eval_unmemoised_allocation ]);
      ("walks",
       [ QCheck_alcotest.to_alcotest walks_match_tree_references;
         QCheck_alcotest.to_alcotest session_facts_match_walks;
         Alcotest.test_case "doubling chain" `Quick walks_on_doubling_chain;
         Alcotest.test_case "blast cost saturates" `Quick
           blast_cost_saturates ]);
      ("solver",
       [ Alcotest.test_case "simple eq" `Quick solve_simple_eq;
         Alcotest.test_case "mul inverse" `Quick solve_mul_inverse;
         Alcotest.test_case "unsat interval" `Quick solve_unsat;
         Alcotest.test_case "div by zero semantics" `Quick
           solve_sdiv_by_zero_semantics;
         Alcotest.test_case "fp fallback" `Quick fp_needs_fallback;
         Alcotest.test_case "fp rounding search" `Quick fp_rounding_search;
         Alcotest.test_case "printers" `Quick printers_smoke ]);
      ("bounds",
       [ Alcotest.test_case "atoi query decided within 1000 conflicts" `Quick
           bounds_decide_atoi;
         Alcotest.test_case "mul-free and own bound untouched" `Quick
           bounds_leave_mul_free_and_own ]);
      ("session",
       [ Alcotest.test_case "push/pop" `Quick session_push_pop;
         Alcotest.test_case "matches one-shot + caches" `Quick
           session_matches_oneshot_and_caches;
         Alcotest.test_case "fp fallback" `Quick session_fp_fallback;
         Alcotest.test_case "budget unknown not cached" `Quick
           session_budget_unknown;
         Alcotest.test_case "stats accounting exact" `Quick
           session_stats_exact;
         Alcotest.test_case "stats deterministic" `Quick
           session_stats_deterministic;
         Alcotest.test_case "wall time is wall clock" `Quick
           session_wall_time_is_wall_clock ]) ]
