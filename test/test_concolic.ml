(** Concolic-core tests: lifter-vs-CPU consistency (property), trace
    executor constraint extraction, memory models, kernel-taint
    policies, the driver loop, and the DSE engine. *)

module Dsl = Asm.Ast.Dsl
module E = Smt.Expr

(* ---------------- lifter agrees with the CPU ---------------- *)

(* Execute a short straight-line program twice — concretely on the
   CPU, and through lift + symbolic execution with a fully concrete
   state — and compare the final registers. *)

let lifter_matches_cpu_on program =
  let open Dsl in
  let items = (label "main" :: program) @ [ mov rax (imm 0); ret ] in
  let image = Libc.Runtime.link_with_libs (Asm.Ast.obj items) in
  let config = { Vm.Machine.default_config with argv = [ "t"; "abc" ] } in
  let trace = Trace.record ~config image in
  (* full-feature symbolic execution, no symbolic sources: every
     register the program writes must match the concrete trace *)
  let cfg =
    { Concolic.Trace_exec.bap_like_config with
      features = Ir.Lifter.full;
      lift_stack_ops = true }
  in
  let path = Concolic.Trace_exec.run cfg ~sources:[] trace in
  (* with no symbolic inputs there must be no constraints at all, and
     no diagnostics *)
  List.length path.constraints = 0 && not (Concolic.Error.has_lift_failure path.diags)

let gen_program =
  let open QCheck2.Gen in
  let open Dsl in
  let gen_src =
    oneof
      [ map (fun v -> imm (v land 0xffff)) int;
        oneofl [ rax; rbx; rcx; rdx; rsi; rdi ] ]
  in
  let gen_dst = oneofl [ rax; rbx; rcx; rdx; rsi; rdi ] in
  let gen_item =
    let* d = gen_dst and* s = gen_src in
    oneofl
      [ mov d s; add d s; sub d s; and_ d s; or_ d s; xor d s; imul d s;
        cmp d s; test d s ]
  in
  list_size (int_range 1 15) gen_item

let lifter_consistency =
  QCheck2.Test.make ~count:80 ~name:"lifter agrees with CPU" gen_program
    lifter_matches_cpu_on

(* ---------------- constraint extraction ---------------- *)

let run_trace ?(argv1 = "5") ?(cfg = Concolic.Trace_exec.bap_like_config)
    (bomb : Bombs.Common.t) =
  let config = Bombs.Common.config_for bomb argv1 in
  let trace = Trace.record ~config (Bombs.Catalog.image bomb) in
  Concolic.Trace_exec.run cfg trace

let constraints_solvable_to_trigger () =
  (* stack bomb with full features: negating the final branch must
     give 'K' *)
  let bomb = Bombs.Catalog.find "stack_bomb" in
  let cfg =
    { Concolic.Trace_exec.bap_like_config with lift_stack_ops = true }
  in
  let path = run_trace ~cfg bomb in
  match List.rev path.branches with
  | [] -> Alcotest.fail "no symbolic branches"
  | last :: _ -> (
      let prefix =
        List.filteri (fun i _ -> i < last.seq) (List.map fst path.constraints)
      in
      match Smt.Solver.solve (prefix @ [ E.not_ last.cond ]) with
      | Smt.Solver.Sat model ->
        Alcotest.(check int64) "solved to K" (Int64.of_int (Char.code 'K'))
          (List.assoc "argv1_0" model)
      | o -> Alcotest.failf "unexpected %s" (Smt.Solver.outcome_to_string o))

let fp_lift_gap_detected () =
  let bomb = Bombs.Catalog.find "float_bomb" in
  let path = run_trace ~argv1:"9999" bomb in
  Alcotest.(check bool) "Es1 diag on fp instruction" true
    (Concolic.Error.has_lift_failure path.diags)

let fp_constraints_with_full_lifting () =
  let bomb = Bombs.Catalog.find "float_bomb" in
  let cfg =
    { Concolic.Trace_exec.bap_like_config with features = Ir.Lifter.full }
  in
  let path = run_trace ~argv1:"9999" ~cfg bomb in
  let cs = List.map fst path.constraints in
  Alcotest.(check bool) "fp constraint present" true
    (List.exists E.contains_fp cs)

let covert_taint_policy_matters () =
  let bomb = Bombs.Catalog.find "file_bomb" in
  (* pin policy loses it *)
  let p1 = run_trace ~argv1:"apple" bomb in
  Alcotest.(check bool) "pin policy loses taint" true
    (List.exists
       (Concolic.Error.equal_diag Concolic.Error.Taint_lost_in_kernel)
       p1.diags);
  (* full policy keeps the data flow solvable: negate the strcmp
     result branch and ask for "mango" *)
  let cfg =
    { Concolic.Trace_exec.bap_like_config with
      taint_policy = Taint.full_policy;
      lift_stack_ops = true }
  in
  let p2 = run_trace ~argv1:"apple" ~cfg bomb in
  let ordered = Array.of_list p2.constraints in
  let solved =
    List.exists
      (fun (b : Concolic.Trace_exec.branch) ->
         let prefix =
           Array.to_list (Array.sub ordered 0 b.seq) |> List.map fst
         in
         match Smt.Solver.solve (prefix @ [ E.not_ b.cond ]) with
         | Smt.Solver.Sat model -> (
             match List.assoc_opt "argv1_0" model with
             | Some v -> Int64.to_int v = Char.code 'm'
             | None -> false)
         | _ -> false)
      p2.branches
  in
  Alcotest.(check bool) "full policy recovers 'm…'" true solved

let memory_model_gap () =
  let bomb = Bombs.Catalog.find "array1_bomb" in
  (* concrete-only: diag + no way to the bomb *)
  let p1 = run_trace bomb in
  Alcotest.(check bool) "concretized load" true
    (List.exists
       (function Concolic.Error.Concretized_load _ -> true | _ -> false)
       p1.diags);
  (* indexed memory: the table relation is in the constraints; the
     branch can be solved to index 6 *)
  let cfg =
    { Concolic.Trace_exec.bap_like_config with
      mem_mode = Concolic.Sym_exec.Indexed { window = 32; max_depth = 1 } }
  in
  let p2 = run_trace ~cfg bomb in
  let ordered = Array.of_list p2.constraints in
  let solved =
    List.exists
      (fun (b : Concolic.Trace_exec.branch) ->
         let prefix =
           Array.to_list (Array.sub ordered 0 b.seq) |> List.map fst
         in
         match Smt.Solver.solve (prefix @ [ E.not_ b.cond ]) with
         | Smt.Solver.Sat model -> (
             match List.assoc_opt "argv1_0" model with
             | Some v -> Int64.to_int v = Char.code '6'
             | None -> false)
         | _ -> false)
      p2.branches
  in
  Alcotest.(check bool) "indexed model solves to '6'" true solved

(* ---------------- driver ---------------- *)

let driver_cracks_stack_bomb () =
  let bomb = Bombs.Catalog.find "stack_bomb" in
  let cfg =
    { Concolic.Trace_exec.bap_like_config with lift_stack_ops = true }
  in
  let config = Concolic.Driver.default_config cfg in
  let target =
    { Concolic.Driver.image = Bombs.Catalog.image bomb;
      run_config = (fun i -> Bombs.Common.config_for bomb i);
      detonated = Bombs.Common.triggered }
  in
  match Concolic.Driver.explore ~seed:"A" config target with
  | { solved_input = Some "K"; _ } -> ()
  | { solved_input = Some other; _ } ->
    Alcotest.failf "unexpected input %S" other
  | { solved_input = None; _ } -> Alcotest.fail "not solved"

let driver_respects_iteration_budget () =
  let bomb = Bombs.Catalog.find "sha1_bomb" in
  let config =
    { (Concolic.Driver.default_config Concolic.Trace_exec.triton_like_config)
      with max_iterations = 3 }
  in
  let target =
    { Concolic.Driver.image = Bombs.Catalog.image bomb;
      run_config = (fun i -> Bombs.Common.config_for bomb i);
      detonated = Bombs.Common.triggered }
  in
  let v = Concolic.Driver.explore ~seed:"zz" config target in
  Alcotest.(check bool) "bounded" true (v.iterations <= 3);
  Alcotest.(check bool) "not solved" true (v.solved_input = None)

(* ---------------- DSE ---------------- *)

let dse_solves_array1 () =
  let bomb = Bombs.Catalog.find "array1_bomb" in
  let config = Concolic.Dse.default_config Concolic.Dse.With_libs in
  let o = Concolic.Dse.explore config (Bombs.Catalog.image bomb) in
  match o.claims with
  | { input; _ } :: _ ->
    Alcotest.(check char) "first char 6" '6' input.[0]
  | [] -> Alcotest.fail "no claim"

let dse_misses_array2 () =
  let bomb = Bombs.Catalog.find "array2_bomb" in
  let config = Concolic.Dse.default_config Concolic.Dse.With_libs in
  let o = Concolic.Dse.explore config (Bombs.Catalog.image bomb) in
  let hit =
    List.exists
      (fun (c : Concolic.Dse.claim) ->
         let res =
           Vm.Machine.run_image
             ~config:(Bombs.Common.config_for bomb c.input)
             (Bombs.Catalog.image bomb)
         in
         Bombs.Common.triggered res)
      o.claims
  in
  Alcotest.(check bool) "level-two array defeats depth-1 model" false hit

let dse_sequential_fork () =
  let bomb = Bombs.Catalog.find "fork_bomb" in
  let config = Concolic.Dse.default_config Concolic.Dse.No_libs in
  let o = Concolic.Dse.explore config (Bombs.Catalog.image bomb) in
  let hit =
    List.exists
      (fun (c : Concolic.Dse.claim) ->
         let res =
           Vm.Machine.run_image
             ~config:(Bombs.Common.config_for bomb c.input)
             (Bombs.Catalog.image bomb)
         in
         Bombs.Common.triggered res)
      o.claims
  in
  Alcotest.(check bool) "NoLib fork summary solves it" true hit

let dse_crashes_on_socket () =
  let bomb = Bombs.Catalog.find "web_bomb" in
  let config = Concolic.Dse.default_config Concolic.Dse.With_libs in
  let o = Concolic.Dse.explore config (Bombs.Catalog.image bomb) in
  Alcotest.(check bool) "crashed" true (o.crashed <> None)

(* A state's witness must be checked against every constraint consed on
   since it was taken, not only the newest.  [x < 3] is recorded with no
   check (as a fault guard), so the model of [x > 5] no longer models the
   path, though it satisfies the constraint recorded after the guard. *)
let dse_witness_checks_unchecked_constraints () =
  let config = Concolic.Dse.default_config Concolic.Dse.With_libs in
  let t, s =
    Concolic.Dse.init config
      (Bombs.Catalog.image (Bombs.Catalog.find "jump_bomb"))
  in
  let st = s.Concolic.Dse.st in
  let x = E.var ~width:8 "argv1_0" and c v = E.const ~width:8 v in
  let add ?kind e = Concolic.State.add_constraint st ?kind ~pc:0L ~taken:true e in
  let queries () = Telemetry.Metrics.counter_value "smt.queries" in
  add (E.Cmp (Ult, c 5L, x));
  Alcotest.(check bool) "x > 5 feasible" true (Concolic.Dse.feasible t s);
  Alcotest.(check bool) "its model is the witness" true (s.witness <> None);
  let q = queries () in
  add (E.Cmp (Ult, c 4L, x));
  Alcotest.(check bool) "x > 4 feasible" true (Concolic.Dse.feasible t s);
  Alcotest.(check int) "answered by the witness" q (queries ());
  add ~kind:Concolic.State.Fault_guard (E.Cmp (Ult, x, c 3L));
  add (E.not_ (E.eq x (c 0L)));
  Alcotest.(check bool) "x < 3 makes the path infeasible" false
    (Concolic.Dse.feasible t s);
  Alcotest.(check int) "answered by the solver" (q + 1) (queries ())

(* Walking a path down to the witness's [upto] agrees with evaluating
   the whole path under the witness, given that the witness models
   [upto].  Constraints over 4-bit [a] and [b] (bound) and [u] (never
   bound); the older part is flipped constraint by constraint until the
   witness models it. *)
let gen_witness_case =
  let open QCheck2.Gen in
  let gen_cmp =
    let* v = oneofl [ "a"; "b"; "u" ]
    and* k = int_bound 15
    and* op = oneofl E.[ Eq; Ult; Ule; Slt; Sle ]
    and* flip = bool
    and* neg = bool in
    let x = E.var ~width:4 v and c = E.const ~width:4 (Int64.of_int k) in
    let e = if flip then E.Cmp (op, c, x) else E.Cmp (op, x, c) in
    return (if neg then E.not_ e else e)
  in
  let* a = int_bound 15
  and* b = int_bound 15
  and* newer = list_size (int_bound 6) gen_cmp
  and* older = list_size (int_bound 6) gen_cmp in
  return (a, b, newer, older)

let witness_walk_agrees_with_whole_path =
  QCheck2.Test.make ~count:500 ~name:"witness walk agrees with the whole path"
    gen_witness_case (fun (a, b, newer, older) ->
        let env =
          Smt.Eval.env_of_list [ ("a", Int64.of_int a); ("b", Int64.of_int b) ]
        in
        let info =
          { Concolic.State.pc = 0L; taken = true; kind = Branch; cost = 0 }
        in
        let holds = Smt.Eval.satisfies env in
        let upto =
          List.filter_map
            (fun c ->
               if holds c then Some (c, info)
               else if holds (E.not_ c) then Some (E.not_ c, info)
               else None)
            older
        in
        let cs = List.map (fun c -> (c, info)) newer @ upto in
        Concolic.Dse.witness_covers { env; upto } cs
        = List.for_all (fun (c, _) -> holds c) cs)

(* a registered load result under 64 levels of [Add (e, e)]: a tree
   recursion would visit 2^64 paths *)
let depth_of_shared_dag () =
  let depths = Concolic.State.Phys.create 4 in
  let load = Smt.Expr.var "load" in
  Concolic.State.Phys.replace depths (Obj.repr load) 3;
  let rec double e n =
    if n = 0 then e else double (Smt.Expr.Binop (Add, e, e)) (n - 1)
  in
  Alcotest.(check int) "registered depth" 3
    (Concolic.Sym_exec.depth_of depths (double load 64))

(* ---------------- all-concrete loads and stores ---------------- *)

module St = Concolic.State

(* A shadow over 16 bytes at [base]: each byte absent (the concrete
   memory's), a constant, or a symbolic variable *)
let base = 0x4000L

let gen_shadow =
  QCheck2.Gen.(list_repeat 16 (pair (int_bound 2) (int_bound 255)))

let state_of shadow =
  let st = St.create () in
  List.iteri
    (fun i (kind, v) ->
       let a = Int64.add base (Int64.of_int i) in
       match kind with
       | 0 -> ()
       | 1 -> St.Shadow.replace st.St.shadow a (E.Const (Int64.of_int v, 8))
       | _ ->
         St.Shadow.replace st.St.shadow a
           (E.var ~width:8 (Printf.sprintf "s_%d" i)))
    shadow;
  st

let concrete_byte a = Int64.to_int (Int64.mul a 0x9dL) land 0x1ff

(* the load as a chain of byte concatenations: the term path *)
let load_terms st addr n =
  let byte i =
    let a = Int64.add addr (Int64.of_int i) in
    match St.Shadow.find_opt st.St.shadow a with
    | Some e -> e
    | None -> E.Const (Int64.of_int (concrete_byte a land 0xff), 8)
  in
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) (St.charge st (St.mk_concat acc (byte i)))
  in
  if n = 1 then byte 0 else build (n - 2) (byte (n - 1))

(* the store as one extract per byte: the term path *)
let store_terms ~keep_concrete st addr n e =
  for i = 0 to n - 1 do
    let a = Int64.add addr (Int64.of_int i) in
    match St.charge st (St.mk_extract ((8 * i) + 7) (8 * i) e) with
    | E.Const _ when (not keep_concrete) && not (St.Shadow.mem st.shadow a)
      -> ()
    | b -> St.Shadow.replace st.shadow a b
  done

let shadow_bytes st =
  List.init 24 (fun i ->
      St.Shadow.find_opt st.St.shadow (Int64.add base (Int64.of_int i)))

let load_matches_terms =
  QCheck2.Test.make ~count:1000 ~name:"load_concrete = the concat chain"
    QCheck2.Gen.(triple gen_shadow (int_bound 8) (int_range 1 8))
    (fun (shadow, off, n) ->
       let addr = Int64.add base (Int64.of_int off) in
       let st = state_of shadow and ref_st = state_of shadow in
       let got = St.load_concrete st addr n ~concrete_byte in
       let want = load_terms ref_st addr n in
       E.equal got want
       && st.built_cost = ref_st.built_cost
       (* [mk_ite] tests [a == b]: a 1-byte load is the shadow node *)
       && (n > 1
           ||
           match St.Shadow.find_opt st.shadow addr with
           | Some node -> got == node
           | None -> true))

let gen_stored =
  let open QCheck2.Gen in
  let* n = int_range 1 8 in
  let* w = oneofl [ 8; 16; 32; 64; 8 * n ] in
  let* v = ui64 in
  let* kind = int_bound 2 in
  let e =
    match kind with
    | 0 -> E.Const (Int64.logand v (E.mask w), w)
    | 1 -> E.var ~width:(8 * n) "x"
    | _ ->
      E.Binop (Add, E.var ~width:w "x", E.Const (Int64.logand v (E.mask w), w))
  in
  return (n, e)

let store_matches_terms =
  QCheck2.Test.make ~count:1000 ~name:"store_concrete = the extract per byte"
    QCheck2.Gen.(quad gen_shadow (int_bound 8) gen_stored bool)
    (fun (shadow, off, (n, e), keep_concrete) ->
       let addr = Int64.add base (Int64.of_int off) in
       let st = state_of shadow and ref_st = state_of shadow in
       St.store_concrete ~keep_concrete st addr n e;
       store_terms ~keep_concrete ref_st addr n e;
       List.equal (Option.equal E.equal) (shadow_bytes st) (shadow_bytes ref_st)
       && st.built_cost = ref_st.built_cost
       (* a stored byte-wide constant is the node itself *)
       && (n > 1 || E.width_of e <> 8
           ||
           match St.Shadow.find_opt st.shadow addr with
           | Some b -> b == e
           | None -> true))

let qtests = List.map QCheck_alcotest.to_alcotest [ lifter_consistency ]

let () =
  Alcotest.run "concolic"
    [ ("lifter", qtests);
      ("trace-exec",
       [ Alcotest.test_case "solvable constraints" `Quick
           constraints_solvable_to_trigger;
         Alcotest.test_case "fp lift gap" `Quick fp_lift_gap_detected;
         Alcotest.test_case "fp constraints" `Quick
           fp_constraints_with_full_lifting;
         Alcotest.test_case "covert taint policy" `Quick
           covert_taint_policy_matters;
         Alcotest.test_case "memory model gap" `Quick memory_model_gap ]);
      ("sym-exec",
       [ Alcotest.test_case "load depth on a shared DAG" `Quick
           depth_of_shared_dag;
         QCheck_alcotest.to_alcotest load_matches_terms;
         QCheck_alcotest.to_alcotest store_matches_terms ]);
      ("driver",
       [ Alcotest.test_case "cracks stack bomb" `Quick
           driver_cracks_stack_bomb;
         Alcotest.test_case "iteration budget" `Quick
           driver_respects_iteration_budget ]);
      ("dse",
       [ Alcotest.test_case "solves one-level array" `Quick dse_solves_array1;
         Alcotest.test_case "misses two-level array" `Quick dse_misses_array2;
         Alcotest.test_case "sequential fork" `Quick dse_sequential_fork;
         Alcotest.test_case "socket crash" `Quick dse_crashes_on_socket;
         Alcotest.test_case "witness checks unchecked constraints" `Quick
           dse_witness_checks_unchecked_constraints;
         QCheck_alcotest.to_alcotest witness_walk_agrees_with_whole_path ]) ]
