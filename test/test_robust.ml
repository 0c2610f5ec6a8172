(** Resource governance: budget parsing and tripping, session
    rollback on a budget trip, supervised-cell grading (a real engine
    crash included), budget determinism across runs and solver modes,
    the degradation ladder, the journal, and a containment soak under
    ≥50 seeded real budgets. *)

open Concolic.Error

(* ---------------- budgets ---------------- *)

let budget_parse () =
  (match Robust.Budget.parse "vm=100,smt=5,wall=1.5" with
   | Ok b ->
     Alcotest.(check (option int)) "vm" (Some 100) b.vm_steps;
     Alcotest.(check (option int)) "smt" (Some 5) b.solver_conflicts;
     Alcotest.(check bool) "wall in us" true (b.wall_us = Some 1_500_000.);
     Alcotest.(check (option int)) "lift unmetered" None b.lifted_insns
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Robust.Budget.parse "" with
   | Ok b -> Alcotest.(check bool) "empty = unlimited" true
               (Robust.Budget.is_unlimited b)
   | Error e -> Alcotest.failf "empty spec: %s" e);
  (match Robust.Budget.parse "vm=x" with
   | Ok _ -> Alcotest.fail "vm=x should not parse"
   | Error _ -> ());
  match Robust.Budget.parse "frobs=3" with
  | Ok _ -> Alcotest.fail "unknown key should not parse"
  | Error _ -> ()

let budget_scale () =
  match Robust.Budget.parse "vm=100,nodes=7" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok b ->
    let s = Robust.Budget.scale 10.0 b in
    Alcotest.(check (option int)) "vm scaled" (Some 1000) s.vm_steps;
    Alcotest.(check (option int)) "nodes scaled" (Some 70) s.expr_nodes;
    Alcotest.(check (option int)) "unmetered stays" None s.solver_conflicts

let exhausted_resource f =
  match f () with
  | exception Robust.Meter.Exhausted { resource; _ } -> Some resource
  | _ -> None

let meter_trips () =
  let b = { Robust.Budget.unlimited with vm_steps = Some 3 } in
  let m = Robust.Meter.create b in
  Robust.Meter.charge_vm_steps m 3;
  Alcotest.(check bool) "under the cap" true true;
  Alcotest.(check bool) "4th step trips Vm_steps" true
    (exhausted_resource (fun () -> Robust.Meter.charge_vm_steps m 1)
     = Some Robust.Meter.Vm_steps);
  let m2 =
    Robust.Meter.create
      { Robust.Budget.unlimited with solver_conflicts = Some 0 }
  in
  Alcotest.(check bool) "conflict cap" true
    (exhausted_resource (fun () -> Robust.Meter.charge_solver_conflicts m2 1)
     = Some Robust.Meter.Solver_conflicts)

let meter_ambient () =
  Alcotest.(check bool) "no ambient outside" true
    (Robust.Meter.ambient () = None);
  let m = Robust.Meter.create Robust.Budget.unlimited in
  Robust.Meter.with_ambient m (fun () ->
      Alcotest.(check bool) "installed" true (Robust.Meter.ambient () = Some m));
  Alcotest.(check bool) "restored" true (Robust.Meter.ambient () = None);
  (* restored across an exception too *)
  (try
     Robust.Meter.with_ambient m (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true
    (Robust.Meter.ambient () = None)

(* ---------------- session rollback ---------------- *)

let v x = Smt.Expr.var ~width:8 x
let c n = Smt.Expr.const ~width:8 n

let session_rollback_on_budget_fault () =
  (* cap the interned-node budget so the *second* assertion set trips
     mid-[set_assertions]: the stack must roll back to the pre-call
     state and the session stay usable *)
  let c1 = Smt.Expr.eq (v "x") (c 5L) in
  let meter =
    Robust.Meter.create { Robust.Budget.unlimited with expr_nodes = Some 4 }
  in
  let s = Smt.Session.create ~meter () in
  (match Smt.Session.check_assertions s [ c1 ] with
   | Smt.Session.Sat _ -> ()
   | _ -> Alcotest.fail "x=5 must be sat");
  let depth_before = Smt.Session.depth s in
  let big =
    Smt.Expr.eq
      (Smt.Expr.Binop (Add, Smt.Expr.Binop (Mul, v "y", c 3L), c 7L))
      (c 22L)
  in
  (match Smt.Session.check_assertions s [ c1; big ] with
   | exception Robust.Meter.Exhausted { resource; _ } ->
     Alcotest.(check bool) "tripped on nodes" true
       (resource = Robust.Meter.Expr_nodes)
   | _ -> Alcotest.fail "node budget must trip");
  Alcotest.(check int) "stack rolled back" depth_before
    (Smt.Session.depth s);
  Alcotest.(check bool) "assertions restored" true
    (Smt.Session.assertions s = [ Smt.Session.intern s c1 ]);
  (* the session is not poisoned: the old query still solves *)
  match Smt.Session.check_assertions s [ c1 ] with
  | Smt.Session.Sat m ->
    Alcotest.(check bool) "model binds x" true (List.mem_assoc "x" m)
  | _ -> Alcotest.fail "x=5 must still be sat after the fault"

let session_rollback_on_conflict_trip () =
  (* same regression with the trip in the CDCL loop, i.e. *after*
     [set_assertions] already rearranged the stack: a zero-conflict
     cap with the ladder off escapes the first query that needs
     search *)
  let config = { Smt.Session.default_config with ladder = [] } in
  let meter =
    Robust.Meter.create
      { Robust.Budget.unlimited with solver_conflicts = Some 0 }
  in
  let s = Smt.Session.create ~meter ~config () in
  let c1 = Smt.Expr.eq (v "x") (c 9L) in
  (match Smt.Session.check_assertions s [ c1 ] with
   | Smt.Session.Sat _ -> ()
   | _ -> Alcotest.fail "first check must pass");
  let depth_before = Smt.Session.depth s in
  (match
     Smt.Session.check_assertions s
       [ c1; Smt.Expr.eq (Smt.Expr.Binop (Mul, v "y", v "y")) (c 225L) ]
   with
   | exception Robust.Meter.Exhausted { resource; _ } ->
     Alcotest.(check bool) "tripped on conflicts" true
       (resource = Robust.Meter.Solver_conflicts)
   | _ -> Alcotest.fail "the search query must trip the conflict cap");
  Alcotest.(check int) "stack rolled back" depth_before
    (Smt.Session.depth s);
  (* a query that needs no search: the session answers again *)
  match Smt.Session.check_assertions s [ c1; Smt.Expr.eq (v "z") (c 1L) ] with
  | Smt.Session.Sat m ->
    Alcotest.(check bool) "model binds z" true (List.mem_assoc "z" m)
  | _ -> Alcotest.fail "session must recover after the trip"

(* ---------------- the supervisor ---------------- *)

let bomb = Bombs.Catalog.find

let supervised_matches_bare () =
  List.iter
    (fun (tool, name) ->
       let bare = Engines.Grade.run_cell tool (bomb name) in
       let sup = Engines.Supervisor.run_cell tool (bomb name) in
       Alcotest.(check string)
         (Printf.sprintf "%s on %s" (Engines.Profile.name tool) name)
         (cell_symbol bare.cell)
         (cell_symbol sup.graded.cell);
       Alcotest.(check bool) "no cause" true (sup.cause = None);
       Alcotest.(check int) "one attempt" 1 sup.attempts)
    [ (Engines.Profile.Bap, "time_bomb");
      (Engines.Profile.Triton, "stack_bomb") ]

let budget_trip_grades_e () =
  let before = Telemetry.Metrics.counter_value "robust.exhausted.vm_steps" in
  let policy =
    { Engines.Supervisor.default_policy with
      budget = { Robust.Budget.unlimited with vm_steps = Some 100 } }
  in
  let o =
    Engines.Supervisor.run_cell ~policy Engines.Profile.Bap (bomb "time_bomb")
  in
  Alcotest.(check string) "graded E" "E" (cell_symbol o.graded.cell);
  Alcotest.(check bool) "cause is vm_steps" true
    (o.cause = Some (Engines.Supervisor.Exhausted Robust.Meter.Vm_steps));
  Alcotest.(check bool) "stage is Es1" true (o.stage = Some Es1);
  Alcotest.(check bool) "diag is State_budget" true
    (List.mem State_budget o.graded.diags);
  Alcotest.(check bool) "cause counter bumped" true
    (Telemetry.Metrics.counter_value "robust.exhausted.vm_steps" > before)

(* the only source of a cancelled cell: a SIGINT-cancelled fleet's
   undispatched cells *)
let cancellation_grades_p () =
  let o =
    Engines.Eval.outcome_of_failure ~attempts:1 Fleet.Pool.Cancelled
  in
  Alcotest.(check string) "graded P" "P" (cell_symbol o.graded.cell);
  Alcotest.(check bool) "cause is cancellation" true
    (o.cause = Some (Engines.Supervisor.Exhausted Robust.Meter.Cancelled));
  Alcotest.(check bool) "no stage" true (o.stage = None)

(* a bomb whose code calls a label nothing defines: linking it raises
   [Asm.Link.Link_error] inside [Grade.run_cell], the way any
   unexpected engine exception escapes a cell *)
let unlinkable_bomb =
  Bombs.Common.make ~category:"Test" ~challenge:"calls an undefined label"
    ~trigger:None "test_unlinkable_bomb"
    (Bombs.Common.main_with_argv
       [ Asm.Ast.Dsl.call "__test_undefined_label" ])

let crash_grades_e () =
  let before = Telemetry.Metrics.counter_value "robust.crashes" in
  let o = Engines.Supervisor.run_cell Engines.Profile.Bap unlinkable_bomb in
  Alcotest.(check string) "graded E" "E" (cell_symbol o.graded.cell);
  (match o.cause with
   | Some (Engines.Supervisor.Crashed _) -> ()
   | _ -> Alcotest.fail "cause must be a crash");
  Alcotest.(check bool) "diag is Engine_crash" true
    (match o.graded.diags with [ Engine_crash _ ] -> true | _ -> false);
  Alcotest.(check int) "one attempt" 1 o.attempts;
  Alcotest.(check int) "robust.crashes bumped" (before + 1)
    (Telemetry.Metrics.counter_value "robust.crashes");
  (* the crash stays in its cell: the grid finishes, and its other
     row is the row of a grid without the broken bomb *)
  let row (r : Engines.Eval.table2_result) =
    List.filter
      (fun (c : Engines.Eval.cell_result) -> c.bomb = "time_bomb")
      r.cells
  in
  let tools = [ Engines.Profile.Bap ] in
  let with_crash =
    Engines.Eval.run_table2 ~tools
      ~bombs:[ unlinkable_bomb; bomb "time_bomb" ] ()
  in
  let without = Engines.Eval.run_table2 ~tools ~bombs:[ bomb "time_bomb" ] () in
  Alcotest.(check int) "both cells graded" 2 (List.length with_crash.cells);
  Alcotest.(check bool) "time_bomb row unchanged" true
    (row with_crash = row without);
  (* a journaled grid fingerprints every bomb before its first cell;
     the broken bomb must still grade E in its own cell, and a second
     run must replay both cells from the journal *)
  let path = Filename.temp_file "robust_crash" ".jsonl" in
  Sys.remove path;
  let journaled () =
    Engines.Eval.run_table2 ~tools
      ~bombs:[ unlinkable_bomb; bomb "time_bomb" ] ~journal:path ()
  in
  let symbols r =
    List.map
      (fun (c : Engines.Eval.cell_result) -> cell_symbol c.measured)
      r.Engines.Eval.cells
  in
  (match journaled () with
   | r ->
     Alcotest.(check (list string)) "journaled grid = unjournaled"
       (symbols with_crash) (symbols r)
   | exception e ->
     Alcotest.failf "journaled grid raised %s" (Printexc.to_string e));
  let replayed0 = Telemetry.Metrics.counter_value "journal.replayed" in
  Alcotest.(check (list string)) "replayed grid = unjournaled"
    (symbols with_crash) (symbols (journaled ()));
  Alcotest.(check int) "both cells replayed" (replayed0 + 2)
    (Telemetry.Metrics.counter_value "journal.replayed");
  Sys.remove path

(* ---------------- budget determinism ---------------- *)

let det_bombs () =
  List.map bomb [ "time_bomb"; "argvlen_bomb"; "stack_bomb" ]

let det_tools = [ Engines.Profile.Bap; Engines.Profile.Triton ]

let symbols (r : Engines.Eval.table2_result) =
  List.map (fun (c : Engines.Eval.cell_result) -> cell_symbol c.measured)
    r.cells

(* vm/lift caps are mode-invariant (unlike conflict caps, where the
   incremental session's learned clauses legitimately change how many
   conflicts a query needs), so they are the budgets both determinism
   tests pin *)
let tripping_policy =
  { Engines.Supervisor.default_policy with
    budget = { Robust.Budget.unlimited with vm_steps = Some 150 } }

let grades_deterministic_across_runs () =
  let run () =
    Engines.Eval.run_table2 ~policy:tripping_policy ~tools:det_tools
      ~bombs:(det_bombs ()) ()
  in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "byte-identical grades across two runs"
    (symbols a) (symbols b);
  (* the budget is small enough to actually degrade at least one cell
     — otherwise this test would only cover the clean path *)
  Alcotest.(check bool) "at least one cell degraded" true
    (List.exists
       (fun (c : Engines.Eval.cell_result) ->
          c.robust.Engines.Supervisor.cause <> None)
       a.cells)

let modes_agree_under_budget () =
  let run incremental =
    Engines.Eval.run_table2 ~incremental ~policy:tripping_policy
      ~tools:det_tools ~bombs:(det_bombs ()) ()
  in
  Alcotest.(check (list string)) "incremental = one-shot under budget"
    (symbols (run true))
    (symbols (run false))

(* ---------------- the soak ----------------
   Seeded real budgets: each seed caps 1-3 resources at values drawn
   from windows sized to what a soak cell actually spends, so every
   trip is the meter's own, raised on a real code path.  Even seeds
   keep the degradation ladder, odd seeds run without it. *)

let soak_tools = [ Engines.Profile.Bap; Engines.Profile.Triton ]

let soak_bombs () =
  List.map bomb [ "time_bomb"; "argvlen_bomb"; "array1_bomb" ]

(* --budget key, resource, inclusive window *)
let cap_windows =
  [ ("vm", Robust.Meter.Vm_steps, 1, 3000);
    ("lift", Robust.Meter.Lifted_insns, 1, 400);
    ("taint", Robust.Meter.Taint_events, 1, 300);
    ("nodes", Robust.Meter.Expr_nodes, 1, 60);
    ("smt", Robust.Meter.Solver_conflicts, 0, 2) ]

(* the seed's --budget spec, the parsed budget and the capped
   resources; a key drawn twice keeps its last value *)
let budget_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let caps =
    List.init (1 + Random.State.int rng 3) (fun _ ->
        let key, r, lo, hi =
          List.nth cap_windows (Random.State.int rng (List.length cap_windows))
        in
        (key, r, lo + Random.State.int rng (hi - lo + 1)))
  in
  let spec =
    String.concat ","
      (List.map (fun (k, _, n) -> Printf.sprintf "%s=%d" k n) caps)
  in
  match Robust.Budget.parse spec with
  | Ok b -> (spec, b, List.map (fun (_, r, _) -> r) caps)
  | Error e -> Alcotest.failf "budget %s: %s" spec e

let soak_real_budgets () =
  let cells =
    List.concat_map
      (fun b -> List.map (fun t -> (t, b)) soak_tools)
      (soak_bombs ())
  in
  let clean () =
    List.map
      (fun (tool, b) -> (Engines.Supervisor.run_cell tool b).graded)
      cells
  in
  let baseline = clean () in
  (* (resource, ladder on) of every trip, and the degraded count *)
  let trips = Hashtbl.create 16 and degraded = ref 0 in
  for seed = 0 to 49 do
    let spec, budget, capped = budget_of_seed seed in
    let ladder_on = seed mod 2 = 0 in
    let policy =
      { Engines.Supervisor.budget;
        ladder =
          (if ladder_on then Engines.Supervisor.default_policy.ladder
           else []) }
    in
    List.iter2
      (fun (tool, (b : Bombs.Common.t)) clean_graded ->
         let what =
           Printf.sprintf "seed %d (%s, ladder %b) %s x %s" seed spec
             ladder_on (Engines.Profile.name tool) b.name
         in
         match Engines.Supervisor.run_cell ~policy tool b with
         | exception e ->
           Alcotest.failf "%s: escaped the supervisor: %s" what
             (Printexc.to_string e)
         | o -> (
             match o.cause with
             | None ->
               if o.graded <> clean_graded then
                 Alcotest.failf "%s: untripped cell differs from the clean run"
                   what
             | Some (Engines.Supervisor.Exhausted r) ->
               Alcotest.(check string) (what ^ ": graded E") "E"
                 (cell_symbol o.graded.cell);
               Alcotest.(check bool) (what ^ ": tripped a capped resource")
                 true (List.mem r capped);
               Alcotest.(check bool) (what ^ ": stage of the resource") true
                 (o.stage = Engines.Supervisor.stage_of_resource r);
               Hashtbl.replace trips (r, ladder_on) ()
             | Some (Engines.Supervisor.Degraded _) ->
               Alcotest.(check string) (what ^ ": graded P") "P"
                 (cell_symbol o.graded.cell);
               Alcotest.(check bool) (what ^ ": smt or nodes capped") true
                 (List.exists
                    (fun r ->
                       r = Robust.Meter.Solver_conflicts
                       || r = Robust.Meter.Expr_nodes)
                    capped);
               incr degraded
             | Some c ->
               Alcotest.failf "%s: unexpected cause %s" what
                 (Engines.Supervisor.cause_name c)))
      cells baseline
  done;
  (* non-vacuity: every counter cap trips somewhere, the conflict cap
     with the ladder off, and the ladder degrades at least one cell *)
  let tripped r = Hashtbl.mem trips (r, true) || Hashtbl.mem trips (r, false) in
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (Robust.Meter.resource_name r ^ " tripped") true (tripped r))
    Robust.Meter.[ Vm_steps; Lifted_insns; Taint_events; Expr_nodes ];
  Alcotest.(check bool) "solver_conflicts tripped with the ladder off" true
    (Hashtbl.mem trips (Robust.Meter.Solver_conflicts, false));
  Alcotest.(check bool) "the ladder degraded a cell" true (!degraded > 0);
  Alcotest.(check bool) "clean run unchanged after the soak" true
    (clean () = baseline)

(* ---------------- the degradation ladder ---------------- *)

(* a zero-conflict cap trips the meter at the first CDCL conflict, so
   any query that needs actual search degrades; [y*y = 225] is sat
   (y = 15) but forces search, [y*y = 2] is unsat (2 is not a square
   mod 256) and forces search to prove it *)
let zero_conflict_meter () =
  Robust.Meter.create
    { Robust.Budget.unlimited with solver_conflicts = Some 0 }

let conflict_capped_session ?config () =
  Smt.Session.create ~meter:(zero_conflict_meter ()) ?config ()

(* the conflict that trips the cap was spent: smt.conflicts counts it *)
let check_tripping_conflict_counted ~before =
  Alcotest.(check int) "smt.conflicts counts the tripping conflict" 1
    (Telemetry.Metrics.counter_value "smt.conflicts" - before)

let square y n = Smt.Expr.eq (Smt.Expr.Binop (Mul, v y, v y)) (c n)

let ladder_resimplify_decides_sat () =
  let s = conflict_capped_session () in
  let before = Telemetry.Metrics.counter_value "solver.degraded" in
  let conflicts_before = Telemetry.Metrics.counter_value "smt.conflicts" in
  (match
     Smt.Session.check_assertions s
       [ Smt.Expr.eq (v "x") (c 5L); square "y" 225L ]
   with
   | Smt.Session.Sat m ->
     Alcotest.(check bool) "model pins x=5" true
       (List.assoc_opt "x" m = Some 5L);
     let y = Option.value ~default:0L (List.assoc_opt "y" m) in
     Alcotest.(check bool) "model solves y*y=225" true
       (Int64.rem (Int64.mul y y) 256L = 225L)
   | _ -> Alcotest.fail "ladder must still decide the sat query");
  Alcotest.(check int) "resimplify rung recorded" 1
    (Smt.Session.stats s).Smt.Stats.degraded_resimplify;
  Alcotest.(check bool) "solver.degraded bumped" true
    (Telemetry.Metrics.counter_value "solver.degraded" > before);
  check_tripping_conflict_counted ~before:conflicts_before

let ladder_enumerate_decides_unsat () =
  let config =
    { Smt.Session.default_config with
      ladder = [ Smt.Degrade.Enumerate { max_bits = 8 } ] }
  in
  let s = conflict_capped_session ~config () in
  (match Smt.Session.check_assertions s [ square "y" 2L ] with
   | Smt.Session.Unsat -> ()
   | _ -> Alcotest.fail "enumeration must prove y*y=2 unsat");
  Alcotest.(check int) "enumerate rung recorded" 1
    (Smt.Session.stats s).Smt.Stats.degraded_enumerate

let ladder_gives_up_when_rungs_decline () =
  (* 8 free bits > max_bits: the only rung declines, the ladder falls
     off and the check reports Unknown instead of raising *)
  let config =
    { Smt.Session.default_config with
      ladder = [ Smt.Degrade.Enumerate { max_bits = 4 } ] }
  in
  let s = conflict_capped_session ~config () in
  (match Smt.Session.check_assertions s [ square "y" 225L ] with
   | Smt.Session.Unknown _ -> ()
   | _ -> Alcotest.fail "declined rungs must surface as Unknown");
  Alcotest.(check int) "give-up recorded" 1
    (Smt.Session.stats s).Smt.Stats.degraded_give_up

(* one-shot solves that share one accumulator (the --no-incremental
   path of Profile.run_bap, Driver and Dse) add up their degraded
   rungs: the cell grades from every call's, not only the last one's *)
let ladder_rungs_accumulate_across_one_shots () =
  let stats = Smt.Stats.create () in
  Robust.Meter.with_ambient (zero_conflict_meter ()) (fun () ->
      (match
         Smt.Solver.solve ~stats
           [ Smt.Expr.eq (v "x") (c 5L); square "y" 225L ]
       with
       | Smt.Solver.Sat _ -> ()
       | _ -> Alcotest.fail "resimplify must decide the sat query");
      let config =
        { Smt.Solver.default_config with
          ladder = [ Smt.Degrade.Enumerate { max_bits = 4 } ] }
      in
      match Smt.Solver.solve ~config ~stats [ square "y" 225L ] with
      | Smt.Solver.Unknown _ -> ()
      | _ -> Alcotest.fail "declined rungs must surface as Unknown");
  Alcotest.(check (list string)) "both calls' rungs"
    [ "resimplify"; "give_up" ] (Smt.Stats.degraded_rungs stats)

let ladder_off_restores_hard_failure () =
  let config = { Smt.Session.default_config with ladder = [] } in
  let s = conflict_capped_session ~config () in
  let before = Telemetry.Metrics.counter_value "smt.conflicts" in
  let wall0 = Telemetry.Metrics.gauge_value_of "smt.wall_s" in
  (match Smt.Session.check_assertions s [ square "y" 225L ] with
   | exception Robust.Meter.Exhausted { resource; _ } ->
     Alcotest.(check bool) "tripped on conflicts" true
       (resource = Robust.Meter.Solver_conflicts)
   | _ -> Alcotest.fail "empty ladder must re-raise the budget trip");
  check_tripping_conflict_counted ~before;
  Alcotest.(check bool) "wall time of the escaped check counted" true
    (Telemetry.Metrics.gauge_value_of "smt.wall_s" > wall0)

let ladder_turns_e_into_p () =
  (* srand_bomb x BAP exhausts a 50-conflict cap; pre-ladder engines
     graded this cell E *)
  let policy =
    { Engines.Supervisor.default_policy with
      budget = { Robust.Budget.unlimited with solver_conflicts = Some 50 } }
  in
  let o =
    Engines.Supervisor.run_cell ~policy Engines.Profile.Bap
      (bomb "srand_bomb")
  in
  Alcotest.(check string) "graded P" "P" (cell_symbol o.graded.cell);
  (match o.cause with
   | Some (Engines.Supervisor.Degraded _) -> ()
   | _ -> Alcotest.fail "cause must name the deciding rung");
  Alcotest.(check bool) "stage is Es3" true (o.stage = Some Es3);
  Alcotest.(check bool) "degraded diag recorded" true
    (has_degraded o.graded.diags);
  (* with the ladder off the same budget is a hard failure again *)
  let o' =
    Engines.Supervisor.run_cell ~policy:{ policy with ladder = [] }
      Engines.Profile.Bap (bomb "srand_bomb")
  in
  Alcotest.(check string) "ladder off -> E" "E" (cell_symbol o'.graded.cell);
  Alcotest.(check bool) "cause is the raw trip" true
    (o'.cause
     = Some (Engines.Supervisor.Exhausted Robust.Meter.Solver_conflicts))

(* ---------------- the journal ---------------- *)

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

let journal_skips_damage () =
  let path = Filename.temp_file "robust_journal" ".jsonl" in
  let fp = Robust.Journal.fingerprint [ "unit"; "test" ] in
  let w = Robust.Journal.open_writer ~fingerprint:fp path in
  Robust.Journal.append w ~key:"BAP/a" ~payload:"{\"n\":1}";
  Robust.Journal.append w ~key:"BAP/b" ~payload:"{\"n\":2}";
  Robust.Journal.append w ~key:"BAP/c" ~payload:"{\"n\":3}";
  Robust.Journal.close_writer w;
  let pristine = read_file path in
  let l = Robust.Journal.load ~fingerprint:fp path in
  Alcotest.(check int) "all valid" 3 l.valid;
  Alcotest.(check int) "next seq continues" 3 l.next_seq;
  (* flipped checksum byte: the record is skipped, never trusted *)
  let corrupted =
    match String.split_on_char '\n' pristine with
    | a :: b :: rest ->
      let b = Bytes.of_string b in
      Bytes.set b 0 (if Bytes.get b 0 = '0' then '1' else '0');
      String.concat "\n" (a :: Bytes.to_string b :: rest)
    | _ -> Alcotest.fail "journal must have three lines"
  in
  write_file path corrupted;
  let before = Telemetry.Metrics.counter_value "journal.corrupt" in
  let l = Robust.Journal.load ~fingerprint:fp path in
  Alcotest.(check int) "two valid" 2 l.valid;
  Alcotest.(check int) "one corrupt" 1 l.corrupt;
  Alcotest.(check bool) "corrupt metric bumped" true
    (Telemetry.Metrics.counter_value "journal.corrupt" > before);
  Alcotest.(check bool) "damaged key dropped" true
    (not
       (List.exists
          (fun (e : Robust.Journal.entry) -> e.key = "BAP/b")
          l.entries));
  (* truncated final record: a torn tail from a crashed append *)
  write_file path (String.sub pristine 0 (String.length pristine - 25));
  let l = Robust.Journal.load ~fingerprint:fp path in
  Alcotest.(check int) "survivors valid" 2 l.valid;
  Alcotest.(check int) "torn tail counted" 1 l.truncated;
  Alcotest.(check int) "resume seq past survivors" 2 l.next_seq;
  (* a resumed writer heals the torn tail, so its appends parse *)
  let w = Robust.Journal.open_writer ~fingerprint:fp ~seq:l.next_seq path in
  Robust.Journal.append w ~key:"BAP/c" ~payload:"{\"n\":33}";
  Robust.Journal.close_writer w;
  let l = Robust.Journal.load ~fingerprint:fp path in
  Alcotest.(check int) "healed journal valid" 3 l.valid;
  Alcotest.(check int) "torn line now corrupt" 1 l.corrupt;
  (* fingerprint mismatch: every record is stale, none is reused *)
  write_file path pristine;
  let other = Robust.Journal.fingerprint [ "other"; "config" ] in
  let stale_before = Telemetry.Metrics.counter_value "journal.stale" in
  let l = Robust.Journal.load ~fingerprint:other path in
  Alcotest.(check int) "nothing valid" 0 l.valid;
  Alcotest.(check int) "all stale" 3 l.stale;
  Alcotest.(check int) "no entries survive" 0 (List.length l.entries);
  Alcotest.(check bool) "stale metric bumped" true
    (Telemetry.Metrics.counter_value "journal.stale" > stale_before);
  Sys.remove path

let codec_roundtrip () =
  let outcomes =
    [ { Engines.Supervisor.graded =
          { Engines.Grade.cell = Success; proposed = Some "ab\x00\xffz";
            detonated = true; false_positive = false; diags = []; work = 123 };
        cause = None; stage = None; attempts = 1 };
      { Engines.Supervisor.graded =
          { Engines.Grade.cell = Partial; proposed = None; detonated = false;
            false_positive = false;
            diags =
              [ Solver_degraded "enumerate"; Concretized_load 0xdeadbeefL;
                Unsupported_syscall "ptrace"; Fp_constraint ];
            work = 0 };
        cause = Some (Engines.Supervisor.Degraded "enumerate");
        stage = Some Es3; attempts = 2 };
      { Engines.Supervisor.graded =
          { Engines.Grade.cell = Fail Es1; proposed = None; detonated = false;
            false_positive = true; diags = [ Lift_failure "rdtsc" ];
            work = 7 };
        cause = Some (Engines.Supervisor.Exhausted Robust.Meter.Deadline);
        stage = Some Es1; attempts = 3 } ]
  in
  List.iter
    (fun (o : Engines.Supervisor.outcome) ->
       let payload = Engines.Journal_codec.encode_outcome o in
       match Telemetry.Trace_check.parse_opt payload with
       | None -> Alcotest.failf "payload must parse as JSON: %s" payload
       | Some j -> (
           match Engines.Journal_codec.decode_outcome j with
           | None -> Alcotest.failf "payload must decode: %s" payload
           | Some o' ->
             Alcotest.(check bool) "round trip preserves the outcome" true
               (o = o')))
    outcomes

let journal_replay_matches_fresh () =
  let path = Filename.temp_file "robust_journal" ".jsonl" in
  Sys.remove path;
  let journal = path in
  let fresh =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ()) ()
  in
  let written =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ()) ~journal ()
  in
  Alcotest.(check (list string)) "journaled run = fresh" (symbols fresh)
    (symbols written);
  let before = Telemetry.Metrics.counter_value "journal.replayed" in
  let replayed =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ()) ~journal ()
  in
  Alcotest.(check (list string)) "replayed table = fresh" (symbols fresh)
    (symbols replayed);
  Alcotest.(check int) "every cell answered from the journal" (before + 6)
    (Telemetry.Metrics.counter_value "journal.replayed");
  (* a different run configuration must never reuse those records *)
  let stale_before = Telemetry.Metrics.counter_value "journal.stale" in
  let fresh_budgeted =
    Engines.Eval.run_table2 ~policy:tripping_policy ~tools:det_tools
      ~bombs:(det_bombs ()) ()
  in
  let budgeted =
    Engines.Eval.run_table2 ~policy:tripping_policy ~tools:det_tools
      ~bombs:(det_bombs ()) ~journal ()
  in
  Alcotest.(check (list string)) "stale journal never feeds wrong grades"
    (symbols fresh_budgeted) (symbols budgeted);
  Alcotest.(check bool) "stale records counted" true
    (Telemetry.Metrics.counter_value "journal.stale" > stale_before);
  Sys.remove path

(* a run that died after two journaled cells, in the middle of
   appending the third: the finished run's journal cut back by hand to
   two records and half of the third.  Resuming it must rebuild the
   uninterrupted table and, after the grid-order rewrite, the
   uninterrupted journal byte for byte *)
let journal_kill_and_resume () =
  let path = Filename.temp_file "robust_journal" ".jsonl" in
  Sys.remove path;
  let run () =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:path ()
  in
  let fresh = run () in
  let full = Robust.Diskio.read_all path in
  let cut =
    match String.split_on_char '\n' full with
    | a :: b :: c :: _ ->
      String.concat "\n" [ a; b; String.sub c 0 (String.length c / 2) ]
    | _ -> Alcotest.fail "journal must have at least three records"
  in
  Robust.Diskio.write_atomic ~path cut;
  let trunc_before = Telemetry.Metrics.counter_value "journal.truncated" in
  let replayed_before = Telemetry.Metrics.counter_value "journal.replayed" in
  let resumed = run () in
  Alcotest.(check (list string)) "resumed table = uninterrupted run"
    (symbols fresh) (symbols resumed);
  Alcotest.(check bool) "torn record detected on resume" true
    (Telemetry.Metrics.counter_value "journal.truncated" > trunc_before);
  Alcotest.(check int) "the two sound records replayed" (replayed_before + 2)
    (Telemetry.Metrics.counter_value "journal.replayed");
  Alcotest.(check string) "resumed journal = uninterrupted journal" full
    (Robust.Diskio.read_all path);
  Sys.remove path

let () =
  Alcotest.run "robust"
    [ ("budget",
       [ Alcotest.test_case "parse" `Quick budget_parse;
         Alcotest.test_case "scale" `Quick budget_scale;
         Alcotest.test_case "meter trips" `Quick meter_trips;
         Alcotest.test_case "ambient install/restore" `Quick meter_ambient ]);
      ("session",
       [ Alcotest.test_case "rollback on budget fault" `Quick
           session_rollback_on_budget_fault;
         Alcotest.test_case "rollback on conflict trip" `Quick
           session_rollback_on_conflict_trip ]);
      ("supervisor",
       [ Alcotest.test_case "default = bare engine" `Quick
           supervised_matches_bare;
         Alcotest.test_case "budget trip -> E" `Quick budget_trip_grades_e;
         Alcotest.test_case "cancellation -> P" `Quick cancellation_grades_p;
         Alcotest.test_case "crash -> E" `Quick crash_grades_e ]);
      ("determinism",
       [ Alcotest.test_case "same budget, same grades" `Quick
           grades_deterministic_across_runs;
         Alcotest.test_case "incremental agrees one-shot" `Quick
           modes_agree_under_budget ]);
      ("ladder",
       [ Alcotest.test_case "resimplify decides sat" `Quick
           ladder_resimplify_decides_sat;
         Alcotest.test_case "enumerate decides unsat" `Quick
           ladder_enumerate_decides_unsat;
         Alcotest.test_case "declined rungs -> Unknown" `Quick
           ladder_gives_up_when_rungs_decline;
         Alcotest.test_case "one-shot rungs accumulate" `Quick
           ladder_rungs_accumulate_across_one_shots;
         Alcotest.test_case "empty ladder re-raises" `Quick
           ladder_off_restores_hard_failure;
         Alcotest.test_case "budget-tripped cell -> P" `Quick
           ladder_turns_e_into_p ]);
      ("journal",
       [ Alcotest.test_case "damage skipped, never trusted" `Quick
           journal_skips_damage;
         Alcotest.test_case "codec round trip" `Quick codec_roundtrip;
         Alcotest.test_case "replay = fresh run" `Quick
           journal_replay_matches_fresh;
         Alcotest.test_case "kill and resume" `Quick
           journal_kill_and_resume ]);
      ("soak",
       [ Alcotest.test_case "50 plans contained" `Quick soak_real_budgets ])
    ]
