(** Engine-level tests: selected Table II cells (the fast ones), the
    negative bomb, Figure 3, and the labeling logic. *)

open Concolic.Error

let check_cell tool bomb_name expected () =
  let bomb = Bombs.Catalog.find bomb_name in
  let g = Engines.Grade.run_cell tool bomb in
  Alcotest.(check string)
    (Printf.sprintf "%s on %s" (Engines.Profile.name tool) bomb_name)
    (cell_symbol expected) (cell_symbol g.cell)

(* a DSE cell graded as [Grade.run_cell] grades it, with the shape of
   its exploration pinned: a feasibility check that kept an infeasible
   state, or pruned a feasible one, moves these counts *)
let check_dse_cell tool bomb_name expected ~states ~branches () =
  let bomb = Bombs.Catalog.find bomb_name in
  let mode =
    if tool = Engines.Profile.Angr then Concolic.Dse.With_libs
    else Concolic.Dse.No_libs
  in
  let unknown_budget () =
    Telemetry.Metrics.counter_value "smt.unknown_budget"
  in
  let unknown0 = unknown_budget () in
  let o =
    Concolic.Dse.explore (Engines.Profile.angr_config mode)
      (Bombs.Catalog.image bomb)
  in
  let g = Engines.Grade.grade bomb (Engines.Profile.attempt_of_dse o) in
  let what = Printf.sprintf "%s on %s" (Engines.Profile.name tool) bomb_name in
  Alcotest.(check string) what (cell_symbol expected) (cell_symbol g.cell);
  Alcotest.(check int) (what ^ ": explored states") states o.explored_states;
  Alcotest.(check int) (what ^ ": symbolic branches") branches
    o.symbolic_branches;
  (* the bounds pass narrows these cells' atoi arithmetic: no check
     spends its whole conflict budget *)
  Alcotest.(check int) (what ^ ": budget-unknown checks") 0
    (unknown_budget () - unknown0)

let fig3_shape () =
  let r = Engines.Eval.run_fig3 () in
  (* the paper: 5 instructions -> 66 (61 more); our libc differs in
     absolute counts, but printf must add dozens of tainted
     instructions and several tainted branches *)
  Alcotest.(check bool) "noprint small" true (r.noprint_tainted <= 15);
  Alcotest.(check bool) "print adds 40+" true
    (r.print_tainted - r.noprint_tainted >= 40);
  Alcotest.(check bool) "branch count grows" true
    (r.print_branches > r.noprint_branches)

let fig3_telemetry_agreement () =
  (* the headline counts are derived from the taint.tainted_insns
     telemetry counter; the analyzer's own tainted_count must agree,
     or the instrumentation is lying about Figure 3 *)
  let r = Engines.Eval.run_fig3 () in
  Alcotest.(check int) "noprint: counter = direct" r.noprint_tainted_direct
    r.noprint_tainted;
  Alcotest.(check int) "print: counter = direct" r.print_tainted_direct
    r.print_tainted

let explain_agrees_with_grade () =
  (* --explain must attribute the stage the Table II cell reports:
     same Grade.run_cell, same verdict, marked span present *)
  List.iter
    (fun (tool, bomb_name) ->
       let bomb = Bombs.Catalog.find bomb_name in
       let expected = Engines.Grade.run_cell tool bomb in
       let r = Engines.Explain.run tool bomb in
       Alcotest.(check string)
         (Printf.sprintf "%s on %s" (Engines.Profile.name tool) bomb_name)
         (cell_symbol expected.cell)
         (cell_symbol r.outcome.graded.cell);
       Alcotest.(check bool) "stage derives from the cell" true
         (Engines.Explain.stage_of_cell r.outcome.graded.cell = r.stage);
       (* a failed cell marks a span; the Chrome dump stays valid *)
       (match r.stage with
        | Some _ ->
          let marked =
            List.exists
              (fun (s : Telemetry.span) -> Telemetry.attr s "mark" <> None)
              (Telemetry.finished_spans ())
          in
          Alcotest.(check bool) "a span is marked" true marked
        | None -> ());
       match Telemetry.Trace_check.validate_chrome (Telemetry.to_chrome ()) with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "invalid chrome trace: %s" e)
    [ (Engines.Profile.Bap, "time_bomb");      (* Es0 *)
      (Engines.Profile.Bap, "stack_bomb");     (* Es1 *)
      (Engines.Profile.Triton, "pthread_bomb");(* Es2 *)
      (Engines.Profile.Angr, "array2_bomb");   (* Es3 *)
      (Engines.Profile.Angr, "array1_bomb") ]  (* Success *)

(* Angr/aes under the lifted-instruction cap the perf ledger runs it
   with: the solver work of its forks is pinned, so a change to how a
   query is prepared or checked cannot move the queries, their answers
   or the CDCL search behind them *)
let pin_angr_aes_queries () =
  let bomb = Bombs.Catalog.find "aes_bomb" in
  let policy =
    match Robust.Budget.parse "lift=50000" with
    | Ok budget -> { Engines.Supervisor.default_policy with budget }
    | Error e -> Alcotest.fail e
  in
  let names =
    [ "smt.queries"; "smt.sat"; "smt.unsat"; "smt.conflicts"; "dse.witnessed" ]
  in
  let read () = List.map Telemetry.Metrics.counter_value names in
  let before = read () in
  let c = Engines.Eval.run_cell ~policy Engines.Profile.Angr bomb in
  Alcotest.(check string) "cell" (cell_symbol Abnormal) (cell_symbol c.measured);
  List.iter2
    (fun (name, expected) delta ->
       Alcotest.(check int) name expected delta)
    (List.combine names [ 141; 87; 54; 146; 109 ])
    (List.map2 ( - ) (read ()) before)

(* the trace pipeline's work on the crypto bombs, for the two
   trace-based tools: what the VM steps, the trace records, the replay
   lifts, the path holds and the solver is asked are pinned, so making
   any of those layers cheaper cannot move what it computes *)
let pin_trace_cell tool bomb_name expected () =
  let names =
    [ "vm.steps"; "trace.events"; "lifter.insns_lifted";
      "concolic.constraints"; "smt.queries" ]
  in
  let read () = List.map Telemetry.Metrics.counter_value names in
  let before = read () in
  ignore (Engines.Eval.run_cell tool (Bombs.Catalog.find bomb_name));
  let what = Engines.Profile.name tool ^ "/" ^ bomb_name ^ ": " in
  List.iter2
    (fun (name, want) got -> Alcotest.(check int) (what ^ name) want got)
    (List.combine names expected)
    (List.map2 ( - ) (read ()) before)

(* --explain and table2 read one supervised cell: under any policy the
   diagnosis names the cell, cause and stage Table II prints for it *)
let explain_matches_table2 budget_spec ladder () =
  let budget =
    match Robust.Budget.parse budget_spec with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let policy =
    { Engines.Supervisor.default_policy with
      budget;
      ladder =
        (if ladder then Engines.Supervisor.default_policy.ladder else []) }
  in
  List.iter
    (fun (tool, bomb_name) ->
       let bomb = Bombs.Catalog.find bomb_name in
       let c = Engines.Eval.run_cell ~policy tool bomb in
       let r = Engines.Explain.run ~policy tool bomb in
       let what =
         Printf.sprintf "%s on %s under %s%s" (Engines.Profile.name tool)
           bomb_name budget_spec (if ladder then "" else " (no ladder)")
       in
       Alcotest.(check string) (what ^ ": cell") (cell_symbol c.measured)
         (cell_symbol r.outcome.graded.cell);
       Alcotest.(check (option string)) (what ^ ": cause")
         (Option.map Engines.Supervisor.cause_name c.robust.cause)
         (Option.map Engines.Supervisor.cause_name r.outcome.cause);
       let stage = Option.map show_stage in
       Alcotest.(check (option string)) (what ^ ": supervisor stage")
         (stage c.robust.stage) (stage r.outcome.stage);
       Alcotest.(check (option string)) (what ^ ": attributed stage")
         (stage
            (match c.robust.cause with
             | Some _ -> c.robust.stage
             | None -> Engines.Explain.stage_of_cell c.measured))
         (stage r.stage))
    (List.concat_map
       (fun tool ->
          List.map (fun b -> (tool, b))
            [ "time_bomb"; "argvlen_bomb"; "array1_bomb" ])
       [ Engines.Profile.Bap; Engines.Profile.Triton ])

let negative_bomb_false_positive () =
  let results = Engines.Eval.run_negative () in
  let nolib =
    List.find
      (fun (r : Engines.Eval.negative_result) ->
         r.tool = Engines.Profile.Angr_nolib)
      results
  in
  Alcotest.(check bool) "angr-nolib claims the dead bomb" true nolib.claimed;
  Alcotest.(check bool) "it never detonates" false nolib.detonated

let solved_counts_shape () =
  (* headline: Angr solves the most; BAP and Triton trail far behind.
     run the cheap representative subset *)
  let bombs =
    List.map Bombs.Catalog.find
      [ "time_bomb"; "argvlen_bomb"; "stack_bomb"; "array1_bomb";
        "array2_bomb"; "jump_bomb" ]
  in
  let r = Engines.Eval.run_table2 ~bombs () in
  let solved tool = List.assoc tool r.solved in
  Alcotest.(check bool) "angr >= bap" true
    (solved Engines.Profile.Angr >= solved Engines.Profile.Bap);
  Alcotest.(check bool) "angr >= triton" true
    (solved Engines.Profile.Angr >= solved Engines.Profile.Triton)

(* grading is a property of the (bomb, tool) pair alone: two full runs
   of the same configuration must verdict every cell identically, in
   both solver modes.  Guards against hidden run-to-run state (RNG,
   cache order, wall-clock cutoffs) leaking into Table II *)
let grade_determinism () =
  let bombs =
    List.map Bombs.Catalog.find [ "stack_bomb"; "array1_bomb"; "float_bomb" ]
  in
  List.iter
    (fun incremental ->
       let policy = { Engines.Supervisor.default_policy with incremental } in
       let r1 = Engines.Eval.run_table2 ~policy ~bombs () in
       let r2 = Engines.Eval.run_table2 ~policy ~bombs () in
       Alcotest.(check int) "same cell count" (List.length r1.cells)
         (List.length r2.cells);
       List.iter2
         (fun (a : Engines.Eval.cell_result) (b : Engines.Eval.cell_result) ->
            Alcotest.(check string)
              (Printf.sprintf "%s on %s (incremental=%b)"
                 (Engines.Profile.name a.tool) a.bomb incremental)
              (cell_symbol a.measured) (cell_symbol b.measured))
         r1.cells r2.cells)
    [ true; false ]

let incremental_invariance () =
  (* regression: the incremental solver sessions are a pure
     optimisation — every Table II cell and the solved counts must be
     identical with sessions on and off.  Over this subset the paper's
     expected counts are Angr-NoLib 4 / BAP 2 / Triton 1; our
     reproduction agrees on Angr-NoLib and diverges on two known cells
     (BAP/argvlen and Triton/exception measure OK), so the measured
     counts are pinned at their seed values in both modes *)
  let bombs =
    List.map Bombs.Catalog.find
      [ "argvlen_bomb"; "stack_bomb"; "array1_bomb"; "fork_bomb";
        "exception_bomb"; "pthread_bomb" ]
  in
  let on = Engines.Eval.run_table2 ~bombs () in
  let off =
    Engines.Eval.run_table2
      ~policy:{ Engines.Supervisor.default_policy with incremental = false }
      ~bombs ()
  in
  List.iter2
    (fun (a : Engines.Eval.cell_result) (b : Engines.Eval.cell_result) ->
       Alcotest.(check string)
         (Printf.sprintf "%s on %s" (Engines.Profile.name a.tool) a.bomb)
         (cell_symbol a.measured) (cell_symbol b.measured))
    on.cells off.cells;
  let expected_solved tool =
    List.length
      (List.filter
         (fun (c : Engines.Eval.cell_result) ->
            c.tool = tool && c.expected = Some Success)
         on.cells)
  in
  Alcotest.(check int) "paper: angr-nolib solves 4" 4
    (expected_solved Engines.Profile.Angr_nolib);
  Alcotest.(check int) "paper: bap solves 2" 2
    (expected_solved Engines.Profile.Bap);
  Alcotest.(check int) "paper: triton solves 1" 1
    (expected_solved Engines.Profile.Triton);
  let solved (r : Engines.Eval.table2_result) tool = List.assoc tool r.solved in
  List.iter
    (fun r ->
       Alcotest.(check int) "measured angr-nolib solved" 4
         (solved r Engines.Profile.Angr_nolib);
       Alcotest.(check int) "measured bap solved" 3
         (solved r Engines.Profile.Bap);
       Alcotest.(check int) "measured triton solved" 2
         (solved r Engines.Profile.Triton))
    [ on; off ]

let table1_covers_all_challenges () =
  let s = Engines.Eval.render_table1 () in
  List.iter
    (fun c ->
       if not
           (let n = String.length c in
            let h = String.length s in
            let rec scan i = i + n <= h && (String.sub s i n = c || scan (i + 1)) in
            scan 0)
       then Alcotest.failf "missing challenge %s" c)
    [ "Symbolic Array"; "Symbolic Jump"; "Floating-point" ]

let () =
  Alcotest.run "engines"
    [ ("cells",
       [ (* declaration *)
         Alcotest.test_case "bap/time Es0" `Quick
           (check_cell Engines.Profile.Bap "time_bomb" (Fail Es0));
         Alcotest.test_case "triton/time Es0" `Quick
           (check_cell Engines.Profile.Triton "time_bomb" (Fail Es0));
         Alcotest.test_case "angr/time Es0" `Quick
           (check_cell Engines.Profile.Angr "time_bomb" (Fail Es0));
         (* covert: stack *)
         Alcotest.test_case "bap/stack Es1" `Quick
           (check_cell Engines.Profile.Bap "stack_bomb" (Fail Es1));
         Alcotest.test_case "triton/stack OK" `Quick
           (check_cell Engines.Profile.Triton "stack_bomb" Success);
         Alcotest.test_case "angr/stack OK" `Quick
           (check_cell Engines.Profile.Angr "stack_bomb" Success);
         (* arrays *)
         Alcotest.test_case "triton/array1 Es3" `Quick
           (check_cell Engines.Profile.Triton "array1_bomb" (Fail Es3));
         Alcotest.test_case "angr/array1 OK" `Quick
           (check_cell Engines.Profile.Angr "array1_bomb" Success);
         Alcotest.test_case "angr/array2 Es3" `Quick
           (check_cell Engines.Profile.Angr "array2_bomb" (Fail Es3));
         (* length of argv *)
         Alcotest.test_case "angr/argvlen OK" `Quick
           (check_cell Engines.Profile.Angr "argvlen_bomb" Success);
         (* syscall return *)
         Alcotest.test_case "angr/sysret P" `Quick
           (check_cell Engines.Profile.Angr "sysret_bomb" Partial);
         (* fp *)
         Alcotest.test_case "bap/float Es1" `Quick
           (check_cell Engines.Profile.Bap "float_bomb" (Fail Es1));
         Alcotest.test_case "triton/float Es1" `Quick
           (check_cell Engines.Profile.Triton "float_bomb" (Fail Es1));
         (* web: socket crash *)
         Alcotest.test_case "angr/web E" `Quick
           (check_cell Engines.Profile.Angr "web_bomb" Abnormal);
         (* exception: BAP models the fault branch *)
         Alcotest.test_case "bap/exception OK" `Quick
           (check_cell Engines.Profile.Bap "exception_bomb" Success);
         (* threads: BAP's flat trace wins, Triton's view loses *)
         Alcotest.test_case "bap/pthread OK" `Quick
           (check_cell Engines.Profile.Bap "pthread_bomb" Success);
         Alcotest.test_case "triton/pthread Es2" `Quick
           (check_cell Engines.Profile.Triton "pthread_bomb" (Fail Es2));
         (* fork: only the NoLib summary solves it *)
         Alcotest.test_case "angr-nolib/fork OK" `Quick
           (check_cell Engines.Profile.Angr_nolib "fork_bomb" Success) ]);
      ("dse cells",
       (* the solver-heavy fork loops of the Angr columns *)
       List.map
         (fun (tool, bomb, expected, states, branches) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s %s" (Engines.Profile.name tool) bomb
                 (cell_symbol expected))
              `Quick
              (check_dse_cell tool bomb expected ~states ~branches))
         Engines.Profile.
           [ (Angr, "jump_bomb", Fail Es3, 58, 59);
             (Angr_nolib, "jump_bomb", Fail Es3, 58, 59);
             (Angr, "jumptable_bomb", Fail Es3, 60, 59);
             (Angr_nolib, "jumptable_bomb", Fail Es3, 60, 59);
             (Angr, "pthread_bomb", Fail Es2, 50, 49);
             (Angr_nolib, "pthread_bomb", Fail Es2, 50, 49);
             (Angr, "fork_bomb", Fail Es2, 67, 66);
             (Angr_nolib, "fork_bomb", Success, 50, 49) ]
       @ [ Alcotest.test_case "pin Angr/aes queries under lift=50000" `Quick
             pin_angr_aes_queries ]);
      ("trace cells",
       List.map
         (fun (tool, bomb, expected) ->
            Alcotest.test_case
              (Printf.sprintf "pin %s/%s work" (Engines.Profile.name tool)
                 bomb)
              `Quick
              (pin_trace_cell tool bomb expected))
         Engines.Profile.
           [ (Bap, "aes_bomb", [ 15588; 7845; 7842; 11; 1 ]);
             (Triton, "aes_bomb", [ 15216; 15222; 15216; 2; 1 ]);
             (Bap, "sha1_bomb", [ 4682; 4685; 4682; 26; 0 ]);
             (Triton, "sha1_bomb", [ 8954; 8960; 8954; 4; 1 ]) ]);
      ("explain = table2",
       List.map
         (fun (name, spec, ladder) ->
            Alcotest.test_case name `Quick
              (explain_matches_table2 spec ladder))
         [ ("default policy", "unlimited", true);
           ("smt=0", "smt=0", true);
           ("smt=0, ladder off", "smt=0", false);
           ("lift=50", "lift=50", true) ]);
      ("aggregates",
       [ Alcotest.test_case "fig3 shape" `Quick fig3_shape;
         Alcotest.test_case "fig3 telemetry agreement" `Quick
           fig3_telemetry_agreement;
         Alcotest.test_case "explain agrees with grade" `Quick
           explain_agrees_with_grade;
         Alcotest.test_case "negative bomb" `Quick
           negative_bomb_false_positive;
         Alcotest.test_case "solved counts shape" `Quick solved_counts_shape;
         Alcotest.test_case "incremental invariance" `Quick
           incremental_invariance;
         Alcotest.test_case "grade determinism" `Quick grade_determinism;
         Alcotest.test_case "table1 coverage" `Quick
           table1_covers_all_challenges ]) ]
