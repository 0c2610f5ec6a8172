(** Benchmark harness: one Bechamel test per paper artifact (Tables I
    and II, Figure 3, the dataset statistics, the negative bomb), plus
    ablation benches for the design choices DESIGN.md calls out
    (memory model, taint filter, solver stack, library loading).

    Absolute times are machine-local; the interesting outputs are the
    relative costs (e.g. the indexed memory model vs concretization,
    printf's constraint blow-up) — the *shapes* the paper reports. *)

open Bechamel
open Toolkit

(* ---------------- workloads ---------------- *)

let bomb name = Bombs.Catalog.find name

let trace_of ?(argv1 = "5") b =
  let config = Bombs.Common.config_for b argv1 in
  Trace.record ~config (Bombs.Catalog.image b)

(* Table I: static taxonomy rendering (trivially cheap; included for
   completeness of the per-table index) *)
let bench_table1 =
  Test.make ~name:"table1/render"
    (Staged.stage (fun () -> ignore (Engines.Eval.render_table1 ())))

(* Table II: one representative cell per engine class *)
let bench_cell_bap =
  Test.make ~name:"table2/cell_bap_stack"
    (Staged.stage (fun () ->
         ignore (Engines.Grade.run_cell Engines.Profile.Bap (bomb "stack_bomb"))))

let bench_cell_triton =
  Test.make ~name:"table2/cell_triton_stack"
    (Staged.stage (fun () ->
         ignore
           (Engines.Grade.run_cell Engines.Profile.Triton (bomb "stack_bomb"))))

let bench_cell_angr =
  Test.make ~name:"table2/cell_angr_array1"
    (Staged.stage (fun () ->
         ignore
           (Engines.Grade.run_cell Engines.Profile.Angr (bomb "array1_bomb"))))

(* incremental-session ablation: the same cells solved one-shot *)
let bench_cell_angr_oneshot =
  Test.make ~name:"table2/cell_angr_array1_oneshot"
    (Staged.stage (fun () ->
         ignore
           (Engines.Grade.run_cell ~incremental:false Engines.Profile.Angr
              (bomb "array1_bomb"))))

let bench_cell_triton_oneshot =
  Test.make ~name:"table2/cell_triton_stack_oneshot"
    (Staged.stage (fun () ->
         ignore
           (Engines.Grade.run_cell ~incremental:false Engines.Profile.Triton
              (bomb "stack_bomb"))))

(* Figure 3: taint analysis with and without printf.  No argv.(1) in
   the trace degrades to an empty source list (the benchmark then
   measures the propagation walk alone) instead of aborting. *)
let argv1_sources t =
  match Trace.argv_region t 1 with
  | Some (addr, len) -> [ (addr, len - 1) ]
  | None ->
    Printf.eprintf "bench: trace has no argv.(1); taint sources empty\n";
    []

let bench_fig3_noprint =
  let t = trace_of ~argv1:"7" (bomb "fig3_noprint") in
  let sources = argv1_sources t in
  Test.make ~name:"fig3/taint_noprint"
    (Staged.stage (fun () -> ignore (Taint.analyze ~sources t)))

let bench_fig3_print =
  let t = trace_of ~argv1:"7" (bomb "fig3_print") in
  let sources = argv1_sources t in
  Test.make ~name:"fig3/taint_print"
    (Staged.stage (fun () -> ignore (Taint.analyze ~sources t)))

(* Dataset statistics: linking a bomb (the binary-size measurement) *)
let bench_sizes =
  Test.make ~name:"sizes/link_and_measure"
    (Staged.stage (fun () ->
         let img = Bombs.Common.link (bomb "array1_bomb") in
         ignore (Asm.Image.size img)))

(* Negative bomb: the NoLib claim pipeline *)
let bench_negative =
  Test.make ~name:"negative/angr_nolib"
    (Staged.stage (fun () ->
         ignore
           (Engines.Grade.run_cell Engines.Profile.Angr_nolib
              (bomb "negative_bomb"))))

(* ---------------- ablations ---------------- *)

(* memory model: concrete-only vs indexed window on the array bomb *)
let bench_mem_concrete =
  let t = trace_of ~argv1:"5" (bomb "array1_bomb") in
  Test.make ~name:"ablation/mem_concrete_only"
    (Staged.stage (fun () ->
         ignore
           (Concolic.Trace_exec.run Concolic.Trace_exec.bap_like_config t)))

let bench_mem_indexed =
  let t = trace_of ~argv1:"5" (bomb "array1_bomb") in
  let cfg =
    { Concolic.Trace_exec.bap_like_config with
      mem_mode = Concolic.Sym_exec.Indexed { window = 32; max_depth = 1 } }
  in
  Test.make ~name:"ablation/mem_indexed"
    (Staged.stage (fun () -> ignore (Concolic.Trace_exec.run cfg t)))

(* solver stack: simplifier-only vs full bit-blasting *)
let solver_constraints =
  let x = Smt.Expr.var ~width:32 "x" in
  [ Smt.Expr.eq
      (Smt.Expr.Binop (Mul, x, Smt.Expr.const ~width:32 3L))
      (Smt.Expr.const ~width:32 51L) ]

let bench_solver_simplify =
  Test.make ~name:"ablation/solver_simplify_only"
    (Staged.stage (fun () ->
         ignore (List.map Smt.Simplify.run solver_constraints)))

let bench_solver_blast =
  Test.make ~name:"ablation/solver_bitblast"
    (Staged.stage (fun () ->
         ignore (Smt.Solver.solve solver_constraints)))

(* taint filter over a crypto trace *)
let bench_taint_sha1 =
  let t = trace_of ~argv1:"abc" (bomb "sha1_bomb") in
  let sources = argv1_sources t in
  Test.make ~name:"ablation/taint_sha1_trace"
    (Staged.stage (fun () -> ignore (Taint.analyze ~sources t)))

(* lib loading: DSE with and without summaries on the sin bomb *)
let bench_dse_with_libs =
  Test.make ~name:"ablation/dse_sin_with_libs"
    (Staged.stage (fun () ->
         let config = Concolic.Dse.default_config Concolic.Dse.With_libs in
         ignore
           (Concolic.Dse.explore config (Bombs.Catalog.image (bomb "sin_bomb")))))

let bench_dse_no_libs =
  Test.make ~name:"ablation/dse_sin_no_libs"
    (Staged.stage (fun () ->
         let config = Concolic.Dse.default_config Concolic.Dse.No_libs in
         ignore
           (Concolic.Dse.explore config (Bombs.Catalog.image (bomb "sin_bomb")))))

(* telemetry overhead: the same representative Table II cell with span
   tracing on.  The plain table2/cell_* benches above run with tracing
   off — comparing the two shows the enabled-mode cost, and the plain
   cells must not regress against the pre-telemetry seed *)
let bench_cell_bap_traced =
  Test.make ~name:"telemetry/cell_bap_stack_traced"
    (Staged.stage (fun () ->
         (* reset per run so spans do not accumulate across the
            timing loop *)
         Telemetry.reset ();
         Telemetry.enable ();
         ignore
           (Engines.Grade.run_cell Engines.Profile.Bap (bomb "stack_bomb"));
         Telemetry.disable ()))

(* supervisor overhead: the same representative cell run through the
   robust cell supervisor with the default (unlimited, no-chaos)
   policy.  Comparing against table2/cell_bap_stack shows what crash
   isolation and budget accounting cost on an untripped cell *)
let bench_cell_bap_supervised =
  Test.make ~name:"robust/cell_bap_stack_supervised"
    (Staged.stage (fun () ->
         ignore
           (Engines.Supervisor.run_cell Engines.Profile.Bap
              (bomb "stack_bomb"))))

(* differential-fuzzing throughput: cases/sec per oracle family, so a
   generator or oracle slowdown shows up next to the solver ablations *)
let bench_fuzz_blast =
  Test.make ~name:"fuzz/blast_20_cases"
    (Staged.stage (fun () ->
         ignore (Difftest.Harness.run ~seed:11 ~budget:20 "blast")))

let bench_fuzz_vmir =
  Test.make ~name:"fuzz/vmir_20_cases"
    (Staged.stage (fun () ->
         ignore (Difftest.Harness.run ~seed:11 ~budget:20 "vmir")))

let benchmarks =
  [ bench_table1; bench_cell_bap; bench_cell_triton; bench_cell_angr;
    bench_cell_angr_oneshot; bench_cell_triton_oneshot;
    bench_fig3_noprint; bench_fig3_print; bench_sizes; bench_negative;
    bench_mem_concrete; bench_mem_indexed; bench_solver_simplify;
    bench_solver_blast; bench_taint_sha1; bench_dse_with_libs;
    bench_dse_no_libs; bench_cell_bap_traced; bench_cell_bap_supervised;
    bench_fuzz_blast; bench_fuzz_vmir ]

(* ---------------- machine-readable solver ablation ---------------- *)

(* one timed run per (workload × mode), reading the engine's own
   {!Smt.Stats} record off its outcome — the counters Bechamel's
   aggregate timings can't see (cache hits, conflicts, blasted nodes) *)
let solver_report () =
  let dse_workload name bomb_name ~incremental =
    let config =
      { (Concolic.Dse.default_config Concolic.Dse.With_libs) with incremental }
    in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Concolic.Dse.explore config (Bombs.Catalog.image (bomb bomb_name))
    in
    (name, incremental, Unix.gettimeofday () -. t0,
     outcome.Concolic.Dse.solver_stats)
  in
  let driver_workload name bomb_name ~incremental =
    let b = bomb bomb_name in
    let config =
      { (Concolic.Driver.default_config Concolic.Trace_exec.triton_like_config)
        with incremental }
    in
    let target =
      { Concolic.Driver.image = Bombs.Catalog.image b;
        run_config =
          (fun input -> Bombs.Common.config_for ~winning:false b input);
        detonated = Bombs.Common.triggered }
    in
    let t0 = Unix.gettimeofday () in
    let verdict = Concolic.Driver.explore ~seed:b.decoy config target in
    (name, incremental, Unix.gettimeofday () -. t0,
     verdict.Concolic.Driver.solver_stats)
  in
  let rows =
    [ dse_workload "table2/cell_angr_array1" "array1_bomb" ~incremental:true;
      dse_workload "table2/cell_angr_array1" "array1_bomb" ~incremental:false;
      dse_workload "table2/cell_angr_stack" "stack_bomb" ~incremental:true;
      dse_workload "table2/cell_angr_stack" "stack_bomb" ~incremental:false;
      driver_workload "trace_exec/driver_jumptable" "jumptable_bomb"
        ~incremental:true;
      driver_workload "trace_exec/driver_jumptable" "jumptable_bomb"
        ~incremental:false ]
  in
  let json =
    "[\n"
    ^ String.concat ",\n"
      (List.map
         (fun (name, incremental, wall, stats) ->
            Printf.sprintf
              "  {\"workload\": %S, \"incremental\": %b, \
               \"workload_wall_s\": %.6f, %s}"
              name incremental wall (Smt.Stats.to_json_fields stats))
         rows)
    ^ "\n]\n"
  in
  let oc = open_out "BENCH_solver.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "\n%-36s %5s %12s %8s %6s %10s\n" "solver workload" "inc"
    "solver time" "queries" "hits" "conflicts";
  List.iter
    (fun (name, incremental, _, (s : Smt.Stats.t)) ->
       Printf.printf "%-36s %5b %9.3f ms %8d %6d %10d\n" name incremental
         (s.wall_time *. 1e3) s.queries s.cache_hits s.conflicts)
    rows;
  print_endline "wrote BENCH_solver.json"

(* ---------------- machine-readable robust-layer report ------------- *)

(* supervisor overhead on untripped cells (bare vs supervised wall
   time over [reps] runs) plus one fixed-seed soak summary — the
   numbers the acceptance criteria pin for the robust layer *)
let robust_report () =
  let reps = 5 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let overhead_cell name tool bomb_name =
    let b = bomb bomb_name in
    let bare = time (fun () -> Engines.Grade.run_cell tool b) in
    let supervised = time (fun () -> Engines.Supervisor.run_cell tool b) in
    (name, bare, supervised)
  in
  let cells =
    [ overhead_cell "table2/cell_bap_stack" Engines.Profile.Bap "stack_bomb";
      overhead_cell "table2/cell_triton_stack" Engines.Profile.Triton
        "stack_bomb" ]
  in
  let soak =
    Engines.Supervisor.soak ~tools:[ Engines.Profile.Bap ]
      ~bombs:[ "time_bomb"; "argvlen_bomb" ] ~seed:42L ~plans:25 ()
  in
  (* write-ahead journal: what appending costs an executing run, and
     what replaying a complete journal saves over re-running *)
  let journal_fresh, journal_write, journal_replay =
    let tools = [ Engines.Profile.Bap; Engines.Profile.Triton ] in
    let bombs =
      List.map bomb [ "time_bomb"; "argvlen_bomb"; "stack_bomb" ]
    in
    let path = Filename.temp_file "bench_journal" ".jsonl" in
    let journal =
      { Engines.Eval.journal_path = path; kill_after = None;
        kill_torn = false }
    in
    let fresh = time (fun () -> Engines.Eval.run_table2 ~tools ~bombs ()) in
    let write =
      time (fun () ->
          if Sys.file_exists path then Sys.remove path;
          Engines.Eval.run_table2 ~tools ~bombs ~journal ())
    in
    (* the journal is now complete: further runs replay every cell *)
    let replay =
      time (fun () -> Engines.Eval.run_table2 ~tools ~bombs ~journal ())
    in
    if Sys.file_exists path then Sys.remove path;
    (fresh, write, replay)
  in
  let json =
    Printf.sprintf
      "{\n  \"supervisor_overhead\": [\n%s\n  ],\n  \"journal\": \
       {\"workload\": \"table2/2x3_cells\", \"fresh_wall_s\": %.6f, \
       \"write_wall_s\": %.6f, \"write_overhead_pct\": %.2f, \
       \"replay_wall_s\": %.6f, \"replay_speedup\": %.1f},\n  \"soak\": \
       {\"seed\": %Ld, \"plans\": %d, \"cells\": %d, \"faults_fired\": %d, \
       \"graded_e\": %d, \"graded_p\": %d, \"contained\": %b}\n}\n"
      (String.concat ",\n"
         (List.map
            (fun (name, bare, supervised) ->
               Printf.sprintf
                 "    {\"workload\": %S, \"bare_wall_s\": %.6f, \
                  \"supervised_wall_s\": %.6f, \"overhead_pct\": %.2f}"
                 name bare supervised
                 (100. *. (supervised -. bare) /. bare))
            cells))
      journal_fresh journal_write
      (100. *. (journal_write -. journal_fresh) /. journal_fresh)
      journal_replay
      (journal_fresh /. journal_replay)
      soak.seed soak.plans soak.cells_run soak.faults_fired soak.degraded_e
      soak.degraded_p
      (Engines.Supervisor.contained soak)
  in
  let oc = open_out "BENCH_robust.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "\n%-36s %12s %12s %9s\n" "supervised workload" "bare"
    "supervised" "overhead";
  List.iter
    (fun (name, bare, supervised) ->
       Printf.printf "%-36s %9.3f ms %9.3f ms %8.2f%%\n" name (bare *. 1e3)
         (supervised *. 1e3)
         (100. *. (supervised -. bare) /. bare))
    cells;
  Printf.printf
    "journal: fresh %.3f ms, write %.3f ms (%+.2f%%), replay %.3f ms \
     (%.0fx)\n"
    (journal_fresh *. 1e3) (journal_write *. 1e3)
    (100. *. (journal_write -. journal_fresh) /. journal_fresh)
    (journal_replay *. 1e3)
    (journal_fresh /. journal_replay);
  Printf.printf
    "soak: %d cells, %d faults fired (E: %d, P: %d), contained: %b\n"
    soak.cells_run soak.faults_fired soak.degraded_e soak.degraded_p
    (Engines.Supervisor.contained soak);
  print_endline "wrote BENCH_robust.json"

(* ---------------- machine-readable fleet report -------------------- *)

(* the evaluation fleet, measured three ways:
   - table2: a deterministically budgeted grid (everything but the
     quasi-hung srand_bomb) run sequentially and at 2 and 4 workers,
     with the rendered tables compared for identity.  On one core the
     fleet pays fork/cache overhead; on N cores it approaches Nx.
   - straggler: the cell the budget does NOT bound (srand_bomb has an
     unmetered solver phase).  Sequentially that cell stalls the whole
     table — measured in a forked child, killed at the cap if need be
     (reported censored).  The fleet's watchdog kills the stuck worker
     and grades the cell, so the run completes regardless.
   - queue: scheduling overhead alone — thousands of trivial tasks
     through the pool, submit-to-done latency percentiles. *)
let fleet_report () =
  let cores =
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    max 1 !n
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  (* --- table2: budgeted deterministic grid, seq vs 2 vs 4 workers --- *)
  let budget_spec = "smt=50,vm=500000,lift=100000,nodes=50000,taint=200000" in
  let policy =
    { Engines.Supervisor.default_policy with
      budget =
        (match Robust.Budget.parse budget_spec with
         | Ok b -> b
         | Error e -> failwith e) }
  in
  let det_bombs =
    List.filter
      (fun (b : Bombs.Common.t) -> b.name <> "srand_bomb")
      Bombs.Catalog.table2
  in
  let render = Engines.Eval.render_table2 in
  (* fleet passes first: while they run, the cells execute in freshly
     forked workers, so the master's heap and caches stay cold for the
     sequential baseline measured last *)
  Printf.printf "fleet table2 (budgeted, %d bombs): 4 workers...\n%!"
    (List.length det_bombs);
  let w4_s, w4 =
    wall (fun () ->
        Engines.Eval.run_table2 ~policy ~bombs:det_bombs ~workers:4 ())
  in
  Printf.printf "  2 workers...\n%!";
  let w2_s, w2 =
    wall (fun () ->
        Engines.Eval.run_table2 ~policy ~bombs:det_bombs ~workers:2 ())
  in
  Printf.printf "  sequential...\n%!";
  let seq_s, seq =
    wall (fun () -> Engines.Eval.run_table2 ~policy ~bombs:det_bombs ())
  in
  let identical = render seq = render w2 && render seq = render w4 in
  (* --- straggler: fleet watchdog vs a sequential run that stalls --- *)
  let straggler_cap = 120. in
  let straggler_timeout = 8. in
  Printf.printf "fleet straggler: 4 workers + %.0fs watchdog...\n%!"
    straggler_timeout;
  let straggler_bombs = [ Bombs.Catalog.find "srand_bomb" ] in
  let kills_before = Telemetry.Metrics.counter_value "fleet.watchdog_kills" in
  let fleet_straggler_s, _ =
    wall (fun () ->
        Engines.Eval.run_table2 ~bombs:straggler_bombs ~workers:4
          ~task_timeout:straggler_timeout ())
  in
  let watchdog_kills =
    Telemetry.Metrics.counter_value "fleet.watchdog_kills" - kills_before
  in
  Printf.printf "  sequential (capped at %.0fs)...\n%!" straggler_cap;
  let seq_straggler_s, seq_censored =
    (* a stalled sequential run can't be interrupted from within (the
       supervisor swallows everything), so it runs in a forked child
       killed at the cap *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        Unix.close Unix.stdout;
        (try
           ignore (Engines.Eval.run_table2 ~bombs:straggler_bombs ());
           Unix._exit 0
         with _ -> Unix._exit 1)
    | pid ->
        let t0 = Unix.gettimeofday () in
        let rec poll () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              if Unix.gettimeofday () -. t0 > straggler_cap then begin
                Unix.kill pid Sys.sigkill;
                ignore (Unix.waitpid [] pid);
                (Unix.gettimeofday () -. t0, true)
              end
              else begin
                ignore (Unix.select [] [] [] 0.25);
                poll ()
              end
          | _ -> (Unix.gettimeofday () -. t0, false)
        in
        poll ()
  in
  (* --- queue: trivial-task latency under thousands of cells --- *)
  Printf.printf "fleet queue soak...\n%!";
  let queue_tasks = 5000 in
  let pool =
    Fleet.Pool.create
      ~config:{ Fleet.Pool.default_config with workers = 4 }
      (fun ~attempt:_ ~key:_ task -> task)
  in
  let queue_s, latencies =
    wall (fun () ->
        for i = 1 to queue_tasks do
          Fleet.Pool.submit pool ~key:(string_of_int i) ~task:"x" ()
        done;
        let results = Fleet.Pool.drain pool in
        List.map
          (fun (r : Fleet.Pool.result) -> r.r_done -. r.r_submitted)
          results)
  in
  Fleet.Pool.shutdown pool;
  let sorted = List.sort compare latencies in
  let arr = Array.of_list sorted in
  let pct p =
    if Array.length arr = 0 then 0.
    else
      arr.(min (Array.length arr - 1)
             (int_of_float (p *. float_of_int (Array.length arr))))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"cores\": %d,\n\
      \  \"table2\": {\"bombs\": %d, \"tools\": 4, \"budget\": %S,\n\
      \    \"sequential_wall_s\": %.3f, \"workers2_wall_s\": %.3f, \
       \"workers4_wall_s\": %.3f,\n\
      \    \"speedup_2w\": %.2f, \"speedup_4w\": %.2f, \
       \"identical_tables\": %b},\n\
      \  \"straggler\": {\"grid\": \"srand_bomb x 4 tools, no budget\",\n\
      \    \"sequential_wall_s\": %.3f, \"sequential_censored\": %b, \
       \"cap_s\": %.0f,\n\
      \    \"fleet4_wall_s\": %.3f, \"task_timeout_s\": %.0f, \
       \"watchdog_kills\": %d, \"speedup\": %.2f},\n\
      \  \"queue\": {\"tasks\": %d, \"workers\": 4, \"wall_s\": %.3f, \
       \"throughput_per_s\": %.0f,\n\
      \    \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}}\n\
       }\n"
      cores (List.length det_bombs) budget_spec seq_s w2_s w4_s
      (seq_s /. w2_s) (seq_s /. w4_s) identical seq_straggler_s seq_censored
      straggler_cap fleet_straggler_s straggler_timeout watchdog_kills
      (seq_straggler_s /. fleet_straggler_s)
      queue_tasks queue_s
      (float_of_int queue_tasks /. queue_s)
      (1e3 *. pct 0.50) (1e3 *. pct 0.95) (1e3 *. pct 0.99)
  in
  let oc = open_out "BENCH_fleet.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "table2 (budgeted, %d bombs): seq %.1fs, 2w %.1fs (%.2fx), 4w %.1fs \
     (%.2fx), identical: %b\n"
    (List.length det_bombs) seq_s w2_s (seq_s /. w2_s) w4_s (seq_s /. w4_s)
    identical;
  Printf.printf
    "straggler: seq %.1fs%s, fleet-4 + watchdog %.1fs (%.1fx, %d kills)\n"
    seq_straggler_s
    (if seq_censored then " (censored at cap)" else "")
    fleet_straggler_s
    (seq_straggler_s /. fleet_straggler_s)
    watchdog_kills;
  Printf.printf
    "queue: %d tasks in %.2fs (%.0f/s), latency p50 %.2f ms p99 %.2f ms\n"
    queue_tasks queue_s
    (float_of_int queue_tasks /. queue_s)
    (1e3 *. pct 0.50) (1e3 *. pct 0.99);
  print_endline "wrote BENCH_fleet.json"

(* ---------------- machine-readable observability report ----------- *)

(* the observability plane, measured where it could hurt:
   - piggyback: per-task cost of the snapshot lines workers ship on
     every reply — thousands of trivial tasks through the same pool
     geometry with snapshots off and on.
   - span merge: throughput of stitching per-worker span shards into
     one Chrome timeline (synthetic shards, so the number is the
     merger's, not the engines').
   - profiler: Cellprof.profiled around a warm cell, phases off (the
     disabled hot path that every fleet cell pays when --profile is
     not given... it isn't: profiled only wraps cells when --profile
     is set, so this bounds the flag's own cost) and phases on. *)
let obs_report () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  (* --- piggyback: echo pool, snapshots off vs on --- *)
  let tasks = 2000 in
  Printf.printf "obs piggyback: %d echo tasks, snapshots off...\n%!" tasks;
  let soak snapshots =
    let pool =
      Fleet.Pool.create
        ~config:{ Fleet.Pool.default_config with workers = 2; snapshots }
        (fun ~attempt:_ ~key:_ task ->
           (* move a counter so the shipped delta is never empty *)
           Telemetry.Metrics.incr
             (Telemetry.Metrics.counter "bench.obs.echo");
           task)
    in
    let s, _ =
      wall (fun () ->
          for i = 1 to tasks do
            Fleet.Pool.submit pool ~key:(string_of_int i) ~task:"x" ()
          done;
          Fleet.Pool.drain pool)
    in
    Fleet.Pool.shutdown pool;
    s
  in
  let off_s = soak false in
  Printf.printf "  snapshots on...\n%!";
  let on_s = soak true in
  let per_task_us = 1e6 *. (on_s -. off_s) /. float_of_int tasks in
  (* --- span merge throughput over synthetic shards --- *)
  let shards = 4 and lines = 2500 in
  Printf.printf "obs span merge: %d shards x %d spans...\n%!" shards lines;
  let base = "bench_obs_spans" in
  Fleet.Spans.remove_shards ~base;
  for slot = 0 to shards - 1 do
    let oc = open_out (Fleet.Spans.shard_path ~base slot) in
    for i = 0 to lines - 1 do
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": null, \"name\": \"span%d\", \
         \"ts_us\": %d.0, \"dur_us\": 5.0}\n"
        i (i mod 7) (i * 10)
    done;
    close_out oc
  done;
  let merge_out = base ^ ".chrome.json" in
  let merge_s, report =
    wall (fun () -> Fleet.Spans.merge_chrome ~base ~out:merge_out ())
  in
  let merge_ok =
    report.Fleet.Spans.mr_spans = shards * lines
    && report.Fleet.Spans.mr_skipped = 0
    && Result.is_ok (Telemetry.Trace_check.validate_chrome_file merge_out)
  in
  (try Sys.remove merge_out with Sys_error _ -> ());
  (* --- Cellprof around a warm cell --- *)
  Printf.printf "obs profiler overhead (warm cell)...\n%!";
  let tool = Engines.Profile.Bap and b = bomb "time_bomb" in
  let cell () = ignore (Engines.Supervisor.run_cell tool b) in
  cell ();
  let reps = 5 in
  let time_reps f =
    let s, () = wall (fun () -> for _ = 1 to reps do f () done) in
    s /. float_of_int reps
  in
  let bare_s = time_reps cell in
  let off_prof_s =
    time_reps (fun () ->
        ignore (Engines.Cellprof.profiled ~key:"bench" (fun () ->
            Engines.Supervisor.run_cell tool b)))
  in
  let phases_s =
    time_reps (fun () ->
        ignore (Engines.Cellprof.profiled ~phases:true ~key:"bench"
                  (fun () -> Engines.Supervisor.run_cell tool b)))
  in
  let pct x = 100. *. (x -. bare_s) /. bare_s in
  let json =
    Printf.sprintf
      "{\n\
      \  \"piggyback\": {\"tasks\": %d, \"workers\": 2,\n\
      \    \"snapshots_off_wall_s\": %.3f, \"snapshots_on_wall_s\": %.3f,\n\
      \    \"overhead_us_per_task\": %.1f},\n\
      \  \"span_merge\": {\"shards\": %d, \"spans\": %d, \"wall_s\": %.3f,\n\
      \    \"spans_per_s\": %.0f, \"valid_chrome\": %b},\n\
      \  \"profiler\": {\"cell\": \"BAP/time_bomb\", \"reps\": %d, \
       \"bare_ms\": %.3f,\n\
      \    \"profiled_ms\": %.3f, \"profiled_overhead_pct\": %.1f,\n\
      \    \"phases_ms\": %.3f, \"phases_overhead_pct\": %.1f}\n\
       }\n"
      tasks off_s on_s per_task_us shards (shards * lines) merge_s
      (float_of_int (shards * lines) /. merge_s)
      merge_ok reps (1e3 *. bare_s) (1e3 *. off_prof_s) (pct off_prof_s)
      (1e3 *. phases_s) (pct phases_s)
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc json;
  close_out oc;
  Printf.printf
    "piggyback: off %.2fs, on %.2fs -> %.1f us/task\n" off_s on_s per_task_us;
  Printf.printf "span merge: %d spans in %.3fs (%.0f/s), valid: %b\n"
    (shards * lines) merge_s
    (float_of_int (shards * lines) /. merge_s)
    merge_ok;
  Printf.printf
    "profiler: bare %.2f ms, profiled %+.1f%%, with phases %+.1f%%\n"
    (1e3 *. bare_s) (pct off_prof_s) (pct phases_s);
  print_endline "wrote BENCH_obs.json"

(* ---------------- machine-readable service-plane report ----------- *)

(* the serve daemon measured as a service: throughput and request
   latency with IPC chaos off and at the soak's fault rates, and the
   load-shedding behaviour of a deliberately overloaded queue *)
let serve_report () =
  let socket = "bench_serve.sock" in
  let rm p = try Sys.remove p with Sys_error _ -> () in
  let fork_daemon ~workers ~max_queue ~rate () =
    rm socket;
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> (
        try
          Engines.Service.serve ~workers ~max_queue ~task_timeout:1.0
            ~respawns:4 ~breaker:8 ~chaos_seed:42L ~chaos_rate:rate ~socket
            ();
          Unix._exit 0
        with _ -> Unix._exit 1)
    | pid -> pid
  in
  let await () =
    let rec go tries =
      if tries = 0 then failwith "bench serve: daemon never became ready"
      else
        match Engines.Service.ping ~socket () with
        | Some _ -> ()
        | None ->
            ignore (Unix.select [] [] [] 0.05);
            go (tries - 1)
    in
    go 400
  in
  let grid =
    [ (Engines.Profile.Bap, "time_bomb");
      (Engines.Profile.Triton, "time_bomb");
      (Engines.Profile.Bap, "argvlen_bomb");
      (Engines.Profile.Triton, "argvlen_bomb") ]
  in
  let requests n =
    List.init n (fun i ->
        let tool, bomb = List.nth grid (i mod List.length grid) in
        let id =
          Printf.sprintf "r%03d/%s/%s" i (Engines.Profile.name tool) bomb
        in
        (id, Engines.Service.encode_request ~id ~tool ~bomb ()))
  in
  let n = 60 in
  let open Telemetry.Trace_check in
  let num j name =
    match Option.bind j (member name) with
    | Some (Num v) -> v
    | _ -> 0.
  in
  (* --- throughput + latency at each fault rate --- *)
  let measure rate =
    Printf.printf "serve: %d requests, 2 workers, fault rate %g...\n%!" n
      rate;
    let pid = fork_daemon ~workers:2 ~max_queue:10_000 ~rate () in
    await ();
    let t0 = Unix.gettimeofday () in
    let r = Engines.Service.submit_resilient ~socket (requests n) in
    let wall = Unix.gettimeofday () -. t0 in
    (* the daemon's own histogram: accept-to-reply per request *)
    let health = Option.bind (Engines.Service.health ~socket ()) parse_opt in
    let lat = Option.bind health (member "latency_ms") in
    let p50 = num lat "p50" and p95 = num lat "p95" in
    (try Engines.Service.drain ~socket () with _ -> ());
    ignore (Unix.waitpid [] pid);
    rm socket;
    if r.Engines.Service.sr_answered <> n then
      Printf.printf "  WARNING: only %d/%d answered\n%!"
        r.Engines.Service.sr_answered n;
    ( rate,
      float_of_int r.Engines.Service.sr_answered /. wall,
      p50, p95, wall,
      r.Engines.Service.sr_answered = n )
  in
  let runs = List.map measure [ 0.; 0.01; 0.05 ] in
  (* --- overload: 1 worker, a queue capped far below the offered load
     --- *)
  let overload_n = 100 and max_queue = 8 in
  Printf.printf "serve overload: %d requests into a queue of %d...\n%!"
    overload_n max_queue;
  let pid = fork_daemon ~workers:1 ~max_queue ~rate:0. () in
  await ();
  let shed = ref 0 and done_ = ref 0 and retry_hint = ref 0. in
  ignore
    (Engines.Service.submit ~socket
       ~on_line:(fun l ->
         match Engines.Service.status_of_line l with
         | Some "rejected" ->
             incr shed;
             let j = parse_opt l in
             retry_hint := Float.max !retry_hint (num j "retry_after_s")
         | Some "done" -> incr done_
         | _ -> ())
       (List.map snd (requests overload_n)));
  (try Engines.Service.drain ~socket () with _ -> ());
  ignore (Unix.waitpid [] pid);
  rm socket;
  let shed_rate = float_of_int !shed /. float_of_int overload_n in
  let run_json (rate, thr, p50, p95, wall, complete) =
    Printf.sprintf
      "    {\"fault_rate\": %g, \"throughput_per_s\": %.1f, \
       \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f}, \"wall_s\": %.3f, \
       \"all_answered\": %b}"
      rate thr p50 p95 wall complete
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"requests\": %d, \"workers\": 2,\n\
      \  \"chaos\": [\n%s\n  ],\n\
      \  \"overload\": {\"requests\": %d, \"workers\": 1, \
       \"max_queue\": %d,\n\
      \    \"shed\": %d, \"completed\": %d, \"shed_rate\": %.2f, \
       \"max_retry_after_s\": %.0f}\n\
       }\n"
      n
      (String.concat ",\n" (List.map run_json runs))
      overload_n max_queue !shed !done_ shed_rate !retry_hint
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  List.iter
    (fun (rate, thr, p50, p95, _, _) ->
       Printf.printf
         "serve @ fault rate %g: %.1f req/s, latency p50 %.2f ms p95 %.2f \
          ms\n"
         rate thr p50 p95)
    runs;
  Printf.printf
    "overload: %d/%d shed (rate %.2f, retry-after <= %.0fs), %d completed\n"
    !shed overload_n shed_rate !retry_hint !done_;
  print_endline "wrote BENCH_serve.json"

(* --- storage durability: sync-policy overhead per append, fsck
   verify throughput, repair success rate by injected fault class --- *)
let disk_report () =
  let rm p = try Sys.remove p with Sys_error _ -> () in
  let record i =
    let body =
      Printf.sprintf
        "{\"fp\":\"bench\",\"seq\":%d,\"key\":\"cell%03d\",\"cell\":\
         {\"grade\":\"ok\",\"pad\":\"%s\"}}"
        i i (String.make 40 'x')
    in
    Robust.Diskio.fnv64_hex body ^ " " ^ body ^ "\n"
  in
  (* 1. what each sync policy costs per journal append *)
  let appends = 500 in
  let policy_us (name, policy) =
    let path = "bench_diskio.jsonl" in
    rm path;
    let h = Robust.Diskio.open_append ~sync:policy path in
    let t0 = Unix.gettimeofday () in
    for i = 0 to appends - 1 do
      Robust.Diskio.append h (record i)
    done;
    Robust.Diskio.close h;
    let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int appends in
    rm path;
    (name, us)
  in
  let policies =
    List.map policy_us [ ("none", `None); ("flush", `Flush); ("fsync", `Fsync) ]
  in
  (* 2. fsck verify throughput over a large clean journal *)
  let n = 5000 in
  let fsck_path = "bench_fsck.jsonl" in
  rm fsck_path;
  let h = Robust.Diskio.open_append ~sync:`None fsck_path in
  for i = 0 to n - 1 do
    Robust.Diskio.append h (record i)
  done;
  Robust.Diskio.close h;
  let bytes = (Unix.stat fsck_path).Unix.st_size in
  let t0 = Unix.gettimeofday () in
  let reports = Engines.Fsck.scan [ fsck_path ] in
  let fsck_wall = Unix.gettimeofday () -. t0 in
  if Engines.Fsck.exit_code ~repair:false reports <> 0 then
    Printf.printf "  WARNING: clean bench journal did not verify clean\n%!";
  rm fsck_path;
  (* 3. repair success rate per fault class: damage a journal write
     sequence with one exactly-placed fault, fsck --repair it, and
     require the survivor to verify clean *)
  let hits = [ 1; 5; 14; 29 ] in
  let repair_trial fault hit =
    let path = "bench_repair.jsonl" in
    rm path;
    rm (path ^ ".tmp");
    let st =
      Robust.Chaos.disk_state ~seed:77L
        (Robust.Chaos.Disk_arms [ (fault, hit) ])
    in
    Robust.Diskio.set_fault_hook (Some (Robust.Chaos.disk_hook st));
    (match fault with
     | Robust.Chaos.Failed_rename ->
       (try Robust.Diskio.write_atomic ~path (record 0)
        with Sys_error _ -> ())
     | _ ->
       let h = Robust.Diskio.open_append path in
       for i = 0 to 29 do
         try Robust.Diskio.append h (record i)
         with Robust.Diskio.Full _ -> ()
       done;
       (try Robust.Diskio.close h with Robust.Diskio.Full _ -> ()));
    Robust.Diskio.set_fault_hook None;
    let targets =
      List.filter Sys.file_exists [ path; path ^ ".tmp" ]
    in
    ignore (Engines.Fsck.scan ~repair:true targets : Engines.Fsck.report list);
    let verify =
      Engines.Fsck.scan (List.filter Sys.file_exists [ path; path ^ ".tmp" ])
    in
    let clean = Engines.Fsck.exit_code ~repair:false verify = 0 in
    rm path;
    rm (path ^ ".tmp");
    clean
  in
  let repair =
    List.map
      (fun fault ->
         let ok =
           List.length (List.filter (repair_trial fault) hits)
         in
         (Robust.Chaos.disk_point_name fault, List.length hits, ok))
      Robust.Chaos.all_disk_points
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"sync_policy_us_per_append\": {%s},\n\
      \  \"fsck_verify\": {\"records\": %d, \"bytes\": %d, \"wall_s\": \
       %.4f, \"records_per_s\": %.0f, \"mb_per_s\": %.1f},\n\
      \  \"repair_by_fault\": [\n%s\n  ]\n\
       }\n"
      (String.concat ", "
         (List.map (fun (n, us) -> Printf.sprintf "\"%s\": %.2f" n us)
            policies))
      n bytes fsck_wall
      (float_of_int n /. fsck_wall)
      (float_of_int bytes /. 1048576. /. fsck_wall)
      (String.concat ",\n"
         (List.map
            (fun (name, trials, ok) ->
               Printf.sprintf
                 "    {\"fault\": \"%s\", \"trials\": %d, \"repaired\": \
                  %d, \"success_rate\": %.2f}"
                 name trials ok
                 (float_of_int ok /. float_of_int trials))
            repair))
  in
  let oc = open_out "BENCH_disk.json" in
  output_string oc json;
  close_out oc;
  List.iter
    (fun (name, us) ->
       Printf.printf "diskio append (%-5s): %8.2f us/append\n" name us)
    policies;
  Printf.printf "fsck verify: %d records (%d bytes) in %.3fs = %.0f rec/s\n"
    n bytes fsck_wall
    (float_of_int n /. fsck_wall);
  List.iter
    (fun (name, trials, ok) ->
       Printf.printf "repair %-13s: %d/%d trials recovered clean\n" name ok
         trials)
    repair;
  print_endline "wrote BENCH_disk.json"

let () =
  (* `bench --solver-report` / `--robust-report` / ... skip the
     Bechamel timing loop and only regenerate the machine-readable
     reports *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--solver-report" then begin
    solver_report ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--robust-report" then begin
    robust_report ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--fleet-report" then begin
    fleet_report ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--obs-report" then begin
    obs_report ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--serve-report" then begin
    serve_report ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--disk-report" then begin
    disk_report ();
    exit 0
  end;
  let cfg = Benchmark.cfg ~limit:6 ~quota:(Time.second 1.5) () in
  let instances = Instance.[ monotonic_clock ] in
  Printf.printf "%-36s %14s %10s\n" "benchmark" "time/run" "runs";
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       Hashtbl.iter
         (fun name (b : Benchmark.t) ->
            let last = b.lr.(Array.length b.lr - 1) in
            let runs = Measurement_raw.run last in
            let time =
              Measurement_raw.get
                ~label:(Measure.label Instance.monotonic_clock) last
            in
            Printf.printf "%-36s %11.3f ms %10.0f\n" name
              (time /. runs /. 1e6) runs)
         results)
    benchmarks;
  solver_report ();
  robust_report ()
