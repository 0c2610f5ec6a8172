(** Evaluation CLI: regenerate the paper's tables and figures.

    Subcommands: [table1], [table2], [fig3], [sizes], [negative],
    [validate-trace], [all].  With no subcommand, [--explain BOMB]
    runs one cell under span tracing and prints the error-stage
    diagnosis ([--tool] selects the engine, [--sink] the rendering,
    [--trace-out]/[--jsonl-out] dump the recorded spans). *)

(* --tool filters keep [Profile.all] order, whatever order they came in *)
let parse_tools tools_filter =
  match tools_filter with
  | [] -> Engines.Profile.all
  | names ->
    let wanted =
      List.map
        (fun n ->
           match Engines.Profile.of_name n with
           | Some t -> t
           | None ->
             Cli.unknown_name "tool" n
               (List.map Engines.Profile.name Engines.Profile.all))
        names
    in
    List.filter (fun t -> List.mem t wanted) Engines.Profile.all

(* --bomb filters, in the order given *)
let parse_bombs bombs_filter =
  match bombs_filter with
  | [] -> Bombs.Catalog.table2
  | names ->
    List.map
      (fun n ->
         match Bombs.Catalog.find_opt n with
         | Some b -> b
         | None -> Cli.unknown_name "bomb" n Bombs.Catalog.names)
      names

(* supervision policy off the CLI flags; no --budget and the default
   ladder is the default policy, preserving the unsupervised output *)
let parse_policy budget_spec no_ladder =
  let budget =
    match budget_spec with
    | None -> Robust.Budget.unlimited
    | Some spec -> (
        match Robust.Budget.parse spec with
        | Ok b -> b
        | Error e ->
          Printf.eprintf "bad --budget: %s\n" e;
          exit 2)
  in
  { Engines.Supervisor.budget;
    ladder =
      (if no_ladder then [] else Engines.Supervisor.default_policy.ladder) }

(* --metrics-out: the deterministic engine counters (vm/smt/lifter/
   taint/concolic/dse) as "name value" lines — the fleet
   determinism check diffs these between sequential and fleet runs *)
let metric_prefixes =
  [ "vm."; "smt."; "lifter."; "taint."; "concolic."; "dse." ]

let write_metrics_out path =
  let has_prefix name p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, reading) ->
       match reading with
       | Telemetry.Metrics.Vcounter v
         when v > 0 && List.exists (has_prefix name) metric_prefixes ->
         Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
       | _ -> ())
    (Telemetry.Metrics.snapshot ());
  Robust.Diskio.write_atomic ~path (Buffer.contents buf)

let run_table2 no_incremental no_ladder budget_spec tools_filter bombs_filter
    journal force workers profile fleet_trace progress metrics_out =
  if workers < 1 then begin
    Printf.eprintf "--workers must be >= 1\n";
    exit 2
  end;
  let tools = parse_tools tools_filter in
  let bombs = parse_bombs bombs_filter in
  let policy = parse_policy budget_spec no_ladder in
  (* unless --force, refuse to silently re-run a whole grid over a
     journal this run cannot replay: compare the journal's stamped
     fingerprint against this invocation's before any work *)
  if not force then
    Option.iter
      (fun path ->
         let expected =
           Engines.Eval.journal_fingerprint ~incremental:(not no_incremental)
             ~policy ~tools ~bombs ()
         in
         match Robust.Journal.peek_fingerprint path with
         | Some found when found <> expected ->
           Printf.eprintf
             "table2: journal %s was written under a different \
              configuration (journal fingerprint %s, this run %s) — rerun \
              with the original flags, or pass --force to ignore the \
              journal and re-grade every cell\n"
             path found expected;
           exit 2
         | None
           when (try (Unix.stat path).Unix.st_size > 0
                 with Unix.Unix_error _ -> false) ->
           (* a nonempty journal with zero decodable records is damage,
              not a fresh run *)
           Printf.eprintf
             "table2: journal %s holds no decodable records — corrupt or \
              not a journal; run `eval fsck --repair %s`, or pass --force \
              to re-grade every cell\n"
             path path;
           exit 2
         | _ -> ())
      journal;
  let r =
    Engines.Eval.run_table2 ~incremental:(not no_incremental) ~policy ~tools
      ~bombs ?journal ~workers ?profile ?spans_out:fleet_trace ~progress ()
  in
  print_string (Engines.Eval.render_table2 r);
  Option.iter write_metrics_out metrics_out

(* ------------------------------------------------------------------ *)
(* Fleet service: serve / submit / drain                               *)
(* ------------------------------------------------------------------ *)

let run_serve socket workers max_queue queue_journal force task_timeout =
  if workers < 1 then begin
    Printf.eprintf "--workers must be >= 1\n";
    exit 2
  end;
  match
    Engines.Service.serve ~workers ~max_queue ?queue_journal ~force
      ?task_timeout:(if task_timeout <= 0. then None else Some task_timeout)
      ~socket ()
  with
  | () -> ()
  | exception Fleet.Serve.Journal_mismatch { path; found; expected } ->
    Printf.eprintf
      "serve: queue journal %s was written by a different serving \
       configuration (journal fingerprint %s, this daemon %s) — its \
       outcomes cannot be replayed; move the journal aside, or pass \
       --force to ignore it and re-grade\n"
      path found expected;
    exit 2
  | exception Fleet.Serve.Socket_in_use path ->
    Printf.eprintf
      "serve: a daemon is already listening on %s (use `eval drain` to \
       stop it, or pick another --socket)\n"
      path;
    exit 2
  | exception Fleet.Serve.Stale_socket path ->
    Printf.eprintf
      "serve: stale socket %s — no daemon is listening, but the file \
       exists (a previous daemon died without cleanup). Remove it and \
       retry.\n"
      path;
    exit 2

let run_submit socket tools_filter bombs_filter budget_spec no_incremental
    no_ladder =
  let tools = parse_tools tools_filter in
  let bombs =
    List.map (fun (b : Bombs.Common.t) -> b.name) (parse_bombs bombs_filter)
  in
  (match budget_spec with
   | None -> ()
   | Some spec -> (
       match Robust.Budget.parse spec with
       | Ok _ -> ()
       | Error e ->
         Printf.eprintf "bad --budget: %s\n" e;
         exit 2));
  let requests =
    List.concat_map
      (fun bomb ->
         List.map
           (fun tool ->
              Engines.Service.encode_request
                ~id:(Engines.Profile.name tool ^ "/" ^ bomb)
                ~tool ~bomb ?budget:budget_spec
                ~incremental:(not no_incremental) ~ladder:(not no_ladder) ())
           tools)
      bombs
  in
  match Engines.Service.submit ~socket ~on_line:print_endline requests with
  | failures -> if failures > 0 then exit 1
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "submit: cannot reach daemon on %s: %s\n" socket
      (Unix.error_message e);
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "submit: connection to daemon on %s failed: %s\n" socket
      msg;
    exit 2
  | exception End_of_file ->
    Printf.eprintf "submit: daemon on %s hung up mid-stream\n" socket;
    exit 2

let run_health socket =
  match Engines.Service.health ~socket () with
  | Some line -> print_endline line
  | None ->
    Printf.eprintf "health: no daemon answers on %s\n" socket;
    exit 2

let run_metrics socket prometheus =
  match Engines.Service.metrics ~socket ~prometheus () with
  | Some text -> if prometheus then print_string text else print_endline text
  | None ->
    Printf.eprintf "metrics: no daemon answers on %s\n" socket;
    exit 2

let run_profile path top =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "profile: %s does not exist\n" path;
    exit 2
  end;
  match Engines.Cellprof.load path with
  | [] ->
    Printf.eprintf
      "profile: %s holds no decodable samples — corrupt or not a \
       profile sidecar; run `eval fsck %s`\n"
      path path;
    exit 2
  | samples -> print_string (Engines.Cellprof.render_report ~top samples)
  | exception Sys_error msg ->
    Printf.eprintf "profile: %s\n" msg;
    exit 2

let run_drain socket =
  match Engines.Service.drain ~socket ~on_line:print_endline () with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "drain: cannot reach daemon on %s: %s\n" socket
      (Unix.error_message e);
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "drain: connection to daemon on %s failed: %s\n" socket
      msg;
    exit 2
  | exception End_of_file ->
    Printf.eprintf "drain: daemon on %s hung up mid-stream\n" socket;
    exit 2

let run_fig3 () =
  let r = Engines.Eval.run_fig3 () in
  Printf.printf
    "Figure 3 (argv[1] = 7):\n\
    \  printing disabled: %d instructions propagate the symbolic value\n\
    \  printing enabled:  %d instructions (+%d), symbolic branches %d -> %d\n"
    r.noprint_tainted r.print_tainted
    (r.print_tainted - r.noprint_tainted)
    r.noprint_branches r.print_branches

let run_sizes () =
  let lo, median, hi = Bombs.Catalog.size_stats () in
  Printf.printf
    "dataset: %d bombs, binary sizes [%d .. %d] bytes, median %d\n"
    (List.length Bombs.Catalog.table2) lo hi median;
  List.iter
    (fun (b : Bombs.Common.t) ->
       Printf.printf "  %-18s %6d bytes  (%s)\n" b.name
         (Asm.Image.size (Bombs.Catalog.image b))
         b.category)
    Bombs.Catalog.table2

let run_negative () =
  let results = Engines.Eval.run_negative () in
  List.iter
    (fun (r : Engines.Eval.negative_result) ->
       Printf.printf
         "%-12s claimed the dead bomb: %b (detonated: %b)\n"
         (Engines.Profile.name r.tool) r.claimed r.detonated)
    results

let run_table1 () = print_string (Engines.Eval.render_table1 ())

(* --explain: run one cell under span tracing, print the Es-stage
   diagnosis, then render/dump the trace through the chosen sinks *)
let run_explain no_incremental no_ladder budget_spec bomb_name tool_name sinks
    trace_out jsonl_out =
  match Bombs.Catalog.find_opt bomb_name with
  | None -> Cli.unknown_name "bomb" bomb_name Bombs.Catalog.names
  | Some bomb ->
    let tool =
      match Engines.Profile.of_name tool_name with
      | Some t -> t
      | None ->
        Printf.eprintf "unknown tool %S (BAP, Triton, Angr, Angr-NoLib)\n"
          tool_name;
        exit 2
    in
    let sinks =
      match sinks with
      | [] -> [ Telemetry.Tree ]
      | names ->
        List.map
          (fun s ->
             match Telemetry.sink_of_string s with
             | Some sink -> sink
             | None ->
               Printf.eprintf
                 "unknown sink %S (silent, tree, jsonl, chrome)\n" s;
               exit 2)
          names
    in
    let r =
      Engines.Explain.run ~incremental:(not no_incremental)
        ~policy:(parse_policy budget_spec no_ladder) tool bomb
    in
    print_string (Engines.Explain.render r);
    List.iter
      (fun sink ->
         match (sink : Telemetry.sink) with
         | Silent | Tree -> ()  (* the report already embeds the tree *)
         | Jsonl | Chrome ->
           Printf.printf "--- sink %s ---\n%s" (Telemetry.sink_name sink)
             (Telemetry.render_sink sink))
      sinks;
    Option.iter
      (fun path ->
         Telemetry.write_chrome path;
         Printf.printf "wrote Chrome trace to %s\n" path)
      trace_out;
    Option.iter
      (fun path ->
         Telemetry.write_jsonl path;
         Printf.printf "wrote JSONL spans to %s\n" path)
      jsonl_out

(* debug: interactive step/step-back replay over one recorded trace *)
let run_debug bomb_name input =
  match Bombs.Catalog.find_opt bomb_name with
  | None -> Cli.unknown_name "bomb" bomb_name Bombs.Catalog.names
  | Some bomb -> Engines.Debug.run ?input bomb

(* fsck: verify (and with --repair, fix) on-disk artifacts *)
let run_fsck repair paths =
  let reports = Engines.Fsck.scan ~repair paths in
  if reports <> [] then print_endline (Engines.Fsck.render reports);
  exit (Engines.Fsck.exit_code ~repair reports)

(* validate-trace: independent structural check of emitted files *)
let run_validate_trace files =
  let fail = ref false in
  List.iter
    (fun path ->
       let jsonl = Filename.check_suffix path ".jsonl" in
       let outcome =
         if jsonl then
           match Telemetry.Trace_check.validate_jsonl_file path with
           | Ok n -> Ok (Printf.sprintf "%d span objects" n)
           | Error e -> Error e
         else
           match Telemetry.Trace_check.validate_chrome_file path with
           | Ok { events; spans; max_depth } ->
             Ok
               (Printf.sprintf "%d events, %d balanced spans, depth %d"
                  events spans max_depth)
           | Error e -> Error e
       in
       match outcome with
       | Ok msg -> Printf.printf "%s: OK (%s)\n" path msg
       | Error e ->
         Printf.printf "%s: INVALID (%s)\n" path e;
         fail := true)
    files;
  if !fail then exit 1

open Cmdliner

let tools_arg =
  Arg.(value & opt_all string [] & info [ "tool" ] ~doc:"Restrict to a tool")

let bombs_arg =
  Arg.(value & opt_all string [] & info [ "bomb" ] ~doc:"Restrict to a bomb")

let no_incremental_arg =
  Arg.(value & flag
       & info [ "no-incremental" ]
         ~doc:
           "Solve every query one-shot instead of through per-engine \
            incremental solver sessions (ablation; Table II must be \
            identical either way)")

let budget_arg =
  Arg.(value & opt (some string) None
       & info [ "budget" ] ~docv:"SPEC"
         ~doc:
           "Per-cell resource budget, e.g. \
            $(b,vm=200000,lift=50000,smt=2000,nodes=100000,taint=100000,wall=2.5) \
            (wall in seconds). A tripped budget grades the cell E (P \
            when the degradation ladder decides a tripped solver check) \
            instead of aborting the run.")

let no_ladder_arg =
  Arg.(value & flag
       & info [ "no-ladder" ]
         ~doc:
           "Disable the solver degradation ladder: a budget tripped \
            mid-check aborts the cell (graded E) instead of retrying \
            the query down cheaper bounded strategies (graded P)")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"PATH"
         ~doc:
           "Write-ahead cell journal: append every completed cell as \
            a checksummed record, and replay valid records matching \
            this run's fingerprint instead of re-running their cells")

let force_arg =
  Arg.(value & flag
       & info [ "force" ]
         ~doc:
           "Proceed despite a journal this run cannot replay (written \
            under other flags or another build, or damaged): ignore \
            its records and re-grade from scratch")

let workers_arg =
  Arg.(value & opt int 1
       & info [ "workers" ] ~docv:"N"
         ~doc:
           "Shard the grid across $(docv) forked worker processes \
            (the evaluation fleet). Each cell comes back whole in its \
            worker's reply: this process journals it as it arrives \
            (--journal), and writes the --profile sidecar and the \
            --fleet-trace timeline in grid order at the end, so the \
            journal ends byte-identical to a sequential run's and no \
            other file is written. 1 = sequential.")

let profile_out_arg =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"PATH"
         ~doc:
           "Per-cell resource profile sidecar: append one JSON line \
            per executed cell (wall time by span phase, VM steps, \
            lifted instructions, solver blast/conflict/cache \
            counters, taint coverage, degradation attribution). \
            Inspect with $(b,eval profile PATH). With --workers, \
            the workers return their samples and this process \
            appends them in grid order, as a sequential run does.")

let fleet_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "fleet-trace" ] ~docv:"FILE"
         ~doc:
           "Write one Chrome trace_event timeline of the run's fresh \
            cells: nested B/E spans, one lane (pid) per fleet worker \
            (lane 0 when sequential) — loadable in about:tracing / \
            Perfetto, checkable with $(b,eval validate-trace)")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
         ~doc:
           "Live status line on stderr: cells done/total, per-worker \
            in-flight cells and ETA (fleet), or the current cell \
            (sequential)")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:
           "After the run, write the deterministic engine counters \
            (vm.*, smt.*, lifter.*, taint.*, concolic.*, dse.*) as \
            'name value' lines. With --workers, the fleet's \
            aggregated counters — byte-identical to a sequential \
            run's for the same grid.")

let table2_cmd =
  Cmd.v
    (Cmd.info "table2"
       ~doc:
         "Reproduce Table II. With --journal, cells journaled by an \
          earlier run under the same flags are replayed and only the \
          rest run, so a crashed run continues where it died")
    Term.(const run_table2 $ no_incremental_arg $ no_ladder_arg $ budget_arg
          $ tools_arg $ bombs_arg $ journal_arg $ force_arg $ workers_arg
          $ profile_out_arg $ fleet_trace_arg $ progress_arg
          $ metrics_out_arg)

let socket_arg =
  Arg.(value & opt string "eval.sock"
       & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket the daemon listens on")

let serve_cmd =
  let serve_workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
           ~doc:"Fleet worker processes answering requests")
  in
  let max_queue_arg =
    Arg.(value & opt int 10_000
         & info [ "max-queue" ] ~docv:"N"
           ~doc:
             "Backpressure: reject submissions once $(docv) requests \
              are queued (not yet running)")
  in
  let queue_journal_arg =
    Arg.(value & opt (some string) None
         & info [ "queue-journal" ] ~docv:"PATH"
           ~doc:
             "Durable request queue: journal every accepted request \
              (keyed by its idempotency fingerprint) before \
              acknowledging it and every graded outcome before \
              streaming it, so a daemon restarted after a crash \
              re-dispatches in-flight requests and answers \
              resubmissions from the journal — exactly-once grading \
              across crashes")
  in
  let task_timeout_arg =
    Arg.(value & opt float 60.
         & info [ "task-timeout" ] ~docv:"SECONDS"
           ~doc:
             "Per-cell wall watchdog: a worker silent this long on one \
              cell is killed and the cell re-dispatched (0 disables)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the evaluation daemon: accept line-framed JSON cell \
          requests (bomb + tool profile + budget) on a Unix-domain \
          socket, shard them across a fleet of forked workers, and \
          stream graded outcomes (with Es-stage and degradation \
          attribution) back to each submitter. Refuses to bind over a \
          live or stale socket. Runs until `eval drain` (or SIGINT), \
          which finishes the queue and removes the socket.")
    Term.(const run_serve $ socket_arg $ serve_workers_arg $ max_queue_arg
          $ queue_journal_arg $ force_arg $ task_timeout_arg)

let submit_cmd =
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit Table II cells to a running `eval serve` daemon (one \
          request per --tool x --bomb combination; defaults to the \
          full grid) and stream the graded outcome lines as they \
          complete. Exits 1 if any cell fails.")
    Term.(const run_submit $ socket_arg $ tools_arg
          $ bombs_arg $ budget_arg $ no_incremental_arg $ no_ladder_arg)

let drain_cmd =
  Cmd.v
    (Cmd.info "drain"
       ~doc:
         "Ask the daemon to finish every queued request, shut down \
          and remove its socket; streams status lines until the final \
          drained acknowledgement.")
    Term.(const run_drain $ socket_arg)

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "One-line health summary from a running `eval serve` daemon: \
          version, fingerprint, uptime, workers alive, queue depth, \
          in-flight cells and p50/p95/p99 request latency")
    Term.(const run_health $ socket_arg)

let metrics_cmd =
  let prometheus_arg =
    Arg.(value & flag
         & info [ "prometheus" ]
           ~doc:
             "Print the Prometheus text exposition instead of the \
              JSON snapshot")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump a running daemon's aggregated metrics registry — its \
          own request accounting merged with every engine counter its \
          fleet workers have reported")
    Term.(const run_metrics $ socket_arg $ prometheus_arg)

let profile_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH"
           ~doc:"Profile sidecar written by table2 --profile")
  in
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K"
           ~doc:"How many slowest cells to list")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Report on a per-cell resource profile sidecar: the top-K \
          slowest cells with their span-phase breakdown, wall time \
          per bomb x tool, and the Es-stage x resource correlation")
    Term.(const run_profile $ path_arg $ top_arg)

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table I")
    Term.(const run_table1 $ const ())

let fig3_cmd =
  Cmd.v (Cmd.info "fig3" ~doc:"Reproduce Figure 3")
    Term.(const run_fig3 $ const ())

let debug_cmd =
  let bomb_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BOMB")
  in
  let input_arg =
    Arg.(value & opt (some string) None
         & info [ "input" ] ~docv:"ARGV1"
           ~doc:"argv[1] for the recorded run (default: the bomb's decoy)")
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:
         "Interactive trace debugger: record one concrete execution \
          and step forward and backward through it, inspect memory \
          rebuilt by replaying the recorded events, run to an \
          address/syscall/taint event, and query taint provenance \
          (reads commands from stdin; try `help`)")
    Term.(const run_debug $ bomb_arg $ input_arg)

let fsck_cmd =
  let repair_arg =
    Arg.(value & flag
         & info [ "repair" ]
           ~doc:
             "Fix what can be fixed: rewrite journals and sidecars \
              keeping only sound records, truncate torn tails, and \
              remove stale *.tmp files")
  in
  let paths_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"PATH"
           ~doc:
             "Artifacts to check — journals, profile sidecars, or \
              directories (scanned recursively)")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify on-disk artifacts: detect each file's format, walk \
          its per-record checksums, flag torn tails, corrupt records \
          and stale tmp files, and report \
          journal fingerprints. Exit 0 if everything is clean, 1 if \
          damage was found and fully repaired (--repair), 2 if damage \
          remains.")
    Term.(const run_fsck $ repair_arg $ paths_arg)

let sizes_cmd =
  Cmd.v (Cmd.info "sizes" ~doc:"Dataset binary-size statistics (§V-A)")
    Term.(const run_sizes $ const ())

let negative_cmd =
  Cmd.v (Cmd.info "negative" ~doc:"Negative-bomb false-positive check (§V-C)")
    Term.(const run_negative $ const ())

let all_cmd =
  let run () =
    run_table1 ();
    print_newline ();
    run_sizes ();
    print_newline ();
    run_table2 false false None [] [] None false 1 None None false None;
    print_newline ();
    run_fig3 ();
    print_newline ();
    run_negative ()
  in
  Cmd.v (Cmd.info "all" ~doc:"Everything") Term.(const run $ const ())

let validate_trace_cmd =
  let files =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"FILE"
           ~doc:"Trace files to validate (.jsonl validates as JSONL \
                 spans, anything else as Chrome trace_event JSON)")
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:"Structurally validate emitted telemetry trace files")
    Term.(const run_validate_trace $ files)

(* the group default: `eval --explain <bomb>` with no subcommand *)
let explain_term =
  let explain_arg =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"BOMB"
           ~doc:"Run one Table II cell under span tracing and print \
                 the Es0-Es3 error-stage diagnosis")
  in
  let tool_arg =
    Arg.(value & opt string "BAP"
         & info [ "tool" ] ~docv:"TOOL"
           ~doc:"Engine profile for --explain (BAP, Triton, Angr, \
                 Angr-NoLib)")
  in
  let sink_arg =
    Arg.(value & opt_all string []
         & info [ "sink" ] ~docv:"SINK"
           ~doc:"Telemetry sink(s) to render after the diagnosis \
                 (silent, tree, jsonl, chrome); repeatable")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the recorded spans as Chrome trace_event JSON \
                 (loadable in about:tracing / Perfetto)")
  in
  let jsonl_out_arg =
    Arg.(value & opt (some string) None
         & info [ "jsonl-out" ] ~docv:"FILE"
           ~doc:"Write the recorded spans as JSONL")
  in
  let run no_incremental no_ladder budget bomb tool sinks trace_out jsonl_out =
    match bomb with
    | Some bomb_name ->
      run_explain no_incremental no_ladder budget bomb_name tool sinks
        trace_out jsonl_out;
      `Ok ()
    | None -> `Help (`Pager, None)
  in
  Term.(ret
          (const run $ no_incremental_arg $ no_ladder_arg $ budget_arg
           $ explain_arg $ tool_arg $ sink_arg $ trace_out_arg
           $ jsonl_out_arg))

let () =
  let info = Cmd.info "eval" ~doc:"Logic-bomb evaluation harness" in
  exit (Cmd.eval (Cmd.group ~default:explain_term info
                    [ table1_cmd; table2_cmd; fig3_cmd;
                      sizes_cmd; negative_cmd; validate_trace_cmd;
                      debug_cmd; serve_cmd; submit_cmd; drain_cmd;
                      health_cmd; metrics_cmd; profile_cmd; fsck_cmd;
                      all_cmd ]))
