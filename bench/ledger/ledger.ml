(** The perf ledger: times the Table II pipeline through its public
    entry points on four seeded workloads, checks every output against
    known answers, and prints each metric as [workload metric value
    unit] followed by one JSON summary line.  See README.md. *)

open Harness

let workloads =
  [ Inproc.grid_dse; Inproc.grid_trace; Inproc.solver_fixtures;
    Serve_load.workload ]

(* [f ()] in a forked child, so heap peaks and warm caches never leak
   between runs; the result comes back marshalled over a pipe *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let res =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (res : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res =
        match (Marshal.from_channel ic : ('a, string) result) with
        | v -> v
        | exception End_of_file -> Error "the run died without a result"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      res

(* Set-up runs in fresh children before and after the measured run,
   each side [min_setups] times and then more until its set-ups sum to
   [setup_budget_s] or [max_setups] ran; [setup_s] is the median of all
   of them and the measured run's own.  The machine's speed drifts in
   phases of seconds, so samples taken on both sides of the measured
   phase see the same mix of phases as it does.  Grid set-ups take
   ~15 ms, so they get many samples; the serve daemon's ~0.35 s about
   ten. *)
let min_setups = 2
let max_setups = 15
let setup_budget_s = 1.5

let ( let* ) = Result.bind

let run_workload ctx (w : workload) : (run, string) result =
  let setup () =
    let t0 = now () in
    let p = w.setup ctx in
    (now () -. t0, p)
  in
  let rec samples acc =
    let n = List.length acc in
    if ctx.smoke
       || n >= max_setups
       || (n >= min_setups && List.fold_left ( +. ) 0. acc >= setup_budget_s)
    then Ok acc
    else
      let* dt =
        in_child (fun () ->
            let dt, p = setup () in
            p.teardown ();
            dt)
      in
      samples (dt :: acc)
  in
  let* before = samples [] in
  let* dt, r =
    in_child (fun () ->
        let dt, p = setup () in
        (dt, Fun.protect ~finally:p.teardown p.measure))
  in
  let* after = samples [] in
  Ok { r with e2e = ("setup_s", Stats.median (dt :: before @ after)) :: r.e2e }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let correct (r : run) = r.failed = 0 && r.problems = []

let rows (r : run) = r.e2e @ r.checks @ r.layers

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_run name (r : run) =
  List.iter
    (fun (m, v) -> Printf.printf "%s %s %.6g %s\n" name m v (Spec.unit_of m))
    (rows r);
  List.iter (fun p -> Printf.eprintf "%s: %s\n" name p) r.problems

let esc = Robust.Journal.json_escape

let metrics_json metrics =
  String.concat ", "
    (List.map
       (fun (k, v, u) ->
          Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (esc k)
            (number v) (esc u))
       metrics)

let rows_json workload (r : run) =
  String.concat ",\n    "
    (List.map
       (fun (m, v) ->
          Printf.sprintf
            "{\"layer\": \"%s\", \"workload\": \"%s\", \"metric\": \"%s\", \
             \"value\": %s, \"unit\": \"%s\"}"
            (Spec.layer_of m) (esc workload) (esc m) (number v)
            (esc (Spec.unit_of m)))
       (rows r))

(** Every run as rows of the ledger schema
    [{layer, workload, metric, value, unit}], labelled. *)
let out_json ~label ~seconds runs =
  Printf.sprintf
    "{\"ledger\": 1, \"label\": {\"nproc\": %d, \"ocaml\": \"%s\", \
     \"note\": \"%s\"}, \"seconds\": %s,\n\"runs\": [\n%s\n]}\n"
    (Domain.recommended_domain_count ())
    (esc Sys.ocaml_version) (esc label) (number seconds)
    (String.concat ",\n"
       (List.map
          (fun (workload, seed, trace, (r : run)) ->
             Printf.sprintf
               "  {\"workload\": \"%s\", \"seed\": %d, \"trace\": %b, \
                \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
                \"rows\": [\n    %s]}"
               (esc workload) seed trace (correct r) r.attempted r.failed
               (rows_json workload r))
          runs))

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)
(* ------------------------------------------------------------------ *)

(* (workload, metric) -> values over a file's runs *)
let load_runs path =
  let open Telemetry.Trace_check in
  let tbl = Hashtbl.create 64 in
  (match member "runs" (parse (Robust.Diskio.read_all path)) with
   | Some (Arr runs) ->
       List.iter
         (fun run ->
            match member "rows" run with
            | Some (Arr rows) ->
                List.iter
                  (fun row ->
                     match
                       (member "workload" row, member "metric" row,
                        member "value" row)
                     with
                     | Some (Str w), Some (Str m), Some (Num v) ->
                         let k = (w, m) in
                         Hashtbl.replace tbl k
                           (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
                     | _ -> ())
                  rows
            | _ -> ())
         runs
   | _ -> failwith (path ^ ": no runs"));
  tbl

(** Verdict for one (workload, metric), on medians and quartiles:
    [improved] when the new median is better by more than the bound and
    every new run beats every base run; [unresolved] when either side's
    quartile spread exceeds the bound, unless every new run beats every
    base run; [worse] when the new median is worse by more than the
    bound; else [unchanged]. *)
let verdict (m : Spec.metric) base next =
  let q = Stats.quantile in
  let spread xs = Stats.ratio (q 0.75 xs -. q 0.25 xs) (Stats.median xs) in
  let worse_by =
    let d =
      Stats.ratio (Stats.median next -. Stats.median base) (Stats.median base)
    in
    if m.lower_is_better then d else -.d
  in
  let better a b = if m.lower_is_better then a < b else a > b in
  let separated =
    List.for_all (fun n -> List.for_all (fun b -> better n b) base) next
  in
  if worse_by < -.m.bound && separated then "improved"
  else if (not separated) && (spread base > m.bound || spread next > m.bound)
  then "unresolved"
  else if worse_by > m.bound then "worse"
  else "unchanged"

let compare_files (spec : Spec.t) base_path next_path =
  let base = load_runs base_path and next = load_runs next_path in
  let worse = ref false in
  Printf.printf "%-16s %-20s %12s %12s %8s  %s\n" "workload" "metric" "base"
    "new" "change" "verdict";
  List.iter
    (fun workload ->
       List.iter
         (fun (m : Spec.metric) ->
            match
              (Hashtbl.find_opt base (workload, m.name),
               Hashtbl.find_opt next (workload, m.name))
            with
            | Some b, Some n ->
                let v = verdict m b n in
                if v = "worse" then worse := true;
                Printf.printf "%-16s %-20s %12.6g %12.6g %+7.1f%%  %s\n"
                  workload m.name (Stats.median b) (Stats.median n)
                  (100. *. Stats.ratio (Stats.median n -. Stats.median b)
                             (Stats.median b))
                  v
            | _ -> ())
         spec.e2e)
    spec.workloads;
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* --smoke                                                             *)
(* ------------------------------------------------------------------ *)

(** Every workload at seconds-long size, traced; then the emitted rows,
    parsed back with [Telemetry.Trace_check], must hold every metric
    BENCHMARK.json names, with its unit and a finite value, and every
    check must pass. *)
let smoke (spec : Spec.t) ctx =
  let runs =
    List.map
      (fun (w : workload) ->
         match run_workload ctx w with
         | Ok r ->
             print_run w.name r;
             (w.name, ctx.seed, true, r)
         | Error e ->
             Printf.eprintf "bench-smoke: %s failed: %s\n" w.name e;
             exit 1)
      workloads
  in
  let open Telemetry.Trace_check in
  let parsed = parse (out_json ~label:"smoke" ~seconds:0. runs) in
  let runs_of name =
    match member "runs" parsed with
    | Some (Arr l) ->
        List.filter (fun r -> member "workload" r = Some (Str name)) l
    | _ -> []
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun w ->
       match runs_of w with
       | [ run ] ->
           if member "correct" run <> Some (Bool true) then
             err "%s: outputs are not correct" w;
           let rows =
             match member "rows" run with Some (Arr l) -> l | _ -> []
           in
           List.iter
             (fun (m : Spec.metric) ->
                match
                  List.find_opt (fun r -> member "metric" r = Some (Str m.name)) rows
                with
                | None -> err "%s: no %s" w m.name
                | Some r ->
                    if member "unit" r <> Some (Str m.unit_) then
                      err "%s: %s lacks unit %s" w m.name m.unit_;
                    (match member "value" r with
                     | Some (Num v) when Float.is_finite v -> ()
                     | _ -> err "%s: %s is not a finite number" w m.name))
             (spec.e2e @ spec.layers)
       | _ -> err "%s: expected one run" w)
    spec.workloads;
  match List.rev !errors with
  | [] -> print_endline "bench-smoke: OK"
  | es ->
      List.iter (Printf.eprintf "bench-smoke: %s\n") es;
      exit 1

(* ------------------------------------------------------------------ *)
(* --write-golden                                                      *)
(* ------------------------------------------------------------------ *)

(** Default-flag grades of every grid cell, grades of the capped
    grid-dse cells under their caps, and fixture verdicts at the
    engine's budget, written as the new golden answers.  A change that
    moves a grade shows up as a diff of these files. *)
let write_golden dir =
  let cells =
    Array.to_list (Inproc.cells Engines.Profile.all Golden.grid_bombs)
  in
  let grade ?policy key (c : Inproc.cell) =
    Printf.eprintf "golden: %s\n%!" key;
    let r = Engines.Eval.run_cell ?policy c.tool c.bomb in
    (key, Concolic.Error.cell_symbol r.measured)
  in
  let grades =
    List.map (fun c -> grade (Inproc.key c) c) cells
    @ List.filter_map
        (fun (c : Inproc.cell) ->
           if Robust.Budget.is_unlimited c.policy.budget then None
           else Some (grade ~policy:c.policy (Inproc.golden_key c) c))
        cells
  in
  let fixtures =
    List.map
      (fun (f : Golden.fixture) ->
         Printf.eprintf "golden: fixture %s\n%!" f.bomb;
         ( f,
           Golden.verdict
             (Smt.Solver.solve ~config:Engines.Profile.solver_config
                f.constraints) ))
      (Golden.derive_fixtures ())
  in
  Golden.write dir ~grades ~fixtures

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "ledger.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
   [--repeat N] [--out FILE] [--label TEXT]\n\
  \       ledger.exe --compare BASE.json NEW.json\n\
  \       ledger.exe --smoke | --write-golden"

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let () =
  let names = ref [] and seed = ref 1 and seconds = ref None in
  let trace = ref 0 and repeat = ref 1 and out = ref None and label = ref "" in
  let data = ref "bench/ledger" and benchmark = ref "BENCHMARK.json" in
  let mode = ref `Run in
  let base = ref "" in
  let specs =
    [ ("--workload", Arg.String (fun w -> names := !names @ [ w ]),
       "NAME run this workload (repeatable; default: all four)");
      ("--seed", Arg.Set_int seed, "N seed of cell and request order (default 1)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
       "S untraced measuring time per run (default: run_seconds)");
      ("--trace", Arg.Set_int trace,
       "0|1 with 1, add a traced pass and report per-layer metrics");
      ("--repeat", Arg.Set_int repeat, "N runs per workload (default 1)");
      ("--out", Arg.String (fun f -> out := Some f),
       "FILE write every run's rows as JSON");
      ("--label", Arg.Set_string label, "TEXT note kept in --out, e.g. a commit");
      ("--data", Arg.Set_string data,
       "DIR golden.tsv and fixtures/ (default bench/ledger)");
      ("--benchmark", Arg.Set_string benchmark,
       "FILE BENCHMARK.json (default ./BENCHMARK.json)");
      ("--compare",
       Arg.Tuple
         [ Arg.Set_string base;
           Arg.String (fun n -> mode := `Compare n) ],
       "BASE NEW compare two --out files metric by metric");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke),
       " seconds-long run of every workload, checking every metric");
      ("--write-golden", Arg.Unit (fun () -> mode := `Golden),
       " rewrite golden.tsv and fixtures/ from this build") ]
  in
  let fail msg =
    prerr_endline ("ledger: " ^ msg);
    exit 2
  in
  Arg.parse specs (fun a -> fail ("unexpected argument " ^ a)) usage;
  let spec =
    match Spec.load !benchmark with
    | s ->
        Spec.verify s;
        s
    | exception (Spec.Invalid msg | Sys_error msg | Failure msg) -> fail msg
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !repeat < 1 then fail "--repeat takes a positive count";
  let chosen =
    match !names with
    | [] -> workloads
    | names ->
        List.map
          (fun n ->
             match List.find_opt (fun (w : workload) -> w.name = n) workloads with
             | Some w -> w
             | None -> fail ("unknown workload " ^ n))
          names
  in
  (* traces always record afresh: a stray TRACE_DIR must not turn a
     workload into a trace-store reopen *)
  Trace.set_store_dir None;
  let tmp = Printf.sprintf ".ledger-tmp.%d" (Unix.getpid ()) in
  let ctx =
    { seed = !seed;
      seconds = Option.value ~default:spec.run_seconds !seconds;
      trace = !trace = 1;
      smoke = false;
      data = !data;
      tmp }
  in
  (* children leave through [_exit], so only this process removes it *)
  let with_tmp f =
    Sys.mkdir tmp 0o700;
    at_exit (fun () -> rm_rf tmp);
    f ()
  in
  match !mode with
  | `Compare next -> compare_files spec !base next
  | `Golden -> write_golden !data
  | `Smoke ->
      with_tmp (fun () ->
          smoke spec { ctx with smoke = true; seconds = 0.; trace = true })
  | `Run ->
      let runs =
        with_tmp (fun () ->
            List.concat_map
              (fun (w : workload) ->
                 List.init !repeat (fun i ->
                     let ctx = { ctx with seed = ctx.seed + i } in
                     match run_workload ctx w with
                     | Ok r ->
                         print_run w.name r;
                         (w.name, ctx.seed, ctx.trace, r)
                     | Error e ->
                         Printf.eprintf "ledger: %s failed: %s\n" w.name e;
                         exit 1))
              chosen)
      in
      Option.iter
        (fun path ->
           Robust.Diskio.write_atomic ~path
             (out_json ~label:!label ~seconds:ctx.seconds runs))
        !out;
      (* the summary: one run's metrics, or medians over repeats; with
         several workloads each name is prefixed by its workload *)
      let single = List.length chosen = 1 in
      let pick (r : run) = if ctx.trace then r.layers else r.e2e in
      let metrics =
        List.concat_map
          (fun (w : workload) ->
             let mine =
               List.filter_map
                 (fun (n, _, _, r) -> if n = w.name then Some (pick r) else None)
                 runs
             in
             List.map
               (fun (m, _) ->
                  ( (if single then m else w.name ^ ":" ^ m),
                    Stats.median (List.map (List.assoc m) mine),
                    Spec.unit_of m ))
               (List.hd mine))
          chosen
      in
      let all_correct = List.for_all (fun (_, _, _, r) -> correct r) runs in
      let sum f = List.fold_left (fun s (_, _, _, r) -> s + f r) 0 runs in
      Printf.printf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
        all_correct
        (sum (fun r -> r.attempted))
        (sum (fun r -> r.failed))
        (metrics_json metrics)
