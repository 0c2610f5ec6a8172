(** Observability battery: snapshot codec round trips, publish
    algebra (counter-add, gauge-last, bucket-exact histogram add), the
    snapshot diff over interleaved names,
    histogram quantiles, fleet metrics aggregation equalling the
    sequential registry for 2- and 4-worker runs, reply-borne worker
    deltas folded into the master registry exactly once (a SIGKILLed
    worker's completed task kept, its killed task's work not), and the
    per-cell profiler (codec, sidecar, fleet run artifacts). *)

module Snap = Telemetry.Snapshot

let snap =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Snap.to_json s))
    ( = )

(* ---------------- snapshot codec ---------------- *)

let synthetic =
  { Snap.counters = [ ("t.a", 3); ("t.b", 5) ];
    gauges = [ ("t.g", 1.25); ("t.neg", -0.5) ];
    histograms =
      [ ( "t.h",
          { Snap.hs_count = 3; hs_sum = 10; hs_max = 6;
            hs_buckets = [ (1, 1); (3, 2) ] } ) ] }

let codec_round_trip () =
  (match Snap.of_json (Snap.to_json synthetic) with
   | Some s -> Alcotest.check snap "synthetic round trips" synthetic s
   | None -> Alcotest.fail "synthetic snapshot does not decode");
  Alcotest.check snap "empty round trips" Snap.empty
    (Option.get (Snap.of_json (Snap.to_json Snap.empty)));
  Alcotest.(check (option snap)) "garbage rejected" None
    (Snap.of_json "{\"c\":[1,2]}");
  Alcotest.(check (option snap)) "non-JSON rejected" None
    (Snap.of_json "not json at all")

let codec_captures_registry () =
  let c = Telemetry.Metrics.counter "test.obs.codec.count" in
  let g = Telemetry.Metrics.gauge "test.obs.codec.gauge" in
  let h = Telemetry.Metrics.histogram "test.obs.codec.histo" in
  Telemetry.Metrics.add c 7;
  Telemetry.Metrics.set g 2.5;
  List.iter (Telemetry.Metrics.observe h) [ 1; 2; 900 ];
  let cap = Snap.capture () in
  match Snap.of_json (Snap.to_json cap) with
  | None -> Alcotest.fail "captured registry does not decode"
  | Some s ->
      Alcotest.check snap "capture round trips" cap s;
      Alcotest.(check int) "counter value carried" 7
        (Snap.find_counter s "test.obs.codec.count")

(* ---------------- publish algebra ---------------- *)

(* two deltas published in turn: counters add, gauge-last, histograms
   add bucket-wise with the larger max *)
let publish_into_registry () =
  let a =
    { Snap.counters = [ ("test.obs.pub.x", 2); ("test.obs.pub.y", 1) ];
      gauges = [ ("test.obs.pub.g", 1.0) ];
      histograms =
        [ ( "test.obs.pub.h",
            { Snap.hs_count = 2; hs_sum = 5; hs_max = 4;
              hs_buckets = [ (1, 1); (3, 1) ] } ) ] }
  in
  let b =
    { Snap.counters = [ ("test.obs.pub.x", 3); ("test.obs.pub.z", 4) ];
      gauges = [ ("test.obs.pub.g", 9.0) ];
      histograms =
        [ ( "test.obs.pub.h",
            { Snap.hs_count = 3; hs_sum = 20; hs_max = 16;
              hs_buckets = [ (3, 2); (5, 1) ] } ) ] }
  in
  Snap.publish a;
  Snap.publish b;
  let m = Snap.capture () in
  Alcotest.(check int) "counters add" 5 (Snap.find_counter m "test.obs.pub.x");
  Alcotest.(check int) "first-only counter kept" 1
    (Snap.find_counter m "test.obs.pub.y");
  Alcotest.(check int) "second-only counter kept" 4
    (Snap.find_counter m "test.obs.pub.z");
  Alcotest.(check (option (float 0.0))) "gauge-last wins" (Some 9.0)
    (List.assoc_opt "test.obs.pub.g" m.Snap.gauges);
  let h = List.assoc "test.obs.pub.h" m.Snap.histograms in
  Alcotest.(check int) "histogram counts add" 5 h.Snap.hs_count;
  Alcotest.(check int) "histogram sums add" 25 h.Snap.hs_sum;
  Alcotest.(check int) "histogram max maxes" 16 h.Snap.hs_max;
  Alcotest.(check (list (pair int int))) "buckets add bucket-wise"
    [ (1, 1); (3, 3); (5, 1) ]
    h.Snap.hs_buckets;
  Alcotest.check snap "diff from empty is identity" a
    (Snap.diff ~base:Snap.empty a)

(* names only in [base], only in [cur] and in both, interleaved: one
   walk over both sorted lists must pair each name with its own base *)
let diff_interleaved () =
  let h n =
    { Snap.hs_count = n; hs_sum = 10 * n; hs_max = n; hs_buckets = [ (1, n) ] }
  in
  let base =
    { Snap.counters =
        [ ("a.base_only", 4); ("c.both", 2); ("e.base_only", 1);
          ("g.same", 5) ];
      gauges = [ ("g.back", 3.5); ("g.base_only", 1.0); ("g.still", 2.0) ];
      histograms = [ ("h.both", h 2); ("h.same", h 1) ] }
  in
  let cur =
    { Snap.counters =
        [ ("b.cur_only", 3); ("c.both", 7); ("d.cur_only", 1);
          ("g.same", 5) ];
      gauges =
        [ ("g.back", 0.0); ("g.cur_only", 2.5); ("g.still", 2.0);
          ("g.zero", 0.0) ];
      histograms = [ ("h.both", h 5); ("h.new", h 3); ("h.same", h 1) ] }
  in
  Alcotest.check snap "counter deltas, gauges that moved, histogram deltas"
    { Snap.counters = [ ("b.cur_only", 3); ("c.both", 5); ("d.cur_only", 1) ];
      gauges = [ ("g.back", 0.0); ("g.cur_only", 2.5) ];
      histograms =
        [ ( "h.both",
            { Snap.hs_count = 3; hs_sum = 30; hs_max = 5;
              hs_buckets = [ (1, 3) ] } );
          ("h.new", h 3) ] }
    (Snap.diff ~base cur)

let quantiles () =
  let h = Telemetry.Metrics.histogram "test.obs.quant" in
  Alcotest.(check int) "empty histogram quantile" 0
    (Telemetry.Metrics.quantile h 0.5);
  for _ = 1 to 90 do Telemetry.Metrics.observe h 3 done;
  for _ = 1 to 10 do Telemetry.Metrics.observe h 1000 done;
  (* 3 lands in bucket (2,3); 1000 in (512,1023) *)
  Alcotest.(check int) "p50 in the low bucket" 3
    (Telemetry.Metrics.quantile h 0.50);
  Alcotest.(check int) "p95 in the tail bucket (clamped to max)" 1000
    (Telemetry.Metrics.quantile h 0.95);
  Alcotest.(check int) "p100 = max" 1000 (Telemetry.Metrics.quantile h 1.0)

let prometheus_exposition () =
  let text = Snap.to_prometheus synthetic in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter sample" true (has "t_a 3");
  Alcotest.(check bool) "gauge sample" true (has "t_g 1.25");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (has "t_h_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "histogram count" true (has "t_h_count 3");
  Alcotest.(check bool) "cumulative le buckets" true
    (has "t_h_bucket{le=\"1\"} 1")

(* ---------------- fleet aggregation ---------------- *)

let det_tools = [ Engines.Profile.Bap; Engines.Profile.Triton ]

let det_bombs =
  List.map Bombs.Catalog.find [ "time_bomb"; "argvlen_bomb"; "stack_bomb" ]

let det_prefixes = [ "vm."; "smt."; "lifter."; "taint."; "concolic." ]

let has_prefix name p =
  String.length name >= String.length p
  && String.sub name 0 (String.length p) = p

(* the deterministic engine counters a run bumped, as (name, delta) *)
let engine_counters ~base cur =
  List.filter
    (fun (name, _) -> List.exists (has_prefix name) det_prefixes)
    (Snap.diff ~base cur).Snap.counters

let fleet_counters_equal_sequential () =
  (* fleet runs first: their workers fork from a master that has never
     executed a cell in-process, the same cold state the sequential
     pass (whose cells also haven't run yet) starts from *)
  let fleet_diffs =
    List.map
      (fun workers ->
         let base = Snap.capture () in
         let _ =
           Engines.Eval.run_table2 ~tools:det_tools ~bombs:det_bombs
             ~workers ()
         in
         (workers, engine_counters ~base (Snap.capture ())))
      [ 2; 4 ]
  in
  let base = Snap.capture () in
  let _ = Engines.Eval.run_table2 ~tools:det_tools ~bombs:det_bombs () in
  let seq = engine_counters ~base (Snap.capture ()) in
  Alcotest.(check bool) "sequential run moved the engine counters" true
    (List.mem_assoc "vm.steps" seq && List.assoc "vm.steps" seq > 0);
  List.iter
    (fun (workers, fleet) ->
       List.iter
         (fun (name, v) ->
            Alcotest.(check int)
              (Printf.sprintf "%s (%d workers) = sequential" name workers)
              v
              (match List.assoc_opt name fleet with Some d -> d | None -> 0))
         seq;
       (* and nothing extra: the fleet must not bump engine counters
          the sequential run did not *)
       List.iter
         (fun (name, v) ->
            if not (List.mem_assoc name seq) then
              Alcotest.failf
                "fleet (%d workers) bumped %s by %d; sequential did not"
                workers name v)
         fleet)
    fleet_diffs

let sigkill_snapshot_survives () =
  let survive = "test.obs.survive" and lost = "test.obs.lost" in
  let survive0 = Telemetry.Metrics.counter_value survive in
  let config =
    { Fleet.Pool.workers = 1; respawns = 0; task_timeout = Some 0.5 }
  in
  let t =
    Fleet.Pool.create ~config (fun ~attempt:_ ~key ->
        fun _task ->
          if key = "bump" then begin
            Telemetry.Metrics.incr (Telemetry.Metrics.counter survive);
            "ok"
          end
          else begin
            (* this increment must NOT surface: the worker is SIGKILLed
               before it replies, so no reply carries it *)
            Telemetry.Metrics.incr (Telemetry.Metrics.counter lost);
            Unix.sleep 30;
            "unreachable"
          end)
  in
  Fleet.Pool.submit t ~key:"bump" ~task:"x";
  Fleet.Pool.submit t ~key:"hang" ~task:"x";
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check int) "completed task's counter survives the SIGKILL" 1
    (Telemetry.Metrics.counter_value survive - survive0);
  Alcotest.(check int) "killed task's partial work never counts" 0
    (Telemetry.Metrics.counter_value lost);
  match
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = "hang") results)
      .r_payload
  with
  | Error (Fleet.Pool.Worker_lost _) -> ()
  | _ -> Alcotest.fail "hanging task must be Worker_lost"

(* every accepted reply's delta is in the master registry by the time
   [drain] returns; shutting the pool down adds nothing *)
let reply_deltas_fold_once () =
  let c = "test.obs.reply_delta" in
  let t =
    Fleet.Pool.create
      ~config:{ Fleet.Pool.default_config with workers = 2 }
      (fun ~attempt:_ ~key:_ ->
        fun task ->
          Telemetry.Metrics.incr (Telemetry.Metrics.counter c);
          task)
  in
  let before = Telemetry.Metrics.counter_value c in
  for i = 0 to 9 do
    Fleet.Pool.submit t ~key:(Printf.sprintf "k%d" i) ~task:"x"
  done;
  ignore (Fleet.Pool.drain t);
  Alcotest.(check int) "every task's bump folded on its reply" 10
    (Telemetry.Metrics.counter_value c - before);
  Fleet.Pool.shutdown t;
  Alcotest.(check int) "shutdown folds nothing more" 10
    (Telemetry.Metrics.counter_value c - before)

(* ---------------- per-cell profiler ---------------- *)

let profiled_sample_and_codec () =
  let bomb = Bombs.Catalog.find "time_bomb" in
  let was = Telemetry.is_enabled () in
  let mark = Telemetry.watermark () in
  Telemetry.enable ();
  let o, s =
    Engines.Cellprof.profiled ~key:"BAP/time_bomb" (fun () ->
        Engines.Supervisor.run_cell Engines.Profile.Bap bomb)
  in
  let s =
    { s with
      Engines.Cellprof.p_phases =
        Engines.Cellprof.phases_of (Telemetry.spans_since mark) }
  in
  Telemetry.drop_since mark;
  if not was then Telemetry.disable ();
  Alcotest.(check string) "grade recorded"
    (Concolic.Error.cell_symbol o.Engines.Supervisor.graded.Engines.Grade.cell)
    s.Engines.Cellprof.p_grade;
  Alcotest.(check bool) "vm steps measured" true
    (s.Engines.Cellprof.p_vm_steps > 0);
  Alcotest.(check bool) "wall time measured" true
    (s.Engines.Cellprof.p_wall_us > 0.0);
  Alcotest.(check bool) "phase breakdown recorded" true
    (List.mem_assoc "cell" s.Engines.Cellprof.p_phases);
  let enc = Engines.Cellprof.encode s in
  match Engines.Cellprof.decode enc with
  | None -> Alcotest.fail "profile sample does not decode"
  | Some s' ->
      Alcotest.(check string) "codec round trips" enc
        (Engines.Cellprof.encode s')

(* a sidecar line written before budget-Unknown checks were recorded
   still decodes, with both fields at 0 *)
let profile_decodes_older_sidecar () =
  let line =
    "{\"key\":\"BAP/time_bomb\",\"grade\":\"OK\",\"stage\":null,\
     \"cause\":null,\"attempts\":1,\"wall_us\":12.5,\"vm_steps\":3,\
     \"lifted\":2,\"blasted\":1,\"conflicts\":0,\"cache_hits\":0,\
     \"queries\":1,\"tainted\":0,\"phases\":{}}"
  in
  match Engines.Cellprof.decode line with
  | None -> Alcotest.fail "older sample does not decode"
  | Some s ->
    Alcotest.(check int) "unknown_budget" 0 s.Engines.Cellprof.p_unknown_budget;
    Alcotest.(check (float 0.0)) "unknown_budget_ms" 0.0
      s.Engines.Cellprof.p_unknown_budget_ms

(* the B events of [cell] spans in a Chrome trace file *)
let count_cell_spans path =
  let open Telemetry.Trace_check in
  match member "traceEvents" (parse (read_file path)) with
  | Some (Arr evs) ->
    List.length
      (List.filter
         (fun ev ->
            member "name" ev = Some (Str "cell")
            && member "ph" ev = Some (Str "B"))
         evs)
  | _ -> 0

(* a sequential traced run restores the recorder as it found it:
   tracing off again, and none of the cells' spans left in memory *)
let sequential_trace_restores_recorder () =
  let spans_out = Filename.temp_file "obs_trace_seq" ".json" in
  let ids () =
    List.map (fun (s : Telemetry.span) -> s.id) (Telemetry.finished_spans ())
  in
  List.iter
    (fun enabled ->
       if enabled then Telemetry.enable () else Telemetry.disable ();
       let before = ids () in
       let _ =
         Engines.Eval.run_table2 ~tools:det_tools ~bombs:[ List.hd det_bombs ]
           ~spans_out ()
       in
       Alcotest.(check bool)
         (Printf.sprintf "tracing still %b" enabled)
         enabled (Telemetry.is_enabled ());
       Alcotest.(check (list int))
         (Printf.sprintf "finished spans untouched (tracing %b)" enabled)
         before (ids ()))
    [ false; true ];
  Telemetry.disable ();
  Sys.remove spans_out

(* profiling a sequential run leaves its --fleet-trace spans alone:
   the Chrome trace holds one cell span per grid cell *)
let profile_sidecar_sequential () =
  let path = Filename.temp_file "obs_prof_seq" ".jsonl" in
  let spans_out = Filename.temp_file "obs_prof_seq" ".json" in
  Sys.remove path;
  let _ =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:det_bombs ~profile:path
      ~spans_out ()
  in
  let samples = Engines.Cellprof.load path in
  Sys.remove path;
  (match Telemetry.Trace_check.validate_chrome_file spans_out with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "sequential trace invalid: %s" e);
  let cell_spans = count_cell_spans spans_out in
  Sys.remove spans_out;
  Alcotest.(check int) "one cell span per grid cell"
    (List.length det_tools * List.length det_bombs)
    cell_spans;
  let keys =
    List.sort compare
      (List.map (fun s -> s.Engines.Cellprof.p_key) samples)
  in
  let grid =
    List.sort compare
      (List.concat_map
         (fun b ->
            List.map (fun t -> Engines.Eval.cell_key t b) det_tools)
         det_bombs)
  in
  Alcotest.(check (list string)) "one sample per grid cell" grid keys

(* a fleet run's workers return their samples and spans in their
   replies: only the sidecar and the trace land on disk *)
let profile_sidecar_fleet () =
  let path = Filename.temp_file "obs_prof_par" ".jsonl" in
  let spans_out = Filename.temp_file "obs_prof_par" ".json" in
  Sys.remove path;
  let _ =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:det_bombs ~workers:2
      ~profile:path ~spans_out ()
  in
  let samples = Engines.Cellprof.load path in
  let dir = Filename.dirname path in
  let leftovers =
    List.filter
      (fun f ->
         List.exists
           (fun prefix ->
              String.starts_with ~prefix:(Filename.basename prefix) f)
           [ path ^ ".w"; spans_out ^ ".spans.w" ])
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check (list string)) "no per-worker shard files" [] leftovers;
  Sys.remove path;
  (match Telemetry.Trace_check.validate_chrome_file spans_out with
   | Ok { spans; _ } ->
     Alcotest.(check bool) "fleet trace has balanced spans" true (spans > 0)
   | Error e -> Alcotest.failf "fleet trace invalid: %s" e);
  Alcotest.(check int) "one cell span per grid cell"
    (List.length det_tools * List.length det_bombs)
    (count_cell_spans spans_out);
  Sys.remove spans_out;
  let keys =
    List.sort compare
      (List.map (fun s -> s.Engines.Cellprof.p_key) samples)
  in
  let grid =
    List.sort compare
      (List.concat_map
         (fun b ->
            List.map (fun t -> Engines.Eval.cell_key t b) det_tools)
         det_bombs)
  in
  Alcotest.(check (list string)) "fleet sidecar covers the grid" grid keys;
  List.iter
    (fun s ->
       Alcotest.(check bool)
         (s.Engines.Cellprof.p_key ^ " profiled real work") true
         (s.Engines.Cellprof.p_vm_steps > 0))
    samples

let () =
  Alcotest.run "obs"
    [ ("snapshot",
       [ Alcotest.test_case "JSON codec round trips" `Quick codec_round_trip;
         Alcotest.test_case "captured registry round trips" `Quick
           codec_captures_registry;
         Alcotest.test_case "publish folds into the registry" `Quick
           publish_into_registry;
         Alcotest.test_case "diff walks interleaved names" `Quick
           diff_interleaved;
         Alcotest.test_case "histogram quantiles" `Quick quantiles;
         Alcotest.test_case "prometheus exposition" `Quick
           prometheus_exposition ]);
      ("fleet",
       [ Alcotest.test_case "2/4-worker counters = sequential" `Quick
           fleet_counters_equal_sequential;
         Alcotest.test_case "SIGKILLed worker's snapshot survives" `Quick
           sigkill_snapshot_survives;
         Alcotest.test_case "reply deltas fold once" `Quick
           reply_deltas_fold_once ]);
      ("profile",
       [ Alcotest.test_case "profiled sample + codec" `Quick
           profiled_sample_and_codec;
         Alcotest.test_case "older sidecar decodes" `Quick
           profile_decodes_older_sidecar;
         Alcotest.test_case "sequential sidecar covers the grid" `Quick
           profile_sidecar_sequential;
         Alcotest.test_case "sequential trace restores the recorder" `Quick
           sequential_trace_restores_recorder;
         Alcotest.test_case "fleet run leaves only sidecar and trace" `Quick
           profile_sidecar_fleet ]) ]
