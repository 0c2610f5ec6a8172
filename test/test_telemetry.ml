(** Telemetry core: span nesting/ordering, histogram bucket edges,
    disabled-mode no-op behaviour, and sink well-formedness (Chrome
    trace_event output must parse and balance). *)

module T = Telemetry
module M = Telemetry.Metrics
module C = Telemetry.Trace_check

let with_tracing f =
  T.reset ();
  T.enable ();
  Fun.protect ~finally:(fun () -> T.disable (); T.reset ()) f

(* ---------------- spans ---------------- *)

let span_nesting () =
  with_tracing @@ fun () ->
  let v =
    T.with_span "outer" (fun () ->
        T.with_span "inner_a" (fun () -> ());
        T.with_span "inner_b" (fun () -> 41 + 1))
  in
  Alcotest.(check int) "value passes through" 42 v;
  let spans = T.finished_spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name = List.find (fun (s : T.span) -> s.name = name) spans in
  let outer = find "outer" in
  let a = find "inner_a" and b = find "inner_b" in
  Alcotest.(check bool) "outer is a root" true (outer.parent = None);
  Alcotest.(check bool) "a nests in outer" true (a.parent = Some outer.id);
  Alcotest.(check bool) "b nests in outer" true (b.parent = Some outer.id);
  Alcotest.(check int) "outer depth" 0 outer.depth;
  Alcotest.(check int) "inner depth" 1 a.depth;
  Alcotest.(check bool) "a ordered before b" true (a.id < b.id);
  Alcotest.(check bool) "outer contains a (start)" true
    (outer.t_start <= a.t_start);
  Alcotest.(check bool) "outer contains b (stop)" true
    (b.t_stop <= outer.t_stop)

let span_exception_safety () =
  with_tracing @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  match T.finished_spans () with
  | [ s ] ->
    Alcotest.(check string) "span closed" "boom" s.name;
    Alcotest.(check bool) "exn recorded" true (T.attr s "exn" <> None)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let span_annotation () =
  with_tracing @@ fun () ->
  T.with_span "cell" (fun () -> T.annotate "tool" "BAP");
  let s = List.hd (T.finished_spans ()) in
  Alcotest.(check (option string)) "attr" (Some "BAP") (T.attr s "tool")

let disabled_no_op () =
  T.reset ();
  T.disable ();
  let v = T.with_span "ghost" (fun () -> T.annotate "k" "v"; 7) in
  Alcotest.(check int) "value passes through" 7 v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (T.finished_spans ()))

(* ---------------- histograms ---------------- *)

let bucket_edges () =
  Alcotest.(check int) "bucket of 0" 0 (M.bucket_of 0);
  Alcotest.(check int) "bucket of negative" 0 (M.bucket_of (-5));
  Alcotest.(check int) "bucket of 1" 1 (M.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 2 (M.bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (M.bucket_of 3);
  Alcotest.(check int) "bucket of 4" 3 (M.bucket_of 4);
  Alcotest.(check int) "bucket of max_int" 62 (M.bucket_of max_int);
  (* every bucket's range round-trips *)
  for i = 1 to 61 do
    let lo, hi = M.bucket_range i in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d" i) i (M.bucket_of lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d" i) i (M.bucket_of hi)
  done

let histogram_observe () =
  let h = M.histogram "test.hist" in
  M.observe h 0;
  M.observe h 1;
  M.observe h 1;
  M.observe h max_int;
  (match M.read (M.Histogram h) with
   | M.Vhistogram { count; sum; max; buckets } ->
     Alcotest.(check int) "count" 4 count;
     Alcotest.(check int) "sum" (max_int + 2) sum;
     Alcotest.(check int) "max" max_int max;
     Alcotest.(check (list (pair int int))) "buckets"
       [ (0, 1); (1, 2); (62, 1) ] buckets
   | _ -> Alcotest.fail "expected histogram reading");
  M.reset ();
  (match M.read (M.Histogram h) with
   | M.Vhistogram { count; sum; _ } ->
     Alcotest.(check int) "count after reset" 0 count;
     Alcotest.(check int) "sum after reset" 0 sum
   | _ -> Alcotest.fail "expected histogram reading")

let counter_registry () =
  let c = M.counter "test.counter" in
  let before = M.value c in
  M.incr c;
  M.add c 10;
  Alcotest.(check int) "value" (before + 11) (M.value c);
  Alcotest.(check int) "by name" (before + 11) (M.counter_value "test.counter");
  Alcotest.(check bool) "same record on re-register" true
    (c == M.counter "test.counter");
  Alcotest.(check int) "missing counter reads 0" 0
    (M.counter_value "test.no_such");
  (* re-registering under a different kind is a programming error *)
  (match M.gauge "test.counter" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind mismatch not detected")

(* ---------------- sinks ---------------- *)

let record_sample_spans () =
  T.with_span "root" (fun () ->
      T.with_span "child" (fun () ->
          T.annotate "note" "with \"quotes\" and\nnewline");
      T.with_span "child" (fun () -> ()))

let chrome_well_formed () =
  with_tracing @@ fun () ->
  record_sample_spans ();
  match C.validate_chrome (T.to_chrome ()) with
  | Ok { events; spans; max_depth } ->
    Alcotest.(check int) "balanced B/E pairs" 3 spans;
    Alcotest.(check int) "two events per span" 6 events;
    Alcotest.(check int) "nesting depth" 2 max_depth
  | Error e -> Alcotest.failf "invalid Chrome trace: %s" e

let chrome_catches_imbalance () =
  (* the validator is only trustworthy if it rejects broken input *)
  let unbalanced =
    {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 1.0}]}|}
  in
  (match C.validate_chrome unbalanced with
   | Ok _ -> Alcotest.fail "unclosed B not detected"
   | Error _ -> ());
  let crossed =
    {|{"traceEvents": [
        {"name": "a", "ph": "B", "ts": 1.0},
        {"name": "b", "ph": "E", "ts": 2.0}]}|}
  in
  (match C.validate_chrome crossed with
   | Ok _ -> Alcotest.fail "mismatched E not detected"
   | Error _ -> ());
  match C.validate_chrome "not json at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* per-group B/E nesting: two cells' groups on one lane whose span ids
   repeat (a respawned worker restarts its ids) still balance, and a
   cell whose root span sits under a span still open outside the group
   keeps its root *)
let chrome_groups_nest_per_cell () =
  with_tracing @@ fun () ->
  record_sample_spans ();
  let first = T.finished_spans () in
  T.reset ();
  let outer = T.begin_span "outer" in
  let mark = T.watermark () in
  record_sample_spans ();
  let second = T.spans_since mark in
  T.end_span outer;
  let id (s : T.span) = s.id in
  Alcotest.(check bool) "span ids repeat across the groups" true
    (List.exists (fun s -> List.mem (id s) (List.map id first)) second);
  let events =
    T.chrome_events ~lane:3 first @ T.chrome_events ~lane:3 second
  in
  match C.validate_chrome (T.chrome_document events) with
  | Ok { spans; max_depth; _ } ->
    Alcotest.(check int) "every span of both groups balanced" 6 spans;
    Alcotest.(check int) "nesting stays within a group" 2 max_depth
  | Error e -> Alcotest.failf "invalid grouped trace: %s" e

(* the one escaper is total: every byte value survives escape -> parse,
   and no escaped string holds a raw control byte *)
let escape_round_trips_every_byte () =
  let all = String.init 256 Char.chr in
  let escaped = C.json_escape all in
  Alcotest.(check bool) "only printable ASCII escaped" true
    (String.for_all (fun c -> c >= ' ' && c <= '~') escaped);
  match C.parse ("\"" ^ escaped ^ "\"") with
  | C.Str s -> Alcotest.(check string) "all 256 bytes round-trip" all s
  | _ -> Alcotest.fail "escaped string did not parse as a string"

let tree_renders_aggregates () =
  with_tracing @@ fun () ->
  record_sample_spans ();
  let tree = T.render_tree () in
  let contains needle =
    let n = String.length needle and h = String.length tree in
    let rec scan i =
      i + n <= h && (String.sub tree i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "root line" true (contains "root");
  Alcotest.(check bool) "same-name children aggregate" true
    (contains "child (x2)")

(* ---------------- log levels ---------------- *)

let log_levels () =
  let module L = Telemetry.Log in
  let saved = !L.current in
  Fun.protect ~finally:(fun () -> L.current := saved) @@ fun () ->
  L.set_level L.Warn;
  Alcotest.(check bool) "error enabled at warn" true (L.enabled L.Error);
  Alcotest.(check bool) "debug disabled at warn" false (L.enabled L.Debug);
  L.set_level L.Debug;
  Alcotest.(check bool) "debug enabled at debug" true (L.enabled L.Debug);
  L.set_level L.Quiet;
  Alcotest.(check bool) "error disabled at quiet" false (L.enabled L.Error);
  Alcotest.(check bool) "parse warn" true
    (L.level_of_string "WARNING" = Some L.Warn);
  Alcotest.(check bool) "parse junk" true (L.level_of_string "blorp" = None)

let () =
  Alcotest.run "telemetry"
    [ ("spans",
       [ Alcotest.test_case "nesting and ordering" `Quick span_nesting;
         Alcotest.test_case "exception safety" `Quick span_exception_safety;
         Alcotest.test_case "annotation" `Quick span_annotation;
         Alcotest.test_case "disabled is a no-op" `Quick disabled_no_op ]);
      ("metrics",
       [ Alcotest.test_case "bucket edges (0, 1, max_int)" `Quick bucket_edges;
         Alcotest.test_case "histogram observe/reset" `Quick histogram_observe;
         Alcotest.test_case "counter registry" `Quick counter_registry ]);
      ("sinks",
       [ Alcotest.test_case "chrome balances" `Quick chrome_well_formed;
         Alcotest.test_case "chrome groups nest per cell" `Quick
           chrome_groups_nest_per_cell;
         Alcotest.test_case "escape round-trips every byte" `Quick
           escape_round_trips_every_byte;
         Alcotest.test_case "validator rejects broken traces" `Quick
           chrome_catches_imbalance;
         Alcotest.test_case "tree aggregates siblings" `Quick
           tree_renders_aggregates ]);
      ("log",
       [ Alcotest.test_case "level filtering" `Quick log_levels ]) ]
