(** Differential-fuzzing subsystem tests.

    The [smoke] suite is the CI budget: a small fixed number of cases
    per oracle (overridable via [FUZZ_SEED] / [FUZZ_BUDGET]), also
    runnable alone through the [@fuzz-smoke] dune alias.  Long
    campaigns live in [bin/fuzz.ml]. *)

let seed () = Difftest.Harness.seed_from_env 1

let budget n = Difftest.Harness.budget_from_env n

let check_clean oracle n () =
  let r = Difftest.Harness.run ~seed:(seed ()) ~budget:(budget n) oracle in
  match r.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s: %d/%d cases failed; first: %a" oracle
      (List.length r.failures) r.runs Difftest.Harness.pp_failure f

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let corpus_dir = "corpus"

let corpus_entries () =
  let entries = Difftest.Corpus.load_dir corpus_dir in
  Alcotest.(check bool) "corpus is not empty" true (entries <> []);
  List.map
    (function
      | Ok e -> e
      | Error msg -> Alcotest.failf "corpus parse error: %s" msg)
    entries

let corpus_replays () =
  List.iter
    (fun (e : Difftest.Corpus.entry) ->
       match Difftest.Corpus.replay e with
       | Ok () -> ()
       | Error msg ->
         Alcotest.failf "%s regressed: %s" (Difftest.Corpus.filename e) msg)
    (corpus_entries ())

(* a corpus case must regenerate byte-identically: same seed, same
   rendered case text, same verdict — twice in one process *)
let corpus_deterministic () =
  List.iter
    (fun (e : Difftest.Corpus.entry) ->
       let r1, text1 = Difftest.Harness.run_case e.oracle e.seed in
       let r2, text2 = Difftest.Harness.run_case e.oracle e.seed in
       Alcotest.(check string)
         (Difftest.Corpus.filename e ^ " rendering") text1 text2;
       Alcotest.(check bool)
         (Difftest.Corpus.filename e ^ " verdict") true (r1 = r2))
    (corpus_entries ())

let corpus_roundtrip () =
  let e =
    { Difftest.Corpus.oracle = "vmir"; seed = 123456;
      note = Some "first line\nsecond line" }
  in
  match Difftest.Corpus.parse (Difftest.Corpus.render e) with
  | Ok e' -> Alcotest.(check bool) "roundtrip" true (e = e')
  | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Mutant sanity: the oracle must have teeth                           *)
(* ------------------------------------------------------------------ *)

let mutant_is_caught () =
  let r =
    Difftest.Harness.run ~simplify:Difftest.Mutant.bad_simplify
      ~seed:(seed ()) ~budget:(budget 150) "blast"
  in
  match r.failures with
  | [] -> Alcotest.failf "broken simplifier survived %d blast cases" r.runs
  | f :: _ ->
    Alcotest.(check bool) "failure was shrunk" true (f.shrunk <> None);
    (* shrinking must not grow the counterexample *)
    Alcotest.(check bool) "shrunk is no larger" true
      (match f.shrunk with
       | Some s -> String.length s <= String.length f.rendered
       | None -> false)

(* the same campaign must find the same first failure twice *)
let mutant_deterministic () =
  let run () =
    Difftest.Harness.run ~simplify:Difftest.Mutant.bad_simplify
      ~seed:42 ~budget:(budget 150) "blast"
  in
  let r1 = run () and r2 = run () in
  let sig_of (r : Difftest.Harness.report) =
    List.map
      (fun (f : Difftest.Harness.failure) -> (f.seed, f.rendered, f.shrunk))
      r.failures
  in
  Alcotest.(check bool) "same failures" true (sig_of r1 = sig_of r2)

(* each deliberately wrong bounds pass must fail the bounds oracle *)
let bounds_fault_is_caught fault () =
  let r =
    Difftest.Harness.run
      ~narrow:(fun cs -> Smt.Bounds.narrow_list ~fault cs)
      ~seed:(seed ()) ~budget:(budget 300) "bounds"
  in
  if r.failures = [] then
    Alcotest.failf "a faulty bounds pass survived %d cases" r.runs

let () =
  Alcotest.run "difftest"
    [ ("smoke",
       [ Alcotest.test_case "blast vs eval" `Quick (check_clean "blast" 60);
         Alcotest.test_case "session vs one-shot" `Quick
           (check_clean "session" 25);
         Alcotest.test_case "bounds narrowing" `Quick
           (check_clean "bounds" 150);
         Alcotest.test_case "vm vs ir" `Quick (check_clean "vmir" 50);
         Alcotest.test_case "concolic flip" `Quick (check_clean "flip" 6) ]);
      ("corpus",
       [ Alcotest.test_case "replays clean" `Quick corpus_replays;
         Alcotest.test_case "byte-deterministic" `Quick corpus_deterministic;
         Alcotest.test_case "entry roundtrip" `Quick corpus_roundtrip ]);
      ("mutant",
       [ Alcotest.test_case "broken simplifier is caught" `Quick
           mutant_is_caught;
         Alcotest.test_case "campaign is deterministic" `Quick
           mutant_deterministic;
         Alcotest.test_case "bounds: upper bound off by one is caught"
           `Quick (bounds_fault_is_caught Smt.Bounds.Upper_off_by_one);
         Alcotest.test_case "bounds: wrapping add is caught" `Quick
           (bounds_fault_is_caught Smt.Bounds.Add_ignores_wrap);
         Alcotest.test_case "bounds: own bound is caught" `Quick
           (bounds_fault_is_caught Smt.Bounds.Own_bound) ]) ]
