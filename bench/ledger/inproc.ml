(** The in-process workloads.  grid-dse and grid-trace run Table II
    cells through [Engines.Eval.run_cell]; solver-fixtures runs BAP's
    path constraints through [Smt.Solver.solve]. *)

open Engines
open Harness

type cell = {
  tool : Profile.tool;
  bomb : Bombs.Common.t;
  policy : Supervisor.policy;
}

let key c = Eval.cell_key c.tool c.bomb

(* Two Angr cells have no natural end within a run: Angr/sha1 steps its
   symbolic SHA-1 rounds for ~27 s, and Angr/aes runs to the DSE's
   400,000-step limit in ~5.5 s.  Each runs under a lifted-instruction
   budget that keeps it to a second or two; under it both grade E.
   Angr/sha1's cap stops halfway through its costliest stretch: some
   300 steps after lifted instruction 4,450 that take ~3.7 s outside
   any solver call. *)
let lift_caps = [ ("sha1_bomb", 4_600); ("aes_bomb", 50_000) ]

let policy tool (bomb : Bombs.Common.t) =
  match List.assoc_opt bomb.name lift_caps with
  | Some n when tool = Profile.Angr ->
      { Supervisor.default_policy with
        budget = { Robust.Budget.unlimited with lifted_insns = Some n } }
  | _ -> Supervisor.default_policy

(** The cell's key in golden.tsv: a capped cell is its own entry. *)
let golden_key c =
  if Robust.Budget.is_unlimited c.policy.budget then key c
  else key c ^ " " ^ Robust.Budget.to_string c.policy.budget

let cells tools bombs =
  List.concat_map
    (fun bomb ->
       List.map (fun tool -> { tool; bomb; policy = policy tool bomb }) tools)
    bombs
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Grids                                                               *)
(* ------------------------------------------------------------------ *)

let grid_measure ctx (golden : Golden.t) cells () =
  let rng = Random.State.make [| ctx.seed |] in
  let first : (string, Eval.cell_result) Hashtbl.t = Hashtbl.create 64 in
  let failed = ref 0 and mismatched = Hashtbl.create 8 in
  let before = Layers.read () in
  let passes, lats =
    passes ~rng ~seconds:ctx.seconds ~min_passes:2 ~key cells (fun c ->
        let r = Eval.run_cell ~policy:c.policy c.tool c.bomb in
        (match r.robust.cause with
         | Some (Supervisor.Crashed _ | Supervisor.Injected _) -> incr failed
         | _ -> ());
        record_mismatch mismatched golden.grades (golden_key c)
          (Concolic.Error.cell_symbol r.measured);
        if not (Hashtbl.mem first (key c)) then Hashtbl.add first (key c) r)
  in
  let counts = Layers.delta before (Layers.read ()) in
  let rss_mb = peak_rss_mb (Unix.getpid ()) in
  let attempted = List.length (all_latencies lats) in
  let agreement =
    Hashtbl.fold
      (fun _ (r : Eval.cell_result) n ->
         match r.expected with
         | Some e when Concolic.Error.equal_cell e r.measured -> n + 1
         | _ -> n)
      first 0
  in
  let layers, diverged =
    if not ctx.trace then ([], [])
    else begin
      let times = Layers.create () and diverged = ref [] in
      let t0 = now () in
      Array.iter
        (fun c ->
           let proposed, cell =
             Layers.cell times ~tool:c.tool ~bomb:c.bomb
               ~budget:c.policy.budget
           in
           let r = Hashtbl.find first (key c) in
           if proposed <> r.graded.proposed
              || not (Concolic.Error.equal_cell cell r.measured)
           then diverged := key c :: !diverged)
        (shuffled rng cells);
      ( Layers.values ~counts ~count_passes:(float_of_int passes) ~times
          ~cell_ms:(1000. *. pass_wall lats) ~traced_s:(now () -. t0)
          ~untraced_s:(pass_wall lats) ~fleet_overhead_ms:0.,
        !diverged )
    end
  in
  { e2e =
      end_to_end ~wall_s:(pass_wall lats) ~lats:(all_latencies lats) ~rss_mb;
    layers;
    checks =
      [ ("failed_frac", frac !failed attempted);
        ("golden_mismatch", float_of_int (Hashtbl.length mismatched));
        ("paper_agreement", float_of_int agreement) ]
      @ (if ctx.trace then
           [ ("decomposition_mismatch", float_of_int (List.length diverged)) ]
         else []);
    attempted;
    failed = !failed;
    problems =
      mismatch_problems "grade" mismatched
      @ List.map (fun k -> "decomposed stages diverge from run_cell on " ^ k)
          diverged }

let grid ~name ~tools ~smoke_bombs =
  { name;
    setup =
      (fun ctx ->
         let golden = Golden.load ctx.data in
         let bombs =
           match smoke_bombs with
           | Some names when ctx.smoke -> List.map Bombs.Catalog.find names
           | _ -> Golden.grid_bombs
         in
         let cells = cells tools bombs in
         Array.iter (fun c -> ignore (Bombs.Catalog.image c.bomb)) cells;
         { measure = grid_measure ctx golden cells; teardown = ignore }) }

let grid_dse =
  grid ~name:"grid-dse" ~tools:[ Profile.Angr; Profile.Angr_nolib ]
    ~smoke_bombs:(Some [ "time_bomb"; "stack_bomb"; "web_bomb" ])

let grid_trace =
  grid ~name:"grid-trace" ~tools:[ Profile.Bap; Profile.Triton ]
    ~smoke_bombs:None

(* ------------------------------------------------------------------ *)
(* Solver fixtures                                                     *)
(* ------------------------------------------------------------------ *)

(** Conflict budget per fixture solve.  At the engine's 20,000
    srand_bomb alone takes ~16 s, one sample per run; at 2,000 it takes
    about a second, so a run holds a dozen passes.  Every other
    fixture is decided within 500. *)
let fixture_budget = 2_000

let fixtures_measure ctx (golden : Golden.t) fixtures ~drifted ~unwitnessed
    () =
  let rng = Random.State.make [| ctx.seed |] in
  let conflict_budget = if ctx.smoke then 500 else fixture_budget in
  let config = { Profile.solver_config with conflict_budget } in
  let items = Array.of_list fixtures in
  let failed = ref 0 and decided = ref 0 and mismatched = Hashtbl.create 8 in
  let before = Layers.read () in
  let passes, lats =
    passes ~rng ~seconds:ctx.seconds ~min_passes:2
      ~key:(fun (f : Golden.fixture) -> f.bomb)
      items
      (fun f ->
         let outcome = Smt.Solver.solve ~config f.constraints in
         (match outcome with
          | Smt.Solver.Sat m ->
              incr decided;
              if not (Golden.holds (Smt.Eval.env_of_list m) f.constraints)
              then incr failed
          | Smt.Solver.Unsat ->
              (* the winning argv witnesses SAT *)
              incr decided;
              incr failed
          | Smt.Solver.Unknown _ -> ());
         record_mismatch mismatched golden.verdicts f.bomb
           (Golden.verdict outcome))
  in
  let counts = Layers.delta before (Layers.read ()) in
  let rss_mb = peak_rss_mb (Unix.getpid ()) in
  let attempted = List.length (all_latencies lats) in
  let layers =
    if not ctx.trace then []
    else begin
      let times = Layers.create () in
      let t0 = now () in
      Array.iter
        (fun (f : Golden.fixture) ->
           Layers.fixture times ~conflict_budget f.constraints)
        (shuffled rng items);
      Layers.values ~counts ~count_passes:(float_of_int passes) ~times
        ~cell_ms:(1000. *. pass_wall lats) ~traced_s:(now () -. t0)
        ~untraced_s:(pass_wall lats) ~fleet_overhead_ms:0.
    end
  in
  { e2e =
      end_to_end ~wall_s:(pass_wall lats) ~lats:(all_latencies lats) ~rss_mb;
    layers;
    checks =
      [ ("failed_frac", frac !failed attempted);
        ("golden_mismatch",
         float_of_int (Hashtbl.length mismatched + List.length drifted));
        ("decided_frac", frac !decided attempted) ];
    attempted;
    failed = !failed;
    problems =
      mismatch_problems "verdict" mismatched
      @ List.map (fun b -> "fixture drifted from fixtures/" ^ b ^ ".smt2") drifted
      @ List.map (fun b -> "winning argv does not satisfy fixture " ^ b)
          unwitnessed }

let solver_fixtures =
  { name = "solver-fixtures";
    setup =
      (fun ctx ->
         let golden = Golden.load ctx.data in
         let fixtures = Golden.derive_fixtures () in
         let drifted = Golden.drift ctx.data golden fixtures in
         let unwitnessed =
           List.filter_map
             (fun (f : Golden.fixture) ->
                if Golden.holds f.witness f.constraints then None
                else Some f.bomb)
             fixtures
         in
         { measure = fixtures_measure ctx golden fixtures ~drifted ~unwitnessed;
           teardown = ignore }) }
