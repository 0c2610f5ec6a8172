(** Seed-driven fuzzing loop: generate cases, run oracles, shrink
    failures.

    Every case is determined by [(oracle, case seed)], and case seeds
    are mixed deterministically from a master seed and a counter, so a
    whole campaign replays from two integers — which is also what a
    corpus entry stores. *)

module E = Smt.Expr

let spf = Printf.sprintf

let oracle_names = [ "blast"; "session"; "bounds"; "vmir"; "flip" ]

(* per-oracle throughput metrics; [bin/fuzz.exe] renders these as its
   exit summary table *)
let m_cases o = Telemetry.Metrics.counter (spf "fuzz.%s.cases" o)
let m_failures o = Telemetry.Metrics.counter (spf "fuzz.%s.failures" o)
let m_shrink_steps o = Telemetry.Metrics.counter (spf "fuzz.%s.shrink_steps" o)
let m_wall o = Telemetry.Metrics.gauge (spf "fuzz.%s.wall_s" o)

(* splitmix-flavoured mixer: case seeds must not collide across
   nearby master seeds, and must stay positive for [Random.State] *)
let mix master i =
  let h = (master * 0x9e3779b9) + (i * 0x85ebca6b) in
  let h = h lxor (h lsr 16) in
  let h = h * 0xc2b2ae35 in
  (h lxor (h lsr 13)) land max_int

(* ------------------------------------------------------------------ *)
(* Case rendering (for failure reports and corpus notes)               *)
(* ------------------------------------------------------------------ *)

let render_script (s : Gen.script) =
  String.concat "; "
    (List.map
       (function
         | Gen.Push -> "push"
         | Gen.Pop -> "pop"
         | Gen.Assert c -> spf "assert %s" (E.show c)
         | Gen.Check -> "check")
       s.ops)

let render_prog (p : Gen.prog) =
  String.concat "\n"
    (List.map
       (fun (r, v) -> spf "  %s := 0x%Lx" (Isa.Reg.show r) v)
       p.init_regs
     @ List.mapi (fun i insn -> spf "%3d: %s" i (Isa.Insn.show insn)) p.insns)

let render_flip (f : Gen.flip) =
  let op = function
    | Gen.Gadd k -> spf "add %d" k
    | Gen.Gsub k -> spf "sub %d" k
    | Gen.Gxor k -> spf "xor 0x%x" k
    | Gen.Gand k -> spf "and 0x%x" k
    | Gen.Gimul k -> spf "imul %d" k
    | Gen.Gshl k -> spf "shl %d" k
  in
  spf "byte -> %s; guard == %Ld; decoy %C"
    (String.concat " -> " (List.map op f.g_ops))
    f.g_target f.g_decoy

(* ------------------------------------------------------------------ *)
(* Running and shrinking one case                                      *)
(* ------------------------------------------------------------------ *)

(* an oracle that escapes with an exception is itself a finding *)
let guard f = try f () with e -> Error (spf "raised %s" (Printexc.to_string e))

let render_path cs = String.concat "; " (List.map E.show cs)

(** Run the case [(oracle, seed)].  Returns the oracle verdict and the
    rendered case text.  [simplify] reaches only the blast oracle's
    pipeline and [narrow] only the bounds oracle's (both used by the
    mutant sanity mode). *)
let run_case ?simplify ?narrow (oracle : string) (seed : int) :
  (unit, string) result * string =
  match oracle with
  | "blast" ->
    let c = Gen.of_seed Gen.gen_constraint seed in
    (guard (fun () -> Oracle.blast_vs_eval ?simplify c), E.show c)
  | "session" ->
    let s = Gen.of_seed Gen.gen_script seed in
    (guard (fun () -> Oracle.session_vs_oneshot s), render_script s)
  | "bounds" ->
    let cs = Gen.of_seed Gen.gen_bounded_path seed in
    (guard (fun () -> Oracle.bounds_narrowing ?narrow cs), render_path cs)
  | "vmir" ->
    let p = Gen.of_seed Gen.gen_prog seed in
    (guard (fun () -> Oracle.vm_vs_ir p), render_prog p)
  | "flip" ->
    let f = Gen.of_seed Gen.gen_flip seed in
    (guard (fun () -> Oracle.concolic_flip f), render_flip f)
  | o -> invalid_arg ("Harness.run_case: unknown oracle " ^ o)

(** Shrink the failing case [(oracle, seed)] to a minimal rendering,
    or [None] if the failure does not reproduce (flaky oracle —
    should never happen with seed-determined cases). *)
let shrink_case ?simplify ?narrow (oracle : string) (seed : int) :
  string option =
  let steps = m_shrink_steps oracle in
  (* every oracle evaluation during shrinking is one shrink step *)
  let failing r =
    Telemetry.Metrics.incr steps;
    match r with Error _ -> true | Ok () -> false
  in
  match oracle with
  | "blast" ->
    let c = Gen.of_seed Gen.gen_constraint seed in
    let fails c =
      failing (guard (fun () -> Oracle.blast_vs_eval ?simplify c))
    in
    if fails c then Some (E.show (Shrink.expr fails c)) else None
  | "session" ->
    let s = Gen.of_seed Gen.gen_script seed in
    let fails ops =
      failing (guard (fun () -> Oracle.session_vs_oneshot { Gen.ops }))
    in
    if fails s.ops then Some (render_script { Gen.ops = Shrink.list_ fails s.ops })
    else None
  | "bounds" ->
    let cs = Gen.of_seed Gen.gen_bounded_path seed in
    let fails cs =
      failing (guard (fun () -> Oracle.bounds_narrowing ?narrow cs))
    in
    if fails cs then Some (render_path (Shrink.list_ fails cs)) else None
  | "vmir" ->
    let p = Gen.of_seed Gen.gen_prog seed in
    let fails insns =
      failing (guard (fun () -> Oracle.vm_vs_ir { p with Gen.insns }))
    in
    if fails p.insns then
      Some (render_prog { p with Gen.insns = Shrink.list_ fails p.insns })
    else None
  | "flip" ->
    let f = Gen.of_seed Gen.gen_flip seed in
    let fails g_ops =
      failing (guard (fun () -> Oracle.concolic_flip { f with Gen.g_ops }))
    in
    if fails f.g_ops then
      Some (render_flip { f with Gen.g_ops = Shrink.list_ fails f.g_ops })
    else None
  | o -> invalid_arg ("Harness.shrink_case: unknown oracle " ^ o)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

type failure = {
  oracle : string;
  seed : int;      (** the case seed — enough to replay *)
  message : string;
  rendered : string;
  shrunk : string option;
}

type report = { oracle : string; runs : int; failures : failure list }

(** Run [budget] fresh cases of [oracle], case seeds mixed from
    [seed].  Failures are shrunk as they are found. *)
let run ?simplify ?narrow ~seed ~budget (oracle : string) : report =
  let cases = m_cases oracle and fails = m_failures oracle in
  let wall = m_wall oracle in
  let t0 = Unix.gettimeofday () in
  let failures = ref [] in
  for i = 0 to budget - 1 do
    let case_seed = mix seed i in
    let outcome, rendered = run_case ?simplify ?narrow oracle case_seed in
    Telemetry.Metrics.incr cases;
    match outcome with
    | Ok () -> ()
    | Error message ->
      Telemetry.Metrics.incr fails;
      let shrunk = shrink_case ?simplify ?narrow oracle case_seed in
      failures :=
        { oracle; seed = case_seed; message; rendered; shrunk } :: !failures
  done;
  Telemetry.Metrics.gauge_add wall (Unix.gettimeofday () -. t0);
  { oracle; runs = budget; failures = List.rev !failures }

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "@[<v2>[%s] seed %d: %s@,case: %s%a@]" f.oracle f.seed f.message
    f.rendered
    (fun ppf -> function
       | None -> ()
       | Some s -> Fmt.pf ppf "@,shrunk: %s" s)
    f.shrunk

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>%s: %d runs, %d failures%a@]" r.oracle r.runs
    (List.length r.failures)
    (fun ppf fs -> List.iter (fun f -> Fmt.pf ppf "@,%a" pp_failure f) fs)
    r.failures

(* ------------------------------------------------------------------ *)
(* Environment overrides                                               *)
(* ------------------------------------------------------------------ *)

(** [FUZZ_SEED] / [FUZZ_BUDGET] let CI and developers re-seed or
    extend the smoke runs without editing test sources. *)
let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> v
      | None -> default)

let seed_from_env default = env_int "FUZZ_SEED" default

let budget_from_env default = env_int "FUZZ_BUDGET" default
