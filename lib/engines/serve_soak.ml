(** [eval chaos --serve]: a seeded fault soak of the whole service
    plane, one layer up from {!Supervisor.soak}'s in-cell chaos.

    The logic-bomb benchmarking discipline applied to our own fleet:
    seeded, graded adversarial cases checked against a known-good
    baseline.
    + Baseline: every request's cell is run in-process through the
      {e identical} worker codepath ({!Service.worker_run}) with no
      faults, and its outcome journaled in submit order.
    + Attack: the same requests go to a live [eval serve] daemon whose
      IPC layer runs under seeded chaos — corrupted dispatch frames,
      corrupted/dropped/delayed replies, workers wedged past the
      watchdog, client connections reset mid-reply — and which is
      SIGKILLed once mid-stream and warm-restarted from its durable
      queue journal, with every request resubmitted under its original
      idempotency key.
    + Containment: every request must be graded exactly once (exactly
      one journaled outcome per key across the whole queue journal),
      and the merged outcome journal must be byte-identical to the
      fault-free baseline.  A soak where no fault fired is vacuous and
      also fails.

    Exactly-once holds in outcome space because cells are pure
    functions of (tool, bomb, policy) and the soak submits with the
    default unlimited budget — so a re-dispatched attempt's escalated
    budget (a scale of unlimited is unlimited) cannot change the
    grade. *)

type report = {
  sk_requests : int;
  sk_kills : int;  (** daemon SIGKILLs injected (always 1) *)
  sk_answered : int;
  sk_failed : int;  (** error/expired past the client's retry budget *)
  sk_unanswered : int;
  sk_sessions : int;  (** client connections across both phases *)
  sk_faults : (string * int) list;  (** injected-fault counters fired *)
  sk_exactly_once : bool;
  sk_byte_identical : bool;
  sk_baseline : string;
  sk_merged : string;
  sk_wall : float;
}

let ok r =
  r.sk_exactly_once && r.sk_byte_identical && r.sk_failed = 0
  && r.sk_unanswered = 0
  && List.fold_left (fun a (_, n) -> a + n) 0 r.sk_faults > 0

let rm path = try Sys.remove path with Sys_error _ -> ()

(* fault counters out of the daemon's aggregated metrics response:
   everything chaos fired, plus the recovery machinery it exercised *)
let scrape_faults ~socket =
  let open Telemetry.Trace_check in
  match Service.metrics ~socket () with
  | None -> []
  | Some line -> (
      match
        Option.bind
          (Option.bind (parse_opt line) (member "metrics"))
          (member "c")
      with
      | Some (Obj counters) ->
          List.filter_map
            (fun (name, v) ->
               let interesting =
                 String.length name >= 21
                 && String.sub name 0 21 = "robust.fleet_injected"
               in
               match v with
               | Num n when interesting -> Some (name, int_of_float n)
               | _ -> None)
            counters
      | _ -> [])

(* merge scrapes from before the kill and before the drain: the first
   daemon's counters die with it, so both instances contribute *)
let merge_faults a b =
  let keys =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.filter_map
    (fun k ->
       let get l = Option.value ~default:0 (List.assoc_opt k l) in
       let n = get a + get b in
       if n > 0 then Some (k, n) else None)
    keys

let fork_daemon ~socket ~queue_journal ~workers ~seed ~rate () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      (* the daemon's transcript (chaos warnings, recovery lines) goes
         to stderr; the soak's verdict is the parent's alone *)
      match
        (* a short watchdog keeps stall/drop recovery cheap: chaos
           wedges a worker for 2.5x this, the watchdog reclaims it
           after 1x *)
        Service.serve ~workers ~queue_journal ~task_timeout:1.0 ~respawns:6
          ~breaker:8 ~chaos_seed:seed ~chaos_rate:rate ~socket ()
      with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let await_daemon ~socket =
  let rec go tries =
    if tries = 0 then failwith "serve soak: daemon never became ready"
    else
      match Service.ping ~socket () with
      | Some _ -> ()
      | None ->
          ignore (Unix.select [] [] [] 0.05);
          go (tries - 1)
  in
  go 400

(** Run the soak: [plans] requests cycling over [tools]x[bombs], under
    seeded IPC chaos at [rate], with one daemon SIGKILL+warm-restart
    at roughly the half-way point.  Artifacts (baseline, queue and
    merged journals, socket) live under the [prefix] path stem. *)
let run ?(prefix = "serve_soak") ?(plans = 30) ?(seed = 0xC0FFEEL)
    ?(rate = 0.05) ?(workers = 2)
    ?(tools = Supervisor.default_soak_tools)
    ?(bombs = Supervisor.default_soak_bombs) () : report =
  let t0 = Unix.gettimeofday () in
  let socket = prefix ^ ".sock" in
  let queue_journal = prefix ^ "_queue.jsonl" in
  let baseline_path = prefix ^ "_baseline.jsonl" in
  let merged_path = prefix ^ "_merged.jsonl" in
  List.iter rm [ socket; queue_journal; baseline_path; merged_path ];
  let fp = Service.queue_fingerprint () in
  let pairs =
    List.concat_map (fun t -> List.map (fun b -> (t, b)) bombs) tools
  in
  let npairs = List.length pairs in
  if npairs = 0 then invalid_arg "serve soak: empty tool/bomb grid";
  let requests =
    List.init plans (fun i ->
        let tool, bomb = List.nth pairs (i mod npairs) in
        let id = Printf.sprintf "c%03d/%s/%s" i (Profile.name tool) bomb in
        (id, Service.encode_request ~id ~tool ~bomb ()))
  in
  (* fault-free baseline through the identical worker codepath; cells
     are deterministic, so each distinct (tool, bomb) runs once *)
  let cell_cache = Hashtbl.create 8 in
  let bw = Robust.Journal.open_writer ~fingerprint:fp baseline_path in
  List.iter
    (fun (id, line) ->
       let outcome =
         match Hashtbl.find_opt cell_cache line with
         | Some o -> o
         | None ->
             let resp = Service.worker_run ~attempt:1 ~key:id line in
             let o =
               match Service.outcome_raw_of_response resp with
               | Some o -> o
               | None ->
                   failwith ("serve soak: baseline cell failed: " ^ resp)
             in
             Hashtbl.replace cell_cache line o;
             o
       in
       Robust.Journal.append bw ~key:id ~payload:outcome)
    requests;
  Robust.Journal.close_writer bw;
  (* phase A: live daemon under chaos, submit until the kill point *)
  let pid = fork_daemon ~socket ~queue_journal ~workers ~seed ~rate () in
  await_daemon ~socket;
  let kill_at = max 1 (plans / 2) in
  let finals = ref 0 in
  let count_finals line =
    if Service.status_of_line line = Some "done" then incr finals
  in
  let a =
    Service.submit_resilient ~socket ~sessions:4 ~on_line:count_finals
      ~should_abort:(fun () -> !finals >= kill_at)
      requests
  in
  let faults_a = try scrape_faults ~socket with _ -> [] in
  (* mid-stream daemon crash: SIGKILL, no goodbye — the queue journal
     is all that survives *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  rm socket (* the crashed daemon left a stale socket behind *)
  ;
  (* phase B: warm restart off the journal, resubmit everything under
     the original idempotency keys *)
  let pid2 = fork_daemon ~socket ~queue_journal ~workers ~seed ~rate () in
  await_daemon ~socket;
  let b =
    Service.submit_resilient ~socket ~sessions:10 ~retry_failures:6 requests
  in
  let faults_b = try scrape_faults ~socket with _ -> [] in
  (try Service.drain ~socket () with _ -> ());
  ignore (Unix.waitpid [] pid2);
  (* containment audit over the full (non-deduped) journal history *)
  let l = Robust.Journal.load ~dedup:false ~fingerprint:fp queue_journal in
  let dones = Hashtbl.create 64 in
  List.iter
    (fun (e : Robust.Journal.entry) ->
       let field name =
         match Telemetry.Trace_check.member name e.cell with
         | Some (Telemetry.Trace_check.Str s) -> Some s
         | _ -> None
       in
       match (field "phase", field "resp") with
       | Some "done", Some resp ->
           Hashtbl.replace dones e.key (resp :: Option.value ~default:[]
                                          (Hashtbl.find_opt dones e.key))
       | _ -> ())
    l.entries;
  let exactly_once =
    List.for_all
      (fun (id, _) ->
         match Hashtbl.find_opt dones id with
         | Some [ _ ] -> true
         | _ -> false)
      requests
  in
  (* merged journal: each key's journaled outcome, in submit order *)
  let mw = Robust.Journal.open_writer ~fingerprint:fp merged_path in
  List.iter
    (fun (id, _) ->
       match Hashtbl.find_opt dones id with
       | Some (resp :: _) -> (
           match Service.outcome_raw_of_response resp with
           | Some o -> Robust.Journal.append mw ~key:id ~payload:o
           | None -> ())
       | _ -> ())
    requests;
  Robust.Journal.close_writer mw;
  let byte_identical =
    String.equal (Robust.Diskio.read_all baseline_path)
      (Robust.Diskio.read_all merged_path)
  in
  { sk_requests = plans;
    sk_kills = 1;
    (* phase B resubmits every request, so its answers cover phase
       A's: counting both would double-count the pre-kill finals *)
    sk_answered = b.Service.sr_answered;
    sk_failed = b.Service.sr_failed;
    sk_unanswered = b.Service.sr_unanswered;
    sk_sessions = a.Service.sr_sessions + b.Service.sr_sessions;
    (* the SIGKILL is itself an injected fault — the headline one —
       so a soak that killed the daemon is never vacuous even when
       the seeded IPC streams happened not to fire *)
    sk_faults =
      ("daemon_sigkill", 1) :: merge_faults faults_a faults_b;
    sk_exactly_once = exactly_once;
    sk_byte_identical = byte_identical;
    sk_baseline = baseline_path;
    sk_merged = merged_path;
    sk_wall = Unix.gettimeofday () -. t0 }

let render (r : report) : string =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "serve chaos soak: %d request(s), %d daemon kill(s), %.1fs"
    r.sk_requests r.sk_kills r.sk_wall;
  line "  client: %d answered, %d failed, %d unanswered, %d session(s)"
    r.sk_answered r.sk_failed r.sk_unanswered r.sk_sessions;
  if r.sk_faults = [] then line "  faults injected: none (vacuous soak)"
  else
    List.iter
      (fun (name, n) -> line "  faults injected: %s = %d" name n)
      r.sk_faults;
  line "  exactly-once grading: %s"
    (if r.sk_exactly_once then "OK" else "VIOLATED");
  line "  merged journal vs fault-free baseline: %s"
    (if r.sk_byte_identical then "byte-identical"
     else Printf.sprintf "DIVERGED (%s vs %s)" r.sk_merged r.sk_baseline);
  line "  verdict: %s" (if ok r then "CONTAINED" else "FAILED");
  Buffer.contents buf
