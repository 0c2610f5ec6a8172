(** Fleet battery: pool scheduling (work-stealing, latency stamps,
    runner exceptions), fault injection (worker killed mid-cell →
    re-dispatch with identical grading, watchdog on a stuck worker,
    cooperative cancellation), the journal's grid-order rewrite
    (canonical byte-identity), fleet-vs-sequential Table II
    determinism across 1/2/4 workers (table and journal both
    byte-identical, replayable by the sequential resume path), a
    killed fleet run resumed sequentially, and the [eval serve] daemon
    over a temp socket: round trip, durable queue and load shedding. *)

open Concolic.Error

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let counter = Telemetry.Metrics.counter_value

(* ---------------- the pool ---------------- *)

let echo_config workers =
  { Fleet.Pool.default_config with workers }

let pool_echo_many () =
  let t =
    Fleet.Pool.create ~config:(echo_config 4) (fun ~attempt:_ ~key ->
        fun task -> key ^ "=" ^ task)
  in
  let n = 200 in
  for i = 0 to n - 1 do
    Fleet.Pool.submit t ~key:(Printf.sprintf "k%d" i)
      ~task:(Printf.sprintf "t%d" i) ()
  done;
  Alcotest.(check int) "all queued or running" n (Fleet.Pool.pending t);
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check int) "every task answered" n (List.length results);
  Alcotest.(check int) "queue empty" 0 (Fleet.Pool.pending t);
  List.iter
    (fun (r : Fleet.Pool.result) ->
       (match r.r_payload with
        | Ok p ->
            let i = String.sub r.r_key 1 (String.length r.r_key - 1) in
            Alcotest.(check string) "payload routed to its key"
              (Printf.sprintf "k%s=t%s" i i) p
        | Error f -> Alcotest.failf "task %s failed: %s" r.r_key
                       (Fleet.Pool.failure_to_string f));
       Alcotest.(check bool) "latency stamps ordered" true
         (r.r_done >= r.r_submitted))
    results

let pool_runner_raise_contained () =
  let t =
    Fleet.Pool.create ~config:(echo_config 2) (fun ~attempt:_ ~key ->
        fun task -> if key = "bad" then failwith "boom" else task)
  in
  Fleet.Pool.submit t ~key:"a" ~task:"1" ();
  Fleet.Pool.submit t ~key:"bad" ~task:"2" ();
  Fleet.Pool.submit t ~key:"b" ~task:"3" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  let find k =
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = k) results)
      .r_payload
  in
  Alcotest.(check bool) "a fine" true (find "a" = Ok "1");
  Alcotest.(check bool) "b fine: the worker survived the raise" true
    (find "b" = Ok "3");
  match find "bad" with
  | Error (Fleet.Pool.Run_raised msg) ->
      Alcotest.(check bool) "exception text surfaced" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "raising runner must report Run_raised"

(* kill a worker mid-cell: the pool reaps it, respawns the slot and
   re-dispatches the cell, whose second attempt grades identically to a
   run that never died *)
let pool_worker_kill_redispatch () =
  let bomb = Bombs.Catalog.find "time_bomb" in
  let clean =
    Engines.Journal_codec.encode_outcome
      (Engines.Supervisor.run_cell Engines.Profile.Bap bomb)
  in
  let redisp0 = counter "fleet.redispatched" in
  let respawn0 = counter "fleet.respawns" in
  let t =
    Fleet.Pool.create ~config:(echo_config 2) (fun ~attempt ~key ->
        fun _task ->
          if key = "die-once" && attempt = 1 then Unix._exit 9
          else
            Engines.Journal_codec.encode_outcome
              (Engines.Supervisor.run_cell Engines.Profile.Bap bomb))
  in
  Fleet.Pool.submit t ~key:"die-once" ~task:"x" ();
  Fleet.Pool.submit t ~key:"plain" ~task:"y" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check bool) "cell re-dispatched" true
    (counter "fleet.redispatched" > redisp0);
  Alcotest.(check bool) "dead slot respawned" true
    (counter "fleet.respawns" > respawn0);
  List.iter
    (fun (r : Fleet.Pool.result) ->
       match r.r_payload with
       | Ok payload ->
           Alcotest.(check string)
             (r.r_key ^ " grades identically to an undisturbed run") clean
             payload
       | Error f ->
           Alcotest.failf "%s must recover, got %s" r.r_key
             (Fleet.Pool.failure_to_string f))
    results

let pool_worker_lost_after_respawns () =
  let t =
    Fleet.Pool.create ~config:(echo_config 2) (fun ~attempt:_ ~key ->
        fun task -> if key = "always-dies" then Unix._exit 9 else task)
  in
  Fleet.Pool.submit t ~key:"always-dies" ~task:"x" ();
  Fleet.Pool.submit t ~key:"ok" ~task:"y" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  let find k =
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = k) results)
      .r_payload
  in
  (match find "always-dies" with
   | Error (Fleet.Pool.Worker_lost n) ->
       (* default config: 1 respawn, so the task burns 2 attempts *)
       Alcotest.(check int) "attempt count reported" 2 n
   | _ -> Alcotest.fail "a task that always kills its worker must fail");
  Alcotest.(check bool) "the healthy task still completes" true
    (find "ok" = Ok "y")

let pool_watchdog_kills_stuck () =
  let kills0 = counter "fleet.watchdog_kills" in
  let t =
    Fleet.Pool.create
      ~config:
        { Fleet.Pool.default_config with
          workers = 2; respawns = 0; task_timeout = Some 0.3 }
      (fun ~attempt:_ ~key ->
        fun task ->
          if key = "stuck" then (Unix.sleep 600; task) else task)
  in
  Fleet.Pool.submit t ~key:"stuck" ~task:"x" ();
  Fleet.Pool.submit t ~key:"quick" ~task:"y" ();
  let t0 = Unix.gettimeofday () in
  let results = Fleet.Pool.drain t in
  let elapsed = Unix.gettimeofday () -. t0 in
  Fleet.Pool.shutdown t;
  Alcotest.(check bool) "watchdog fired" true
    (counter "fleet.watchdog_kills" > kills0);
  Alcotest.(check bool) "drain bounded by the watchdog, not the task" true
    (elapsed < 60.);
  let find k =
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = k) results)
      .r_payload
  in
  (match find "stuck" with
   | Error (Fleet.Pool.Worker_lost _) -> ()
   | _ -> Alcotest.fail "stuck task must be failed after the kill");
  Alcotest.(check bool) "quick task unaffected" true (find "quick" = Ok "y")

let pool_cancel_fails_queued () =
  let t =
    Fleet.Pool.create ~config:(echo_config 1) (fun ~attempt:_ ~key:_ ->
        fun task -> ignore (Unix.select [] [] [] 0.2); task)
  in
  for i = 0 to 4 do
    Fleet.Pool.submit t ~key:(Printf.sprintf "c%d" i) ~task:"t" ()
  done;
  (* dispatch exactly one task, then cancel the rest cooperatively *)
  ignore (Fleet.Pool.poll ~timeout:0. t);
  Fleet.Pool.cancel t;
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check int) "every task settled" 5 (List.length results);
  let ok, cancelled =
    List.partition
      (fun (r : Fleet.Pool.result) -> r.r_payload = Ok "t")
      results
  in
  Alcotest.(check int) "the in-flight task finished" 1 (List.length ok);
  List.iter
    (fun (r : Fleet.Pool.result) ->
       Alcotest.(check bool) (r.r_key ^ " cancelled") true
         (r.r_payload = Error Fleet.Pool.Cancelled))
    cancelled

(* ---------------- the grid-order rewrite ---------------- *)

let rewrite_canonical_bytes () =
  let fp = Robust.Journal.fingerprint [ "rewrite"; "unit" ] in
  let tmp suffix = Filename.temp_file "journal_rewrite" suffix in
  let path = tmp ".jsonl" and expect = tmp ".expect" in
  let write ?(fingerprint = fp) path records =
    let w = Robust.Journal.open_writer ~fingerprint path in
    List.iter (fun (key, payload) -> Robust.Journal.append w ~key ~payload)
      records;
    Robust.Journal.close_writer w
  in
  Sys.remove path;
  (* an appended history: out of grid order, [b] re-run, an off-grid
     key, a record of another run and a torn tail *)
  write path
    [ ("c", "{\"n\":2}"); ("b", "{\"n\":1}"); ("z", "{\"n\":0}");
      ("a", "{\"n\":1}"); ("b", "{\"n\":2}") ];
  write ~fingerprint:"other" path [ ("a", "{\"n\":9}") ];
  let w = Robust.Journal.open_writer ~fingerprint:fp path in
  Robust.Journal.append_torn w ~key:"a";
  Robust.Journal.close_writer w;
  Robust.Journal.rewrite ~fingerprint:fp ~order:[ "a"; "b"; "c" ] path;
  (* the last [b] wins; the file is byte-identical to a journal
     written fresh, in order, with the winning payloads *)
  Sys.remove expect;
  write expect
    [ ("a", "{\"n\":1}"); ("b", "{\"n\":2}"); ("c", "{\"n\":2}") ];
  Alcotest.(check string) "byte-identical to a fresh sequential journal"
    (read_file expect) (read_file path);
  Alcotest.(check bool) "published by rename: no tmp left" false
    (Sys.file_exists (path ^ ".tmp"));
  List.iter Sys.remove [ path; expect ]

(* ---------------- fleet = sequential ---------------- *)

let det_tools = [ Engines.Profile.Bap; Engines.Profile.Triton ]

let det_bombs () =
  List.map Bombs.Catalog.find [ "time_bomb"; "argvlen_bomb"; "stack_bomb" ]

let journal_at path =
  { Engines.Eval.journal_path = path; kill_after = None; kill_torn = false }

let symbols (r : Engines.Eval.table2_result) =
  List.map
    (fun (c : Engines.Eval.cell_result) -> cell_symbol c.measured)
    r.cells

let fleet_matches_sequential () =
  let seq =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ()) ()
  in
  List.iter
    (fun workers ->
       let fleet =
         Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
           ~workers ()
       in
       Alcotest.(check string)
         (Printf.sprintf "%d-worker table renders byte-identical" workers)
         (Engines.Eval.render_table2 seq)
         (Engines.Eval.render_table2 fleet))
    [ 1; 2; 4 ]

let fleet_journal_byte_identical () =
  let seq_path = Filename.temp_file "fleet_seq" ".jsonl" in
  let par_path = Filename.temp_file "fleet_par" ".jsonl" in
  Sys.remove seq_path;
  Sys.remove par_path;
  let seq =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:(journal_at seq_path) ()
  in
  let fleet =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:(journal_at par_path) ~workers:4 ()
  in
  Alcotest.(check (list string)) "same grade grid" (symbols seq)
    (symbols fleet);
  Alcotest.(check string)
    "4-worker journal byte-identical to the sequential journal"
    (read_file seq_path) (read_file par_path);
  (* the master is the one journal writer: no per-worker file beside
     the journal, and nothing deletes one, so none ever existed *)
  let shard_prefix = Filename.basename par_path ^ ".w" in
  Alcotest.(check (list string)) "no PATH.w* file" []
    (List.filter
       (String.starts_with ~prefix:shard_prefix)
       (Array.to_list (Sys.readdir (Filename.dirname par_path))));
  (* and the fleet's journal replays under the sequential resume path
     exactly like a sequentially written one *)
  let replayed0 = counter "journal.replayed" in
  let resumed =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:(journal_at par_path) ()
  in
  Alcotest.(check (list string)) "resumed table matches" (symbols seq)
    (symbols resumed);
  Alcotest.(check int) "every cell answered from the fleet's journal"
    (replayed0 + 6)
    (counter "journal.replayed");
  Sys.remove seq_path;
  Sys.remove par_path

(* a fleet run killed mid-grid: the master journals each reply, so the
   crash simulation works on the pool too and leaves exactly [k] sound
   records and a torn tail, which a sequential resume completes *)
let killed_fleet_run_resumes () =
  let path = Filename.temp_file "fleet_kill" ".jsonl" in
  Sys.remove path;
  let fp =
    Engines.Eval.journal_fingerprint ~tools:det_tools ~bombs:(det_bombs ())
      ()
  in
  (match
     Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
       ~journal:{ (journal_at path) with kill_after = Some 2; kill_torn = true }
       ~workers:2 ()
   with
   | exception Engines.Eval.Simulated_crash -> ()
   | _ -> Alcotest.fail "kill_after must abort the fleet run");
  let l = Robust.Journal.load ~fingerprint:fp path in
  Alcotest.(check int) "exactly k sound records" 2 l.valid;
  Alcotest.(check int) "plus a torn tail" 1 l.truncated;
  Alcotest.(check int) "and nothing else" 0 (l.corrupt + l.stale);
  let seq =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ()) ()
  in
  let resumed =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:(journal_at path) ()
  in
  Alcotest.(check string) "sequential resume = sequential table"
    (Engines.Eval.render_table2 seq)
    (Engines.Eval.render_table2 resumed);
  Sys.remove path

(* ---------------- the serve daemon ---------------- *)

let temp_socket () =
  let p = Filename.temp_file "fleet_srv" ".sock" in
  Sys.remove p;
  p

(* wait up to 20 s for a freshly forked daemon to answer a ping *)
let await_daemon socket =
  let rec go tries =
    if tries = 0 then Alcotest.fail "daemon never answered a ping"
    else
      match Engines.Service.ping ~socket () with
      | Some _ -> ()
      | None ->
          ignore (Unix.select [] [] [] 0.05);
          go (tries - 1)
  in
  go 400

let stale_socket_detected () =
  let path = temp_socket () in
  (* a plain file where the socket should be: stale, not EADDRINUSE *)
  let oc = open_out path in
  close_out oc;
  (match Fleet.Serve.check_socket path with
   | exception Fleet.Serve.Stale_socket p ->
       Alcotest.(check string) "names the path" path p
   | _ -> Alcotest.fail "existing dead socket file must raise Stale_socket");
  Sys.remove path;
  (* a live listener: refused as in-use *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  (match Fleet.Serve.check_socket path with
   | exception Fleet.Serve.Socket_in_use p ->
       Alcotest.(check string) "names the path" path p
   | _ -> Alcotest.fail "live socket must raise Socket_in_use");
  Unix.close fd;
  Sys.remove path;
  (* absent path: nothing to refuse *)
  Fleet.Serve.check_socket path

let serve_round_trip () =
  let socket = temp_socket () in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          Engines.Service.serve ~workers:2 ~socket ();
          Unix._exit 0
        with _ -> Unix._exit 1)
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists socket then Sys.remove socket)
  @@ fun () ->
  await_daemon socket;
  let cells =
    [ (Engines.Profile.Bap, "time_bomb");
      (Engines.Profile.Triton, "stack_bomb");
      (Engines.Profile.Bap, "argvlen_bomb") ]
  in
  let requests =
    List.map
      (fun (tool, bomb) ->
         Engines.Service.encode_request
           ~id:(Engines.Profile.name tool ^ "/" ^ bomb)
           ~tool ~bomb ())
      cells
  in
  let lines = ref [] in
  let failures =
    Engines.Service.submit ~socket
      ~on_line:(fun l -> lines := l :: !lines)
      requests
  in
  Alcotest.(check int) "no request failed" 0 failures;
  let lines = List.rev !lines in
  let queued, finals =
    List.partition
      (fun l -> Engines.Service.status_of_line l = Some "queued")
      lines
  in
  Alcotest.(check int) "every request acked as queued" 3
    (List.length queued);
  Alcotest.(check int) "every request answered" 3 (List.length finals);
  (* each streamed outcome must match a direct supervised run *)
  let open Telemetry.Trace_check in
  List.iter
    (fun (tool, bomb_name) ->
       let id = Engines.Profile.name tool ^ "/" ^ bomb_name in
       let line =
         List.find
           (fun l ->
              match Option.bind (parse_opt l) (member "id") with
              | Some (Str s) -> s = id
              | _ -> false)
           finals
       in
       let j = Option.get (parse_opt line) in
       let direct =
         Engines.Supervisor.run_cell tool (Bombs.Catalog.find bomb_name)
       in
       (match Option.bind (member "outcome" j)
                Engines.Journal_codec.decode_outcome
        with
        | Some streamed ->
            Alcotest.(check bool)
              (id ^ ": streamed outcome = direct supervised run") true
              (streamed = direct)
        | None -> Alcotest.failf "%s: outcome does not decode: %s" id line);
       match member "key" j with
       | Some (Str k) -> Alcotest.(check string) "key attribution" id k
       | _ -> Alcotest.failf "%s: response has no key" id)
    cells;
  (* drain: the daemon finishes, removes its socket and exits 0 *)
  let drain_lines = ref [] in
  Engines.Service.drain ~socket
    ~on_line:(fun l -> drain_lines := l :: !drain_lines)
    ();
  Alcotest.(check bool) "drain acknowledged" true
    (List.exists
       (fun l -> Engines.Service.status_of_line l = Some "drained")
       !drain_lines);
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _, st ->
       Alcotest.failf "daemon exit: %s"
         (match st with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
          | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n));
  Alcotest.(check bool) "socket removed on shutdown" false
    (Sys.file_exists socket)

(* ---------------- IPC chaos (deterministic arms) ---------------- *)

(* one-shot armed fault at hit #1 of [point]; the pool must absorb it
   and still grade the task correctly *)
let chaos_pool ?(workers = 1) ?(respawns = 2) ?task_timeout arms runner =
  Fleet.Pool.create
    ~config:
      { Fleet.Pool.default_config with
        workers; respawns; task_timeout;
        chaos =
          Some
            (Robust.Chaos.io_state Robust.Chaos.fleet_class ~seed:7L
               (Robust.Chaos.Arms arms)) }
    runner

let one_ok results =
  match results with
  | [ ({ r_payload = Ok p; _ } : Fleet.Pool.result) ] -> p
  | [ { r_payload = Error f; _ } ] ->
      Alcotest.failf "task must survive the fault, got %s"
        (Fleet.Pool.failure_to_string f)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

let chaos_corrupt_reply_recovers () =
  let bad0 = counter "fleet.frames_corrupt" in
  let t =
    chaos_pool [ (Robust.Chaos.Corrupt_reply, 1) ]
      (fun ~attempt:_ ~key:_ -> fun task -> task ^ "!")
  in
  Fleet.Pool.submit t ~key:"k" ~task:"v" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check string) "re-dispatch grades the same" "v!"
    (one_ok results);
  Alcotest.(check bool) "corrupt frame detected and counted" true
    (counter "fleet.frames_corrupt" > bad0)

(* a reply lost to a fault takes its registry delta with it: the task
   is re-run, and its work is counted once, when a reply is accepted *)
let chaos_lost_reply_counts_once () =
  let c = "test.fleet.counted_once" in
  List.iter
    (fun (name, point, task_timeout) ->
       let before = counter c in
       let t =
         chaos_pool ?task_timeout [ (point, 1) ] (fun ~attempt:_ ~key:_ ->
             fun task ->
               Telemetry.Metrics.incr (Telemetry.Metrics.counter c);
               task)
       in
       Fleet.Pool.submit t ~key:"k" ~task:"v" ();
       let results = Fleet.Pool.drain t in
       Fleet.Pool.shutdown t;
       Alcotest.(check string) (name ^ ": task answers") "v" (one_ok results);
       Alcotest.(check int) (name ^ ": counted once") 1 (counter c - before))
    [ ("corrupt reply", Robust.Chaos.Corrupt_reply, None);
      ("dropped reply", Robust.Chaos.Drop_reply, Some 0.3) ]

let chaos_corrupt_dispatch_nacked () =
  let nack0 = counter "fleet.frames_nacked" in
  let kill0 = counter "fleet.worker_deaths" in
  let t =
    chaos_pool [ (Robust.Chaos.Corrupt_dispatch, 1) ]
      (fun ~attempt ~key:_ ->
        fun task -> Printf.sprintf "%s@%d" task attempt)
  in
  Fleet.Pool.submit t ~key:"k" ~task:"v" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  (* the worker detects the damaged frame, nacks, and the re-send does
     not charge an attempt — the run still sees attempt 1 *)
  Alcotest.(check string) "re-sent frame runs as attempt 1" "v@1"
    (one_ok results);
  Alcotest.(check bool) "nack counted" true
    (counter "fleet.frames_nacked" > nack0);
  Alcotest.(check int) "no worker died for a bad dispatch frame" kill0
    (counter "fleet.worker_deaths")

let chaos_drop_reply_watchdog_recovers () =
  let t =
    chaos_pool ~task_timeout:0.3
      [ (Robust.Chaos.Drop_reply, 1) ]
      (fun ~attempt ~key:_ ->
        fun task -> Printf.sprintf "%s@%d" task attempt)
  in
  Fleet.Pool.submit t ~key:"k" ~task:"v" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  (* the dropped reply looks like a hang; the watchdog reclaims the
     slot and the re-dispatch (attempt 2) answers *)
  Alcotest.(check string) "watchdog re-dispatch answers" "v@2"
    (one_ok results)

let chaos_worker_stall_watchdog_recovers () =
  let kills0 = counter "fleet.watchdog_kills" in
  let t =
    chaos_pool ~task_timeout:0.3
      [ (Robust.Chaos.Worker_stall, 1) ]
      (fun ~attempt ~key:_ ->
        fun task -> Printf.sprintf "%s@%d" task attempt)
  in
  Fleet.Pool.submit t ~key:"k" ~task:"v" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check string) "stalled worker killed, re-dispatch answers"
    "v@2" (one_ok results);
  Alcotest.(check bool) "watchdog fired on the stall" true
    (counter "fleet.watchdog_kills" > kills0)

(* ---------------- circuit breaker / deadlines ---------------- *)

let breaker_quarantines_dying_slots () =
  let t =
    Fleet.Pool.create
      ~config:
        { Fleet.Pool.default_config with
          workers = 2; respawns = 10; breaker = Some 2 }
      (fun ~attempt:_ ~key:_ -> fun _task -> Unix._exit 9)
  in
  for i = 0 to 5 do
    Fleet.Pool.submit t ~key:(Printf.sprintf "d%d" i) ~task:"x" ()
  done;
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check int) "every task settled" 6 (List.length results);
  (* two consecutive deaths trip the breaker before the 10-respawn
     budget is anywhere near spent; once every slot is quarantined the
     rest of the queue fails fast instead of deadlocking *)
  Alcotest.(check int) "both slots quarantined" 2
    (Fleet.Pool.quarantined_workers t);
  List.iter
    (fun (r : Fleet.Pool.result) ->
       match r.r_payload with
       | Error (Fleet.Pool.Worker_lost _ | Fleet.Pool.Quarantined) -> ()
       | Error f ->
           Alcotest.failf "%s: unexpected failure %s" r.r_key
             (Fleet.Pool.failure_to_string f)
       | Ok _ -> Alcotest.failf "%s cannot succeed" r.r_key)
    results

let deadline_expires_in_queue () =
  let exp0 = counter "fleet.tasks_expired" in
  let t =
    Fleet.Pool.create ~config:(echo_config 1) (fun ~attempt:_ ~key:_ ->
        fun task -> ignore (Unix.select [] [] [] 0.3); task)
  in
  Fleet.Pool.submit t ~key:"head" ~task:"a" ();
  Fleet.Pool.submit t
    ~deadline:(Unix.gettimeofday () +. 0.05)
    ~key:"late" ~task:"b" ();
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  let find k =
    (List.find (fun (r : Fleet.Pool.result) -> r.r_key = k) results)
      .r_payload
  in
  Alcotest.(check bool) "head task unaffected" true (find "head" = Ok "a");
  (match find "late" with
   | Error Fleet.Pool.Expired -> ()
   | Error f ->
       Alcotest.failf "late: expected Expired, got %s"
         (Fleet.Pool.failure_to_string f)
   | Ok _ -> Alcotest.fail "a queue-expired task cannot run");
  Alcotest.(check bool) "expiry counted" true
    (counter "fleet.tasks_expired" > exp0)

(* ---------------- journal fingerprint peek ---------------- *)

let journal_peek_fingerprint () =
  let fp = Robust.Journal.fingerprint [ "peek"; "test" ] in
  let path = Filename.temp_file "fleet_peek" ".jsonl" in
  Sys.remove path;
  Alcotest.(check (option string)) "missing file peeks None" None
    (Robust.Journal.peek_fingerprint path);
  let w = Robust.Journal.open_writer ~fingerprint:fp path in
  Robust.Journal.append w ~key:"k" ~payload:"{\"n\":1}";
  Robust.Journal.close_writer w;
  Alcotest.(check (option string)) "stamped fingerprint surfaces"
    (Some fp)
    (Robust.Journal.peek_fingerprint path);
  let oc = open_out path in
  output_string oc "not a journal line\n";
  close_out oc;
  Alcotest.(check (option string)) "garbage peeks None" None
    (Robust.Journal.peek_fingerprint path);
  Sys.remove path

(* ---------------- durable serve queue ---------------- *)

let serve_queue_mismatch_refused () =
  let socket = temp_socket () in
  let path = Filename.temp_file "fleet_queue" ".jsonl" in
  Sys.remove path;
  let w = Robust.Journal.open_writer ~fingerprint:"other-config" path in
  Robust.Journal.append w ~key:"k"
    ~payload:"{\"phase\":\"acc\",\"req\":\"{}\"}";
  Robust.Journal.close_writer w;
  let cfg which force =
    { (Fleet.Serve.default_config ~socket) with
      queue_journal = Some path; run_fingerprint = which; force }
  in
  (match Fleet.Serve.load_queue_journal (cfg "this-config" false) with
   | exception Fleet.Serve.Journal_mismatch { path = p; found; expected } ->
       Alcotest.(check string) "names the journal" path p;
       Alcotest.(check string) "found fingerprint" "other-config" found;
       Alcotest.(check string) "expected fingerprint" "this-config" expected
   | _ ->
       Alcotest.fail
         "a queue journal from another configuration must be refused");
  (* --force reopens it; the incompatible records are just skipped *)
  (match Fleet.Serve.load_queue_journal (cfg "this-config" true) with
   | Some w, dones, accs ->
       Robust.Journal.close_writer w;
       Alcotest.(check int) "no done replays cross the fingerprint" 0
         (List.length dones);
       Alcotest.(check int) "no accepted requests either" 0
         (List.length accs)
   | None, _, _ -> Alcotest.fail "--force must still open the journal");
  Sys.remove path

(* overload: one worker held busy by a slow runner and a queue capped at
   2, so a burst of submits overflows it.  The overflow must be shed
   with a "queue full" rejection and a retry hint, and counted in both
   the [stats] and the [metrics] reply *)
let serve_sheds_when_queue_full () =
  let socket = temp_socket () in
  let max_queue = 2 and offered = 6 in
  let shed0 = counter "serve.shed" in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          let pool =
            Fleet.Pool.create
              ~config:{ Fleet.Pool.default_config with workers = 1 }
              (fun ~attempt:_ ~key:_ _ ->
                 (* the client only counts final statuses *)
                 Unix.sleepf 0.5;
                 "{\"status\":\"done\"}")
          in
          Fleet.Serve.run
            { (Fleet.Serve.default_config ~socket) with max_queue }
            ~pool;
          Unix._exit 0
        with _ -> Unix._exit 1)
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists socket then Sys.remove socket)
  @@ fun () ->
  await_daemon socket;
  let lines = ref [] in
  let failures =
    Engines.Service.submit ~socket
      ~on_line:(fun l -> lines := l :: !lines)
      (List.init offered (fun i ->
           Printf.sprintf "{\"op\":\"submit\",\"id\":\"shed%d\"}" i))
  in
  let open Telemetry.Trace_check in
  let rejected =
    List.filter_map
      (fun l ->
         if Engines.Service.status_of_line l = Some "rejected" then parse_opt l
         else None)
      !lines
  in
  let shed = List.length rejected in
  (* at most one task runs and [max_queue] wait while the runner sleeps *)
  Alcotest.(check bool) "the burst overflows the queue" true
    (shed >= offered - (max_queue + 1));
  Alcotest.(check int) "only shed requests fail" shed failures;
  List.iter
    (fun j ->
       Alcotest.(check (option string)) "queue-full error"
         (Some (Printf.sprintf "queue full (max %d)" max_queue))
         (match member "error" j with Some (Str s) -> Some s | _ -> None);
       match member "retry_after_s" j with
       | Some (Num s) ->
           Alcotest.(check bool) "retry hint of at least 1 s" true (s >= 1.)
       | _ -> Alcotest.fail "a shed reply must carry retry_after_s")
    rejected;
  let num path j =
    match List.fold_left (fun j k -> Option.bind j (member k)) j path with
    | Some (Num n) -> int_of_float n
    | _ -> Alcotest.failf "reply lacks %s" (String.concat "." path)
  in
  Alcotest.(check int) "stats counts the shed requests" shed
    (num [ "shed" ]
       (Option.bind
          (Engines.Service.request ~socket "{\"op\":\"stats\"}")
          parse_opt));
  Alcotest.(check int) "metrics serve.shed went up by the shed requests"
    (shed0 + shed)
    (num [ "metrics"; "c"; "serve.shed" ]
       (Option.bind (Engines.Service.metrics ~socket ()) parse_opt));
  Engines.Service.drain ~socket ();
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "daemon did not exit cleanly after the drain"

(* kill the daemon after one graded request, warm-restart it from the
   queue journal, resubmit under the same idempotency key: the client
   gets the journaled response byte-for-byte and the journal holds
   exactly one grading for the key *)
let serve_durable_exactly_once () =
  let socket = temp_socket () in
  let queue = Filename.temp_file "fleet_queue" ".jsonl" in
  Sys.remove queue;
  let fork_daemon () =
    match Unix.fork () with
    | 0 -> (
        try
          Engines.Service.serve ~workers:1 ~queue_journal:queue ~socket ();
          Unix._exit 0
        with _ -> Unix._exit 1)
    | pid -> pid
  in
  let request =
    Engines.Service.encode_request ~id:"once/Bap/time_bomb"
      ~tool:Engines.Profile.Bap ~bomb:"time_bomb" ()
  in
  let submit_one () =
    let final = ref None in
    let r =
      Engines.Service.submit_resilient ~socket ~sessions:4
        ~on_line:(fun l ->
          if Engines.Service.status_of_line l = Some "done" then
            final := Some l)
        [ ("once/Bap/time_bomb", request) ]
    in
    Alcotest.(check int) "request answered" 1 r.Engines.Service.sr_answered;
    match !final with
    | Some l -> l
    | None -> Alcotest.fail "no done line streamed"
  in
  let pid = fork_daemon () in
  let cleanup = ref (fun () -> ()) in
  (cleanup :=
     fun () ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()));
  Fun.protect
    ~finally:(fun () ->
      !cleanup ();
      if Sys.file_exists socket then Sys.remove socket;
      if Sys.file_exists queue then Sys.remove queue)
  @@ fun () ->
  await_daemon socket;
  let resp1 = submit_one () in
  (* SIGKILL: no drain, no cleanup — the journal is all that survives *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Sys.remove socket;
  let pid2 = fork_daemon () in
  (cleanup :=
     fun () ->
       (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
       (try ignore (Unix.waitpid [] pid2) with Unix.Unix_error _ -> ()));
  await_daemon socket;
  let resp2 = submit_one () in
  Alcotest.(check string)
    "resubmission answered verbatim from the journal, not re-graded"
    resp1 resp2;
  Engines.Service.drain ~socket ();
  ignore (Unix.waitpid [] pid2);
  (cleanup := fun () -> ());
  let l =
    Robust.Journal.load ~dedup:false
      ~fingerprint:(Engines.Service.queue_fingerprint ())
      queue
  in
  let dones =
    List.filter
      (fun (e : Robust.Journal.entry) ->
         match Telemetry.Trace_check.member "phase" e.cell with
         | Some (Telemetry.Trace_check.Str "done") -> true
         | _ -> false)
      l.entries
  in
  Alcotest.(check int) "exactly one grading journaled across the crash" 1
    (List.length dones)

let () =
  Alcotest.run "fleet"
    [ ("pool",
       [ Alcotest.test_case "echo x200 across 4 workers" `Quick
           pool_echo_many;
         Alcotest.test_case "runner raise contained" `Quick
           pool_runner_raise_contained;
         Alcotest.test_case "killed worker -> re-dispatch, same grade"
           `Quick pool_worker_kill_redispatch;
         Alcotest.test_case "respawn budget exhausts -> Worker_lost" `Quick
           pool_worker_lost_after_respawns;
         Alcotest.test_case "watchdog kills a stuck worker" `Quick
           pool_watchdog_kills_stuck;
         Alcotest.test_case "cancel fails queued, keeps in-flight" `Quick
           pool_cancel_fails_queued;
         Alcotest.test_case "deadline expires in queue" `Quick
           deadline_expires_in_queue;
         Alcotest.test_case "breaker quarantines dying slots" `Quick
           breaker_quarantines_dying_slots ]);
      ("ipc-chaos",
       [ Alcotest.test_case "corrupt reply -> kill + re-dispatch" `Quick
           chaos_corrupt_reply_recovers;
         Alcotest.test_case "corrupt dispatch -> nack, no charge" `Quick
           chaos_corrupt_dispatch_nacked;
         Alcotest.test_case "dropped reply -> watchdog recovery" `Quick
           chaos_drop_reply_watchdog_recovers;
         Alcotest.test_case "lost reply's work counted once" `Quick
           chaos_lost_reply_counts_once;
         Alcotest.test_case "worker stall -> watchdog recovery" `Quick
           chaos_worker_stall_watchdog_recovers ]);
      ("journal",
       [ Alcotest.test_case "canonical byte-identity" `Quick
           rewrite_canonical_bytes;
         Alcotest.test_case "fingerprint peek" `Quick
           journal_peek_fingerprint ]);
      ("determinism",
       [ Alcotest.test_case "1/2/4 workers = sequential table" `Quick
           fleet_matches_sequential;
         Alcotest.test_case "merged journal byte-identical + replays"
           `Quick fleet_journal_byte_identical;
         Alcotest.test_case "killed 2-worker run resumes" `Quick
           killed_fleet_run_resumes ]);
      ("serve",
       [ Alcotest.test_case "stale/live socket refused" `Quick
           stale_socket_detected;
         Alcotest.test_case "daemon round trip" `Quick serve_round_trip;
         Alcotest.test_case "queue fingerprint mismatch refused" `Quick
           serve_queue_mismatch_refused;
         Alcotest.test_case "full queue sheds with a retry hint" `Quick
           serve_sheds_when_queue_full;
         Alcotest.test_case "crash + warm restart = exactly once" `Quick
           serve_durable_exactly_once ]) ]
