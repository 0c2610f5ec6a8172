(** Fleet battery: pool scheduling (work-stealing, latency stamps,
    runner exceptions), fault injection (worker killed mid-cell →
    re-dispatch with identical grading, watchdog on a stuck worker,
    cooperative cancellation), checksummed frames (a damaged frame
    decodes to nothing and its task re-runs), IPC faults injected by
    hand (a real reply frame damaged or dropped, a stalled worker: the
    task re-runs and its work is counted once), the journal's grid-order rewrite
    (canonical byte-identity), fleet-vs-sequential Table II
    determinism across 1/2/4 workers (table and journal both
    byte-identical, replayable by a sequential run), a 2-worker run
    killed with SIGKILL and resumed, and the [eval serve] daemon
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
      ~task:(Printf.sprintf "t%d" i)
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
  Fleet.Pool.submit t ~key:"a" ~task:"1";
  Fleet.Pool.submit t ~key:"bad" ~task:"2";
  Fleet.Pool.submit t ~key:"b" ~task:"3";
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
  Fleet.Pool.submit t ~key:"die-once" ~task:"x";
  Fleet.Pool.submit t ~key:"plain" ~task:"y";
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
  Fleet.Pool.submit t ~key:"always-dies" ~task:"x";
  Fleet.Pool.submit t ~key:"ok" ~task:"y";
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
        { Fleet.Pool.workers = 2; respawns = 0; task_timeout = Some 0.3 }
      (fun ~attempt:_ ~key ->
        fun task ->
          if key = "stuck" then (Unix.sleep 600; task) else task)
  in
  Fleet.Pool.submit t ~key:"stuck" ~task:"x";
  Fleet.Pool.submit t ~key:"quick" ~task:"y";
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
    Fleet.Pool.submit t ~key:(Printf.sprintf "c%d" i) ~task:"t"
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
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path
    (fun oc -> output_string oc "0123456789abcdef {\"fp\":\"");
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
      ~journal:seq_path ()
  in
  let fleet =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:par_path ~workers:4 ()
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
  (* and the fleet's journal replays under a sequential run exactly
     like a sequentially written one *)
  let replayed0 = counter "journal.replayed" in
  let resumed =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs:(det_bombs ())
      ~journal:par_path ()
  in
  Alcotest.(check (list string)) "resumed table matches" (symbols seq)
    (symbols resumed);
  Alcotest.(check int) "every cell answered from the fleet's journal"
    (replayed0 + 6)
    (counter "journal.replayed");
  Sys.remove seq_path;
  Sys.remove par_path

(* a 2-worker run killed for real: a forked child runs the journaled
   grid on a 2-worker fleet and takes a SIGKILL as soon as its journal
   holds two records.  The master appends each reply as it arrives, so
   what the kill leaves is sound records and at most a torn tail; a
   2-worker resume completes it, and both the table and the grid-order
   journal equal an uninterrupted sequential run's.  The sha1 and aes
   cells after the first two take tens of ms each, so the kill lands
   mid-grid. *)
let killed_fleet_run_resumes () =
  let bombs =
    List.map Bombs.Catalog.find
      [ "time_bomb"; "argvlen_bomb"; "sha1_bomb"; "aes_bomb" ]
  in
  let run ?workers path =
    Engines.Eval.run_table2 ~tools:det_tools ~bombs ~journal:path ?workers ()
  in
  let seq_path = Filename.temp_file "fleet_kill_seq" ".jsonl" in
  let path = Filename.temp_file "fleet_kill" ".jsonl" in
  Sys.remove seq_path;
  Sys.remove path;
  let seq = run seq_path in
  let records () =
    match read_file path with
    | s ->
      String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s
    | exception Sys_error _ -> 0
  in
  flush_all ();
  (match Unix.fork () with
   | 0 ->
     (try ignore (run ~workers:2 path : Engines.Eval.table2_result)
      with _ -> ());
     Unix._exit 0
   | pid ->
     let deadline = Unix.gettimeofday () +. 60. in
     while records () < 2 && Unix.gettimeofday () < deadline do
       Unix.sleepf 0.0005
     done;
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid : int * Unix.process_status));
  let fp = Engines.Eval.journal_fingerprint ~tools:det_tools ~bombs () in
  let l = Robust.Journal.load ~fingerprint:fp path in
  Alcotest.(check bool) "at least two sound records" true (l.valid >= 2);
  Alcotest.(check int) "nothing corrupt or stale" 0 (l.corrupt + l.stale);
  let resumed = run ~workers:2 path in
  Alcotest.(check string) "2-worker resume = sequential table"
    (Engines.Eval.render_table2 seq)
    (Engines.Eval.render_table2 resumed);
  Alcotest.(check string) "resumed journal = sequential journal"
    (read_file seq_path) (read_file path);
  Sys.remove seq_path;
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

(* ---------------- checksummed frames ---------------- *)

module Pool = Fleet.Pool

(* one byte of a frame flipped in transit *)
let flip_at line i =
  let b = Bytes.of_string line in
  Bytes.set b i (if Bytes.get b i = '#' then '!' else '#');
  Bytes.to_string b

(* a frame's last byte is always in its checksummed body *)
let flip_last line = flip_at line (String.length line - 1)

let one_ok results =
  match results with
  | [ ({ r_payload = Ok p; _ } : Pool.result) ] -> p
  | [ { r_payload = Error f; _ } ] ->
      Alcotest.failf "task must survive the fault, got %s"
        (Pool.failure_to_string f)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

let frames_decode () =
  let j =
    { Pool.j_id = 3; j_key = "k"; j_task = "a b\tc"; j_submitted = 0.;
      j_attempt = 2 }
  in
  let frame = Pool.dispatch_frame j in
  Alcotest.(check bool) "dispatch frame decodes to its job" true
    (Pool.decode_dispatch frame = Some (3, 2, "k", "a b\tc"));
  Alcotest.(check bool) "a flipped dispatch byte decodes to nothing" true
    (Pool.decode_dispatch (flip_last frame) = None);
  let delta =
    { Telemetry.Snapshot.empty with counters = [ ("test.fleet.frame", 2) ] }
  in
  let r = { Pool.id = 7; raised = false; delta; payload = "{\"ok\":1}" } in
  let frame = Pool.reply_frame r in
  Alcotest.(check bool) "reply frame yields its delta and payload" true
    (Pool.decode_reply frame = Some r);
  Alcotest.(check bool) "a raised reply stays raised" true
    (Pool.decode_reply (Pool.reply_frame { r with raised = true })
     = Some { r with raised = true });
  Alcotest.(check bool) "a flipped payload byte yields nothing" true
    (Pool.decode_reply (flip_last frame) = None);
  (* the delta's own bytes are covered too: a reply whose count was
     damaged never reaches [publish] *)
  let count_at =
    let rec find i = if frame.[i] = '2' then i else find (i + 1) in
    find (String.index frame '{')
  in
  Alcotest.(check bool) "a flipped delta byte yields nothing" true
    (Pool.decode_reply (flip_at frame count_at) = None)

(* dispatch [j] to the pool's only worker by hand, as [frame] *)
let dispatch_by_hand (t : Pool.t) frame_of =
  let j = Queue.pop t.queue in
  Pool.dispatch_one t t.ws.(0) j (frame_of j)

(* the worker's next reply frame, read off its pipe before the pool
   sees it (the hello line is skipped) *)
let read_reply (w : Pool.worker) =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
        let data = Buffer.contents buf in
        let line = String.sub data 0 i in
        Buffer.clear buf;
        Buffer.add_string buf
          (String.sub data (i + 1) (String.length data - i - 1));
        if String.starts_with ~prefix:"H " line then go () else line
    | None -> (
        match Unix.select [ w.from_w ] [] [] 20. with
        | [], _, _ -> Alcotest.fail "the worker never replied"
        | _ ->
            let n = Unix.read w.from_w chunk 0 (Bytes.length chunk) in
            if n = 0 then Alcotest.fail "the worker died before replying";
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ()

(* a dispatch frame damaged on the way: the worker refuses it by
   exiting, and the pool re-runs the task as it re-runs a dead
   worker's, to the same grade *)
let frames_corrupt_dispatch_reruns () =
  let bomb = Bombs.Catalog.find "time_bomb" in
  let grade () =
    Engines.Journal_codec.encode_outcome
      (Engines.Supervisor.run_cell Engines.Profile.Bap bomb)
  in
  let clean = grade () in
  let deaths0 = counter "fleet.worker_deaths" in
  let t =
    Pool.create ~config:(echo_config 1) (fun ~attempt ~key:_ _ ->
        Printf.sprintf "%d %s" attempt (grade ()))
  in
  Pool.submit t ~key:"k" ~task:"x";
  dispatch_by_hand t (fun j -> flip_last (Pool.dispatch_frame j));
  let results = Pool.drain t in
  Pool.shutdown t;
  Alcotest.(check string) "the re-run (attempt 2) grades the same"
    ("2 " ^ clean) (one_ok results);
  Alcotest.(check int) "the worker died on the damaged frame" (deaths0 + 1)
    (counter "fleet.worker_deaths")

(* ---------------- IPC faults, injected by hand ---------------- *)

(* the worker's reply to a hand dispatch of the only task, lost on the
   way: [`Corrupt] hands the pool the frame with one byte flipped,
   [`Drop] never hands it over *)
let lose_reply ?task_timeout fault runner =
  let t = Pool.create ~config:{ (echo_config 1) with task_timeout } runner in
  Pool.submit t ~key:"k" ~task:"v";
  dispatch_by_hand t Pool.dispatch_frame;
  let w = t.ws.(0) in
  let reply = read_reply w in
  (match fault with
   | `Corrupt -> Pool.handle_line t w (flip_last reply)
   | `Drop -> ());
  let results = Pool.drain t in
  Pool.shutdown t;
  results

let tag_attempt ~attempt ~key:_ task = Printf.sprintf "%s@%d" task attempt

(* a damaged reply frame: the worker is killed and the task re-run *)
let ipc_corrupt_reply_redispatch () =
  let bad0 = counter "fleet.frames_corrupt"
  and redisp0 = counter "fleet.redispatched" in
  let results = lose_reply `Corrupt tag_attempt in
  Alcotest.(check string) "the re-dispatch (attempt 2) answers" "v@2"
    (one_ok results);
  Alcotest.(check int) "the damaged frame was counted" (bad0 + 1)
    (counter "fleet.frames_corrupt");
  Alcotest.(check bool) "the task was re-dispatched" true
    (counter "fleet.redispatched" > redisp0)

(* a dropped reply looks like a hang: the watchdog reclaims the slot
   and the re-dispatch answers *)
let ipc_drop_reply_watchdog () =
  let kills0 = counter "fleet.watchdog_kills" in
  let results = lose_reply ~task_timeout:0.3 `Drop tag_attempt in
  Alcotest.(check string) "watchdog re-dispatch answers" "v@2"
    (one_ok results);
  Alcotest.(check bool) "watchdog fired" true
    (counter "fleet.watchdog_kills" > kills0)

(* a lost reply takes its registry delta with it: the task is re-run,
   and its work is counted once, when a reply is accepted *)
let ipc_lost_reply_counts_once () =
  let c = "test.fleet.counted_once" in
  List.iter
    (fun (name, fault, task_timeout) ->
       let before = counter c in
       let results =
         lose_reply ?task_timeout fault (fun ~attempt ~key task ->
             Telemetry.Metrics.incr (Telemetry.Metrics.counter c);
             tag_attempt ~attempt ~key task)
       in
       Alcotest.(check string) (name ^ ": the re-run answers") "v@2"
         (one_ok results);
       Alcotest.(check int) (name ^ ": counted once") 1 (counter c - before))
    [ ("corrupt reply", `Corrupt, None); ("dropped reply", `Drop, Some 0.3) ]

(* a worker stalled past the watchdog is killed and its task re-run,
   with the attempt number bumped, and the re-run answers *)
let ipc_worker_stall_watchdog () =
  let kills0 = counter "fleet.watchdog_kills" in
  let t =
    Fleet.Pool.create
      ~config:{ (echo_config 1) with task_timeout = Some 0.3 }
      (fun ~attempt ~key:_ ->
        fun task ->
          if attempt = 1 then Unix.sleep 600;
          Printf.sprintf "%s@%d" task attempt)
  in
  Fleet.Pool.submit t ~key:"k" ~task:"v";
  let results = Fleet.Pool.drain t in
  Fleet.Pool.shutdown t;
  Alcotest.(check bool) "watchdog fired" true
    (counter "fleet.watchdog_kills" > kills0);
  match results with
  | [ { r_payload = Ok p; _ } ] ->
      Alcotest.(check string) "the re-dispatch (attempt 2) answers" "v@2" p
  | _ -> Alcotest.fail "the wedged task must be re-run to an answer"

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

(* the journal's phases per key, in append order *)
let queue_phases queue =
  let l =
    Robust.Journal.load ~dedup:false
      ~fingerprint:(Engines.Service.queue_fingerprint ())
      queue
  in
  List.map
    (fun (e : Robust.Journal.entry) ->
       ( e.key,
         match Telemetry.Trace_check.member "phase" e.cell with
         | Some (Telemetry.Trace_check.Str p) -> p
         | _ -> "?" ))
    l.entries

let phases_of key phases =
  List.filter_map (fun (k, p) -> if k = key then Some p else None) phases

(* kill the daemon after one graded request and while two more are
   queued, warm-restart it from the queue journal and resubmit all
   three under the same idempotency keys: the graded one is answered
   byte-for-byte from the journal, the queued ones were re-queued at
   restart, and the journal holds one acceptance and one grading per
   key *)
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
  let request (tool, bomb) =
    let id = Engines.Profile.name tool ^ "/" ^ bomb in
    (id, Engines.Service.encode_request ~id ~tool ~bomb ())
  in
  let graded = request (Engines.Profile.Bap, "time_bomb") in
  (* two ~250 ms cells on the one worker: the second cannot finish
     within half a second of its ack *)
  let ahead = request (Engines.Profile.Angr_nolib, "jumptable_bomb") in
  let victim = request (Engines.Profile.Angr, "jumptable_bomb") in
  let submit (id, line) =
    let final = ref None in
    let failures =
      Engines.Service.submit ~socket
        ~on_line:(fun l ->
          if Engines.Service.status_of_line l = Some "done" then
            final := Some l)
        [ line ]
    in
    Alcotest.(check int) (id ^ " answered") 0 failures;
    match !final with
    | Some l -> l
    | None -> Alcotest.failf "%s: no done line streamed" id
  in
  let daemon = ref (Some (fork_daemon ())) in
  (* [signal] the live daemon, if any, and reap it *)
  let stop ?(signal = true) () =
    Option.iter
      (fun pid ->
         if signal then
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !daemon;
    daemon := None
  in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      if Sys.file_exists socket then Sys.remove socket;
      if Sys.file_exists queue then Sys.remove queue)
  @@ fun () ->
  await_daemon socket;
  let resp1 = submit graded in
  (* queue two more, and SIGKILL the daemon the moment the victim is
     acked: no drain, no cleanup — the journal is all that survives *)
  Engines.Service.with_connection socket (fun ic oc ->
      List.iter
        (fun (_, line) ->
           output_string oc line;
           output_char oc '\n')
        [ ahead; victim ];
      flush oc;
      let rec await_ack () =
        let line = input_line ic in
        let open Telemetry.Trace_check in
        match
          ( Engines.Service.status_of_line line,
            Option.bind (parse_opt line) (member "id") )
        with
        | Some "queued", Some (Str id) when id = fst victim -> ()
        | _ -> await_ack ()
      in
      await_ack ();
      stop ());
  Alcotest.(check (list string)) "at the kill: the victim accepted, not done"
    [ "acc" ]
    (phases_of (fst victim) (queue_phases queue));
  Sys.remove socket;
  daemon := Some (fork_daemon ());
  await_daemon socket;
  Alcotest.(check string)
    "resubmission answered verbatim from the journal, not re-graded"
    resp1 (submit graded);
  ignore (submit ahead);
  ignore (submit victim);
  Engines.Service.drain ~socket ();
  stop ~signal:false ();
  (* one acceptance and one grading per key: the resubmissions were
     answered from the journal or joined the re-queued request, and
     none was accepted a second time *)
  let phases = queue_phases queue in
  List.iter
    (fun (id, _) ->
       Alcotest.(check (list string))
         (id ^ ": accepted once, graded once across the crash")
         [ "acc"; "done" ] (phases_of id phases))
    [ graded; ahead; victim ]

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
           pool_cancel_fails_queued ]);
      ("frames",
       [ Alcotest.test_case "codec refuses a flipped byte" `Quick
           frames_decode;
         Alcotest.test_case "corrupt dispatch -> exit, same grade" `Quick
           frames_corrupt_dispatch_reruns ]);
      ("ipc-chaos",
       [ Alcotest.test_case "corrupt reply -> kill + re-dispatch" `Quick
           ipc_corrupt_reply_redispatch;
         Alcotest.test_case "dropped reply -> watchdog recovery" `Quick
           ipc_drop_reply_watchdog;
         Alcotest.test_case "lost reply's work counted once" `Quick
           ipc_lost_reply_counts_once;
         Alcotest.test_case "worker stall -> watchdog recovery" `Quick
           ipc_worker_stall_watchdog ]);
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
