(** [eval serve]'s engine-agnostic core: a Unix-domain-socket daemon
    that accepts line-framed JSON requests, queues them into a
    {!Pool}, and streams each task's outcome back to the client that
    submitted it.

    Protocol — one JSON object per line, both directions:
    - [{"op":"submit","id":ID,…}] enqueues the whole request line as a
      pool task (the pool's runner owns the request schema).  Answered
      immediately with [{"id":ID,"status":"queued","pending":N}] — or
      [{"id":ID,"status":"rejected","error":…,"retry_after_s":N}] when
      the queue is at [max_queue] (load shedding, with a backoff hint
      sized to the current queue and completion latency) or the daemon
      is draining — and later with the runner's own response line
      (which must carry the id).  A request may carry
      ["idem":KEY], an idempotency key; it defaults to a hash of the
      whole request line.
    - [{"op":"ping"}] → [{"status":"ok","pending":N}] — liveness, also
      used by {!check_socket} to distinguish a live daemon from a
      stale socket file.
    - [{"op":"stats"}] → queue/completion counters.
    - [{"op":"drain"}] → [{"status":"draining","pending":N}] now, one
      [{"status":"drained","completed":N}] when the queue is empty;
      then the daemon closes everything, unlinks the socket and
      returns.  SIGINT/SIGTERM trigger the same cooperative drain.

    Durability — with [queue_journal] set, the daemon write-ahead
    journals every accepted request (keyed by its idempotency key,
    phase ["acc"], {e before} acking it) and every successful response
    (phase ["done"], {e before} the client sees it).  A daemon killed
    mid-stream warm-restarts from the journal: finished keys answer
    straight from the journal on resubmission (exactly-once graded
    outcomes per key), accepted-but-unfinished requests are re-queued
    before the socket opens.  The journal carries the caller's
    {!config.run_fingerprint}; reopening a journal written under a
    different fingerprint raises {!Journal_mismatch} unless [force]d,
    so a config change never silently replays stale outcomes. *)

let m_requests = Telemetry.Metrics.counter "serve.requests"
let m_rejected = Telemetry.Metrics.counter "serve.rejected"
let m_responses = Telemetry.Metrics.counter "serve.responses"
let m_dropped = Telemetry.Metrics.counter "serve.dropped_responses"
let m_clients = Telemetry.Metrics.counter "serve.clients"
let m_latency = Telemetry.Metrics.histogram "serve.latency_us"
let m_shed = Telemetry.Metrics.counter "serve.shed"
let m_deduped = Telemetry.Metrics.counter "serve.deduped"
let m_recovered = Telemetry.Metrics.counter "serve.recovered"

(** Protocol/build identity reported by [ping] and [health]. *)
let version = "eval-serve/2"

type config = {
  socket : string;
  max_queue : int;  (** submit backpressure: max queued (not running) *)
  accept_backlog : int;
  queue_journal : string option;
      (** write-ahead request/response journal — the durable queue *)
  run_fingerprint : string;
      (** stable hash of the serving configuration; guards the queue
          journal across restarts (unlike the per-instance [ping]
          fingerprint, which changes on every start) *)
  force : bool;
      (** reopen a fingerprint-mismatched queue journal anyway,
          treating its records as stale *)
}

let default_config ~socket =
  { socket; max_queue = 10_000; accept_backlog = 64; queue_journal = None;
    run_fingerprint = "eval-serve"; force = false }

(* ------------------------------------------------------------------ *)
(* Stale-socket detection                                              *)
(* ------------------------------------------------------------------ *)

exception Socket_in_use of string
    (** a live daemon answered on the socket *)

exception Stale_socket of string
    (** the path exists but nothing is listening (a previous daemon
        died without cleanup) *)

exception Journal_mismatch of {
  path : string;
  found : string;
  expected : string;
}
    (** the queue journal at [path] was written under a different run
        fingerprint — serving from it would replay outcomes produced
        by a different configuration *)

(** Probe [path] before binding: raises {!Socket_in_use} if a daemon
    is already serving there, {!Stale_socket} if the file exists but
    is dead — the caller gets a clear error either way instead of
    [EADDRINUSE]. *)
let check_socket path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then raise (Socket_in_use path) else raise (Stale_socket path)
  end

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type client = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  mutable c_alive : bool;
  mutable c_draining : bool;  (** owes a final "drained" message *)
}

type state = {
  cfg : config;
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  mutable clients : client list;
  (* pool task tag -> submitting client (may be dead by completion) *)
  routes : (string, client) Hashtbl.t;
  queue_w : Robust.Journal.writer option;
  (* idempotency key -> journaled final response, replayed verbatim *)
  done_cache : (string, string) Hashtbl.t;
  (* idempotency key -> pool tag, while accepted-but-unfinished *)
  pending_idem : (string, string) Hashtbl.t;
  tag_idem : (string, string) Hashtbl.t;  (** pool tag -> idem key *)
  mutable next_tag : int;
  mutable draining : bool;
  mutable completed : int;
  mutable shed : int;
  mutable deduped : int;
  mutable recovered : int;
  started : float;  (** daemon start, for uptime *)
  fingerprint : string;  (** unique per daemon instance *)
}

let esc = Robust.Journal.json_escape

let drop_client st (c : client) =
  c.c_alive <- false;
  st.clients <- List.filter (fun x -> x != c) st.clients;
  (try Unix.close c.c_fd with Unix.Unix_error _ -> ())

let send_line st (c : client) line =
  if c.c_alive then begin
    match Pool.write_all c.c_fd (line ^ "\n") with
    | () -> Telemetry.Metrics.incr m_responses
    | exception Unix.Unix_error _ -> drop_client st c
  end
  else Telemetry.Metrics.incr m_dropped

let reject st c ~id msg =
  Telemetry.Metrics.incr m_rejected;
  send_line st c
    (Printf.sprintf "{\"id\":%s,\"status\":\"rejected\",\"error\":\"%s\"}"
       (match id with Some i -> "\"" ^ esc i ^ "\"" | None -> "null")
       (esc msg))

(* per-slot status as a JSON array: slot, liveness, in-flight task *)
let workers_json st =
  String.concat ","
    (List.map
       (fun (slot, alive, task) ->
          Printf.sprintf "{\"slot\":%d,\"alive\":%b,\"inflight\":%d%s}"
            slot alive
            (if task = None then 0 else 1)
            (match task with
             | Some k -> Printf.sprintf ",\"task\":\"%s\"" (esc k)
             | None -> ""))
       (Pool.worker_states st.pool))

let latency_ms q =
  float_of_int (Telemetry.Metrics.quantile m_latency q) /. 1e3

(* shedding backoff hint: how long the current queue would take to
   clear at the observed median completion latency *)
let retry_after_s st =
  let p50_us = Telemetry.Metrics.quantile m_latency 0.50 in
  let per_task = if p50_us <= 0 then 1.0 else float_of_int p50_us /. 1e6 in
  let workers = max 1 (Pool.alive_workers st.pool) in
  max 1
    (int_of_float
       (ceil (float_of_int (Pool.pending st.pool) *. per_task
              /. float_of_int workers)))

let status_of_payload line =
  let open Telemetry.Trace_check in
  match Option.bind (parse_opt line) (member "status") with
  | Some (Str s) -> Some s
  | _ -> None

(* the durable accept path, shared by live submits and warm-restart
   recovery (which must NOT re-journal its already-journaled records) *)
let enqueue st ?route ~journal ~idem line =
  if journal then
    (match st.queue_w with
     | Some w ->
         Robust.Journal.append w ~key:idem
           ~payload:
             (Printf.sprintf "{\"phase\":\"acc\",\"req\":\"%s\"}" (esc line))
     | None -> ());
  let tag = Printf.sprintf "r%d" st.next_tag in
  st.next_tag <- st.next_tag + 1;
  (match route with Some c -> Hashtbl.replace st.routes tag c | None -> ());
  Hashtbl.replace st.pending_idem idem tag;
  Hashtbl.replace st.tag_idem tag idem;
  Pool.submit st.pool ~key:tag ~task:line

let handle_request st (c : client) line =
  Telemetry.Metrics.incr m_requests;
  let open Telemetry.Trace_check in
  match parse_opt line with
  | None -> reject st c ~id:None "request is not valid JSON"
  | Some j -> (
      let id =
        match member "id" j with Some (Str s) -> Some s | _ -> None
      in
      match member "op" j with
      | Some (Str "ping") ->
          send_line st c
            (Printf.sprintf
               "{\"status\":\"ok\",\"pending\":%d,\"version\":\"%s\",\
                \"fingerprint\":\"%s\",\"uptime_s\":%.1f}"
               (Pool.pending st.pool) (esc version) (esc st.fingerprint)
               (Unix.gettimeofday () -. st.started))
      | Some (Str "stats") ->
          send_line st c
            (Printf.sprintf
               "{\"status\":\"ok\",\"queued\":%d,\"inflight\":%d,\
                \"completed\":%d,\"clients\":%d,\"draining\":%b,\
                \"shed\":%d,\"deduped\":%d,\
                \"recovered\":%d,\"workers\":[%s]}"
               (Pool.queued st.pool) (Pool.inflight st.pool) st.completed
               (List.length st.clients) st.draining st.shed st.deduped
               st.recovered (workers_json st))
      | Some (Str "health") ->
          send_line st c
            (Printf.sprintf
               "{\"status\":\"ok\",\"version\":\"%s\",\
                \"fingerprint\":\"%s\",\"run_fingerprint\":\"%s\",\
                \"uptime_s\":%.1f,\
                \"workers\":%d,\"workers_alive\":%d,\"queued\":%d,\
                \"inflight\":%d,\"completed\":%d,\"draining\":%b,\
                \"durable\":%b,\"shed\":%d,\"deduped\":%d,\
                \"recovered\":%d,\
                \"latency_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f}}"
               (esc version) (esc st.fingerprint)
               (esc st.cfg.run_fingerprint)
               (Unix.gettimeofday () -. st.started)
               (List.length (Pool.worker_states st.pool))
               (Pool.alive_workers st.pool) (Pool.queued st.pool)
               (Pool.inflight st.pool) st.completed st.draining
               (st.queue_w <> None) st.shed st.deduped st.recovered
               (latency_ms 0.50) (latency_ms 0.95) (latency_ms 0.99))
      | Some (Str "metrics") ->
          (* the pool folds each accepted reply's worker delta into
             this registry, so it holds the workers' counters too *)
          let snap = Telemetry.Snapshot.capture () in
          let prometheus =
            match member "format" j with
            | Some (Str "prometheus") -> true
            | _ -> false
          in
          if prometheus then
            send_line st c
              (Printf.sprintf
                 "{\"status\":\"ok\",\"format\":\"prometheus\",\
                  \"text\":\"%s\"}"
                 (esc (Telemetry.Snapshot.to_prometheus snap)))
          else
            send_line st c
              (Printf.sprintf "{\"status\":\"ok\",\"metrics\":%s}"
                 (Telemetry.Snapshot.to_json snap))
      | Some (Str "drain") ->
          st.draining <- true;
          c.c_draining <- true;
          send_line st c
            (Printf.sprintf "{\"status\":\"draining\",\"pending\":%d}"
               (Pool.pending st.pool))
      | Some (Str "submit") -> (
          let idem =
            match member "idem" j with
            | Some (Str s) -> s
            | _ -> Robust.Diskio.fnv64_hex line
          in
          match Hashtbl.find_opt st.done_cache idem with
          | Some resp ->
              (* resubmission of a finished key: replay the journaled
                 response verbatim — the cell is never graded twice *)
              st.deduped <- st.deduped + 1;
              Telemetry.Metrics.incr m_deduped;
              send_line st c resp
          | None -> (
              match Hashtbl.find_opt st.pending_idem idem with
              | Some tag ->
                  (* already accepted (possibly before a crash, or by a
                     connection that died): re-route the eventual
                     response to this client *)
                  st.deduped <- st.deduped + 1;
                  Telemetry.Metrics.incr m_deduped;
                  Hashtbl.replace st.routes tag c;
                  send_line st c
                    (Printf.sprintf
                       "{\"id\":%s,\"status\":\"queued\",\"pending\":%d}"
                       (match id with
                        | Some i -> "\"" ^ esc i ^ "\""
                        | None -> "null")
                       (Pool.pending st.pool))
              | None ->
                  if st.draining then reject st c ~id "daemon is draining"
                  else if Pool.queued st.pool >= st.cfg.max_queue then begin
                    (* load shedding, with a backoff hint *)
                    st.shed <- st.shed + 1;
                    Telemetry.Metrics.incr m_shed;
                    Telemetry.Metrics.incr m_rejected;
                    send_line st c
                      (Printf.sprintf
                         "{\"id\":%s,\"status\":\"rejected\",\
                          \"error\":\"queue full (max %d)\",\
                          \"retry_after_s\":%d}"
                         (match id with
                          | Some i -> "\"" ^ esc i ^ "\""
                          | None -> "null")
                         st.cfg.max_queue (retry_after_s st))
                  end
                  else begin
                    enqueue st ~route:c ~journal:true ~idem line;
                    send_line st c
                      (Printf.sprintf
                         "{\"id\":%s,\"status\":\"queued\",\"pending\":%d}"
                         (match id with
                          | Some i -> "\"" ^ esc i ^ "\""
                          | None -> "null")
                         (Pool.pending st.pool))
                  end))
      | _ ->
          reject st c ~id
            "unknown op (submit, ping, stats, health, metrics, drain)")

let route_result st (r : Pool.result) =
  st.completed <- st.completed + 1;
  Telemetry.Metrics.observe m_latency
    (int_of_float ((r.r_done -. r.r_submitted) *. 1e6));
  let idem = Hashtbl.find_opt st.tag_idem r.r_key in
  Hashtbl.remove st.tag_idem r.r_key;
  (match idem with Some i -> Hashtbl.remove st.pending_idem i | None -> ());
  let id_json =
    match idem with Some i -> "\"" ^ esc i ^ "\"" | None -> "null"
  in
  let reply, final =
    match r.r_payload with
    | Ok payload ->
        (* runner-reported errors ("status":"error") are transient from
           the queue's point of view: not journaled, so a resubmission
           retries instead of replaying the failure forever *)
        (payload, status_of_payload payload <> Some "error")
    | Error f ->
        ( Printf.sprintf "{\"id\":%s,\"status\":\"error\",\"error\":\"%s\"}"
            id_json
            (esc (Pool.failure_to_string f)),
          false )
  in
  (* exactly-once: journal the graded outcome under its idempotency
     key *before* any client can observe it *)
  (match (final, idem) with
   | true, Some i ->
       (match st.queue_w with
        | Some w ->
            Robust.Journal.append w ~key:i
              ~payload:
                (Printf.sprintf "{\"phase\":\"done\",\"resp\":\"%s\"}"
                   (esc reply))
        | None -> ());
       Hashtbl.replace st.done_cache i reply
   | _ -> ());
  match Hashtbl.find_opt st.routes r.r_key with
  | None -> Telemetry.Metrics.incr m_dropped
  | Some c ->
      Hashtbl.remove st.routes r.r_key;
      send_line st c reply

let pump_client st (c : client) =
  let chunk = Bytes.create 65536 in
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop_client st c
  | n ->
      Buffer.add_subbytes c.c_buf chunk 0 n;
      let data = Buffer.contents c.c_buf in
      let rec split from =
        match String.index_from_opt data from '\n' with
        | None ->
            Buffer.clear c.c_buf;
            Buffer.add_substring c.c_buf data from (String.length data - from)
        | Some i ->
            let line = String.sub data from (i - from) in
            if String.trim line <> "" then handle_request st c line;
            split (i + 1)
      in
      split 0
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> drop_client st c

(* load the queue journal (refusing a fingerprint mismatch unless
   forced) and split its last-wins records into finished responses and
   accepted-but-unfinished request lines *)
let load_queue_journal (cfg : config) =
  match cfg.queue_journal with
  | None -> (None, [], [])
  | Some path ->
      (match Robust.Journal.peek_fingerprint path with
       | Some found
         when (not (String.equal found cfg.run_fingerprint)) && not cfg.force
         ->
           raise
             (Journal_mismatch
                { path; found; expected = cfg.run_fingerprint })
       | _ -> ());
      let l = Robust.Journal.load ~fingerprint:cfg.run_fingerprint path in
      let done_ = ref [] and acc = ref [] in
      List.iter
        (fun (e : Robust.Journal.entry) ->
           let field name =
             match Telemetry.Trace_check.member name e.cell with
             | Some (Telemetry.Trace_check.Str s) -> Some s
             | _ -> None
           in
           match (field "phase", field "resp", field "req") with
           | Some "done", Some resp, _ -> done_ := (e.key, resp) :: !done_
           | Some "acc", _, Some req -> acc := (e.key, req) :: !acc
           | _ -> Robust.Journal.count_undecodable ())
        l.entries;
      let w =
        Robust.Journal.open_writer ~fingerprint:cfg.run_fingerprint
          ~seq:l.next_seq path
      in
      (Some w, List.rev !done_, List.rev !acc)

(** Run the daemon until a drain request (or SIGINT/SIGTERM) empties
    the queue.  Binds [cfg.socket], refusing a live or stale existing
    socket (see {!check_socket}); unlinks it on the way out.  The pool
    is polled from the same event loop — no threads anywhere. *)
let run (cfg : config) ~(pool : Pool.t) : unit =
  let queue_w, done0, recovered0 = load_queue_journal cfg in
  check_socket cfg.socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd cfg.accept_backlog;
  let started = Unix.gettimeofday () in
  let st =
    { cfg; pool; listen_fd; clients = []; routes = Hashtbl.create 64;
      queue_w; done_cache = Hashtbl.create 64;
      pending_idem = Hashtbl.create 64; tag_idem = Hashtbl.create 64;
      next_tag = 0; draining = false; completed = 0; shed = 0; deduped = 0;
      recovered = 0; started;
      fingerprint =
        Robust.Journal.fingerprint
          [ version; string_of_int (Unix.getpid ());
            Printf.sprintf "%.6f" started ] }
  in
  List.iter (fun (k, resp) -> Hashtbl.replace st.done_cache k resp) done0;
  (* warm restart: accepted-but-unfinished requests go back on the
     queue before the socket opens; their submitters are gone, but the
     graded outcomes will be journaled and answer resubmissions *)
  List.iter
    (fun (idem, req) ->
       if not (Hashtbl.mem st.done_cache idem) then begin
         st.recovered <- st.recovered + 1;
         Telemetry.Metrics.incr m_recovered;
         enqueue st ~journal:false ~idem req
       end)
    recovered0;
  if st.recovered > 0 || Hashtbl.length st.done_cache > 0 then
    Telemetry.Log.warnf
      "serve: warm restart from %s — %d finished key(s) cached, %d \
       unfinished request(s) re-queued"
      (Option.value ~default:"-" cfg.queue_journal)
      (Hashtbl.length st.done_cache)
      st.recovered;
  (* respawned workers must not hold the daemon's sockets open *)
  Pool.set_at_fork pool (fun () ->
      (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
      List.iter
        (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
        st.clients);
  let drain_signal _ = st.draining <- true in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle drain_signal) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle drain_signal) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term;
      (match st.queue_w with
       | Some w -> (try Robust.Journal.close_writer w with _ -> ())
       | None -> ());
      List.iter
        (fun c ->
           try Unix.close c.c_fd with Unix.Unix_error _ -> ())
        st.clients;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Sys.remove cfg.socket with Sys_error _ -> ()))
  @@ fun () ->
  let finished () = st.draining && Pool.pending pool = 0 in
  while not (finished ()) do
    let rd =
      (listen_fd :: List.map (fun c -> c.c_fd) st.clients) @ Pool.fds pool
    in
    (match Unix.select rd [] [] 0.2 with
     | readable, _, _ ->
         if List.mem listen_fd readable then begin
           match Unix.accept listen_fd with
           | fd, _ ->
               Unix.set_nonblock fd;
               Telemetry.Metrics.incr m_clients;
               st.clients <-
                 { c_fd = fd; c_buf = Buffer.create 256; c_alive = true;
                   c_draining = false }
                 :: st.clients
           | exception Unix.Unix_error _ -> ()
         end;
         List.iter
           (fun c -> if List.mem c.c_fd readable then pump_client st c)
           st.clients
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    List.iter (route_result st) (Pool.poll ~timeout:0. pool)
  done;
  (* the queue is drained: settle the drain requesters *)
  List.iter
    (fun c ->
       if c.c_draining then
         send_line st c
           (Printf.sprintf "{\"status\":\"drained\",\"completed\":%d}"
              st.completed))
    st.clients;
  Pool.shutdown pool
