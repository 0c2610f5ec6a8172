(** Fork-based worker-pool scheduler: shard independent analysis
    tasks across N worker processes over pipes.

    The master holds one shared FIFO queue; an idle worker steals the
    next task the moment it finishes its previous one (pull-based
    work-stealing — one task in flight per worker, so an unlucky
    worker stuck on a heavy cell never strands queued work behind it).
    Workers are forked up front and inherit the task-runner closure,
    so only task {e strings} and result {e payloads} cross the pipes,
    line-framed.  Each reply also carries the registry delta its task
    produced in the worker; the master folds it into its own registry
    when it accepts the reply, so a task's counters are counted once,
    exactly when its result is.

    The pool is transport only: it keeps no durable state of its own.
    A caller that needs results to survive a crash persists them in
    the master as the replies arrive ({!poll}): Table II journals each
    cell, the serve daemon each response in its queue journal.  A
    master crash then loses at most the tasks still in flight.
    {!worker_slot} tells a runner which worker it runs in.

    Liveness: every worker message doubles as a heartbeat.  A worker
    that dies (EOF on its pipe) or blows the per-task wall watchdog is
    reaped and respawned into the same slot, and its in-flight task is
    re-dispatched — with the attempt number bumped so the caller's
    retry/backoff policy can escalate — up to [respawns] extra times
    before the task is failed.  Cancellation is cooperative: SIGINT
    (via {!install_sigint}) or {!cancel} stops dispatch, lets
    in-flight cells finish, and reports still-queued tasks as
    [Cancelled]. *)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_dispatched = Telemetry.Metrics.counter "fleet.dispatched"
let m_completed = Telemetry.Metrics.counter "fleet.completed"
let m_raised = Telemetry.Metrics.counter "fleet.task_raised"
let m_deaths = Telemetry.Metrics.counter "fleet.worker_deaths"
let m_respawns = Telemetry.Metrics.counter "fleet.respawns"
let m_redispatched = Telemetry.Metrics.counter "fleet.redispatched"
let m_failed = Telemetry.Metrics.counter "fleet.tasks_failed"
let m_cancelled = Telemetry.Metrics.counter "fleet.tasks_cancelled"
let m_timeouts = Telemetry.Metrics.counter "fleet.watchdog_kills"
let m_nacked = Telemetry.Metrics.counter "fleet.frames_nacked"
let m_bad_frames = Telemetry.Metrics.counter "fleet.frames_corrupt"
let m_expired = Telemetry.Metrics.counter "fleet.tasks_expired"
let m_quarantined = Telemetry.Metrics.counter "fleet.slots_quarantined"

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;
  respawns : int;
      (** extra dispatches a task gets after killing its worker *)
  task_timeout : float option;
      (** wall seconds a dispatched task may run before its worker is
          killed and the task re-dispatched (liveness watchdog) *)
  breaker : int option;
      (** circuit breaker: a slot whose worker dies this many times in
          a row (without one verified reply in between) is quarantined
          — no further respawns — instead of burning respawn cycles on
          a poisoned environment forever *)
  chaos : Robust.Chaos.fleet_point Robust.Chaos.io_state option;
      (** seeded IPC fault injection (master side): corrupt dispatch
          and reply frames, drop or delay replies, wedge workers past
          the watchdog.  [None] (the default) costs nothing. *)
}

let default_config =
  { workers = 2; respawns = 1; task_timeout = None; breaker = None;
    chaos = None }

type failure =
  | Worker_lost of int  (** workers died running it; the attempt count *)
  | Run_raised of string  (** the runner raised (worker survived) *)
  | Cancelled  (** still queued when the pool was cancelled *)
  | Expired  (** its deadline passed while it sat in the queue *)
  | Quarantined
      (** every worker slot is circuit-broken; the task can never run *)

let failure_to_string = function
  | Worker_lost n -> Printf.sprintf "worker lost (%d attempts)" n
  | Run_raised msg -> "runner raised: " ^ msg
  | Cancelled -> "cancelled"
  | Expired -> "deadline expired before execution"
  | Quarantined -> "all worker slots quarantined"

type result = {
  r_key : string;
  r_payload : (string, failure) Stdlib.result;
  r_submitted : float;  (** master monotonic-ish clock, for latency *)
  r_done : float;
}

type job = {
  j_id : int;
  j_key : string;
  j_task : string;
  j_submitted : float;
  j_deadline : float option;  (** absolute; checked at dispatch time *)
  mutable j_attempt : int;
}

type wstate = Idle | Busy of job * float (* dispatch time *)

type worker = {
  slot : int;
  mutable pid : int;
  mutable to_w : Unix.file_descr;   (** master write end *)
  mutable from_w : Unix.file_descr; (** master read end *)
  mutable rbuf : Buffer.t;
  mutable state : wstate;
  mutable w_alive : bool;
  mutable last_seen : float;
  mutable deaths : int;
      (** consecutive deaths without a verified reply in between —
          the circuit breaker's streak counter, deliberately carried
          across respawns *)
  mutable quarantined : bool;  (** circuit-broken: never respawned *)
}

type t = {
  cfg : config;
  run : attempt:int -> key:string -> string -> string;
  ws : worker array;
  queue : job Queue.t;
  mutable inflight : int;
  mutable next_id : int;
  done_q : result Queue.t;
  mutable pool_cancelled : bool;
  mutable closed : bool;
  mutable fork_hook : (unit -> unit) option;
      (** set after creation by an embedding daemon (see
          {!set_at_fork}): run in respawned workers so they drop
          inherited listener/client sockets *)
}

let now () = Unix.gettimeofday ()

(* single-line framing: tasks, keys and payloads cross the pipes as
   one line each; keys additionally separate from the task body with a
   tab.  Enforced at submit / in the worker reply. *)
let check_frame what s =
  if String.contains s '\n' then
    invalid_arg (Printf.sprintf "Fleet.Pool: %s contains a newline" what)

let check_key key =
  check_frame "key" key;
  if String.contains key '\t' then
    invalid_arg "Fleet.Pool: key contains a tab"

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* worker-side slot marker: lets runner closures (a trace lane) know
   which worker they execute in; [-1] in the master *)
let current_slot = ref (-1)

let worker_slot () = if !current_slot >= 0 then Some !current_slot else None

(* The child never returns: it loops on dispatch lines until [Q] or
   EOF, then [_exit]s without running the parent's at_exit handlers or
   flushing its inherited channel buffers. *)
let worker_loop ~slot ~run rd wr : 'a =
  let ic = Unix.in_channel_of_descr rd in
  let oc = Unix.out_channel_of_descr wr in
  current_slot := slot;
  Telemetry.Log.set_prefix (Printf.sprintf "[w%d] " slot);
  let send fmt =
    Printf.ksprintf
      (fun s ->
         output_string oc s;
         output_char oc '\n';
         flush oc)
      fmt
  in
  (* a fork inherits the parent's registry, so each reply ships the
     delta since the previous one (the first since this capture) *)
  let prev = ref (Telemetry.Snapshot.capture ()) in
  (* "D|X <id> <chk> <delta>\t<payload>", [chk] over everything after
     it: the delta is accepted or refused together with its reply *)
  let reply kind id payload =
    let cur = Telemetry.Snapshot.capture () in
    let delta = Telemetry.Snapshot.diff ~base:!prev cur in
    prev := cur;
    let body = Telemetry.Snapshot.to_json delta ^ "\t" ^ payload in
    send "%c %d %s %s" kind id (Robust.Journal.fnv64_hex body) body
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> Unix._exit 0
    | "Q" -> Unix._exit 0
    | line -> (
        (* "T <id> <attempt> <stall_ms> <chk> <key>\t<task>" where
           [chk] is the FNV-1a checksum of "<key>\t<task>" — a frame
           damaged in transit is detected here and nacked instead of
           silently running (or grading) garbage *)
        match String.split_on_char ' ' line with
        | "T" :: id :: attempt :: stall :: chk :: rest ->
            let id = int_of_string id and attempt = int_of_string attempt in
            let stall_ms = int_of_string stall in
            let body = String.concat " " rest in
            if not (String.equal chk (Robust.Journal.fnv64_hex body)) then begin
              (* damaged dispatch frame: refuse it by id; the master
                 re-sends without charging the task an attempt *)
              send "N %d" id;
              loop ()
            end
            else begin
              (* chaos stall directive: wedge here, before running, so
                 the master's wall watchdog sees a hung worker *)
              if stall_ms > 0 then
                ignore (Unix.select [] [] [] (float_of_int stall_ms /. 1e3));
              let key, task =
                match String.index_opt body '\t' with
                | Some i ->
                    ( String.sub body 0 i,
                      String.sub body (i + 1) (String.length body - i - 1) )
                | None -> (body, body)
              in
              (match run ~attempt ~key task with
               | payload ->
                   check_frame "payload" payload;
                   reply 'D' id payload
               | exception e ->
                   reply 'X' id
                     (String.map
                        (fun c -> if c = '\n' then ' ' else c)
                        (Printexc.to_string e)));
              loop ()
            end
        | _ -> Unix._exit 3 (* protocol violation: die loudly *))
  in
  (* whatever happens — a broken pipe racing the master's shutdown, a
     runner blowing the stack — the worker must die here, never return
     into the forked copy of the caller *)
  (try
     send "H %d" slot;
     loop ()
   with _ -> ());
  Unix._exit 4

(* ------------------------------------------------------------------ *)
(* Master side                                                         *)
(* ------------------------------------------------------------------ *)

let spawn (t : t) slot =
  (* the child inherits any buffered output; flush so nothing prints
     twice *)
  flush stdout;
  flush stderr;
  let w = t.ws.(slot) in
  let c_rd, m_wr = Unix.pipe () in (* master -> worker *)
  let m_rd, c_wr = Unix.pipe () in (* worker -> master *)
  match Unix.fork () with
  | 0 ->
      Unix.close m_wr;
      Unix.close m_rd;
      (* drop the master ends of every sibling's pipes, so a sibling
         death is visible to the master as EOF, not kept open here *)
      Array.iter
        (fun (ow : worker) ->
           if ow.slot <> slot && ow.w_alive then begin
             (try Unix.close ow.to_w with Unix.Unix_error _ -> ());
             (try Unix.close ow.from_w with Unix.Unix_error _ -> ())
           end)
        t.ws;
      (match t.fork_hook with Some f -> f () | None -> ());
      worker_loop ~slot ~run:t.run c_rd c_wr
  | pid ->
      Unix.close c_rd;
      Unix.close c_wr;
      (* non-blocking master reads: a stale fd number reused by a
         fresh pipe must never block a poll round *)
      Unix.set_nonblock m_rd;
      w.pid <- pid;
      w.to_w <- m_wr;
      w.from_w <- m_rd;
      Buffer.clear w.rbuf;
      w.state <- Idle;
      w.w_alive <- true;
      w.last_seen <- now ()

(* a worker dying between select and write must surface as EPIPE, not
   a fatal SIGPIPE *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let create ?(config = default_config) run : t =
  if config.workers < 1 then invalid_arg "Fleet.Pool.create: workers < 1";
  Lazy.force ignore_sigpipe;
  let t =
    { cfg = config;
      run;
      ws =
        Array.init config.workers (fun slot ->
            { slot; pid = -1; to_w = Unix.stdin; from_w = Unix.stdin;
              rbuf = Buffer.create 256; state = Idle; w_alive = false;
              last_seen = 0.; deaths = 0; quarantined = false });
      queue = Queue.create ();
      inflight = 0;
      next_id = 0;
      done_q = Queue.create ();
      pool_cancelled = false;
      closed = false;
      fork_hook = None }
  in
  for slot = 0 to config.workers - 1 do
    spawn t slot
  done;
  t

let submit (t : t) ?deadline ~key ~task () =
  if t.closed then invalid_arg "Fleet.Pool.submit: pool is closed";
  check_key key;
  check_frame "task" task;
  let j =
    { j_id = t.next_id; j_key = key; j_task = task; j_submitted = now ();
      j_deadline = deadline; j_attempt = 1 }
  in
  t.next_id <- t.next_id + 1;
  Queue.push j t.queue

let pending t = Queue.length t.queue + t.inflight
let queued t = Queue.length t.queue
let inflight t = t.inflight
let cancelled t = t.pool_cancelled
let cancel t = t.pool_cancelled <- true
let set_at_fork t f = t.fork_hook <- Some f

(** Install a SIGINT handler that cooperatively cancels the pool;
    returns a function restoring the previous handler. *)
let install_sigint t =
  let prev =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> cancel t))
  in
  fun () -> Sys.set_signal Sys.sigint prev

let complete (t : t) (j : job) payload =
  Queue.push
    { r_key = j.j_key; r_payload = payload; r_submitted = j.j_submitted;
      r_done = now () }
    t.done_q

(* a worker died (EOF / watchdog kill): reap it, settle or re-dispatch
   its in-flight task, and refill the slot — unless its death streak
   trips the circuit breaker, in which case the slot is quarantined *)
let bury (t : t) (w : worker) ~respawn =
  Telemetry.Metrics.incr m_deaths;
  w.deaths <- w.deaths + 1;
  w.w_alive <- false;
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
  (match w.state with
   | Idle -> ()
   | Busy (j, _) ->
       t.inflight <- t.inflight - 1;
       if t.pool_cancelled then begin
         Telemetry.Metrics.incr m_cancelled;
         complete t j (Error Cancelled)
       end
       else if j.j_attempt > t.cfg.respawns then begin
         Telemetry.Metrics.incr m_failed;
         Telemetry.Log.warnf
           "fleet: task %s failed — killed its worker %d time(s)" j.j_key
           j.j_attempt;
         complete t j (Error (Worker_lost j.j_attempt))
       end
       else begin
         Telemetry.Metrics.incr m_redispatched;
         Telemetry.Log.warnf
           "fleet: worker %d died running %s; re-dispatching (attempt %d)"
           w.slot j.j_key (j.j_attempt + 1);
         j.j_attempt <- j.j_attempt + 1;
         Queue.push j t.queue
       end);
  w.state <- Idle;
  if (match t.cfg.breaker with
      | Some k -> w.deaths >= k
      | None -> false)
  then begin
    if not w.quarantined then begin
      w.quarantined <- true;
      Telemetry.Metrics.incr m_quarantined;
      Telemetry.Log.warnf
        "fleet: slot %d died %d time(s) in a row; quarantined (no respawn)"
        w.slot w.deaths
    end
  end
  else if respawn && not t.closed then begin
    Telemetry.Metrics.incr m_respawns;
    spawn t w.slot
  end

(* ---- chaos: frame corruption at the pipe boundary ---- *)

(* flip one byte — never a framing byte ('\t'/'\n') — to something
   visibly wrong; the checksum machinery must catch it *)
let corrupt_at line i =
  let b = Bytes.of_string line in
  let i =
    if i < Bytes.length b && Bytes.get b i <> '\t' && Bytes.get b i <> '\n'
    then i
    else i - 1
  in
  Bytes.set b i (if Bytes.get b i = '#' then '!' else '#');
  Bytes.unsafe_to_string b

(* dispatch frames: corrupt the "<key>\t<task>" body region, which is
   the trailing [body_len + 1] bytes of the line (incl. '\n') *)
let corrupt_dispatch_frame ~body_len line =
  corrupt_at line (String.length line - 1 - body_len + (body_len / 2))

(* reply frames ("D <id> <chk> <delta>\t<payload>"): corrupt past the
   third space, i.e. in the checksummed body *)
let corrupt_reply_frame line =
  let n = String.length line in
  let sp = ref 0 and i = ref 0 in
  while !sp < 3 && !i < n do
    if line.[!i] = ' ' then incr sp;
    incr i
  done;
  if !i >= n then line else corrupt_at line (!i + ((n - !i) / 2))

let dispatch_one (t : t) (w : worker) (j : job) =
  w.state <- Busy (j, now ());
  t.inflight <- t.inflight + 1;
  Telemetry.Metrics.incr m_dispatched;
  (* chaos: a stall directive makes the worker wedge well past the
     wall watchdog before touching the task — only meaningful when a
     watchdog exists to catch it *)
  let stall_ms =
    match (t.cfg.chaos, t.cfg.task_timeout) with
    | Some st, Some limit
      when Robust.Chaos.io_fires st Robust.Chaos.Worker_stall ->
        int_of_float (limit *. 2500.)
    | _ -> 0
  in
  let body = j.j_key ^ "\t" ^ j.j_task in
  let line =
    Printf.sprintf "T %d %d %d %s %s\n" j.j_id j.j_attempt stall_ms
      (Robust.Journal.fnv64_hex body) body
  in
  let line =
    match t.cfg.chaos with
    | Some st when Robust.Chaos.io_fires st Robust.Chaos.Corrupt_dispatch
      ->
        corrupt_dispatch_frame ~body_len:(String.length body) line
    | _ -> line
  in
  match write_all w.to_w line with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      (* the worker died before taking the task: not the task's fault,
         so put it back without charging an attempt *)
      t.inflight <- t.inflight - 1;
      w.state <- Idle;
      Queue.push j t.queue;
      bury t w ~respawn:true

(* next runnable job, settling queue-expired ones along the way *)
let rec take_job (t : t) =
  match Queue.take_opt t.queue with
  | None -> None
  | Some j -> (
      match j.j_deadline with
      | Some d when now () > d ->
          Telemetry.Metrics.incr m_expired;
          Telemetry.Log.warnf
            "fleet: task %s expired in queue before dispatch" j.j_key;
          complete t j (Error Expired);
          take_job t
      | _ -> Some j)

let dispatch (t : t) =
  Array.iter
    (fun w ->
       if w.w_alive && w.state = Idle && not t.pool_cancelled then
         match take_job t with
         | Some j -> dispatch_one t w j
         | None -> ())
    t.ws;
  (* circuit-broken pool: every slot quarantined with work still
     queued — it can never run, so fail it now rather than spinning *)
  if not t.closed && t.inflight = 0
     && not (Queue.is_empty t.queue)
     && Array.for_all (fun w -> (not w.w_alive) && w.quarantined) t.ws
  then
    while not (Queue.is_empty t.queue) do
      let j = Queue.pop t.queue in
      Telemetry.Metrics.incr m_failed;
      complete t j (Error Quarantined)
    done

(* a reply frame that failed its checksum (or is unparseable while a
   task is in flight): the channel can no longer be trusted — kill the
   incarnation and let [bury] re-dispatch its task.  The frame's delta
   goes with it: the re-run's reply carries the task's counters. *)
let recover_corrupt_channel (t : t) (w : worker) line =
  Telemetry.Metrics.incr m_bad_frames;
  Telemetry.Log.warnf
    "fleet: worker %d sent a corrupt frame %S; killing and re-dispatching"
    w.slot
    (String.sub line 0 (min 48 (String.length line)));
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  bury t w ~respawn:true

(* one complete line from worker [w] *)
let handle_line (t : t) (w : worker) line =
  w.last_seen <- now ();
  (* chaos: reply frames can be dropped (only under a watchdog that
     will eventually recover the silence), delayed, or corrupted on
     the way in *)
  let is_reply =
    String.length line >= 2
    && (line.[0] = 'D' || line.[0] = 'X')
    && line.[1] = ' '
  in
  let line =
    match t.cfg.chaos with
    | Some st when is_reply ->
        if
          t.cfg.task_timeout <> None
          && Robust.Chaos.io_fires st Robust.Chaos.Drop_reply
        then begin
          Telemetry.Log.warnf
            "fleet(chaos): dropped a reply frame from worker %d" w.slot;
          None
        end
        else begin
          if Robust.Chaos.io_fires st Robust.Chaos.Delay_reply then
            ignore (Unix.select [] [] [] 0.02);
          if Robust.Chaos.io_fires st Robust.Chaos.Corrupt_reply then
            Some (corrupt_reply_frame line)
          else Some line
        end
    | _ -> Some line
  in
  match line with
  | None -> ()
  | Some line -> (
      match String.split_on_char ' ' line with
      | "H" :: _ -> () (* hello/heartbeat *)
      | "N" :: id_s :: _ -> (
          (* the worker refused a dispatch frame that failed its
             checksum: damage in transit, not the task's fault — put
             it back without charging an attempt *)
          match (int_of_string_opt id_s, w.state) with
          | Some id, Busy (j, _) when j.j_id = id ->
              Telemetry.Metrics.incr m_nacked;
              Telemetry.Log.warnf
                "fleet: worker %d nacked a damaged dispatch frame for %s; \
                 re-sending"
                w.slot j.j_key;
              w.deaths <- 0;
              w.state <- Idle;
              t.inflight <- t.inflight - 1;
              Queue.push j t.queue
          | _ ->
              Telemetry.Log.warnf
                "fleet: worker %d nacked an unexpected frame; dropped" w.slot)
      | ("D" | "X") :: id_s :: chk :: rest -> (
          let body = String.concat " " rest in
          match (int_of_string_opt id_s, String.index_opt body '\t') with
          | Some id, Some i
            when String.equal chk (Robust.Journal.fnv64_hex body) -> (
              match (Telemetry.Snapshot.of_json (String.sub body 0 i), w.state)
              with
              | None, _ -> recover_corrupt_channel t w line
              | Some delta, Busy (j, _) when j.j_id = id ->
                  (* a verified reply proves the slot healthy: reset the
                     breaker streak *)
                  w.deaths <- 0;
                  w.state <- Idle;
                  t.inflight <- t.inflight - 1;
                  Telemetry.Snapshot.publish delta;
                  let payload =
                    String.sub body (i + 1) (String.length body - i - 1)
                  in
                  if line.[0] = 'D' then begin
                    Telemetry.Metrics.incr m_completed;
                    complete t j (Ok payload)
                  end
                  else begin
                    Telemetry.Metrics.incr m_raised;
                    complete t j (Error (Run_raised payload))
                  end
              | Some _, _ ->
                  Telemetry.Log.warnf
                    "fleet: worker %d answered for unexpected task %d; \
                     dropped"
                    w.slot id)
          | _ -> recover_corrupt_channel t w line)
      | _ -> (
          match w.state with
          | Busy _ -> recover_corrupt_channel t w line
          | Idle ->
              Telemetry.Log.warnf "fleet: worker %d sent garbage %S" w.slot
                line))

let pump_worker (t : t) (w : worker) =
  let chunk = Bytes.create 65536 in
  match Unix.read w.from_w chunk 0 (Bytes.length chunk) with
  | 0 -> bury t w ~respawn:true
  | n ->
      Buffer.add_subbytes w.rbuf chunk 0 n;
      let data = Buffer.contents w.rbuf in
      let rec split from =
        match String.index_from_opt data from '\n' with
        | None ->
            Buffer.clear w.rbuf;
            Buffer.add_substring w.rbuf data from (String.length data - from)
        | Some i ->
            handle_line t w (String.sub data from (i - from));
            split (i + 1)
      in
      split 0
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
      bury t w ~respawn:true

let watchdog (t : t) =
  match t.cfg.task_timeout with
  | None -> ()
  | Some limit ->
      let deadline_passed t0 = now () -. t0 > limit in
      Array.iter
        (fun w ->
           match w.state with
           | Busy (j, t0) when w.w_alive && deadline_passed t0 ->
               Telemetry.Metrics.incr m_timeouts;
               Telemetry.Log.warnf
                 "fleet: worker %d stuck on %s > %.1fs; killing" w.slot
                 j.j_key limit;
               (try Unix.kill w.pid Sys.sigkill
                with Unix.Unix_error _ -> ());
               bury t w ~respawn:true
           | _ -> ())
        t.ws

(** Readable fds to select on while embedding the pool in a larger
    event loop (the serve daemon): one per live worker. *)
let fds (t : t) =
  Array.to_list t.ws
  |> List.filter_map (fun w -> if w.w_alive then Some w.from_w else None)

(** One scheduling round: dispatch queued tasks to idle workers, wait
    up to [timeout] for worker messages, collect results.  Returns the
    tasks completed so far (drains the internal done-queue). *)
let poll ?(timeout = 0.05) (t : t) : result list =
  dispatch t;
  let rd = fds t in
  (if rd <> [] && t.inflight > 0 then
     match Unix.select rd [] [] timeout with
     | readable, _, _ ->
         List.iter
           (fun fd ->
              match
                Array.to_list t.ws
                |> List.find_opt (fun w -> w.w_alive && w.from_w = fd)
              with
              | Some w -> pump_worker t w
              | None -> ())
           readable
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  watchdog t;
  dispatch t;
  let out = ref [] in
  Queue.iter (fun r -> out := r :: !out) t.done_q;
  Queue.clear t.done_q;
  List.rev !out

(** Run the pool to completion (or to cooperative cancellation):
    blocks until every submitted task has a result.  Tasks still
    queued when the pool is cancelled come back as [Error Cancelled]. *)
let drain (t : t) : result list =
  let acc = ref [] in
  while pending t > 0 && not (t.pool_cancelled && t.inflight = 0) do
    acc := List.rev_append (poll ~timeout:0.25 t) !acc
  done;
  (* cancelled: fail what never ran *)
  Queue.iter
    (fun j ->
       Telemetry.Metrics.incr m_cancelled;
       complete t j (Error Cancelled))
    t.queue;
  Queue.clear t.queue;
  acc := List.rev_append (poll ~timeout:0. t) !acc;
  List.rev !acc

(** Quit every worker and reap it.  Idempotent. *)
let shutdown (t : t) =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun w ->
         if w.w_alive then
           try ignore (Unix.write_substring w.to_w "Q\n" 0 2)
           with Unix.Unix_error _ -> ())
      t.ws;
    Array.iter
      (fun w ->
         if w.w_alive then begin
           (try Unix.close w.to_w with Unix.Unix_error _ -> ());
           (try Unix.close w.from_w with Unix.Unix_error _ -> ());
           w.w_alive <- false;
           (* give it a moment to exit cleanly, then force it *)
           let rec reap tries =
             match Unix.waitpid [ Unix.WNOHANG ] w.pid with
             | 0, _ ->
                 if tries = 0 then begin
                   (try Unix.kill w.pid Sys.sigkill
                    with Unix.Unix_error _ -> ());
                   ignore (Unix.waitpid [] w.pid)
                 end
                 else begin
                   ignore (Unix.select [] [] [] 0.01);
                   reap (tries - 1)
                 end
             | _ -> ()
             | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
           in
           reap 100
         end)
      t.ws
  end

(* ------------------------------------------------------------------ *)
(* Observability (master side)                                         *)
(* ------------------------------------------------------------------ *)

let alive_workers (t : t) =
  Array.fold_left (fun n w -> if w.w_alive then n + 1 else n) 0 t.ws

(** Per-slot status: (slot, alive, quarantined, in-flight task key if
    busy). *)
let worker_states (t : t) : (int * bool * bool * string option) list =
  Array.to_list t.ws
  |> List.map (fun w ->
      let task =
        match w.state with Busy (j, _) -> Some j.j_key | Idle -> None
      in
      (w.slot, w.w_alive, w.quarantined, task))

(** Circuit-broken slot count. *)
let quarantined_workers (t : t) =
  Array.fold_left (fun n w -> if w.quarantined then n + 1 else n) 0 t.ws
