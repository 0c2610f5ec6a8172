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

    Liveness: a worker that dies (EOF on its pipe) or blows the
    per-task wall watchdog is reaped and respawned into the same slot,
    and its in-flight task is re-dispatched, with the attempt number
    the runner sees bumped, up to [respawns] extra times before the
    task is failed.  Every frame carries a checksum of its body, and a
    damaged frame takes the same path: a worker that reads a damaged
    dispatch frame exits, and a worker whose reply frame fails its
    check is killed.

    Cancellation is cooperative: SIGINT (via {!install_sigint}) or
    {!cancel} stops dispatch, lets in-flight cells finish, and reports
    still-queued tasks as [Cancelled]. *)

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
let m_bad_frames = Telemetry.Metrics.counter "fleet.frames_corrupt"

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
}

let default_config = { workers = 2; respawns = 1; task_timeout = None }

type failure =
  | Worker_lost of int  (** workers died running it; the attempt count *)
  | Run_raised of string  (** the runner raised (worker survived) *)
  | Cancelled  (** still queued when the pool was cancelled *)

let failure_to_string = function
  | Worker_lost n -> Printf.sprintf "worker lost (%d attempts)" n
  | Run_raised msg -> "runner raised: " ^ msg
  | Cancelled -> "cancelled"

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
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* A dispatch frame is "T <id> <attempt> <chk> <key>\t<task>", a reply
   frame "D|X <id> <chk> <delta>\t<payload>" ([X]: the runner raised,
   the payload is the exception text).  [chk] is the FNV-1a checksum of
   everything after it, so the far end refuses a frame damaged in
   transit instead of running or grading garbage, and a reply's
   registry delta is accepted or refused together with its payload. *)

let checksum = Robust.Diskio.fnv64_hex

(* "<chk> <body>" split on spaces: the body, if it passes its check *)
let checked = function
  | chk :: words ->
      let body = String.concat " " words in
      if String.equal chk (checksum body) then Some body else None
  | [] -> None

let split_tab body =
  match String.index_opt body '\t' with
  | Some i ->
      let n = String.length body in
      Some (String.sub body 0 i, String.sub body (i + 1) (n - i - 1))
  | None -> None

let dispatch_frame (j : job) =
  let body = j.j_key ^ "\t" ^ j.j_task in
  Printf.sprintf "T %d %d %s %s" j.j_id j.j_attempt (checksum body) body

(** A sound dispatch frame's (id, attempt, key, task). *)
let decode_dispatch line =
  match String.split_on_char ' ' line with
  | "T" :: id :: attempt :: rest -> (
      match
        (int_of_string_opt id, int_of_string_opt attempt,
         Option.bind (checked rest) split_tab)
      with
      | Some id, Some attempt, Some (key, task) -> Some (id, attempt, key, task)
      | _ -> None)
  | _ -> None

type reply = {
  id : int;
  raised : bool;
  delta : Telemetry.Snapshot.t;
  payload : string;
}

let reply_frame { id; raised; delta; payload } =
  let body = Telemetry.Snapshot.to_json delta ^ "\t" ^ payload in
  Printf.sprintf "%c %d %s %s" (if raised then 'X' else 'D') id (checksum body)
    body

(** A sound reply frame, or [None] when it fails its check or does not
    parse: nothing of such a frame may be used, its delta included. *)
let decode_reply line =
  match String.split_on_char ' ' line with
  | ("D" | "X") :: id :: rest -> (
      match (int_of_string_opt id, Option.bind (checked rest) split_tab) with
      | Some id, Some (delta, payload) ->
          Option.map
            (fun delta -> { id; raised = line.[0] = 'X'; delta; payload })
            (Telemetry.Snapshot.of_json delta)
      | _ -> None)
  | _ -> None

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
  let send s =
    output_string oc s;
    output_char oc '\n';
    flush oc
  in
  (* a fork inherits the parent's registry, so each reply ships the
     delta since the previous one (the first since this capture) *)
  let prev = ref (Telemetry.Snapshot.capture ()) in
  let reply ~raised id payload =
    let cur = Telemetry.Snapshot.capture () in
    let delta = Telemetry.Snapshot.diff ~base:!prev cur in
    prev := cur;
    send (reply_frame { id; raised; delta; payload })
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> Unix._exit 0
    | "Q" -> Unix._exit 0
    | line -> (
        match decode_dispatch line with
        | Some (id, attempt, key, task) ->
            (match run ~attempt ~key task with
             | payload ->
                 check_frame "payload" payload;
                 reply ~raised:false id payload
             | exception e ->
                 reply ~raised:true id
                   (String.map
                      (fun c -> if c = '\n' then ' ' else c)
                      (Printexc.to_string e)));
            loop ()
        | None ->
            (* a damaged or malformed frame: die loudly; the master
               re-dispatches the task as it does a dead worker's *)
            Unix._exit 3)
  in
  (* whatever happens — a broken pipe racing the master's shutdown, a
     runner blowing the stack — the worker must die here, never return
     into the forked copy of the caller *)
  (try
     send (Printf.sprintf "H %d" slot);
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
      w.w_alive <- true

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
              rbuf = Buffer.create 256; state = Idle; w_alive = false });
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

let submit (t : t) ~key ~task =
  if t.closed then invalid_arg "Fleet.Pool.submit: pool is closed";
  check_key key;
  check_frame "task" task;
  let j =
    { j_id = t.next_id; j_key = key; j_task = task; j_submitted = now ();
      j_attempt = 1 }
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

(* a worker died (EOF / watchdog kill / damaged frame): reap it, settle
   or re-dispatch its in-flight task, and refill the slot *)
let bury (t : t) (w : worker) =
  Telemetry.Metrics.incr m_deaths;
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
  if not t.closed then begin
    Telemetry.Metrics.incr m_respawns;
    spawn t w.slot
  end

(* hand [j] to idle worker [w] as [frame] (normally [dispatch_frame j]) *)
let dispatch_one (t : t) (w : worker) (j : job) frame =
  w.state <- Busy (j, now ());
  t.inflight <- t.inflight + 1;
  Telemetry.Metrics.incr m_dispatched;
  match write_all w.to_w (frame ^ "\n") with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      (* the worker died before taking the task: not the task's fault,
         so put it back without charging an attempt *)
      t.inflight <- t.inflight - 1;
      w.state <- Idle;
      Queue.push j t.queue;
      bury t w

let dispatch (t : t) =
  Array.iter
    (fun w ->
       if w.w_alive && w.state = Idle && not t.pool_cancelled then
         match Queue.take_opt t.queue with
         | Some j -> dispatch_one t w j (dispatch_frame j)
         | None -> ())
    t.ws

(* a line that is not a sound frame: the channel can no longer be
   trusted — kill the incarnation and let [bury] re-dispatch its task.
   The frame's delta goes with it: the re-run's reply carries the
   task's counters. *)
let recover_corrupt_channel (t : t) (w : worker) line =
  Telemetry.Metrics.incr m_bad_frames;
  Telemetry.Log.warnf
    "fleet: worker %d sent a corrupt frame %S; killing and re-dispatching"
    w.slot
    (String.sub line 0 (min 48 (String.length line)));
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  bury t w

(* one complete line from worker [w] *)
let handle_line (t : t) (w : worker) line =
  if not (String.starts_with ~prefix:"H " line) then
    match (decode_reply line, w.state) with
    | None, _ -> recover_corrupt_channel t w line
    | Some r, Busy (j, _) when j.j_id = r.id ->
        w.state <- Idle;
        t.inflight <- t.inflight - 1;
        Telemetry.Snapshot.publish r.delta;
        if r.raised then begin
          Telemetry.Metrics.incr m_raised;
          complete t j (Error (Run_raised r.payload))
        end
        else begin
          Telemetry.Metrics.incr m_completed;
          complete t j (Ok r.payload)
        end
    | Some r, _ ->
        Telemetry.Log.warnf
          "fleet: worker %d answered for unexpected task %d; dropped" w.slot
          r.id

let pump_worker (t : t) (w : worker) =
  let chunk = Bytes.create 65536 in
  match Unix.read w.from_w chunk 0 (Bytes.length chunk) with
  | 0 -> bury t w
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
      bury t w

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
               bury t w
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

(** Per-slot status: (slot, alive, in-flight task key if busy). *)
let worker_states (t : t) : (int * bool * string option) list =
  Array.to_list t.ws
  |> List.map (fun w ->
      let task =
        match w.state with Busy (j, _) -> Some j.j_key | Idle -> None
      in
      (w.slot, w.w_alive, task))
