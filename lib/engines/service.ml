(** The [eval serve] analysis service: request/response codec, the
    worker-side runner, and the line-oriented clients behind
    [eval submit] / [eval drain].

    A request is one JSON line:
    [{"op":"submit","id":ID,"tool":T,"bomb":B,"budget":SPEC|null,
      "incremental":BOOL,"ladder":BOOL}]
    — a Table II cell (bomb + tool profile) plus its supervision
    budget.  The daemon ({!Fleet.Serve}) acks it as queued and later
    streams back the graded outcome:
    [{"id":ID,"status":"done","key":"TOOL/bomb","grade":G,
      "cause":C|null,"stage":Es|null,"attempts":N,
      "outcome":<full supervised outcome>}]
    with [cause]/[stage] carrying the supervisor's attribution
    ([degraded:give_up], [exhausted:smt], …, [Es0]..[Es3]) and
    [outcome] the complete {!Journal_codec} record. *)

open Telemetry.Trace_check

let esc = Robust.Journal.json_escape
let str s = "\"" ^ esc s ^ "\""

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(** [idem] is the request's idempotency key (defaults to [id]): the
    daemon's durable queue dedupes resubmissions on it, so a client
    that resubmits after a crash reuses the same key and gets the
    journaled outcome instead of a second grading. *)
let encode_request ~id ?idem ~tool ~bomb ?budget ?(incremental = true)
    ?(ladder = true) () =
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":%s,\"idem\":%s,\"tool\":%s,\"bomb\":%s,\
     \"budget\":%s,\"incremental\":%b,\"ladder\":%b}"
    (str id)
    (str (Option.value ~default:id idem))
    (str (Profile.name tool)) (str bomb)
    (match budget with None -> "null" | Some s -> str s)
    incremental ladder

type request = {
  rq_id : string option;
  rq_tool : Profile.tool;
  rq_bomb : Bombs.Common.t;
  rq_policy : Supervisor.policy;  (** ["ladder":false] empties its ladder *)
  rq_incremental : bool;
}

let decode_request line : (request, string) Stdlib.result =
  match parse_opt line with
  | None -> Error "request is not valid JSON"
  | Some j -> (
      let id = match member "id" j with Some (Str s) -> Some s | _ -> None in
      let bool_field name default =
        match member name j with Some (Bool b) -> b | _ -> default
      in
      match (member "tool" j, member "bomb" j) with
      | Some (Str t), Some (Str b) -> (
          match (Profile.of_name t, Bombs.Catalog.find_opt b) with
          | None, _ -> Error (Printf.sprintf "unknown tool %S" t)
          | _, None -> Error (Printf.sprintf "unknown bomb %S" b)
          | Some tool, Some bomb -> (
              let budget =
                match member "budget" j with
                | Some (Str spec) -> (
                    match Robust.Budget.parse spec with
                    | Ok b -> Ok b
                    | Error e -> Error ("bad budget: " ^ e))
                | _ -> Ok Robust.Budget.unlimited
              in
              match budget with
              | Error e -> Error e
              | Ok budget ->
                  let ladder =
                    if bool_field "ladder" true then
                      Supervisor.default_policy.ladder
                    else []
                  in
                  Ok
                    { rq_id = id;
                      rq_tool = tool;
                      rq_bomb = bomb;
                      rq_policy = { Supervisor.budget; ladder };
                      rq_incremental = bool_field "incremental" true }))
      | _ -> Error "request needs string fields \"tool\" and \"bomb\"")

(* ------------------------------------------------------------------ *)
(* Worker runner                                                       *)
(* ------------------------------------------------------------------ *)

let opt_id = function None -> "null" | Some i -> str i

let error_response ~id msg =
  Printf.sprintf "{\"id\":%s,\"status\":\"error\",\"error\":%s}" (opt_id id)
    (str msg)

(** Runs inside a {!Fleet.Pool} worker: decode the request line, run
    the supervised cell, encode the streamed outcome.  Total — every
    failure becomes an error response line, so the daemon never sees a
    raising runner for a malformed request. *)
let worker_run ~attempt:_ ~key:_ (task : string) : string =
  match decode_request task with
  | Error msg -> error_response ~id:None msg
  | Ok rq -> (
      match
        Supervisor.run_cell ~incremental:rq.rq_incremental
          ~policy:rq.rq_policy rq.rq_tool rq.rq_bomb
      with
      | o ->
          Printf.sprintf
            "{\"id\":%s,\"status\":\"done\",\"key\":%s,\"grade\":%s,\
             \"cause\":%s,\"stage\":%s,\"attempts\":%d,\"outcome\":%s}"
            (opt_id rq.rq_id)
            (str (Eval.cell_key rq.rq_tool rq.rq_bomb))
            (Journal_codec.encode_cell o.Supervisor.graded.cell)
            (match o.Supervisor.cause with
             | None -> "null"
             | Some c -> str (Supervisor.cause_name c))
            (match o.Supervisor.stage with
             | None -> "null"
             | Some s -> str (Journal_codec.encode_stage s))
            o.Supervisor.attempts
            (Journal_codec.encode_outcome o)
      | exception e ->
          error_response ~id:rq.rq_id
            ("cell raised: " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Daemon entry                                                        *)
(* ------------------------------------------------------------------ *)

(** The serving configuration's stable fingerprint: protocol version,
    tool set and the full bomb catalog (names and images).  Stamped on
    the durable queue journal so a daemon restarted under a different
    build or catalog refuses to replay its outcomes. *)
let queue_fingerprint () =
  Robust.Journal.fingerprint
    (Fleet.Serve.version
     :: List.map Profile.name Profile.all
     @ List.concat_map Eval.bomb_fingerprint Bombs.Catalog.all)

(** Run the [eval serve] daemon on [socket] until drained.  Raises
    {!Fleet.Serve.Socket_in_use} / {!Fleet.Serve.Stale_socket} instead
    of binding over an existing socket, and
    {!Fleet.Serve.Journal_mismatch} when [queue_journal] was written
    under a different configuration (unless [force]).

    [task_timeout] is the per-cell wall watchdog. *)
let serve ?(workers = 2) ?(max_queue = 10_000) ?queue_journal
    ?(force = false) ?task_timeout ~socket () =
  let pool =
    Fleet.Pool.create
      ~config:{ Fleet.Pool.default_config with workers; task_timeout }
      worker_run
  in
  match
    Fleet.Serve.run
      { (Fleet.Serve.default_config ~socket) with
        max_queue; queue_journal; force;
        run_fingerprint = queue_fingerprint () }
      ~pool
  with
  | () -> ()
  | exception e ->
      Fleet.Pool.shutdown pool;
      raise e

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let with_connection socket f =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       f (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd))

let status_of_line line =
  match Option.bind (parse_opt line) (member "status") with
  | Some (Str s) -> Some s
  | _ -> None

(** Submit every request line and stream responses to [on_line] until
    each request has its final answer (done / error / rejected).
    Returns the number of requests that did not come back [done]. *)
let submit ~socket ?(on_line = fun (_ : string) -> ()) (requests : string list)
  : int =
  with_connection socket @@ fun ic oc ->
  List.iter
    (fun r ->
       output_string oc r;
       output_char oc '\n')
    requests;
  flush oc;
  let total = List.length requests in
  let finals = ref 0 in
  let failures = ref 0 in
  while !finals < total do
    let line = input_line ic in
    on_line line;
    match status_of_line line with
    | Some "queued" -> ()
    | Some "done" -> incr finals
    | Some ("error" | "rejected") ->
        incr finals;
        incr failures
    | _ -> ()
  done;
  !failures

(** Ask the daemon to finish its queue and shut down; streams status
    lines until the final [drained] acknowledgement. *)
let drain ~socket ?(on_line = fun (_ : string) -> ()) () : unit =
  with_connection socket @@ fun ic oc ->
  output_string oc "{\"op\":\"drain\"}\n";
  flush oc;
  let rec wait () =
    let line = input_line ic in
    on_line line;
    if status_of_line line <> Some "drained" then wait ()
  in
  wait ()

(** Liveness probe: the daemon's queue depth, or [None] if nothing
    answers on the socket. *)
let ping ~socket () : int option =
  match
    with_connection socket @@ fun ic oc ->
    output_string oc "{\"op\":\"ping\"}\n";
    flush oc;
    input_line ic
  with
  | line -> (
      match Option.bind (parse_opt line) (member "pending") with
      | Some (Num n) -> Some (int_of_float n)
      | _ -> None)
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> None

(* one-line request/response round trip; [None] when nothing answers *)
let request ~socket line : string option =
  match
    with_connection socket @@ fun ic oc ->
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  with
  | reply -> Some reply
  | exception (Unix.Unix_error _ | End_of_file | Sys_error _) -> None

(** The daemon's [health] summary (uptime, workers alive, queue depth,
    request latency percentiles) as its raw JSON line. *)
let health ~socket () : string option =
  request ~socket "{\"op\":\"health\"}"

(** The daemon's aggregated metrics (its own registry merged with
    everything its workers reported): the raw JSON response, or with
    [prometheus] the text exposition extracted from it. *)
let metrics ~socket ?(prometheus = false) () : string option =
  if not prometheus then request ~socket "{\"op\":\"metrics\"}"
  else
    Option.bind
      (request ~socket "{\"op\":\"metrics\",\"format\":\"prometheus\"}")
      (fun line ->
         match Option.bind (parse_opt line) (member "text") with
         | Some (Str text) -> Some text
         | _ -> None)
