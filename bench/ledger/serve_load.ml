(** serve-trace: the grid-trace cells as requests to an
    [Engines.Service.serve] daemon with two workers and a durable queue
    journal, from one client connection that keeps two requests in
    flight (a closed loop).  Each cycle sends every cell once, in a
    fresh seeded order. *)

open Engines
open Harness

let in_flight = 2

type daemon = { pid : int; socket : string; journal : string }

let remove path = try Sys.remove path with Sys_error _ -> ()

(* SIGTERM drains the daemon; a daemon that does not exit within 30 s
   is killed so no run outlives its time limit *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  remove d.socket;
  remove d.journal

let start ctx =
  let d =
    { pid = 0;
      socket = Filename.concat ctx.tmp "serve.sock";
      journal = Filename.concat ctx.tmp "queue.jsonl" }
  in
  (* a journal left by an earlier daemon would warm-restart this one *)
  remove d.socket;
  remove d.journal;
  flush_all ();
  let d =
    match Unix.fork () with
    | 0 -> (
        match
          Service.serve ~workers:2 ~queue_journal:d.journal ~socket:d.socket ()
        with
        | () -> Unix._exit 0
        | exception _ -> Unix._exit 1)
    | pid -> { d with pid }
  in
  let deadline = now () +. 30. in
  let rec await () =
    if Service.ping ~socket:d.socket () = None then
      if now () > deadline then begin
        stop d;
        failwith "serve daemon never answered"
      end
      else begin
        Unix.sleepf 0.01;
        await ()
      end
  in
  await ();
  d

let request ~id (c : Inproc.cell) =
  Service.encode_request ~id ~tool:c.tool ~bomb:c.bomb.name ()

let str_field name json =
  match Option.bind json (Telemetry.Trace_check.member name) with
  | Some (Telemetry.Trace_check.Str s) -> Some s
  | _ -> None

(* the daemon's counters, merged with every worker's, by name *)
let daemon_counters d =
  let open Telemetry.Trace_check in
  let c =
    Option.bind (Service.metrics ~socket:d.socket ()) parse_opt
    |> Fun.flip Option.bind (member "metrics")
    |> Fun.flip Option.bind (member "c")
  in
  List.map
    (fun n ->
       match Option.bind c (member n) with
       | Some (Num v) -> (n, v)
       | _ -> (n, 0.))
    Layers.counters

(* the traced cycle, in process: every cell through the worker's own
   runner, then through the decomposed stages, and every journal record
   the daemon wrote for it appended to a scratch journal *)
let traced ctx rng (golden : Golden.t) cells ~counts ~cycles ~lats =
  let times = Layers.create () in
  let order = shuffled rng cells in
  let t0 = now () in
  let replies =
    Array.map
      (fun c ->
         let line = request ~id:(Inproc.key c) c in
         (line, Service.worker_run ~attempt:1 ~key:"traced" line))
      order
  in
  let worker_s = now () -. t0 in
  let diverged = ref [] in
  let w0 = Layers.smt_wall () and t1 = now () in
  Array.iter
    (fun (c : Inproc.cell) ->
       let _, cell =
         Layers.cell times ~tool:c.tool ~bomb:c.bomb ~budget:c.policy.budget
       in
       let got = Concolic.Error.cell_symbol cell in
       if Hashtbl.find_opt golden.grades (Inproc.key c) <> Some got then
         diverged := Inproc.key c :: !diverged)
    order;
  let traced_s = now () -. t1 in
  Layers.add times "smt.check_ms" (1000. *. (Layers.smt_wall () -. w0));
  let path = Filename.concat ctx.tmp "probe.jsonl" in
  remove path;
  let w = Robust.Journal.open_writer ~fingerprint:"probe" path in
  let append key payload =
    let t = now () in
    Robust.Journal.append w ~key ~payload;
    Layers.add times "_append_us" (1e6 *. (now () -. t));
    Layers.add times "_appends_probed" 1.
  in
  Array.iteri
    (fun i (line, reply) ->
       let key = Printf.sprintf "probe%d" i in
       let esc = Robust.Journal.json_escape in
       append key (Printf.sprintf "{\"phase\":\"acc\",\"req\":\"%s\"}" (esc line));
       append key
         (Printf.sprintf "{\"phase\":\"done\",\"resp\":\"%s\"}" (esc reply)))
    replies;
  Robust.Journal.close_writer w;
  remove path;
  let mean_latency_s =
    Stats.ratio (List.fold_left ( +. ) 0. lats) (float_of_int (List.length lats))
  in
  let values =
    Layers.values ~counts ~count_passes:cycles ~times
      ~cell_ms:(1000. *. worker_s) ~traced_s ~untraced_s:worker_s
      ~fleet_overhead_ms:
        (1000.
         *. (mean_latency_s -. (worker_s /. float_of_int (Array.length order))))
  in
  (values, !diverged)

let measure ctx (golden : Golden.t) cells d () =
  let rng = Random.State.make [| ctx.seed |] in
  let before = daemon_counters d in
  let fd = Service.connect d.socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let n = Array.length cells in
  (* id -> send time, cell, cycle *)
  let sent : (string, float * Inproc.cell * int) Hashtbl.t = Hashtbl.create 8 in
  let cycle_start = Hashtbl.create 64 and cycle_left = Hashtbl.create 64 in
  let walls = ref [] and lats = ref [] in
  let failed = ref 0 and lost = ref 0 and mismatched = Hashtbl.create 8 in
  let order = ref [||] and pos = ref n and cycles = ref 0 and next_id = ref 0 in
  let max_cycles = if ctx.smoke then 2 else max_int in
  let start = now () in
  (* a new cycle starts only if it should end within the budget *)
  let another_cycle () =
    !cycles = 0
    || !cycles < max_cycles
       && now () -. start
          +. (if !walls = [] then 0. else Stats.median !walls)
          <= ctx.seconds
  in
  let send () =
    if !pos = n && another_cycle () then begin
      order := shuffled rng cells;
      pos := 0;
      Hashtbl.replace cycle_left !cycles n;
      incr cycles
    end;
    if !pos < n then begin
      let c = !order.(!pos) and cycle = !cycles - 1 in
      incr pos;
      let id = Printf.sprintf "m%d" !next_id in
      incr next_id;
      let t = now () in
      if not (Hashtbl.mem cycle_start cycle) then
        Hashtbl.replace cycle_start cycle t;
      Hashtbl.replace sent id (t, c, cycle);
      output_string oc (request ~id c);
      output_char oc '\n';
      flush oc
    end
  in
  for _ = 1 to in_flight do send () done;
  (try
     while Hashtbl.length sent > 0 do
       let line = input_line ic in
       let t1 = now () in
       let json = Telemetry.Trace_check.parse_opt line in
       match (str_field "status" json, str_field "id" json) with
       | (None | Some "queued"), _ | _, None -> ()
       | Some status, Some id -> (
           match Hashtbl.find_opt sent id with
           | None -> ()
           | Some (t0, c, cycle) ->
               Hashtbl.remove sent id;
               lats := (t1 -. t0) :: !lats;
               if status <> "done" then incr failed
               else
                 record_mismatch mismatched golden.grades (Inproc.key c)
                   (Option.value ~default:"(none)" (str_field "grade" json));
               let left = Hashtbl.find cycle_left cycle - 1 in
               Hashtbl.replace cycle_left cycle left;
               if left = 0 then
                 walls := (t1 -. Hashtbl.find cycle_start cycle) :: !walls;
               send ())
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ ->
     lost := Hashtbl.length sent);
  Unix.close fd;
  let counts = Layers.delta before (daemon_counters d) in
  let rss_mb =
    List.fold_left
      (fun m pid -> Float.max m (peak_rss_mb pid))
      0.
      (Unix.getpid () :: d.pid :: children d.pid)
  in
  let layers, diverged =
    if not ctx.trace then ([], [])
    else
      traced ctx rng golden cells ~counts
        ~cycles:(float_of_int (List.length !walls)) ~lats:!lats
  in
  let attempted = List.length !lats + !lost in
  { e2e =
      end_to_end ~wall_s:(Stats.median !walls) ~lats:!lats ~rss_mb;
    layers;
    checks =
      [ ("failed_frac", frac (!failed + !lost) attempted);
        ("golden_mismatch", float_of_int (Hashtbl.length mismatched)) ]
      @ (if ctx.trace then
           [ ("decomposition_mismatch", float_of_int (List.length diverged)) ]
         else []);
    attempted;
    failed = !failed + !lost;
    problems =
      (if !lost > 0 then [ "lost the daemon connection" ] else [])
      @ mismatch_problems "grade" mismatched
      @ List.map (fun k -> "decomposed stages diverge from golden on " ^ k)
          diverged }

(** Set-up starts the daemon and warms it with one request per cell. *)
let workload =
  { name = "serve-trace";
    setup =
      (fun ctx ->
         let golden = Golden.load ctx.data in
         let cells =
           Inproc.cells [ Profile.Bap; Profile.Triton ] Golden.grid_bombs
         in
         let d = start ctx in
         let warm =
           Array.to_list
             (Array.mapi (fun i c -> request ~id:(Printf.sprintf "w%d" i) c) cells)
         in
         (match Service.submit ~socket:d.socket warm with
          | 0 -> ()
          | k ->
              stop d;
              failwith (Printf.sprintf "serve warm-up: %d requests failed" k)
          | exception e ->
              stop d;
              raise e);
         { measure = measure ctx golden cells d; teardown = (fun () -> stop d) }) }
