(** End-to-end evaluation: run every tool over every bomb, render the
    measured Table II next to the paper's, compute the headline solved
    counts, dataset statistics, Figure 3, and the negative-bomb check. *)

open Concolic.Error

type cell_result = {
  tool : Profile.tool;
  bomb : string;
  measured : cell;
  expected : cell option;
  graded : Grade.graded;
  robust : Supervisor.outcome;
      (** supervision record: cause/stage of a degraded cell *)
}

type table2_result = {
  cells : cell_result list;
  solved : (Profile.tool * int) list;
  agreement : int * int;  (** matching cells, total cells with expectations *)
}

(** A {!cell_result} from an already-supervised outcome (journal
    replay, fleet worker payload). *)
let cell_of_outcome tool (bomb : Bombs.Common.t) (o : Supervisor.outcome) =
  { tool;
    bomb = bomb.name;
    measured = o.Supervisor.graded.cell;
    expected = Paper.expected bomb.name tool;
    graded = o.Supervisor.graded;
    robust = o }

(** One supervised cell.  With the default policy (no budgets) the
    measured cell is exactly {!Grade.run_cell}'s — the supervisor only
    isolates crashes. *)
let run_cell ?policy tool bomb : cell_result =
  cell_of_outcome tool bomb (Supervisor.run_cell ?policy tool bomb)

(* ------------------------------------------------------------------ *)
(* Write-ahead cell journal                                            *)
(* ------------------------------------------------------------------ *)

let cell_key tool (bomb : Bombs.Common.t) =
  Profile.name tool ^ "/" ^ bomb.name

(** A bomb's part of a fingerprint: name, category and linked image.
    A bomb that fails to link is fingerprinted by its link error, so
    its cell still grades [E] on its own in a journaled run. *)
let bomb_fingerprint (b : Bombs.Common.t) =
  [ b.name; b.category;
    (match Bombs.Catalog.image b with
     | image -> Asm.Image.to_bytes image
     | exception Asm.Link.Link_error msg -> "link error: " ^ msg) ]

(** Run fingerprint of a journaled Table II run (see
    {!Robust.Journal}): any component changing (tool set, bomb catalog
    content, budget, incremental flag, ladder shape) makes previously
    journaled cells stale. *)
let journal_fingerprint ?(policy = Supervisor.default_policy) ~tools ~bombs
    () =
  Robust.Journal.fingerprint
    ([ "table2"; Printf.sprintf "incremental=%b" policy.Supervisor.incremental;
       "ladder=" ^ Smt.Degrade.ladder_to_string policy.Supervisor.ladder;
       "budget=" ^ Robust.Budget.to_string policy.Supervisor.budget ]
     @ List.map Profile.name tools
     @ List.concat_map bomb_fingerprint bombs)

(** Fold finished cells into the table: per-tool solved counts and the
    paper-agreement ratio. *)
let collate ~tools cells : table2_result =
  let solved =
    List.map
      (fun tool ->
         ( tool,
           List.length
             (List.filter
                (fun c -> c.tool = tool && c.measured = Success)
                cells) ))
      tools
  in
  let matches, total =
    List.fold_left
      (fun (m, t) c ->
         match c.expected with
         | Some e -> ((if equal_cell e c.measured then m + 1 else m), t + 1)
         | None -> (m, t))
      (0, 0) cells
  in
  { cells; solved; agreement = (matches, total) }

(** How a fleet-level failure (worker killed repeatedly, runner
    exception, cancellation) grades: synthesized supervised outcome,
    same mapping the in-process supervisor applies.  A lost worker's
    message carries the dispatches it took. *)
let outcome_of_failure (f : Fleet.Pool.failure) :
  Supervisor.outcome =
  let cause =
    match f with
    | Fleet.Pool.Cancelled -> Supervisor.Exhausted Robust.Meter.Cancelled
    | f -> Supervisor.Crashed ("fleet: " ^ Fleet.Pool.failure_to_string f)
  in
  { Supervisor.graded =
      { Grade.cell = Supervisor.cell_of_cause cause;
        proposed = None;
        detonated = false;
        false_positive = false;
        diags = [ Supervisor.diag_of_cause cause ];
        work = 0 };
    cause = Some cause;
    stage = Supervisor.stage_of_cause cause }

(* one fresh cell as either executor hands it back: the outcome, its
   profile sample when profiling, its Chrome events when tracing *)
type capture = {
  c_outcome : Supervisor.outcome;
  c_sample : Cellprof.sample option;
  c_events : string list;
}

(** The Table II runner: every (tool × bomb) cell, in bomb-major grid
    order.  Cells journaled in [journal] are replayed; the rest run
    fresh on one of two executors:

    - [workers = 1] (the default) runs them in this process;
    - [workers > 1] shards them across a {!Fleet.Pool} of forked
      workers.  A worker death re-dispatches the cell once, under the
      same policy, before the cell grades as crashed; [task_timeout]
      arms the watchdog.  The workers' metric deltas fold into this
      process's registry, so the fleet's [vm.*]/[smt.*] counters equal
      an in-process run's.

    Either way this process is the journal's one writer: it appends
    each fresh cell's record as the cell finishes (as the pool's reply
    arrives), so a crash loses at most the cells still running.
    Cells the pool itself failed (a worker lost for good, a cancelled
    run) are not journaled, so rerunning the grid re-runs them.  A journaled run
    that finishes rewrites the journal once into grid order
    ({!Robust.Journal.rewrite}), so it is byte-identical whichever
    executor ran it and however often it was resumed.

    Cells fold in grid order, and the table and the [journal.replayed]
    count come out the same from both executors.  Each fresh cell runs
    under one capture that takes its spans and then drops them, leaving
    span tracing as it found it: [profile] appends a {!Cellprof}
    sample per fresh cell to that sidecar, [spans_out] writes a Chrome
    trace of the fresh cells (one lane per worker), and a pool worker
    returns both in its reply, so the sidecar and the trace are
    written here, in grid order, as in process.  [progress] keeps a
    live done/total line with lane states and an ETA on stderr. *)
let run_table2 ?policy ?(tools = Profile.all)
    ?(bombs = Bombs.Catalog.table2) ?journal ?profile ?(progress = false)
    ?(workers = 1) ?task_timeout ?spans_out () : table2_result =
  let grid =
    List.concat_map
      (fun bomb ->
         List.map (fun tool -> (cell_key tool bomb, (tool, bomb))) tools)
      bombs
  in
  (* the fingerprint links every bomb, so only a journaled run pays
     for it *)
  let fp = lazy (journal_fingerprint ?policy ~tools ~bombs ()) in
  (* replay every journaled cell before running any *)
  let replayable : (string, Supervisor.outcome) Hashtbl.t =
    Hashtbl.create 128
  in
  let loaded =
    match journal with
    | None -> Robust.Journal.empty_load
    | Some path -> Robust.Journal.load ~fingerprint:(Lazy.force fp) path
  in
  List.iter
    (fun (e : Robust.Journal.entry) ->
       match Journal_codec.decode_outcome e.cell with
       | Some o -> Hashtbl.replace replayable e.key o
       | None ->
           Robust.Journal.count_undecodable ();
           Telemetry.Log.warnf
             "journal: record for %s does not decode; cell will re-run"
             e.key)
    loaded.entries;
  let todo =
    List.filter (fun (key, _) -> not (Hashtbl.mem replayable key)) grid
  in
  let total = List.length grid and n_todo = List.length todo in
  let t_start = Unix.gettimeofday () in
  let show ~left lanes =
    if progress then begin
      let done_fresh = n_todo - left in
      let eta =
        if done_fresh > 0 then
          (Unix.gettimeofday () -. t_start)
          /. float_of_int done_fresh *. float_of_int left
        else 0.
      in
      (* padded so a shorter line overwrites a longer one *)
      Printf.eprintf "\r%-78s%!"
        (Printf.sprintf "[table2] %d/%d  %s  ETA %.0fs" (total - left) total
           (String.concat " " lanes) eta)
    end
  in
  (* the one journaling step, for both executors *)
  let writer =
    Option.map
      (fun path ->
         ( path,
           Robust.Journal.open_writer ~fingerprint:(Lazy.force fp)
             ~seq:loaded.next_seq path ))
      journal
  in
  let journal_cell key o =
    Option.iter
      (fun (_, w) ->
         Robust.Journal.append w ~key ~payload:(Journal_codec.encode_outcome o))
      writer
  in
  (* the one per-cell capture, in process or in a pool worker: the
     cell's spans feed both the sample's phases and the trace's
     events, then leave the recorder, whose enablement is restored *)
  let capture ~key tool bomb =
    let run () = Supervisor.run_cell ?policy tool bomb in
    let was = Telemetry.is_enabled () in
    let mark = Telemetry.watermark () in
    if profile <> None || spans_out <> None then Telemetry.enable ();
    let o, sample, spans =
      Fun.protect
        ~finally:(fun () ->
          Telemetry.drop_since mark;
          if not was then Telemetry.disable ())
      @@ fun () ->
      let o, sample =
        match profile with
        | None -> (run (), None)
        | Some _ ->
            let o, s = Cellprof.profiled ~key run in
            (o, Some s)
      in
      (o, sample, Telemetry.spans_since mark)
    in
    { c_outcome = o;
      c_sample =
        Option.map
          (fun s -> { s with Cellprof.p_phases = Cellprof.phases_of spans })
          sample;
      c_events =
        (if spans_out = None then []
         else
           Telemetry.chrome_events
             ~lane:(Option.value ~default:0 (Fleet.Pool.worker_slot ()))
             spans) }
  in
  let fresh : (string, Supervisor.outcome) Hashtbl.t = Hashtbl.create 128 in
  let events = ref [] in  (* per-cell groups, newest first *)
  let record key c =
    (match (profile, c.c_sample) with
     | Some path, Some s -> Cellprof.append ~path s
     | _ -> ());
    events := c.c_events :: !events;
    Hashtbl.replace fresh key c.c_outcome
  in
  let in_process () =
    List.iteri
      (fun i (key, (tool, bomb)) ->
         show ~left:(n_todo - i) [ "main:" ^ key ];
         let c = capture ~key tool bomb in
         record key c;
         journal_cell key c.c_outcome)
      todo
  in
  let in_pool () =
    (* only the key crosses the pipe; the worker looks its cell up in
       the closed-over grid, so custom tool/bomb lists work *)
    let run ~attempt:_ ~key (_task : string) =
      let tool, bomb = List.assoc key grid in
      let c = capture ~key tool bomb in
      (* the whole capture rides the reply: every field is JSON whose
         strings escape all control bytes, so tabs separate them *)
      String.concat "\t"
        (Journal_codec.encode_outcome c.c_outcome
         :: Option.fold ~none:"" ~some:Cellprof.encode c.c_sample
         :: c.c_events)
    in
    let decode payload =
      match String.split_on_char '\t' payload with
      | outcome :: sample :: c_events ->
          Option.map
            (fun c_outcome ->
               { c_outcome; c_sample = Cellprof.decode sample; c_events })
            (Option.bind
               (Telemetry.Trace_check.parse_opt outcome)
               Journal_codec.decode_outcome)
      | _ -> None
    in
    let failed f =
      { c_outcome = outcome_of_failure f; c_sample = None; c_events = [] }
    in
    let replies = Hashtbl.create 128 in
    (* journaled as each reply arrives; recorded in grid order below *)
    let take (r : Fleet.Pool.result) =
      Hashtbl.replace replies r.r_key
        (match r.r_payload with
         | Ok payload -> (
             match decode payload with
             | Some c ->
                 journal_cell r.r_key c.c_outcome;
                 c
             | None ->
                 Telemetry.Log.warnf
                   "fleet: undecodable payload for %s; grading as crash"
                   r.r_key;
                 failed (Fleet.Pool.Run_raised "undecodable worker payload"))
         | Error f -> failed f)
    in
    let config = { Fleet.Pool.default_config with workers; task_timeout } in
    let pool = Fleet.Pool.create ~config run in
    let restore_sigint = Fleet.Pool.install_sigint pool in
    Fun.protect
      ~finally:(fun () ->
        restore_sigint ();
        Fleet.Pool.shutdown pool)
      (fun () ->
         List.iter
           (fun (key, _) -> Fleet.Pool.submit pool ~key ~task:key)
           todo;
         let last_tick = ref 0. in
         while Fleet.Pool.pending pool > 0 && not (Fleet.Pool.cancelled pool)
         do
           List.iter take (Fleet.Pool.poll ~timeout:0.25 pool);
           let t = Unix.gettimeofday () in
           if progress && t -. !last_tick >= 0.5 then begin
             last_tick := t;
             show ~left:(Fleet.Pool.pending pool)
               (List.map
                  (fun (slot, alive, task) ->
                     Printf.sprintf "w%d:%s" slot
                       (if not alive then "dead"
                        else Option.value ~default:"-" task))
                  (Fleet.Pool.worker_states pool))
           end
         done;
         (* after a cancellation: the cells in flight finish, the
            queued ones come back failed *)
         List.iter take (Fleet.Pool.drain pool));
    List.iter
      (fun (key, _) -> Option.iter (record key) (Hashtbl.find_opt replies key))
      todo
  in
  if workers > 1 then in_pool () else in_process ();
  Option.iter
    (fun (path, w) ->
       Robust.Journal.close_writer w;
       (* the appended journal is already sound; a failed reorder only
          leaves it as appended *)
       try
         Robust.Journal.rewrite ~fingerprint:(Lazy.force fp)
           ~order:(List.map fst grid) path
       with Robust.Diskio.Full msg | Sys_error msg ->
         Telemetry.Log.warnf "journal: grid-order rewrite failed (%s)" msg)
    writer;
  Option.iter
    (fun path ->
       Robust.Diskio.write_atomic ~path
         (Telemetry.chrome_document (List.concat (List.rev !events))))
    spans_out;
  if progress then begin
    show ~left:0 [];
    prerr_newline ()
  end;
  let cells =
    List.map
      (fun (key, (tool, bomb)) ->
         match Hashtbl.find_opt replayable key with
         | Some o ->
             Robust.Journal.count_replayed ();
             cell_of_outcome tool bomb o
         | None ->
             cell_of_outcome tool bomb
               (match Hashtbl.find_opt fresh key with
                | Some o -> o
                | None ->
                    (* unreachable unless the pool lost the task without
                       reporting it; grade, don't raise *)
                    outcome_of_failure
                      (Fleet.Pool.Run_raised "no result from fleet")))
      grid
  in
  collate ~tools cells

(* ------------------------------------------------------------------ *)
(* Figure 3: tainted instructions with and without printf              *)
(* ------------------------------------------------------------------ *)

type fig3_result = {
  noprint_tainted : int;
      (** from the [taint.tainted_insns] telemetry counter *)
  print_tainted : int;
  noprint_branches : int;
  print_branches : int;
  noprint_tainted_direct : int;
      (** the analyzer's own [tainted_count] (must equal the counter
          delta — asserted in the tests) *)
  print_tainted_direct : int;
}

let run_fig3 () =
  (* the headline counts are derived from the telemetry registry (the
     counter delta across the analyze call); the analyzer's direct
     result is kept alongside so the two derivations can be compared *)
  let measure name =
    let bomb = Bombs.Catalog.find name in
    let config = Bombs.Common.config_for bomb "7" in
    let trace = Trace.record ~config (Bombs.Catalog.image bomb) in
    (* argv_region is total but can come back empty (a bomb recorded
       with no argv[1]); degrade to an empty source list with a warning
       instead of aborting the whole figure *)
    let sources =
      match Trace.argv_region trace 1 with
      | Some (addr, len) -> [ (addr, len - 1) ]
      | None ->
          Telemetry.Log.warnf
            "fig3: %s recorded no argv[1] region; taint sources empty" name;
          []
    in
    let before = Telemetry.Metrics.counter_value Taint.metric_tainted_insns in
    let taint = Taint.analyze ~sources trace in
    let tainted =
      Telemetry.Metrics.counter_value Taint.metric_tainted_insns - before
    in
    let branches = List.length taint.tainted_branch in
    (tainted, taint.tainted_count, branches)
  in
  let noprint_tainted, noprint_tainted_direct, noprint_branches =
    measure "fig3_noprint"
  in
  let print_tainted, print_tainted_direct, print_branches =
    measure "fig3_print"
  in
  { noprint_tainted; print_tainted; noprint_branches; print_branches;
    noprint_tainted_direct; print_tainted_direct }

(* ------------------------------------------------------------------ *)
(* Negative bomb (§V-C): Angr claims the impossible path               *)
(* ------------------------------------------------------------------ *)

type negative_result = {
  tool : Profile.tool;
  claimed : bool;        (** engine proposed an input for dead code *)
  detonated : bool;      (** (must stay false) *)
}

let run_negative () =
  let bomb = Bombs.Catalog.find "negative_bomb" in
  List.map
    (fun tool ->
       let { graded; _ } = run_cell tool bomb in
       { tool;
         claimed = graded.proposed <> None;
         detonated = graded.detonated })
    [ Profile.Angr_nolib; Profile.Bap ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_table2 (r : table2_result) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %-12s %-12s %-12s %-12s\n" "Bomb" "BAP" "Triton"
       "Angr" "Angr-NoLib");
  let cell_str c =
    let m = cell_symbol c.measured in
    match c.expected with
    | Some e when equal_cell e c.measured -> Printf.sprintf "%s" m
    | Some e -> Printf.sprintf "%s(p:%s)" m (cell_symbol e)
    | None -> m
  in
  let bomb_names =
    List.sort_uniq compare (List.map (fun c -> c.bomb) r.cells)
    |> List.sort (fun a b ->
        let pos n =
          let rec go i = function
            | [] -> max_int
            | (x : Bombs.Common.t) :: rest -> if x.name = n then i else go (i + 1) rest
          in
          go 0 Bombs.Catalog.table2
        in
        compare (pos a) (pos b))
  in
  List.iter
    (fun name ->
       let find tool =
         List.find_opt (fun c -> c.bomb = name && c.tool = tool) r.cells
       in
       let show tool =
         match find tool with Some c -> cell_str c | None -> "-"
       in
       Buffer.add_string buf
         (Printf.sprintf "%-16s %-12s %-12s %-12s %-12s\n" name
            (show Profile.Bap) (show Profile.Triton) (show Profile.Angr)
            (show Profile.Angr_nolib)))
    bomb_names;
  List.iter
    (fun (tool, n) ->
       Buffer.add_string buf
         (Printf.sprintf "%s solved: %d\n" (Profile.name tool) n))
    r.solved;
  let m, t = r.agreement in
  Buffer.add_string buf
    (Printf.sprintf "cell agreement with the paper: %d/%d\n" m t);
  (* degraded-cell attribution, printed only when the supervisor
     actually intervened so the default run stays byte-identical *)
  let degraded =
    List.filter (fun c -> c.robust.Supervisor.cause <> None) r.cells
  in
  if degraded <> [] then begin
    Buffer.add_string buf "degraded cells (supervisor):\n";
    List.iter
      (fun c ->
         Buffer.add_string buf
           ("  " ^ Supervisor.describe ~bomb:c.bomb c.tool c.robust ^ "\n"))
      degraded
  end;
  Buffer.contents buf

let render_table1 () : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-32s %s\n" "Challenge" "Error stages");
  List.iter
    (fun (challenge, stages) ->
       Buffer.add_string buf
         (Printf.sprintf "%-32s %s\n" challenge
            (String.concat " " (List.map show_stage stages))))
    Paper.table1;
  Buffer.contents buf
