(** [eval chaos --disk]: a seeded storage-fault soak — the faults live
    under the bytes of the artifacts themselves.

    + Baseline: a fault-free journaled sequential run of a small
      (tool × bomb) grid — its rendered table and journal bytes are
      the ground truth.
    + Attack: [plans] journaled runs of the same grid through the
      fleet path, each under rate-based disk faults from a fresh
      seed: ENOSPC, short writes, failed renames, bit flips, lying
      fsyncs — injected at every {!Robust.Diskio} append, sync and
      rename.  Every durable write of a run happens in the master,
      which journals each cell as its reply arrives.  A run that
      crashes outright is allowed; what it leaves on disk is not
      allowed to stay wrong.
    + Recovery: faults off, [fsck --repair] over the surviving
      journal (drop corrupt records, truncate torn tails, clear stale
      tmps), then a sequential resume replays the repaired journal,
      re-runs whatever it no longer carries and rewrites it in grid
      order.
    + Containment: every plan's recovered table and canonical journal
      must be byte-identical to the fault-free baseline; every fault
      the seeded state fired must be accounted in the
      [robust.disk_injected.*] counters; a soak where no fault fired
      is vacuous and fails. *)

type report = {
  dk_plans : int;
  dk_cells : int;  (** grid size per plan *)
  dk_workers : int;
  dk_crashed_runs : int;  (** chaos runs that raised (allowed) *)
  dk_damaged_files : int;  (** artifacts fsck found damaged *)
  dk_repaired_files : int;  (** artifacts fsck repaired *)
  dk_shed : int;  (** [journal.shed] delta (ENOSPC degradation) *)
  dk_faults : (string * int) list;
      (** [robust.disk_injected.*] deltas over the whole soak *)
  dk_accounted : bool;
      (** the metrics count exactly the faults the seeded states fired *)
  dk_divergent : int;  (** plans whose recovered state diverged *)
  dk_baseline : string;
  dk_wall : float;
}

let ok r =
  r.dk_divergent = 0 && r.dk_accounted
  && List.fold_left (fun a (_, n) -> a + n) 0 r.dk_faults > 0

let rm path = try Sys.remove path with Sys_error _ -> ()

let no_kill path =
  { Eval.journal_path = path; kill_after = None; kill_torn = false }

(** Run the soak.  [rate] is the per-probe Bernoulli fault rate;
    [workers] > 1 routes the chaos phase through the fleet, 1 keeps it
    sequential. *)
let run ?(prefix = "disk_soak") ?(plans = 30) ?(seed = 0xD15CL)
    ?(rate = 0.02) ?(workers = 2)
    ?(tools = Supervisor.default_soak_tools)
    ?(bombs = Supervisor.default_soak_bombs) () : report =
  let t0 = Unix.gettimeofday () in
  let bombs = List.map Bombs.Catalog.find bombs in
  let baseline_path = prefix ^ "_baseline.jsonl" in
  let chaos_path = prefix ^ "_chaos.jsonl" in
  let clear_chaos () =
    rm chaos_path;
    rm (chaos_path ^ ".tmp")
  in
  (* --- fault-free baseline: sequential journaled run --- *)
  rm baseline_path;
  let table_base =
    Eval.render_table2
      (Eval.run_table2 ~tools ~bombs ~journal:(no_kill baseline_path) ())
  in
  let bytes_base = Robust.Diskio.read_all baseline_path in
  (* metric deltas over the whole soak *)
  let counter_of p = "robust.disk_injected." ^ Robust.Chaos.disk_point_name p in
  let fault_counters = List.map counter_of Robust.Chaos.all_disk_points in
  let before = List.map Telemetry.Metrics.counter_value fault_counters in
  let shed_before = Telemetry.Metrics.counter_value "journal.shed" in
  let crashed = ref 0 and divergent = ref 0 in
  let damaged_files = ref 0 and repaired_files = ref 0 in
  (* fired counts per counter name, accumulated across plans *)
  let fired = Hashtbl.create 8 in
  for i = 0 to plans - 1 do
    clear_chaos ();
    let st =
      Robust.Chaos.io_state
        ~seed:(Int64.add seed (Int64.of_int i))
        (Robust.Chaos.Rate
           { rate; points = Robust.Chaos.all_disk_points })
    in
    (* --- chaos phase: journaled grid under disk faults --- *)
    Robust.Diskio.set_fault_hook (Some (Robust.Chaos.disk_hook st));
    (try
       ignore
         (Eval.run_table2 ~tools ~bombs ~journal:(no_kill chaos_path)
            ~workers ()
           : Eval.table2_result)
     with _ -> incr crashed);
    Robust.Diskio.set_fault_hook None;
    List.iter
      (fun (p, n) ->
         let name = counter_of p in
         Hashtbl.replace fired name
           (n + Option.value ~default:0 (Hashtbl.find_opt fired name)))
      (Robust.Chaos.io_fired st);
    (* --- recovery phase: fsck --repair, then resume --- *)
    let targets =
      List.filter Sys.file_exists [ chaos_path; chaos_path ^ ".tmp" ]
    in
    let reports = Fsck.scan ~repair:true targets in
    List.iter
      (fun (r : Fsck.report) ->
         if Fsck.has_damage r then incr damaged_files;
         if r.Fsck.r_repaired then incr repaired_files)
      reports;
    let table =
      Eval.render_table2
        (Eval.run_table2 ~tools ~bombs ~journal:(no_kill chaos_path) ())
    in
    let bytes = Robust.Diskio.read_all chaos_path in
    if not (String.equal table table_base && String.equal bytes bytes_base)
    then begin
      incr divergent;
      Telemetry.Log.warnf
        "disk soak: plan %d diverged from baseline after repair+resume \
         (table %s, journal %s)"
        i
        (if String.equal table table_base then "ok" else "DIFFERS")
        (if String.equal bytes bytes_base then "ok" else "DIFFERS")
    end
  done;
  clear_chaos ();
  let after = List.map Telemetry.Metrics.counter_value fault_counters in
  let deltas =
    List.map2 (fun name (b, a) -> (name, a - b)) fault_counters
      (List.combine before after)
  in
  let accounted =
    List.for_all
      (fun (name, d) ->
         d = Option.value ~default:0 (Hashtbl.find_opt fired name))
      deltas
  in
  { dk_plans = plans;
    dk_cells = List.length tools * List.length bombs;
    dk_workers = workers;
    dk_crashed_runs = !crashed;
    dk_damaged_files = !damaged_files;
    dk_repaired_files = !repaired_files;
    dk_shed = Telemetry.Metrics.counter_value "journal.shed" - shed_before;
    dk_faults = List.filter (fun (_, n) -> n > 0) deltas;
    dk_accounted = accounted;
    dk_divergent = !divergent;
    dk_baseline = baseline_path;
    dk_wall = Unix.gettimeofday () -. t0 }

let render (r : report) : string =
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "disk chaos soak: %d plan(s) x %d cell(s), %d worker(s), %.1fs"
    r.dk_plans r.dk_cells r.dk_workers r.dk_wall;
  line "  chaos runs crashed: %d (allowed; their artifacts must still \
        recover)"
    r.dk_crashed_runs;
  line "  fsck: %d damaged artifact(s), %d repaired" r.dk_damaged_files
    r.dk_repaired_files;
  if r.dk_shed > 0 then
    line "  journal.shed: %d record(s) shed under ENOSPC" r.dk_shed;
  if r.dk_faults = [] then line "  faults injected: none (vacuous soak)"
  else
    List.iter
      (fun (name, n) -> line "  faults injected: %s = %d" name n)
      r.dk_faults;
  line "  fault accounting (robust.disk_injected.*): %s"
    (if r.dk_accounted then "OK" else "MISSING FIRES");
  line "  recovered table+journal vs fault-free baseline: %s"
    (if r.dk_divergent = 0 then "byte-identical"
     else Printf.sprintf "%d plan(s) DIVERGED" r.dk_divergent);
  line "  verdict: %s" (if ok r then "CONTAINED" else "FAILED");
  Buffer.contents buf
