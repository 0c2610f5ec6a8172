(** Pin-style instruction tracing: run the concrete machine and record
    the event stream of the traced process.

    Like Pin, the tracer follows every *thread* of the target process
    but does not follow forked children — which is precisely why
    trace-based tools lose the data flow of the fork/pipe bomb.

    A trace is a handle over one of two backings: the in-memory event
    array (default — byte-identical to the historical behavior), or a
    seekable {!Store} file.  With a store directory configured
    ([TRACE_DIR] or {!set_store_dir}), {!record} becomes
    record-once/analyze-many: the store is keyed by a fingerprint of
    the image and machine configuration, and a hit replays the stored
    events with zero VM execution.  Consumers use the cursor API
    ({!get}, {!iteri}, {!seek}/{!next}, the indexed lookups) instead
    of touching a raw array. *)

module Store = Store

type backing =
  | Memory of Vm.Event.t array
  | Stored of Store.reader

type t = {
  backing : backing;
  result : Vm.Machine.run_result;
  argv_layout : (int64 * int) list;
      (** where the loader placed each argv string *)
  image : Asm.Image.t;
  config : Vm.Machine.config;
  truncated : bool;      (** the [max_events] cap cut the stream short *)
  store_path : string option;
  mutable taint_hint : Store.taint_hint option;
  mutable rc : Store.rcursor option;  (* cached sequential read cursor *)
}

let m_events = Telemetry.Metrics.counter "trace.events"
let m_truncated = Telemetry.Metrics.counter "trace.truncated"
let m_store_shed = Telemetry.Metrics.counter "trace.store.shed"

(* ------------------------------------------------------------------ *)
(* Store directory plumbing                                            *)
(* ------------------------------------------------------------------ *)

let store_dir : string option ref = ref (Sys.getenv_opt "TRACE_DIR")

(** Route {!record} through a store directory ([None] disables). *)
let set_store_dir d = store_dir := d

let current_store_dir () = !store_dir

let fingerprint ~max_events ~(config : Vm.Machine.config) image =
  Robust.Journal.fingerprint
    ([ "trace-store";
       string_of_int Store.format_version;
       string_of_int max_events;
       Asm.Image.to_bytes image ]
     @ config.argv
     @ List.concat_map (fun (p, d) -> [ p; d ]) config.files
     @ [ Int64.to_string config.now;
         config.web_content;
         Int64.to_string config.uid;
         Int64.to_string config.random_seed;
         string_of_int config.fuel;
         string_of_int config.quantum ])

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let event_pid (ev : Vm.Event.t) =
  match ev with
  | Vm.Event.Exec e -> e.pid
  | Vm.Event.Sys s -> s.pid
  | Vm.Event.Signal s -> s.pid

let record_fresh ~max_events ~writer ~(config : Vm.Machine.config) image : t =
  let machine = Vm.Machine.create ~config image in
  let events = ref [] in
  let n = ref 0 in
  let truncated = ref false in
  Vm.Machine.set_hook machine (fun ev ->
      if event_pid ev = 1 then
        if !n < max_events then begin
          events := ev :: !events;
          (match writer with Some w -> Store.add_event w ev | None -> ());
          incr n
        end
        else if not !truncated then begin
          truncated := true;
          Telemetry.Metrics.incr m_truncated;
          Telemetry.Log.warnf
            "trace truncated at %d events (max_events); analyses see a \
             capped prefix of the execution"
            max_events
        end);
  let result = Vm.Machine.run machine in
  Telemetry.Metrics.add m_events !n;
  let argv_layout = machine.Vm.Machine.argv_layout in
  let store_path =
    match writer with
    | None -> None
    | Some w -> (
        match
          Store.finish w
            { Store.s_result = result; s_argv_layout = argv_layout;
              s_truncated = !truncated }
        with
        | () -> Some w.Store.w_path
        | exception Sys_error msg ->
          Telemetry.Log.warnf "trace store write failed: %s" msg;
          None
        | exception Robust.Diskio.Full msg ->
          (* ENOSPC degradation: the trace itself is intact in memory
             — keep the Memory backing, skip the cache file *)
          Telemetry.Metrics.incr m_store_shed;
          Telemetry.Log.warnf
            "trace store write failed: %s; falling back to memory backing"
            msg;
          None)
  in
  { backing = Memory (Array.of_list (List.rev !events));
    result; argv_layout; image; config;
    truncated = !truncated;
    store_path;
    taint_hint = None;
    rc = None }

let open_stored ~(config : Vm.Machine.config) image path fp : t =
  let r = Store.open_file path in
  if not (String.equal (Store.fingerprint r) fp) then
    raise (Store.Corrupt "fingerprint mismatch");
  let meta = Store.meta r in
  Telemetry.Metrics.add m_events (Store.event_count r);
  if meta.Store.s_truncated then Telemetry.Metrics.incr m_truncated;
  { backing = Stored r;
    result = meta.Store.s_result;
    argv_layout = meta.Store.s_argv_layout;
    image; config;
    truncated = meta.Store.s_truncated;
    store_path = Some path;
    taint_hint = Store.taint r;
    rc = None }

(** Record a trace of the root process (its threads included).

    With a store directory configured, the trace is transparently
    cached: a fingerprint hit opens the stored file instead of running
    the VM at all; a miss records, writes the store and returns the
    fresh trace.  A store that fails validation is warned about,
    counted in [trace.store.corrupt] and re-recorded — corruption
    costs a re-run, never a wrong trace. *)
let record ?(max_events = 3_000_000) ~(config : Vm.Machine.config) image : t =
  Telemetry.with_span "trace.record" @@ fun () ->
  match !store_dir with
  | None -> record_fresh ~max_events ~writer:None ~config image
  | Some dir ->
    let fp = fingerprint ~max_events ~config image in
    let path = Filename.concat dir (Printf.sprintf "trace-%s.btrc" fp) in
    let fresh () =
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
       with Sys_error _ -> ());
      let writer = Store.create_writer ~fingerprint:fp ~path in
      record_fresh ~max_events ~writer:(Some writer) ~config image
    in
    if Sys.file_exists path then
      match open_stored ~config image path fp with
      | t -> t
      | exception Store.Corrupt msg ->
        Telemetry.Metrics.incr Store.m_corrupt;
        Telemetry.Log.warnf "trace store %s rejected (%s); re-recording"
          path msg;
        fresh ()
    else fresh ()

(* ------------------------------------------------------------------ *)
(* Cursor API                                                          *)
(* ------------------------------------------------------------------ *)

let length t =
  match t.backing with
  | Memory evs -> Array.length evs
  | Stored r -> Store.event_count r

let store_backed t = t.store_path <> None

(** Event at sequence [i].  Sequential access over a store reuses one
    decode cursor; random access restarts from the nearest keyframe. *)
let get t i =
  match t.backing with
  | Memory evs -> evs.(i)
  | Stored r ->
    let rc =
      match t.rc with
      | Some rc when Store.rcursor_seq rc = i -> rc
      | _ -> Store.cursor_at r i
    in
    t.rc <- Some rc;
    (match Store.read_next rc with
     | Some ev -> ev
     | None -> invalid_arg (Printf.sprintf "Trace.get %d (of %d)" i (length t)))

(** [iteri ?from ?upto t f] — [f i ev] over the window
    [\[from, upto)], default the whole trace. *)
let iteri ?(from = 0) ?upto t f =
  let upto = match upto with Some u -> u | None -> length t in
  match t.backing with
  | Memory evs ->
    for i = from to min upto (Array.length evs) - 1 do
      f i evs.(i)
    done
  | Stored r ->
    if from < upto then begin
      let rc = Store.cursor_at r from in
      (try
         for i = from to upto - 1 do
           match Store.read_next rc with
           | Some ev -> f i ev
           | None -> raise Exit
         done
       with Exit -> ());
      t.rc <- Some rc
    end

let exec_count t =
  match t.backing with
  | Memory evs ->
    Array.fold_left
      (fun acc ev -> match ev with Vm.Event.Exec _ -> acc + 1 | _ -> acc)
      0 evs
  | Stored r -> Store.exec_count r

(** Executed instructions restricted to a thread — an index walk on a
    store, a single pass in memory (never a whole-stream copy). *)
let execs_of_tid t tid =
  match t.backing with
  | Memory evs ->
    Array.fold_right
      (fun ev acc ->
         match ev with
         | Vm.Event.Exec e when e.tid = tid -> e :: acc
         | _ -> acc)
      evs []
  | Stored r ->
    Store.tid_seqs r tid
    |> Array.to_list
    |> List.map (fun seq ->
        match get t seq with
        | Vm.Event.Exec e -> e
        | _ -> raise (Store.Corrupt "tid index points at a non-exec event"))

(** The (address, length) byte region of argv.(i), NUL included.
    Total: [None] when argv has fewer than [i+1] entries. *)
let argv_region t i =
  if i < 0 then None else List.nth_opt t.argv_layout i

(* --- stateful cursor (the debugger's position) --- *)

type cursor = { c_trace : t; mutable c_pos : int }

let cursor ?(at = 0) t = { c_trace = t; c_pos = max 0 (min at (length t)) }
let pos c = c.c_pos
let seek c i = c.c_pos <- max 0 (min i (length c.c_trace))

(** Event at the cursor, advancing past it; [None] at end of trace. *)
let next c =
  if c.c_pos >= length c.c_trace then None
  else begin
    let ev = get c.c_trace c.c_pos in
    c.c_pos <- c.c_pos + 1;
    Some ev
  end

(** Event at the cursor without advancing. *)
let peek c =
  if c.c_pos >= length c.c_trace then None else Some (get c.c_trace c.c_pos)

(* --- indexed lookups --- *)

(** First exec event at instruction address [pc] with seq >= [from]. *)
let next_exec_at t ~from pc =
  match t.backing with
  | Stored r ->
    let seqs = Store.pc_seqs r pc in
    let n = Array.length seqs in
    let rec go i =
      if i >= n then None else if seqs.(i) >= from then Some seqs.(i)
      else go (i + 1)
    in
    go 0
  | Memory evs ->
    let n = Array.length evs in
    let rec go i =
      if i >= n then None
      else
        match evs.(i) with
        | Vm.Event.Exec e when Int64.equal e.pc pc -> Some i
        | _ -> go (i + 1)
    in
    go (max 0 from)

(** First syscall event named [name] with seq >= [from]. *)
let next_syscall t ~from name =
  match t.backing with
  | Stored r ->
    let seqs = Store.sys_seqs r name in
    let n = Array.length seqs in
    let rec go i =
      if i >= n then None else if seqs.(i) >= from then Some seqs.(i)
      else go (i + 1)
    in
    go 0
  | Memory evs ->
    let n = Array.length evs in
    let rec go i =
      if i >= n then None
      else
        match evs.(i) with
        | Vm.Event.Sys { record; _ } when String.equal record.name name ->
          Some i
        | _ -> go (i + 1)
    in
    go (max 0 from)

(* ------------------------------------------------------------------ *)
(* State reconstruction                                                *)
(* ------------------------------------------------------------------ *)

(** Reconstruct the traced process's memory as it was immediately
    before event [pos]: start from the freshly loaded image and replay
    events [\[0, pos)] — each exec re-executed on a scratch CPU, each
    syscall's kernel-to-memory copies applied, each signal's resume
    push written below the faulting exec's stack pointer. *)
let mem_before t pos =
  let mem, _rsp, _layout =
    Vm.Machine.fresh_memory ~config:t.config t.image
  in
  let scratch = Vm.Cpu.create () in
  let last_rsp = ref 0L in
  iteri ~upto:pos t (fun _ ev ->
      match ev with
      | Vm.Event.Exec e ->
        last_rsp := e.regs_before.(Isa.Reg.index Isa.Reg.RSP);
        Array.blit e.regs_before 0 scratch.Vm.Cpu.regs 0 Isa.Reg.count;
        Array.blit e.xmm_before 0 scratch.Vm.Cpu.xmm 0 Isa.Reg.xmm_count;
        Vm.Cpu.unpack_flags scratch e.flags_before;
        scratch.Vm.Cpu.pc <- e.pc;
        let size = String.length (Isa.Codec.encode e.insn) in
        let next_pc = Int64.add e.pc (Int64.of_int size) in
        (match Vm.Cpu.execute scratch mem ~next_pc e.insn with _ -> ())
      | Vm.Event.Sys { record; _ } ->
        List.iter
          (fun eff ->
             match eff with
             | Vm.Event.Eff_read { addr; data; _ } ->
               Vm.Mem.write_bytes mem addr data
             | Vm.Event.Eff_write _ | Vm.Event.Eff_spawn _ -> ())
          record.effects
      | Vm.Event.Signal { resume; _ } ->
        Vm.Mem.write mem (Int64.sub !last_rsp 8L) 8 resume);
  mem

(* ------------------------------------------------------------------ *)
(* Taint hint                                                          *)
(* ------------------------------------------------------------------ *)

let taint_hint t = t.taint_hint

(** Attach a taint summary; persisted into the store file when the
    trace is store-backed so later opens (and the debugger's
    [run-to taint]) get it for free. *)
let save_taint_hint t (h : Store.taint_hint) =
  t.taint_hint <- Some h;
  match t.store_path with
  | None -> ()
  | Some path -> (
      try Store.save_taint ~path h
      with Store.Corrupt _ | Sys_error _ | Robust.Diskio.Full _ -> ())

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_event ppf (ev : Vm.Event.t) =
  match ev with
  | Exec e ->
    Fmt.pf ppf "[%d.%d] %Lx: %s" e.pid e.tid e.pc (Isa.Pp.to_string e.insn)
  | Sys s -> Fmt.pf ppf "[%d.%d] syscall %s -> %Ld" s.pid s.tid s.record.name
               s.record.ret
  | Signal s -> Fmt.pf ppf "[%d.%d] signal %d -> %Lx" s.pid s.tid s.signum
                  s.handler
