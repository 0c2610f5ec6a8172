(** Pin-style instruction tracing: run the concrete machine and record
    the event stream of the traced process.

    Like Pin, the tracer follows every *thread* of the target process
    but does not follow forked children — which is precisely why
    trace-based tools lose the data flow of the fork/pipe bomb.

    A trace is the in-memory event array of one run, plus what the
    run left behind (result, argv layout) and what it started from
    (image, machine configuration), so {!mem_before} can rebuild
    memory by replay. *)

type t = {
  events : Vm.Event.t array;
  result : Vm.Machine.run_result;
  argv_layout : (int64 * int) list;
      (** where the loader placed each argv string *)
  image : Asm.Image.t;
  config : Vm.Machine.config;
  truncated : bool;      (** the [max_events] cap cut the stream short *)
}

let m_events = Telemetry.Metrics.counter "trace.events"
let m_truncated = Telemetry.Metrics.counter "trace.truncated"

(** Does nothing: traces are always recorded in memory.  Kept only
    until the perf ledger stops calling it. *)
let set_store_dir (_ : string option) = ()

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let event_pid (ev : Vm.Event.t) =
  match ev with
  | Vm.Event.Exec e -> e.pid
  | Vm.Event.Sys s -> s.pid
  | Vm.Event.Signal s -> s.pid

(** Record a trace of the root process (its threads included), keeping
    at most [max_events] events. *)
let record ?(max_events = 3_000_000) ~(config : Vm.Machine.config) image : t =
  Telemetry.with_span "trace.record" @@ fun () ->
  let machine = Vm.Machine.create ~config image in
  let events = ref [] in
  let n = ref 0 in
  let truncated = ref false in
  Vm.Machine.set_hook machine (fun ev ->
      if event_pid ev = 1 then
        if !n < max_events then begin
          events := ev :: !events;
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
  { events = Array.of_list (List.rev !events);
    result;
    argv_layout = machine.Vm.Machine.argv_layout;
    image; config;
    truncated = !truncated }

(* ------------------------------------------------------------------ *)
(* Access                                                              *)
(* ------------------------------------------------------------------ *)

let length t = Array.length t.events

(** Event at sequence [i]. *)
let get t i = t.events.(i)

(** [iteri ?from ?upto t f] — [f i ev] over the window
    [\[from, upto)], default the whole trace. *)
let iteri ?(from = 0) ?upto t f =
  let upto = match upto with Some u -> u | None -> length t in
  for i = from to min upto (length t) - 1 do
    f i t.events.(i)
  done

let exec_count t =
  Array.fold_left
    (fun acc ev -> match ev with Vm.Event.Exec _ -> acc + 1 | _ -> acc)
    0 t.events

(** The (address, length) byte region of argv.(i), NUL included.
    Total: [None] when argv has fewer than [i+1] entries. *)
let argv_region t i =
  if i < 0 then None else List.nth_opt t.argv_layout i

(* first event at seq >= [from] satisfying [p] *)
let find_from t ~from p =
  let n = length t in
  let rec go i =
    if i >= n then None else if p t.events.(i) then Some i else go (i + 1)
  in
  go (max 0 from)

(** First exec event at instruction address [pc] with seq >= [from]. *)
let next_exec_at t ~from pc =
  find_from t ~from (function
    | Vm.Event.Exec e -> Int64.equal e.pc pc
    | _ -> false)

(** First syscall event named [name] with seq >= [from]. *)
let next_syscall t ~from name =
  find_from t ~from (function
    | Vm.Event.Sys { record; _ } -> String.equal record.name name
    | _ -> false)

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
