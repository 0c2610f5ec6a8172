(** Pin-style instruction tracing: run the concrete machine and record
    the event stream of the traced process.

    Like Pin, the tracer follows every *thread* of the target process
    but does not follow forked children — which is precisely why
    trace-based tools lose the data flow of the fork/pipe bomb.

    A trace is the in-memory event array of one run, plus what the
    run left behind (result, argv layout) and what it started from
    (image, machine configuration), so a {!Replica} can rebuild the
    traced process's memory by replaying the events in order. *)

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

(** [iteri ?upto t f] — [f i ev] over the first [upto] events,
    default the whole trace. *)
let iteri ?upto t f =
  let upto = match upto with Some u -> u | None -> length t in
  for i = 0 to min upto (length t) - 1 do
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

(* ------------------------------------------------------------------ *)
(* Replica                                                             *)
(* ------------------------------------------------------------------ *)

(** A concrete replica of the traced process, stepped forward one event
    at a time in trace order: it starts from the freshly loaded image,
    and after the step for event [i] its memory is the traced process's
    memory after event [i].  This is the memory a trace-based executor
    reads concrete values from. *)
module Replica = struct
  type trace = t

  type t = {
    mem : Vm.Mem.t;
    cpu : Vm.Cpu.t;  (** scratch: the last replayed exec's post-state *)
    mutable last_rsp : int64;  (** RSP before the last replayed exec *)
  }

  let create (tr : trace) =
    let mem, _rsp, _layout =
      Vm.Machine.fresh_memory ~config:tr.config tr.image
    in
    { mem; cpu = Vm.Cpu.create (); last_rsp = 0L }

  (** Re-execute [e] on the scratch CPU, seeded from its recorded
      pre-state; [next] is its fall-through address. *)
  let exec r (e : Vm.Event.exec) ~next =
    r.last_rsp <- Vm.Cpu.get e.regs_before (Isa.Reg.index Isa.Reg.RSP);
    Bytes.blit e.regs_before 0 r.cpu.Vm.Cpu.regs 0 Vm.Cpu.regs_size;
    Array.blit e.xmm_before 0 r.cpu.Vm.Cpu.xmm 0 Isa.Reg.xmm_count;
    Vm.Cpu.unpack_flags r.cpu e.flags_before;
    r.cpu.Vm.Cpu.pc <- e.pc;
    match Vm.Cpu.execute r.cpu r.mem ~next_pc:next e.insn with _ -> ()

  (** Apply a syscall's kernel-to-memory copies. *)
  let sys r (record : Vm.Event.sys_record) =
    List.iter
      (function
        | Vm.Event.Eff_read { addr; data; _ } ->
          Vm.Mem.write_bytes r.mem addr data
        | Vm.Event.Eff_write _ | Vm.Event.Eff_spawn _ -> ())
      record.effects

  (** Write a signal's resume address where the kernel pushed it, below
      the faulting exec's stack pointer; returns that slot. *)
  let signal r ~resume =
    let slot = Int64.sub r.last_rsp 8L in
    Vm.Mem.write r.mem slot 8 resume;
    slot
end

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
