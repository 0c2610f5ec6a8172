(** Forward dynamic taint over a recorded trace.

    Shadow state: per-thread registers and flags, byte-granular
    memory, and (policy-dependent) kernel-object bytes.  The policy
    captures what a tool's taint engine can follow: Pin-based tools
    track registers and memory but lose taint through the kernel
    (files, pipes, sockets), which is how the covert-propagation rows
    of Table II fail.

    The analysis makes one in-order pass over the trace. *)

type policy = {
  through_kernel : bool;
      (** taint survives write(2)-then-read(2) round trips through
          files, pipes and sockets *)
}

(** Pin-class taint: kernel round-trips all lose taint. *)
let pin_policy = { through_kernel = false }

(** Full kernel-object tracking (our extension). *)
let full_policy = { through_kernel = true }

open Vm.Access

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  tainted : bool array;
      (** per event index: did the instruction read tainted data *)
  tainted_branch : (int * bool) list;
      (** (event index, branch direction) of [Jcc]s with tainted flags *)
  tainted_jumps : int list;
      (** event indices of indirect jumps/calls with tainted targets *)
  tainted_count : int;   (** number of tainted [Exec] events *)
  kills : int;
      (** strong updates that removed existing taint (untainted data
          overwriting a tainted register/flag/byte) — where data flow
          actually dies, not merely fails to spread *)
  kernel_writes : int list;
      (** event indices where tainted data left through the kernel
          without the policy following it (diagnostic for Es2) *)
}

(* registry metrics: Figure 3's tainted-instruction count is read back
   off [metric_tainted_insns] by the evaluation harness *)
let metric_tainted_insns = "taint.tainted_insns"

let m_tainted_insns = Telemetry.Metrics.counter metric_tainted_insns
let m_kills = Telemetry.Metrics.counter "taint.kills"

let analyze ?(policy = pin_policy)
    ~(sources : (int64 * int) list) (trace : Trace.t) : result =
  Telemetry.with_span "taint.analyze" @@ fun () ->
  (* ambient budget meter, fetched once: the per-event charge below is
     a single option match when no cell supervisor is active *)
  let meter = Robust.Meter.ambient () in
  let kills = ref 0 in
  let mem : unit Isa.Addr.Tbl.t = Isa.Addr.Tbl.create 256 in
  List.iter
    (fun (addr, len) ->
       for i = 0 to len - 1 do
         Isa.Addr.Tbl.replace mem (Int64.add addr (Int64.of_int i)) ()
       done)
    sources;
  let regs : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let xmms : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let flags : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  (* kernel object shadow: (obj, byte offset); streams (pipes) use a
     per-object cursor pair so offsets line up *)
  let kobj : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let mem_tainted a n =
    let rec go i =
      i < n
      && (Isa.Addr.Tbl.mem mem (Int64.add a (Int64.of_int i)) || go (i + 1))
    in
    go 0
  in
  let set_mem a n v =
    for i = 0 to n - 1 do
      let key = Int64.add a (Int64.of_int i) in
      if v then Isa.Addr.Tbl.replace mem key ()
      else if Isa.Addr.Tbl.mem mem key then begin
        Isa.Addr.Tbl.remove mem key;
        incr kills
      end
    done
  in
  let tainted = Array.make (max 1 (Trace.length trace)) false in
  let branches = ref [] and jumps = ref [] and kwrites = ref [] in
  let count = ref 0 in
  Trace.iteri trace (fun idx ev ->
      (match meter with
       | Some m -> Robust.Meter.charge_taint_events m 1
       | None -> ());
      match ev with
      | Vm.Event.Exec e ->
        let acc = Vm.Access.of_insn e.regs_before e.insn in
        let in_taint =
          List.exists (fun r -> Hashtbl.mem regs (e.tid, Isa.Reg.index r))
            acc.r_regs
          || List.exists
            (fun x -> Hashtbl.mem xmms (e.tid, Isa.Reg.xmm_index x))
            acc.r_xmm
          || List.exists (fun (a, n) -> mem_tainted a n) acc.r_mem
          || (acc.r_flags && Hashtbl.mem flags e.tid)
        in
        if in_taint then begin
          tainted.(idx) <- true;
          incr count
        end;
        (* branch/jump classification *)
        (match e.insn with
         | Jcc (_, target) when acc.r_flags && Hashtbl.mem flags e.tid ->
           branches := (idx, Int64.equal e.next_pc target) :: !branches
         | (Jmp (Indirect _) | Call (Indirect _)) when in_taint ->
           jumps := idx :: !jumps
         | _ -> ());
        (* strong updates on written state *)
        List.iter
          (fun r ->
             let key = (e.tid, Isa.Reg.index r) in
             if in_taint then Hashtbl.replace regs key ()
             else if Hashtbl.mem regs key then begin
               Hashtbl.remove regs key;
               incr kills
             end)
          acc.w_regs;
        List.iter
          (fun x ->
             let key = (e.tid, Isa.Reg.xmm_index x) in
             if in_taint then Hashtbl.replace xmms key ()
             else if Hashtbl.mem xmms key then begin
               Hashtbl.remove xmms key;
               incr kills
             end)
          acc.w_xmm;
        List.iter (fun (a, n) -> set_mem a n in_taint) acc.w_mem;
        if acc.w_flags then
          if in_taint then Hashtbl.replace flags e.tid ()
          else if Hashtbl.mem flags e.tid then begin
            Hashtbl.remove flags e.tid;
            incr kills
          end
      | Vm.Event.Sys { record; _ } ->
        List.iter
          (fun eff ->
             match eff with
             | Vm.Event.Eff_write { obj; off; addr; len } ->
               (* memory -> kernel object; the policy decides whether
                  taint survives the kernel round trip.  A strong
                  update, as [Trace_exec]'s kernel shadow does: an
                  untainted byte clears the one it overwrites *)
               if policy.through_kernel then
                 for i = 0 to len - 1 do
                   if mem_tainted (Int64.add addr (Int64.of_int i)) 1 then
                     Hashtbl.replace kobj (obj, off + i) ()
                   else Hashtbl.remove kobj (obj, off + i)
                 done
               else if mem_tainted addr len then kwrites := idx :: !kwrites
             | Vm.Event.Eff_read { obj; off; addr; len; _ } ->
               (* kernel object -> memory: strong update *)
               for i = 0 to len - 1 do
                 set_mem (Int64.add addr (Int64.of_int i)) 1
                   (Hashtbl.mem kobj (obj, off + i))
               done
             | Vm.Event.Eff_spawn _ -> ())
          record.effects
      | Vm.Event.Signal _ -> ());
  Telemetry.Metrics.add m_tainted_insns !count;
  Telemetry.Metrics.add m_kills !kills;
  { tainted;
    tainted_branch = List.rev !branches;
    tainted_jumps = List.rev !jumps;
    tainted_count = !count;
    kills = !kills;
    kernel_writes = List.rev !kwrites }
