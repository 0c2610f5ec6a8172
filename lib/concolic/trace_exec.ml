(** Trace-based symbolic execution (the conceptual framework of the
    paper's Figure 1): replay a recorded trace, maintain symbolic
    state for the followed threads, and extract one constraint per
    branch with a symbolic condition.

    A concrete *replica* of the traced machine runs alongside the
    symbolic state: every event re-seeds a scratch CPU from its
    recorded pre-state and re-executes against a private memory image,
    so the executor can answer "what is the concrete value here?"
    for any address — the concolic half of concolic execution. *)

module E = Smt.Expr

type thread_filter = All_threads | Only_thread of int

type signal_model =
  | Fault_branch  (** model #DE as a conditional on the divisor (BAP) *)
  | Abort_on_signal  (** lose the trace at the fault (Triton) *)

type config = {
  features : Ir.Lifter.features;
  mem_mode : Sym_exec.mem_mode;
  taint_policy : Taint.policy;
  threads : thread_filter;
  signals : signal_model;
  lift_stack_ops : bool;
      (** when false, tainted push/pop cannot be lifted (BAP's gap) *)
  symbolic_syscalls : string list;
      (** extension hook: syscall names whose results become symbolic
          variables (e.g. ["time"]) — empty for all paper profiles *)
}

let bap_like_config =
  { features = Ir.Lifter.no_fp;
    mem_mode = Sym_exec.Concrete_only;
    taint_policy = Taint.pin_policy;
    threads = All_threads;
    signals = Fault_branch;
    lift_stack_ops = false;
    symbolic_syscalls = [] }

let triton_like_config =
  { features = Ir.Lifter.no_fp;
    mem_mode = Sym_exec.Concrete_only;
    taint_policy = Taint.pin_policy;
    threads = Only_thread 1;
    signals = Abort_on_signal;
    lift_stack_ops = true;
    symbolic_syscalls = [] }

type branch = {
  seq : int;             (** position within the ordered constraint list *)
  pc : int64;
  cond : E.t;            (** as recorded on the path (already oriented) *)
  taken : bool;
}

type path = {
  constraints : (E.t * State.info) list;  (** execution order *)
  branches : branch list;                 (** negatable suffix points *)
  sym_jumps : (int64 * E.t * int64) list; (** pc, target expr, concrete *)
  diags : Error.diag list;
  taint : Taint.result;
  input_env : Smt.Eval.env;               (** concrete input binding *)
  trace : Trace.t;
}

(** Symbolic input sources: named byte regions. *)
type source = { s_addr : int64; s_len : int; s_prefix : string }

(** argv.(1) as the symbolic input, named [argv1_0 .. argv1_{n-1}]
    (NUL excluded so its terminator stays concrete — tools fixing the
    length do exactly this; [include_nul] widens it). *)
let argv1_source_opt ?(include_nul = false) (trace : Trace.t) =
  match Trace.argv_region trace 1 with
  | None -> None
  | Some (addr, len) ->
    Some
      { s_addr = addr;
        s_len = (if include_nul then len else len - 1);
        s_prefix = "argv1" }

let argv1_source ?include_nul (trace : Trace.t) =
  match argv1_source_opt ?include_nul trace with
  | Some s -> s
  | None -> invalid_arg "argv1_source: traced program has no argv.(1)"

let m_constraints = Telemetry.Metrics.counter "concolic.constraints"
let m_sym_branches = Telemetry.Metrics.counter "concolic.sym_branches"

let run (config : config) ?session ?(sources : source list option)
    (trace : Trace.t) : path =
  Telemetry.with_span "concolic.trace_exec" @@ fun () ->
  let sources =
    match sources with
    | Some s -> s
    | None -> (
        (* a trace with no argv.(1) runs fully concrete rather than
           aborting the cell *)
        match argv1_source_opt trace with
        | Some s -> [ s ]
        | None ->
            Telemetry.Log.warnf
              "trace_exec: traced program has no argv.(1); no symbolic \
               sources";
            [])
  in
  (* --- concrete replica --- *)
  let mem, _rsp, _layout =
    Vm.Machine.fresh_memory ~config:trace.config trace.image
  in
  let scratch = Vm.Cpu.create () in
  (* --- symbolic state --- *)
  let st = State.create ?session () in
  let input_env : Smt.Eval.env = Hashtbl.create 32 in
  List.iter
    (fun { s_addr; s_len; s_prefix } ->
       State.symbolize_region st ~prefix:s_prefix s_addr s_len;
       for i = 0 to s_len - 1 do
         Hashtbl.replace input_env
           (Printf.sprintf "%s_%d" s_prefix i)
           (Int64.of_int
              (Vm.Mem.read_u8 mem (Int64.add s_addr (Int64.of_int i))))
       done)
    sources;
  (* kernel-object shadow for covert propagation *)
  let kobj : (int * int, E.t) Hashtbl.t = Hashtbl.create 64 in
  let follow_kernel =
    config.taint_policy.through_files || config.taint_policy.through_pipes
    || config.taint_policy.through_sockets
  in
  (* taint pre-pass (used for the stack-op gap and for statistics) *)
  let taint =
    Taint.analyze ~policy:config.taint_policy
      ~sources:(List.map (fun s -> (s.s_addr, s.s_len)) sources)
      trace
  in
  (* current event context for the hooks *)
  let cur_event : Vm.Event.exec option ref = ref None in
  let resolve_addr e =
    try Smt.Eval.eval input_env e
    with Smt.Eval.Unbound _ ->
      (* symbolic value we did not create (defensive): zero it *)
      0L
  in
  let hooks =
    { Sym_exec.concrete_var =
        (fun name ->
           match !cur_event with
           | None -> 0L
           | Some e -> (
               match Isa.Reg.of_name name with
               | r -> e.regs_before.(Isa.Reg.index r)
               | exception _ -> (
                   (* XMM or flag *)
                   match name with
                   | "XMM0" | "XMM1" | "XMM2" | "XMM3" | "XMM4" | "XMM5"
                   | "XMM6" | "XMM7" ->
                     Int64.bits_of_float
                       e.xmm_before.(Char.code name.[3] - Char.code '0')
                   | "ZF" -> Int64.of_int (e.flags_before land 1)
                   | "SF" -> Int64.of_int ((e.flags_before lsr 1) land 1)
                   | "CF" -> Int64.of_int ((e.flags_before lsr 2) land 1)
                   | "OF" -> Int64.of_int ((e.flags_before lsr 3) land 1)
                   | "PF" -> Int64.of_int ((e.flags_before lsr 4) land 1)
                   | _ -> 0L)));
      concrete_byte = (fun a -> Vm.Mem.read_u8 mem a);
      resolve_addr;
      mode = config.mem_mode;
      keep_concrete_stores = false }
  in
  let ctx = Sym_exec.make_ctx st hooks in
  let branches = ref [] and sym_jumps = ref [] in
  let aborted = ref false in
  let last_rsp = ref 0L in
  let followed tid =
    match config.threads with
    | All_threads -> true
    | Only_thread t -> tid = t
  in
  (* one encode and one lift per static instruction of this run *)
  let lifts = Ir.Lifter.Memo.create config.features in
  (* replay one exec event concretely on the replica; [next] is its
     fall-through address *)
  let replay (e : Vm.Event.exec) next =
    Array.blit e.regs_before 0 scratch.Vm.Cpu.regs 0 Isa.Reg.count;
    Array.blit e.xmm_before 0 scratch.Vm.Cpu.xmm 0 Isa.Reg.xmm_count;
    Vm.Cpu.unpack_flags scratch e.flags_before;
    scratch.Vm.Cpu.pc <- e.pc;
    match Vm.Cpu.execute scratch mem ~next_pc:next e.insn with _ -> ()
  in
  let havoc_written (e : Vm.Event.exec) =
    (* lift failed: written state becomes its concrete value *)
    let acc = Vm.Access.of_insn e.regs_before e.insn in
    List.iter
      (fun r ->
         State.write_var st (Isa.Reg.show r)
           (E.Const (scratch.Vm.Cpu.regs.(Isa.Reg.index r), 64)))
      acc.w_regs;
    List.iter
      (fun x ->
         State.write_var st (Isa.Reg.show_xmm x)
           (E.Const
              (Int64.bits_of_float scratch.Vm.Cpu.xmm.(Isa.Reg.xmm_index x),
               64)))
      acc.w_xmm;
    List.iter
      (fun (a, n) ->
         for i = 0 to n - 1 do
           Hashtbl.remove st.shadow (Int64.add a (Int64.of_int i))
         done)
      acc.w_mem;
    if acc.w_flags then
      List.iter
        (fun f -> Hashtbl.remove st.env f)
        [ "ZF"; "SF"; "CF"; "OF"; "PF" ]
  in
  Trace.iteri trace
    (fun idx ev ->
       (* deadline poll, amortized over the replay loop (budget
          charging itself happens in the lifter and taint layers this
          loop drives) *)
       if idx land 0xFFF = 0 then Robust.Meter.checkpoint_ambient ();
       match ev with
       | Vm.Event.Exec e ->
         cur_event := Some e;
         last_rsp := e.regs_before.(Isa.Reg.index Isa.Reg.RSP);
         let follow = followed e.tid && not !aborted in
         let entry = Ir.Lifter.Memo.find lifts ~pc:e.pc e.insn in
         let next = entry.next in
         (* symbolic step first (it reads pre-state), then replay *)
         if follow then begin
           let stack_gap =
             (not config.lift_stack_ops)
             && taint.Taint.tainted.(idx)
             && (match e.insn with
                 | Isa.Insn.Push _ | Isa.Insn.Pop _ -> true
                 | _ -> false)
           in
           if stack_gap then begin
             State.diag st
               (Error.Lift_failure
                  (Printf.sprintf "tainted stack op %s"
                     (Isa.Insn.mnemonic e.insn)));
             replay e next;
             havoc_written e
           end
           else
             match e.insn with
             | Isa.Insn.Idiv (w, o) ->
               (* the implicit #DE branch — only a tool that models
                  fault delivery (BAP-style) records it *)
               let d_exp =
                 Sym_exec.eval_exp ctx (Ir.Lifter.read_operand w o)
               in
               let faulted = not (Int64.equal e.next_pc next) in
               let zero = E.Const (0L, E.width_of d_exp) in
               (match d_exp with
                | E.Const _ -> ()
                | _ when config.signals <> Fault_branch -> ()
                | _ ->
                  State.add_constraint st ~kind:Fault_guard ~pc:e.pc
                    ~taken:faulted
                    (if faulted then State.mk_cmp Eq d_exp zero
                     else E.not_ (State.mk_cmp Eq d_exp zero));
                  branches :=
                    { seq = List.length st.constraints - 1;
                      pc = e.pc;
                      cond =
                        (if faulted then State.mk_cmp Eq d_exp zero
                         else E.not_ (State.mk_cmp Eq d_exp zero));
                      taken = faulted }
                    :: !branches);
               if not faulted then
                 ignore
                   (Sym_exec.run_stmts ctx (Ir.Lifter.Memo.lift lifts entry));
               replay e next
             | _ -> (
                 let stmts = Ir.Lifter.Memo.lift lifts entry in
                 match Sym_exec.run_stmts ctx stmts with
                 | Sym_exec.Fallthrough | Sym_exec.Sys_enter ->
                   replay e next
                 | Sym_exec.Cond (cond, target) ->
                   (match cond with
                    | E.Const _ -> ()
                    | _ ->
                      let taken = Int64.equal e.next_pc target in
                      let oriented = if taken then cond else E.not_ cond in
                      State.add_constraint st ~pc:e.pc ~taken oriented;
                      branches :=
                        { seq = List.length st.constraints - 1;
                          pc = e.pc; cond = oriented; taken }
                        :: !branches);
                   replay e next
                 | Sym_exec.Jump tgt ->
                   (match tgt with
                    | E.Const _ -> ()
                    | _ ->
                      State.diag st Error.Symbolic_jump_target;
                      sym_jumps := (e.pc, tgt, e.next_pc) :: !sym_jumps);
                   replay e next
                 | Sym_exec.Unliftable msg ->
                   State.diag st (Error.Lift_failure msg);
                   replay e next;
                   havoc_written e)
         end
         else replay e next
       | Vm.Event.Sys { tid; record; _ } ->
         (* a tainted string passed as a syscall *argument* (open's
            path, say) is input leaving through the kernel: contextual
            use the tool will not model *)
         (if record.name = "open" then begin
            let addr = record.args.(0) in
            let rec scan i =
              if i > 64 then ()
              else
                let a = Int64.add addr (Int64.of_int i) in
                if Vm.Mem.read_u8 mem a = 0 then ()
                else if Hashtbl.mem st.State.shadow a then
                  (match Hashtbl.find_opt st.State.shadow a with
                   | Some (E.Const _) | None -> scan (i + 1)
                   | Some _ -> State.diag st Error.Taint_lost_in_kernel)
                else scan (i + 1)
            in
            scan 0
          end);
         (* the replica memory gets kernel read effects; the symbolic
            state gets them too (policy-dependent provenance) *)
         List.iter
           (fun eff ->
              match eff with
              | Vm.Event.Eff_read { obj; off; addr; len; data } ->
                Vm.Mem.write_bytes mem addr data;
                for i = 0 to len - 1 do
                  let a = Int64.add addr (Int64.of_int i) in
                  match
                    if follow_kernel then Hashtbl.find_opt kobj (obj, off + i)
                    else None
                  with
                  | Some e -> Hashtbl.replace st.shadow a e
                  | None -> Hashtbl.remove st.shadow a
                done
              | Vm.Event.Eff_write { obj; off; addr; len } ->
                let lost = ref false in
                for i = 0 to len - 1 do
                  let a = Int64.add addr (Int64.of_int i) in
                  match Hashtbl.find_opt st.shadow a with
                  | Some e ->
                    if follow_kernel then
                      Hashtbl.replace kobj (obj, off + i) e
                    else lost := true
                  | None ->
                    if follow_kernel then Hashtbl.remove kobj (obj, off + i)
                done;
                if !lost then State.diag st Error.Taint_lost_in_kernel
              | Vm.Event.Eff_spawn _ -> ())
           record.effects;
         (* syscall result lands in RAX *)
         if followed tid && not !aborted then begin
           if List.mem record.name config.symbolic_syscalls then begin
             let vname = Printf.sprintf "sys_%s_%d" record.name idx in
             Hashtbl.replace input_env vname record.ret;
             State.write_var st "RAX" (E.var ~width:64 vname)
           end
           else State.write_var st "RAX" (E.Const (record.ret, 64))
         end
       | Vm.Event.Signal { resume; _ } ->
         (* mirror the kernel's push of the resume address so the
            replica stack matches the traced machine *)
         let slot = Int64.sub !last_rsp 8L in
         Vm.Mem.write mem slot 8 resume;
         for i = 0 to 7 do
           Hashtbl.remove st.State.shadow (Int64.add slot (Int64.of_int i))
         done;
         (match config.signals with
          | Abort_on_signal ->
            State.diag st Error.Signal_in_trace;
            aborted := true
          | Fault_branch -> ()));
  Telemetry.Metrics.add m_constraints (List.length st.State.constraints);
  Telemetry.Metrics.add m_sym_branches (List.length !branches);
  { constraints = List.rev st.State.constraints;
    branches = List.rev !branches;
    sym_jumps = List.rev !sym_jumps;
    diags = st.State.diags;
    taint;
    input_env;
    trace }
