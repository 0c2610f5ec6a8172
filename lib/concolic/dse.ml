(** Static dynamic-symbolic-execution in the style of Angr: lift the
    whole image, explore states breadth-first under a simulated OS
    (SimOS), and solve the path predicate of any state that reaches
    the goal address.

    Two modes mirror the paper's two Angr columns:

    - [With_libs]: library code is executed symbolically like any
      other code; only raw syscalls are simulated.
    - [No_libs]: a subset of library functions is replaced by
      SimProcedure-style summaries — [fork] becomes a sequential
      (vfork-like) simulation, [sin]/[pow]/[rand]/[sha1]/[aes] return
      unconstrained values, [printf] is skipped.  Pure string routines
      run their real code (equivalent to a faithful SimProcedure).

    SimOS deliberately reproduces simuvex-era simplifications that the
    paper blames for wrong or partial results: unknown files open
    successfully with unconstrained contents, [getuid]-style syscalls
    return unconstrained integers, possible division faults are
    constrained away, and sockets are unsupported (a crash). *)

module E = Smt.Expr

exception Sim_crash of string

type mode = With_libs | No_libs

type config = {
  mode : mode;
  argv_width : int;
  max_steps : int;
  max_states : int;
  max_claims : int;
  solver : Smt.Solver.config;
  feasibility_budget : int;   (** conflict budget for fork pruning *)
  mem_window : int;
  max_constraint_nodes : int;
      (** refuse to bit-blast larger path predicates (crypto blow-up:
          the paper's "memory out") *)
  incremental : bool;
      (** run all feasibility and goal queries through one
          {!Smt.Session}: forked states inherit the encoded prefix of
          their parent, and repeated checks hit the query cache *)
}

let default_config mode =
  { mode;
    argv_width = 8;
    max_steps = 400_000;
    max_states = 2_000;
    max_claims = 3;
    solver = { Smt.Solver.default_config with conflict_budget = 20_000 };
    feasibility_budget = 1_000;
    mem_window = 64;
    max_constraint_nodes = 300_000;
    incremental = true }

(* ------------------------------------------------------------------ *)
(* SimOS                                                               *)
(* ------------------------------------------------------------------ *)

type fdesc =
  | SFile of { mutable fpos : int }   (** symbolic file: unconstrained *)
  | SPipe_r of int
  | SPipe_w of int

type simos = {
  mutable fds : (int * fdesc) list;
  mutable next_fd : int;
  mutable pipes : (int * E.t list ref) list;  (** FIFO byte exprs *)
  mutable next_pipe : int;
  mutable fresh : int;           (** unconstrained-variable counter *)
  mutable fork_ret : (int64 * (string * E.t) list) option;
      (** sequential-fork resume: (return pc, saved callee regs+rsp) *)
}

let simos_create () =
  { fds = []; next_fd = 3; pipes = []; next_pipe = 0; fresh = 0;
    fork_ret = None }

let simos_clone s =
  { s with
    fds = s.fds;
    pipes = List.map (fun (i, q) -> (i, ref !q)) s.pipes }

(* ------------------------------------------------------------------ *)
(* States                                                              *)
(* ------------------------------------------------------------------ *)

(** A model of every constraint in [upto], which is physically the
    state's [st.constraints] list as it was when the model was last
    checked.  Constraints are only ever consed on, so [upto] stays a
    suffix of the live list. *)
type witness = {
  env : Smt.Eval.env;
  upto : (E.t * State.info) list;
}

type sstate = {
  mutable pc : int64;
  st : State.t;
  os : simos;
  mutable witness : witness option;
      (** last model of this path, tried before the solver at a fork *)
}

type claim = {
  model : Smt.Solver.model;
  input : string;
  diags : Error.diag list;
}

type outcome = {
  claims : claim list;
  reached_goal : int;
  explored_states : int;
  steps : int;
  diags : Error.diag list;
  crashed : string option;
  budget_exhausted : bool;
  solver_unknowns : int;
  fp_seen : bool;
  symbolic_branches : int;
      (** forks on input-dependent conditions — zero means the input
          never reached a condition (the Es0 signature) *)
}

let clone_sstate s =
  { pc = s.pc; st = State.clone s.st; os = simos_clone s.os;
    witness = s.witness }

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  image : Asm.Image.t;
  base_mem : Vm.Mem.t;           (** initial concrete memory (read-only) *)
  goal : int64;
  lib_funcs : (int64, string) Hashtbl.t;  (** lib function entry points *)
  session : Smt.Session.t option;  (** shared by every explored state *)
  stats : Smt.Stats.t;
  lifts : Ir.Lifter.Memo.t;
  decoded : (int64, Ir.Lifter.Memo.entry option) Hashtbl.t;
      (** one decode per pc; [None]: the pc does not decode *)
  mutable total_steps : int;
  mutable spawned : int;
  mutable all_diags : Error.diag list;
  mutable unknowns : int;
  mutable fp_seen : bool;
  mutable forks : int;
}

(* every solver query goes through here: the session when incremental,
   a one-shot solve otherwise — same pipeline, same outcomes *)
let solve t ?(config = t.config.solver) cs =
  Smt.Solver.solve ~config ~stats:t.stats ?session:t.session cs

let fresh_var st os prefix width =
  os.fresh <- os.fresh + 1;
  ignore st;
  E.var ~width (Printf.sprintf "u_%s_%d" prefix os.fresh)

let reg_name = Isa.Reg.show

let get_reg t s r =
  State.read_var s.st (reg_name r) 64 ~concrete:(fun _ -> 0L)
  |> fun e -> ignore t; e

let set_reg s r e = State.write_var s.st (reg_name r) e

let zero_env_of e =
  let env : Smt.Eval.env = Hashtbl.create 4 in
  List.iter (fun (v : E.var) -> Hashtbl.replace env v.vname 0L) (E.vars e);
  env

let concretize s (e : E.t) =
  match e with
  | E.Const (v, _) -> v
  | _ ->
    State.diag s.st (Error.Concretized_store 0L);
    Smt.Eval.eval (zero_env_of e) e

let hooks_of t (_s : sstate) =
  { Sym_exec.concrete_var = (fun _ -> 0L);
    concrete_byte = (fun a -> Vm.Mem.read_u8 t.base_mem a);
    resolve_addr =
      (fun e ->
         try Smt.Eval.eval (zero_env_of e) e with _ -> 0L);
    mode = Sym_exec.Indexed { window = t.config.mem_window; max_depth = 1 };
    keep_concrete_stores = true }

(* read a NUL-terminated concrete string via the state's memory *)
let read_cstring t s addr =
  let b = Buffer.create 16 in
  let rec go i =
    if i > 256 then ()
    else
      let a = Int64.add addr (Int64.of_int i) in
      let byte =
        match Hashtbl.find_opt s.st.State.shadow a with
        | Some (E.Const (v, _)) -> Int64.to_int v land 0xff
        | Some _ -> 0 (* symbolic filename byte: stop *)
        | None -> Vm.Mem.read_u8 t.base_mem a
      in
      if byte <> 0 then begin
        Buffer.add_char b (Char.chr byte);
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let load t s addr n =
  let ctx = Sym_exec.make_ctx s.st (hooks_of t s) in
  Sym_exec.sym_load ctx addr n

let store t s addr n v =
  let ctx = Sym_exec.make_ctx s.st (hooks_of t s) in
  Sym_exec.sym_store ctx addr n v

(* pop the (concrete) return address and jump there *)
let do_return t s =
  let rsp = concretize s (get_reg t s RSP) in
  let ret = load t s (E.Const (rsp, 64)) 8 in
  set_reg s RSP (E.Const (Int64.add rsp 8L, 64));
  s.pc <- concretize s ret

(* one unconstrained read of [len] bytes into memory at [addr] *)
let unconstrained_bytes t s ~what addr len =
  State.diag s.st (Error.Unconstrained_input what);
  for i = 0 to len - 1 do
    let b = fresh_var s.st s.os what 8 in
    store t s (E.Const (Int64.add addr (Int64.of_int i), 64)) 1 b
  done

(* ------------------------------------------------------------------ *)
(* Raw syscalls                                                        *)
(* ------------------------------------------------------------------ *)

type step_result = Running | Redirected | Dead | Goal

let simos_syscall t (s : sstate) : step_result =
  let os = s.os in
  let nr_e = get_reg t s RAX in
  let arg i =
    get_reg t s (match i with
        | 0 -> Isa.Reg.RDI | 1 -> RSI | 2 -> RDX | 3 -> R10 | 4 -> R8
        | _ -> R9)
  in
  let ret e = set_reg s RAX e in
  let unconstrained what =
    State.diag s.st (Error.Unconstrained_syscall what);
    ret (fresh_var s.st os what 64)
  in
  match nr_e with
  | E.Const (nr, _) -> (
      let nr = Int64.to_int nr in
      match Libc.Sysno.table |> List.find_opt (fun (_, n) -> n = nr) with
      | None -> unconstrained (Printf.sprintf "sys_%d" nr); Running
      | Some (name, _) -> (
          match name with
          | "exit" -> (
              match os.fork_ret with
              | Some (ret_pc, saved) ->
                (* sequential fork: the child finished; resume the
                   parent at the fork return site *)
                os.fork_ret <- None;
                List.iter (fun (n, v) -> State.write_var s.st n v) saved;
                ret (E.Const (70L, 64));
                s.pc <- ret_pc;
                Redirected
              | None -> Dead)
          | "read" -> (
              let fd = Int64.to_int (concretize s (arg 0)) in
              let buf = concretize s (arg 1) in
              let len = Int64.to_int (concretize s (arg 2)) in
              match List.assoc_opt fd os.fds with
              | Some (SPipe_r p) -> (
                  match List.assoc_opt p os.pipes with
                  | Some q when List.length !q >= len ->
                    let taken = List.filteri (fun i _ -> i < len) !q in
                    q := List.filteri (fun i _ -> i >= len) !q;
                    List.iteri
                      (fun i b ->
                         store t s
                           (E.Const (Int64.add buf (Int64.of_int i), 64))
                           1 b)
                      taken;
                    ret (E.Const (Int64.of_int len, 64));
                    Running
                  | _ ->
                    unconstrained_bytes t s ~what:"pipe" buf len;
                    ret (E.Const (Int64.of_int len, 64));
                    Running)
              | Some (SFile f) ->
                f.fpos <- f.fpos + len;
                unconstrained_bytes t s ~what:"file" buf len;
                ret (E.Const (Int64.of_int len, 64));
                Running
              | _ ->
                unconstrained_bytes t s ~what:"fd" buf len;
                ret (E.Const (Int64.of_int len, 64));
                Running)
          | "write" -> (
              let fd = Int64.to_int (concretize s (arg 0)) in
              let buf = concretize s (arg 1) in
              let len = Int64.to_int (concretize s (arg 2)) in
              (match List.assoc_opt fd os.fds with
               | Some (SPipe_w p) -> (
                   match List.assoc_opt p os.pipes with
                   | Some q ->
                     for i = 0 to len - 1 do
                       q :=
                         !q
                         @ [ load t s
                               (E.Const (Int64.add buf (Int64.of_int i), 64))
                               1 ]
                     done
                   | None -> ())
               | _ -> () (* stdout / symbolic files: discard *));
              ret (E.Const (Int64.of_int len, 64));
              Running)
          | "open" ->
            let path = read_cstring t s (concretize s (arg 0)) in
            ignore path;
            (* simuvex-style: any file opens, contents unconstrained *)
            let fd = os.next_fd in
            os.next_fd <- fd + 1;
            os.fds <- (fd, SFile { fpos = 0 }) :: os.fds;
            ret (E.Const (Int64.of_int fd, 64));
            Running
          | "close" -> ret (E.Const (0L, 64)); Running
          | "lseek" -> ret (arg 1); Running
          | "pipe" ->
            let p = os.next_pipe in
            os.next_pipe <- p + 1;
            os.pipes <- (p, ref []) :: os.pipes;
            let rfd = os.next_fd and wfd = os.next_fd + 1 in
            os.next_fd <- os.next_fd + 2;
            os.fds <- (rfd, SPipe_r p) :: (wfd, SPipe_w p) :: os.fds;
            let fds_ptr = concretize s (arg 0) in
            store t s (E.Const (fds_ptr, 64)) 4 (E.Const (Int64.of_int rfd, 32));
            store t s (E.Const (Int64.add fds_ptr 4L, 64)) 4
              (E.Const (Int64.of_int wfd, 32));
            ret (E.Const (0L, 64));
            Running
          | "fork" ->
            (* raw fork is beyond SimOS (the paper's unsupported-
               syscall case): press on with an arbitrary return *)
            State.diag s.st (Error.Unsupported_syscall "fork");
            ret (fresh_var s.st os "fork" 64);
            Running
          | "wait4" -> ret (E.Const (2L, 64)); Running
          | "getpid" -> ret (E.Const (1L, 64)); Running
          | "getuid" -> unconstrained "getuid"; Running
          | "time" ->
            (* modelled concretely, like angr's clock *)
            ret (E.Const (Vm.Machine.default_config.now, 64));
            Running
          | "gettimeofday" ->
            let ptr = concretize s (arg 0) in
            store t s (E.Const (ptr, 64)) 8
              (E.Const (Vm.Machine.default_config.now, 64));
            store t s (E.Const (Int64.add ptr 8L, 64)) 8 (E.Const (0L, 64));
            ret (E.Const (0L, 64));
            Running
          | "rt_sigaction" ->
            (* handler recorded nowhere: fault delivery is unsupported *)
            State.diag s.st (Error.Unsupported_syscall "rt_sigaction");
            ret (E.Const (0L, 64));
            Running
          | "getrandom" ->
            let buf = concretize s (arg 0) in
            let len = Int64.to_int (concretize s (arg 1)) in
            unconstrained_bytes t s ~what:"random" buf len;
            ret (arg 1);
            Running
          | "nanosleep" -> ret (E.Const (0L, 64)); Running
          | "socket" | "connect" ->
            raise (Sim_crash "socket layer is not modelled")
          | "thread_create" ->
            (* the spawned thread never runs under SimOS *)
            State.diag s.st (Error.Unsupported_syscall "thread_create");
            ret (fresh_var s.st os "thread_create" 64);
            Running
          | "thread_join" -> ret (E.Const (0L, 64)); Running
          | "yield" -> ret (E.Const (0L, 64)); Running
          | "thread_exit" -> Dead
          | _ -> unconstrained name; Running))
  | _ ->
    State.diag s.st Error.Symbolic_syscall_number;
    ret (fresh_var s.st os "sysnum" 64);
    Running

(* ------------------------------------------------------------------ *)
(* No-libs summaries                                                   *)
(* ------------------------------------------------------------------ *)

(* names summarised in No_libs mode; everything else (string routines,
   wrappers) executes its real code *)
let summarised =
  [ "fork"; "sin"; "pow"; "fabs"; "sqrt"; "srand"; "rand"; "sha1";
    "aes128_encrypt"; "printf"; "puts"; "putchar"; "http_get" ]

let run_summary t (s : sstate) name : step_result =
  let os = s.os in
  let unconstrained_ret () =
    State.diag s.st (Error.Unconstrained_external name);
    set_reg s RAX (fresh_var s.st os name 64);
    do_return t s;
    Running
  in
  let unconstrained_fp () =
    State.diag s.st (Error.Unconstrained_external name);
    State.write_var s.st "XMM0" (fresh_var s.st os name 64);
    do_return t s;
    Running
  in
  match name with
  | "sin" | "pow" | "fabs" | "sqrt" -> unconstrained_fp ()
  | "rand" -> unconstrained_ret ()
  | "srand" ->
    set_reg s RAX (E.Const (0L, 64));
    do_return t s;
    Running
  | "sha1" | "aes128_encrypt" ->
    (* output buffer untouched — the summary knows nothing *)
    unconstrained_ret ()
  | "printf" | "puts" | "putchar" ->
    set_reg s RAX (E.Const (0L, 64));
    do_return t s;
    Running
  | "http_get" -> raise (Sim_crash "http_get needs the socket layer")
  | "fork" ->
    (* sequential (vfork-like) simulation: run the child to its exit,
       then resume here as the parent *)
    let rsp = concretize s (get_reg t s RSP) in
    let ret_addr = concretize s (load t s (E.Const (rsp, 64)) 8) in
    let saved =
      (reg_name Isa.Reg.RSP, E.Const (Int64.add rsp 8L, 64))
      :: List.map
        (fun r -> (reg_name r, get_reg t s r))
        [ Isa.Reg.RBX; RBP; R12; R13; R14; R15 ]
    in
    s.os.fork_ret <- Some (ret_addr, saved);
    set_reg s RAX (E.Const (0L, 64));  (* child side first *)
    set_reg s RSP (E.Const (Int64.add rsp 8L, 64));
    s.pc <- ret_addr;
    Running
  | _ -> unconstrained_ret ()

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

let input_of_model ~width (model : Smt.Solver.model) =
  let b = Bytes.create width in
  for i = 0 to width - 1 do
    let v =
      match List.assoc_opt (Printf.sprintf "argv1_%d" i) model with
      | Some x -> Int64.to_int (Int64.logand x 0xffL)
      | None -> Char.code 'x'
    in
    Bytes.set b i (Char.chr v)
  done;
  let str = Bytes.to_string b in
  match String.index_opt str '\000' with
  | Some 0 -> "\001"
  | Some i -> String.sub str 0 i
  | None -> str

(** Does [w] model all of [cs] (newest first)?  It models [w.upto], so
    only the constraints consed on since need evaluating — including
    those recorded with no check ([Address_bound], [Fault_guard]). *)
let witness_covers w cs =
  let rec newer_hold l =
    l == w.upto
    || match l with
       | (c, _) :: rest -> Smt.Eval.satisfies w.env c && newer_hold rest
       | [] -> false
  in
  newer_hold cs

let m_dse_witnessed = Telemetry.Metrics.counter "dse.witnessed"

let feasible t (s : sstate) =
  (* the O(1) size guard first: on crypto paths it spares a walk of the
     whole path per fork *)
  if s.st.State.built_cost > t.config.max_constraint_nodes then true
  else
    let cs = s.st.State.constraints in
    match s.witness with
    | Some w when witness_covers w cs ->
      (* a path's model satisfies one side of every fork it passes:
         that side needs no solver call *)
      Telemetry.Metrics.incr m_dse_witnessed;
      s.witness <- Some { w with upto = cs };
      true
    | _ ->
      let path = State.path_condition s.st in
      if E.exists_fp path then true (* cannot check: assume *)
      else
        match
          solve t
            ~config:
              { t.config.solver with
                conflict_budget = t.config.feasibility_budget }
            path
        with
        | Smt.Solver.Sat m ->
          s.witness <- Some { env = Smt.Eval.env_of_list m; upto = cs };
          true
        | Smt.Solver.Unsat -> false
        | Smt.Solver.Unknown _ -> true

let m_dse_steps = Telemetry.Metrics.counter "dse.steps"
let m_dse_states = Telemetry.Metrics.counter "dse.states"
let m_dse_forks = Telemetry.Metrics.counter "dse.forks"

(* the instruction at [pc], decoded once per exploration; its lift is
   memoised in the entry *)
let insn_at t pc =
  match Hashtbl.find_opt t.decoded pc with
  | Some e -> e
  | None ->
    let e =
      match Asm.Image.decode_at t.image pc with
      | insn, next -> Some { Ir.Lifter.Memo.insn; next; stmts = None }
      | exception _ -> None
    in
    Hashtbl.replace t.decoded pc e;
    e

(** The engine for one exploration of [image], and its initial state. *)
let init ?goal_symbol:(goal = "bomb") (config : config) (image : Asm.Image.t)
  =
  let run_config =
    { Vm.Machine.default_config with
      argv = [ "prog"; String.make config.argv_width 'x' ] }
  in
  let base_mem, init_rsp, argv_layout =
    Vm.Machine.fresh_memory ~config:run_config image
  in
  let goal_addr = Asm.Image.symbol_addr image goal in
  let lib_funcs = Hashtbl.create 64 in
  if config.mode = No_libs then
    List.iter
      (fun (sym : Asm.Image.symbol) ->
         if sym.from_lib && sym.kind = Func && List.mem sym.name summarised
         then Hashtbl.replace lib_funcs sym.addr sym.name)
      image.symbols;
  let stats = Smt.Stats.create () in
  let session =
    if config.incremental then
      Some (Smt.Session.create ~config:config.solver ~stats ())
    else None
  in
  let t =
    { config; image; base_mem; goal = goal_addr; lib_funcs;
      session; stats;
      lifts = Ir.Lifter.Memo.create Ir.Lifter.full;
      decoded = Hashtbl.create 256;
      total_steps = 0; spawned = 0; all_diags = []; unknowns = 0;
      fp_seen = false; forks = 0 }
  in
  (* initial state; forks clone it, so they share the session *)
  let s0 =
    { pc = image.entry; st = State.create ?session (); os = simos_create ();
      witness = None }
  in
  set_reg s0 RSP (E.Const (init_rsp, 64));
  let argv1_addr, _argv1_len = List.nth argv_layout 1 in
  State.symbolize_region s0.st ~prefix:"argv1" argv1_addr config.argv_width;
  (t, s0)

(** Explore [image] looking for a path into the [goal] symbol. *)
let explore ?goal_symbol (config : config) (image : Asm.Image.t) : outcome =
  Telemetry.with_span "concolic.dse" @@ fun () ->
  let t, s0 = init ?goal_symbol config image in
  let queue = Queue.create () in
  Queue.add s0 queue;
  t.spawned <- 1;
  let claims = ref [] in
  let reached = ref 0 in
  let crashed = ref None in
  let budget_hit = ref false in
  (try
     while not (Queue.is_empty queue) do
       if t.total_steps >= config.max_steps then begin
         budget_hit := true;
         raise Exit
       end;
       let s = Queue.take queue in
       let live = ref true in
       while !live do
         if t.total_steps >= config.max_steps then begin
           budget_hit := true;
           raise Exit
         end;
         t.total_steps <- t.total_steps + 1;
         (* amortized deadline poll for the DSE walk; the
            per-instruction budgets are charged by the lifter and
            session layers this loop calls into *)
         if t.total_steps land 0xFF = 0 then Robust.Meter.checkpoint_ambient ();
         if Int64.equal s.pc t.goal then begin
           incr reached;
           let cs = State.path_condition s.st in
           if E.exists_fp cs then begin
             t.fp_seen <- true;
             t.all_diags <- Error.Fp_constraint :: t.all_diags
           end;
           let too_large = s.st.State.built_cost > config.max_constraint_nodes in
           let has_unconstrained_external =
             List.exists
               (function Error.Unconstrained_external _ -> true | _ -> false)
               s.st.State.diags
           in
           (match
              if too_large then Smt.Solver.Unknown Smt.Solver.Budget
              else
                match solve t cs with
                | Smt.Solver.Unknown Smt.Solver.Fp_unsupported
                  when has_unconstrained_external ->
                  (* angr-style aggression: FP terms over summarised
                     externals are treated as freely assignable *)
                  solve t
                    ~config:
                      { config.solver with
                        enable_fp_search = true;
                        fp_search_iters = 20_000 }
                    cs
                | r -> r
            with
            | Smt.Solver.Sat model ->
              claims :=
                { model;
                  input = input_of_model ~width:config.argv_width model;
                  diags = s.st.State.diags }
                :: !claims;
              if List.length !claims >= config.max_claims then raise Exit
            | Smt.Solver.Unsat -> ()
            | Smt.Solver.Unknown Smt.Solver.Fp_unsupported ->
              t.fp_seen <- true;
              t.all_diags <- Error.Fp_constraint :: t.all_diags;
              t.unknowns <- t.unknowns + 1
            | Smt.Solver.Unknown _ ->
              t.unknowns <- t.unknowns + 1;
              t.all_diags <- Error.Solver_budget :: t.all_diags);
           live := false;
           t.all_diags <- s.st.State.diags @ t.all_diags
         end
         else begin
           (* No-libs summaries intercept library entry points *)
           match
             if config.mode = No_libs then Hashtbl.find_opt t.lib_funcs s.pc
             else None
           with
           | Some name -> (
               match run_summary t s name with
               | Running | Redirected -> ()
               | Dead | Goal ->
                 live := false;
                 t.all_diags <- s.st.State.diags @ t.all_diags)
           | None -> (
               match insn_at t s.pc with
               | None ->
                 (* jumped into the weeds *)
                 live := false;
                 t.all_diags <- s.st.State.diags @ t.all_diags
               | Some entry ->
                 let insn = entry.insn and next = entry.next in
                 let lift () = Ir.Lifter.Memo.lift t.lifts entry in
                 let ctx = Sym_exec.make_ctx s.st (hooks_of t s) in
                 let finish_state () =
                   (if Telemetry.Log.enabled Telemetry.Log.Debug then
                      Telemetry.Log.debugf "dse: state dies at 0x%Lx (%s)" s.pc
                        (Isa.Pp.to_string insn));
                   live := false;
                   t.all_diags <- s.st.State.diags @ t.all_diags
                 in
                 (match insn with
                  | Isa.Insn.Idiv (w, o) -> (
                      let d =
                        Sym_exec.eval_exp ctx (Ir.Lifter.read_operand w o)
                      in
                      match d with
                      | E.Const (0L, _) -> finish_state ()
                      | E.Const _ ->
                        ignore (Sym_exec.run_stmts ctx (lift ()));
                        s.pc <- next
                      | _ ->
                        (* constrain the fault away, as angr does *)
                        State.diag s.st Error.Fault_path_pruned;
                        State.add_constraint s.st ~kind:State.Fault_guard
                          ~pc:s.pc ~taken:true
                          (E.not_
                             (State.mk_cmp Eq d
                                (E.Const (0L, E.width_of d))));
                        ignore (Sym_exec.run_stmts ctx (lift ()));
                        s.pc <- next)
                  | _ -> (
                      let stmts = lift () in
                      match Sym_exec.run_stmts ctx stmts with
                      | Sym_exec.Fallthrough -> s.pc <- next
                      | Sym_exec.Cond (cond, target) -> (
                          match cond with
                          | E.Const (1L, _) -> s.pc <- target
                          | E.Const (_, _) -> s.pc <- next
                          | _ ->
                            (* fork: taken child queued, fallthrough
                               continues here *)
                            t.forks <- t.forks + 1;
                            if t.spawned < config.max_states then begin
                              let taken = clone_sstate s in
                              State.add_constraint taken.st ~pc:s.pc
                                ~taken:true cond;
                              taken.pc <- target;
                              if feasible t taken then begin
                                t.spawned <- t.spawned + 1;
                                Queue.add taken queue
                              end
                            end
                            else t.all_diags <- Error.State_budget :: t.all_diags;
                            State.add_constraint s.st ~pc:s.pc ~taken:false
                              (E.not_ cond);
                            if not (feasible t s) then finish_state ()
                            else s.pc <- next)
                      | Sym_exec.Jump tgt -> (
                          match tgt with
                          | E.Const (a, _) -> s.pc <- a
                          | _ ->
                            State.diag s.st Error.Symbolic_jump_target;
                            (* concretize like a pointer: zero inputs *)
                            let a =
                              try Smt.Eval.eval (zero_env_of tgt) tgt
                              with _ -> 0L
                            in
                            if Int64.equal a 0L then finish_state ()
                            else s.pc <- a)
                      | Sym_exec.Sys_enter -> (
                          match simos_syscall t s with
                          | Running -> s.pc <- next
                          | Redirected -> ()
                          | Dead | Goal -> finish_state ())
                      | Sym_exec.Unliftable _ ->
                        (* hlt *)
                        finish_state ())))
         end
       done
     done
   with
   | Exit -> ()
   | Sim_crash msg ->
     crashed := Some msg;
     t.all_diags <- Error.Engine_crash msg :: t.all_diags);
  Telemetry.Metrics.add m_dse_steps t.total_steps;
  Telemetry.Metrics.add m_dse_states t.spawned;
  Telemetry.Metrics.add m_dse_forks t.forks;
  (* surface degradation-ladder outcomes as diags so grading and
     --explain can attribute a P (degraded) cell to its rung *)
  List.iter
    (fun rung -> t.all_diags <- Error.Solver_degraded rung :: t.all_diags)
    (Smt.Stats.degraded_rungs t.stats);
  { claims = List.rev !claims;
    reached_goal = !reached;
    explored_states = t.spawned;
    steps = t.total_steps;
    diags = List.sort_uniq Error.compare_diag t.all_diags;
    crashed = !crashed;
    budget_exhausted = !budget_hit;
    solver_unknowns = t.unknowns;
    fp_seen = t.fp_seen;
    symbolic_branches = t.forks }
