(** The five differential oracles.

    Each takes a generated case and returns [Ok ()] when every layer
    agreed, or [Error message] describing the divergence.  The
    messages are diagnostic text for the corpus / CLI; the harness
    pairs them with the rendered case and a shrunk counterexample.

    In the paper's error-stage taxonomy: (c) catches Es1 lifting
    errors, (d) catches Es2 propagation errors end-to-end, and (a), (b)
    and (e) catch Es3 constraint-model errors. *)

module E = Smt.Expr

let spf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* (a) Blast + CDCL vs brute-force Eval                                *)
(* ------------------------------------------------------------------ *)

(* enumerate every assignment of [vars]; call [f env] until it returns
   [Some _].  Total bits are bounded by the generator (<= 12). *)
let enumerate (vars : E.var list) (f : Smt.Eval.env -> 'a option) : 'a option =
  let env : Smt.Eval.env = Hashtbl.create 8 in
  let rec go = function
    | [] -> f env
    | (v : E.var) :: rest ->
      let n = Int64.to_int (E.mask v.width) in
      let rec try_val i =
        if i > n then None
        else begin
          Hashtbl.replace env v.vname (Int64.of_int i);
          match go rest with Some r -> Some r | None -> try_val (i + 1)
        end
      in
      try_val 0
  in
  go vars

(* a model may omit variables the simplifier eliminated; default them *)
let model_env (vars : E.var list) (m : (string * int64) list) : Smt.Eval.env =
  let env : Smt.Eval.env = Hashtbl.create 8 in
  List.iter (fun (v : E.var) -> Hashtbl.replace env v.vname 0L) vars;
  List.iter (fun (n, v) -> Hashtbl.replace env n v) m;
  env

(** Cross-check the simplify → blast → CDCL pipeline against
    brute-force enumeration of the original constraint.  [simplify]
    is a parameter so the mutant sanity check can inject a broken
    rewrite into the pipeline under test. *)
let blast_vs_eval ?(simplify = fun e -> Smt.Simplify.run e) (c : E.t) :
  (unit, string) result =
  let vars = E.vars_of_list [ c ] in
  let total_bits = List.fold_left (fun a (v : E.var) -> a + v.width) 0 vars in
  if total_bits > 14 then Ok () (* out of brute-force range; skip *)
  else
    let witness =
      enumerate vars (fun env ->
          if Smt.Eval.satisfies env c then
            Some
              (List.map
                 (fun (v : E.var) -> (v.vname, Hashtbl.find env v.vname))
                 vars)
          else None)
    in
    let blast = Smt.Blast.create () in
    let solver_says =
      match Smt.Blast.assert_true blast (simplify c) with
      | exception Smt.Blast.Unsupported_fp -> `Skip
      | () -> (
          match Smt.Blast.solve ~conflict_budget:200_000 blast with
          | Smt.Sat.Sat -> `Sat (Smt.Blast.model blast)
          | Smt.Sat.Unsat -> `Unsat
          | Smt.Sat.Unknown -> `Unknown)
    in
    match (witness, solver_says) with
    | _, `Skip -> Ok () (* FP constraint: not blastable by design *)
    | Some w, `Unsat ->
      Error
        (spf "brute force found %s but blast+CDCL says unsat"
           (String.concat ","
              (List.map (fun (n, v) -> spf "%s=%Ld" n v) w)))
    | None, `Sat m ->
      Error
        (spf "brute force exhausted %d assignments (unsat) but solver says \
              sat with %s"
           (1 lsl total_bits)
           (String.concat "," (List.map (fun (n, v) -> spf "%s=%Ld" n v) m)))
    | Some _, `Sat m when not (Smt.Eval.satisfies (model_env vars m) c) ->
      Error
        (spf "solver model %s does not satisfy the original constraint"
           (String.concat "," (List.map (fun (n, v) -> spf "%s=%Ld" n v) m)))
    | _, `Unknown ->
      Error "solver answered unknown on a brute-forceable instance"
    | Some _, `Sat _ | None, `Unsat -> Ok ()

(* ------------------------------------------------------------------ *)
(* (b) Incremental session vs one-shot solver                          *)
(* ------------------------------------------------------------------ *)

let outcome_tag : Smt.Session.outcome -> string = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown _ -> "unknown"

(** Replay a push/pop/assert/check script on one long-lived session
    and cross-check every [Check] against a fresh one-shot solve of
    the same assertion set.  Sat models from both sides must satisfy
    the assertions under {!Smt.Eval}. *)
let session_vs_oneshot (s : Gen.script) : (unit, string) result =
  let session = Smt.Session.create () in
  let check_model side cs m =
    let env = model_env (E.vars_of_list cs) m in
    if List.for_all (Smt.Eval.satisfies env) cs then Ok ()
    else Error (spf "%s model does not satisfy the assertions" side)
  in
  let rec go idx = function
    | [] -> Ok ()
    | op :: rest -> (
        match (op : Gen.script_op) with
        | Push -> Smt.Session.push session; go (idx + 1) rest
        | Pop ->
          if Smt.Session.depth session > 0 then Smt.Session.pop session;
          go (idx + 1) rest
        | Assert c -> Smt.Session.assert_ session c; go (idx + 1) rest
        | Check -> (
            let cs = Smt.Session.assertions session in
            let incr = Smt.Session.check session in
            let oneshot = Smt.Solver.solve cs in
            let continue () = go (idx + 1) rest in
            match (incr, oneshot) with
            | Smt.Session.Sat m1, Smt.Solver.Sat m2 -> (
                match check_model "session" cs m1 with
                | Error e -> Error (spf "op %d: %s" idx e)
                | Ok () -> (
                    match check_model "one-shot" cs m2 with
                    | Error e -> Error (spf "op %d: %s" idx e)
                    | Ok () -> continue ()))
            | Smt.Session.Unsat, Smt.Solver.Unsat -> continue ()
            | Smt.Session.Unknown _, Smt.Solver.Unknown _ -> continue ()
            | r1, r2 ->
              Error
                (spf "op %d: session says %s, one-shot says %s" idx
                   (outcome_tag r1) (outcome_tag r2))))
  in
  go 0 s.ops

(* ------------------------------------------------------------------ *)
(* (c) Concrete VM vs lifted-IR interpretation                         *)
(* ------------------------------------------------------------------ *)

(* x86 leaves some flags undefined after multiplies; the CPU models
   them one way (CF/OF = overflow) and the lifter another (CF/OF = 0
   for imul, untouched for mul).  Those flags are don't-care until the
   next instruction that defines them. *)
let undef_after : Isa.Insn.t -> string list = function
  | Alu (Imul, _, _, _) | Mul _ -> [ "CF"; "OF" ]
  | _ -> []

(* flags an instruction (re)defines on both sides *)
let defines : Isa.Insn.t -> string list = function
  | Alu (Imul, _, _, _) -> [ "ZF"; "SF"; "PF" ]
  | Mul _ -> []
  | Alu _ | Neg _ | Cmp _ | Test _ | Ucomisd _ ->
    [ "ZF"; "SF"; "CF"; "OF"; "PF" ]
  | _ -> []

let cond_flags : Isa.Insn.cond -> string list = function
  | E | NE -> [ "ZF" ]
  | L | GE -> [ "SF"; "OF" ]
  | LE | G -> [ "ZF"; "SF"; "OF" ]
  | B | AE -> [ "CF" ]
  | BE | A -> [ "CF"; "ZF" ]
  | S | NS -> [ "SF" ]
  | O | NO -> [ "OF" ]
  | P | NP -> [ "PF" ]

let cpu_flag (cpu : Vm.Cpu.t) = function
  | "ZF" -> cpu.flags.zf
  | "SF" -> cpu.flags.sf
  | "CF" -> cpu.flags.cf
  | "OF" -> cpu.flags.o_f
  | "PF" -> cpu.flags.pf
  | f -> invalid_arg f

let all_flags = [ "ZF"; "SF"; "CF"; "OF"; "PF" ]

module SS = Set.Make (String)

(** Execute the program on the concrete CPU and, in parallel, through
    {!Ir.Lifter.full} + {!Ir_interp}; compare registers, flags (minus
    the undefined set), scalar-double state and touched memory after
    every instruction. *)
let vm_vs_ir (p : Gen.prog) : (unit, string) result =
  let cpu = Vm.Cpu.create () in
  let mem = Vm.Mem.create () in
  List.iteri
    (fun i b ->
       Vm.Mem.write_u8 mem (Int64.add Gen.scratch_base (Int64.of_int i)) b)
    p.init_mem;
  List.iter (fun (r, v) -> Vm.Cpu.set_reg cpu r v) p.init_regs;
  Vm.Cpu.set_reg cpu Isa.Reg.R8 Gen.scratch_base;
  Vm.Cpu.set_reg cpu Isa.Reg.R9 5L;
  Vm.Cpu.set_reg cpu Isa.Reg.RSP Gen.stack_base;
  Vm.Cpu.set_reg cpu Isa.Reg.RBP Gen.stack_base;
  List.iter
    (fun (x, bits) -> Vm.Cpu.set_xmm cpu x (Int64.float_of_bits bits))
    p.init_xmm;
  let ir = Ir_interp.create ~mem:(Vm.Mem.clone mem) in
  List.iter
    (fun r -> Ir_interp.set ir (Isa.Reg.show r) 64 (Vm.Cpu.reg cpu r))
    Isa.Reg.all;
  List.iter (fun f -> Ir_interp.set ir f 1 0L) all_flags;
  List.iter
    (fun x ->
       Ir_interp.set ir (Isa.Reg.show_xmm x) 64
         (Int64.bits_of_float (Vm.Cpu.xmm cpu x)))
    Isa.Reg.all_xmm;
  let touched = ref [] in
  let undef = ref SS.empty in
  let compare_state idx insn =
    let fail what = Error (spf "insn %d (%s): %s" idx (Isa.Insn.show insn) what) in
    let reg_bad =
      List.find_opt
        (fun r ->
           Vm.Cpu.reg cpu r <> Ir_interp.get ir (Isa.Reg.show r) 64)
        Isa.Reg.all
    in
    match reg_bad with
    | Some r ->
      fail
        (spf "%s: cpu=0x%Lx ir=0x%Lx" (Isa.Reg.show r) (Vm.Cpu.reg cpu r)
           (Ir_interp.get ir (Isa.Reg.show r) 64))
    | None -> (
        let flag_bad =
          List.find_opt
            (fun f ->
               (not (SS.mem f !undef))
               && cpu_flag cpu f <> (Ir_interp.get ir f 1 = 1L))
            all_flags
        in
        match flag_bad with
        | Some f ->
          fail
            (spf "flag %s: cpu=%b ir=%b" f (cpu_flag cpu f)
               (Ir_interp.get ir f 1 = 1L))
        | None -> (
            let xmm_bad =
              List.find_opt
                (fun x ->
                   Int64.bits_of_float (Vm.Cpu.xmm cpu x)
                   <> Ir_interp.get ir (Isa.Reg.show_xmm x) 64)
                Isa.Reg.all_xmm
            in
            match xmm_bad with
            | Some x ->
              fail
                (spf "%s: cpu=0x%Lx ir=0x%Lx" (Isa.Reg.show_xmm x)
                   (Int64.bits_of_float (Vm.Cpu.xmm cpu x))
                   (Ir_interp.get ir (Isa.Reg.show_xmm x) 64))
            | None -> Ok ()))
  in
  let compare_memory () =
    let bad =
      List.find_opt
        (fun a -> Vm.Mem.read mem a 8 <> Vm.Mem.read ir.mem a 8)
        !touched
    in
    match bad with
    | Some a ->
      Error
        (spf "memory at 0x%Lx: cpu=0x%Lx ir=0x%Lx" a (Vm.Mem.read mem a 8)
           (Vm.Mem.read ir.mem a 8))
    | None -> Ok ()
  in
  let rec step idx = function
    | [] -> compare_memory ()
    | insn :: rest -> (
        touched := Vm.Cpu.effective_addrs cpu insn @ !touched;
        (* a condition read over an undefined flag is legal x86 but
           implementation-defined: adopt the CPU's resolution on the
           IR side so downstream state stays comparable *)
        let sync_cond c =
          List.iter
            (fun f ->
               if SS.mem f !undef then
                 Ir_interp.set ir f 1 (if cpu_flag cpu f then 1L else 0L))
            (cond_flags c)
        in
        (match (insn : Isa.Insn.t) with
         | Setcc (c, _) | Cmovcc (c, _, _) | Jcc (c, _) -> sync_cond c
         | _ -> ());
        let next_pc = Int64.of_int (0x1000 + (idx * 16)) in
        match Vm.Cpu.execute cpu mem ~next_pc insn with
        | exception e ->
          Error (spf "insn %d (%s): cpu raised %s" idx (Isa.Insn.show insn)
                   (Printexc.to_string e))
        | Vm.Cpu.Fault_div -> compare_memory () (* both sides stop here *)
        | Vm.Cpu.Next -> (
            let stmts = Ir.Lifter.lift Ir.Lifter.full ~next:next_pc insn in
            match Ir_interp.run_stmts ir stmts with
            | exception Ir_interp.Unbound_var v ->
              Error
                (spf "insn %d (%s): lifted code reads undefined %s" idx
                   (Isa.Insn.show insn) v)
            | Ir_interp.Fallthrough ->
              undef :=
                SS.union
                  (SS.diff !undef (SS.of_list (defines insn)))
                  (SS.of_list (undef_after insn));
              (match compare_state idx insn with
               | Error _ as e -> e
               | Ok () -> step (idx + 1) rest)
            | ctrl ->
              Error
                (spf "insn %d (%s): IR control diverged (%s)" idx
                   (Isa.Insn.show insn)
                   (match ctrl with
                    | Ir_interp.Branch _ -> "branch"
                    | Ir_interp.Jump _ -> "jump"
                    | Ir_interp.Sys -> "syscall"
                    | Ir_interp.Stuck m -> "stuck: " ^ m
                    | Ir_interp.Fallthrough -> assert false)))
        | _ ->
          Error
            (spf "insn %d (%s): unexpected CPU control outcome" idx
               (Isa.Insn.show insn)))
  in
  step 0 p.insns

(* ------------------------------------------------------------------ *)
(* (d) Concolic replay: solved model vs predicted branch outcome       *)
(* ------------------------------------------------------------------ *)

let flip_trace_cfg =
  { Concolic.Trace_exec.bap_like_config with
    features = Ir.Lifter.full;
    lift_stack_ops = true }

let machine_config input =
  { Vm.Machine.default_config with argv = [ "flip"; input ] }

let run_path image input =
  let trace = Trace.record ~config:(machine_config input) image in
  Concolic.Trace_exec.run flip_trace_cfg trace

(** Record the guarded-branch program on its decoy input, negate the
    final symbolic branch, and check the solver's verdict against
    ground truth: a sat model, replayed concretely, must flip that
    branch; unsat must survive brute force over every input byte. *)
let concolic_flip (f : Gen.flip) : (unit, string) result =
  let image = Gen.flip_image f in
  let decoy = String.make 1 f.g_decoy in
  let path = run_path image decoy in
  match List.rev path.branches with
  | [] -> Error "guard branch never became symbolic"
  | (b : Concolic.Trace_exec.branch) :: _ -> (
      let ordered = Array.of_list path.constraints in
      let prefix = Array.to_list (Array.sub ordered 0 b.seq) |> List.map fst in
      (* a NUL first byte would change the argv layout; rule it out on
         both the solver and the brute-force side *)
      let nonzero = E.ne (E.var ~width:8 "argv1_0") (E.const ~width:8 0L) in
      let query = prefix @ [ E.not_ b.cond; nonzero ] in
      match Smt.Session.check_assertions (Smt.Session.create ()) query with
      | Smt.Session.Sat model -> (
          let input =
            Concolic.State.input_of_model ~fill:decoy ~empty:"\001" ~width:1
              model
          in
          let path' = run_path image input in
          match
            List.find_opt
              (fun (b' : Concolic.Trace_exec.branch) -> b'.pc = b.pc)
              path'.branches
          with
          | None ->
            Error
              (spf "model input %S: predicted branch at 0x%Lx vanished" input
                 b.pc)
          | Some b' ->
            if b'.taken = not b.taken then Ok ()
            else
              Error
                (spf
                   "model input %S did not flip the branch at 0x%Lx \
                    (taken=%b both times)"
                   input b.pc b.taken))
      | Smt.Session.Unsat -> (
          (* ground truth: no input byte may flip the branch *)
          let flips v =
            let env = Smt.Eval.env_of_list [ ("argv1_0", Int64.of_int v) ] in
            List.for_all (Smt.Eval.satisfies env) prefix
            && Smt.Eval.satisfies env (E.not_ b.cond)
          in
          let rec scan v = if v > 255 then None else if flips v then Some v
            else scan (v + 1)
          in
          match scan 1 with
          | Some v ->
            Error
              (spf "solver says unsat but byte 0x%02x flips the branch" v)
          | None -> Ok ())
      | Smt.Session.Unknown _ ->
        Error "solver answered unknown on a single-byte guard")

(* ------------------------------------------------------------------ *)
(* (e) Bounds narrowing vs the original path                           *)
(* ------------------------------------------------------------------ *)

let render_env vars env =
  String.concat ","
    (List.map
       (fun (v : E.var) -> spf "%s=%Ld" v.vname (Hashtbl.find env v.vname))
       vars)

(* how many constraints of [l], from the oldest, [env] satisfies *)
let satisfied_prefix env l =
  let rec go n = function
    | c :: rest when Smt.Eval.satisfies env c -> go (n + 1) rest
    | _ -> n
  in
  go 0 l

(** Narrow a path predicate with {!Smt.Bounds} and check it against the
    original: every prefix of the narrowed path has the original
    prefix's models (brute force, so a later constraint that no
    assignment meets cannot hide a wrong rewrite before it), the
    solver's verdict on the narrowed path is the original's, and its
    model satisfies the original.  [narrow] is a parameter so the
    mutant checks can inject a broken pass. *)
let bounds_narrowing ?(narrow = fun cs -> Smt.Bounds.narrow_list cs)
    (cs : E.t list) : (unit, string) result =
  let narrowed = narrow cs in
  let vars = E.vars_of_list cs in
  let holds env l = List.for_all (Smt.Eval.satisfies env) l in
  match
    enumerate vars (fun env ->
        let n = satisfied_prefix env cs and n' = satisfied_prefix env narrowed in
        if n = n' then None
        else
          Some
            (spf "%s satisfies %d constraints of the original, %d narrowed"
               (render_env vars env) n n'))
  with
  | Some m -> Error m
  | None -> (
      let original_sat =
        enumerate vars (fun env -> if holds env cs then Some () else None) <> None
      in
      match (Smt.Solver.solve narrowed, original_sat) with
      | Smt.Solver.Sat m, _ when not (holds (model_env vars m) cs) ->
        Error "the narrowed path's model does not satisfy the original"
      | Smt.Solver.Sat _, false -> Error "the original is unsat, the narrowed path sat"
      | Smt.Solver.Unsat, true -> Error "the original is sat, the narrowed path unsat"
      | Smt.Solver.Unknown _, _ ->
        Error "solver answered unknown on a brute-forceable path"
      | _ -> Ok ())
