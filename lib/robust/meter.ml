(** Mutable resource accounting against a {!Budget.t}.

    A meter is created per cell attempt by the supervisor and carried
    (as an [option]) in every engine state that does metered work:
    [Vm.Machine], [Smt.Session], [Concolic.State].  Layers with no
    state record flowing through them — the lifter, the taint loop —
    read the ambient meter installed by {!with_ambient} instead, so a
    budget governs the whole cell without threading a parameter
    through every call site.

    Charging past a cap raises {!Exhausted} naming the resource that
    tripped; {!checkpoint} additionally polls the wall-clock deadline.
    All charge paths are a single [option] match when no meter is
    installed. *)

type resource =
  | Vm_steps
  | Lifted_insns
  | Solver_conflicts
  | Expr_nodes
  | Taint_events
  | Deadline
  | Cancelled
      (** never tripped by a meter: grades the cells a SIGINT-cancelled
          fleet never dispatched *)

let all_resources =
  [ Vm_steps; Lifted_insns; Solver_conflicts; Expr_nodes; Taint_events;
    Deadline; Cancelled ]

let resource_name = function
  | Vm_steps -> "vm_steps"
  | Lifted_insns -> "lifted_insns"
  | Solver_conflicts -> "solver_conflicts"
  | Expr_nodes -> "expr_nodes"
  | Taint_events -> "taint_events"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

(** Inverse of {!resource_name} (journal decoding). *)
let resource_of_name = function
  | "vm_steps" -> Some Vm_steps
  | "lifted_insns" -> Some Lifted_insns
  | "solver_conflicts" -> Some Solver_conflicts
  | "expr_nodes" -> Some Expr_nodes
  | "taint_events" -> Some Taint_events
  | "deadline" -> Some Deadline
  | "cancelled" -> Some Cancelled
  | _ -> None

(** A budget tripped: [resource] names which cap, [limit] its value,
    [spent] the count that crossed it (0/0 for the deadline, a
    condition rather than a counter). *)
exception Exhausted of { resource : resource; limit : int; spent : int }

let () =
  Printexc.register_printer (function
    | Exhausted { resource; limit; spent } ->
        Some
          (Printf.sprintf "Robust.Meter.Exhausted(%s, %d/%d)"
             (resource_name resource) spent limit)
    | _ -> None)

type t = {
  budget : Budget.t;
  mutable vm_steps : int;
  mutable lifted_insns : int;
  mutable solver_conflicts : int;
  mutable expr_nodes : int;
  mutable taint_events : int;
  deadline_us : float option;  (** absolute monotonic deadline *)
}

let create budget =
  { budget; vm_steps = 0; lifted_insns = 0; solver_conflicts = 0;
    expr_nodes = 0; taint_events = 0;
    deadline_us =
      Option.map (fun w -> Telemetry.clock_us () +. w) budget.Budget.wall_us }

let m_exhausted =
  List.map
    (fun r -> (r, Telemetry.Metrics.counter ("robust.exhausted." ^ resource_name r)))
    all_resources

let exhaust resource ~limit ~spent =
  Telemetry.Metrics.incr (List.assq resource m_exhausted);
  raise (Exhausted { resource; limit; spent })

let checkpoint t =
  match t.deadline_us with
  | Some d when Telemetry.clock_us () > d ->
      exhaust Deadline ~limit:0 ~spent:0
  | _ -> ()

(* Counter charges trip their own cap eagerly; the deadline is only
   polled every [mask+1] charges so hot loops do not pay a clock read
   per instruction. *)
let charged t resource spent cap mask =
  (match cap with
   | Some limit when spent > limit -> exhaust resource ~limit ~spent
   | _ -> ());
  if spent land mask = 0 then checkpoint t

let charge_vm_steps t n =
  t.vm_steps <- t.vm_steps + n;
  charged t Vm_steps t.vm_steps t.budget.Budget.vm_steps 0xFFF

let charge_lifted_insns t n =
  t.lifted_insns <- t.lifted_insns + n;
  charged t Lifted_insns t.lifted_insns t.budget.Budget.lifted_insns 0xFF

let charge_solver_conflicts t n =
  t.solver_conflicts <- t.solver_conflicts + n;
  charged t Solver_conflicts t.solver_conflicts
    t.budget.Budget.solver_conflicts 0xFF

let charge_expr_nodes t n =
  t.expr_nodes <- t.expr_nodes + n;
  charged t Expr_nodes t.expr_nodes t.budget.Budget.expr_nodes 0xFFF

let charge_taint_events t n =
  t.taint_events <- t.taint_events + n;
  charged t Taint_events t.taint_events t.budget.Budget.taint_events 0xFFF

(* ---- ambient meter ---- *)

let current : t option ref = ref None

let ambient () = !current

(** [with_ambient m f] installs [m] as the ambient meter for the
    dynamic extent of [f] (restored even on exceptions). *)
let with_ambient m f =
  let saved = !current in
  current := Some m;
  Fun.protect ~finally:(fun () -> current := saved) f

(** Pick an explicitly passed meter if any, else the ambient one —
    the idiom used by [create ?meter] constructors in other layers. *)
let default m = match m with Some _ -> m | None -> ambient ()

(* Convenience entry points for layers that carry no state record.
   Each is one ref read plus an option match when no meter is
   installed. *)

let lift_tick () =
  match !current with
  | None -> ()
  | Some m -> charge_lifted_insns m 1

let checkpoint_ambient () =
  match !current with None -> () | Some m -> checkpoint m
