(** Resource budgets for one evaluation cell.

    Every field is an optional cap; [None] means the resource is
    unmetered.  Budgets are plain data — the mutable accounting lives
    in {!Meter} — so they can be printed in reports and parsed off
    the [eval.exe --budget] flag without touching any engine state. *)

type t = {
  vm_steps : int option;  (** concrete VM instructions executed *)
  lifted_insns : int option;  (** instructions lifted to IR *)
  solver_conflicts : int option;  (** CDCL conflicts across all checks *)
  expr_nodes : int option;  (** interned expression nodes allocated *)
  taint_events : int option;  (** trace events pushed through taint *)
  wall_us : float option;  (** per-cell deadline, microseconds *)
}

let unlimited =
  { vm_steps = None; lifted_insns = None; solver_conflicts = None;
    expr_nodes = None; taint_events = None; wall_us = None }

let is_unlimited b = b = unlimited

(** [scale factor b] multiplies every finite cap by [factor] (caps
    are clamped to at least 1). *)
let scale factor b =
  let s = Option.map (fun n -> max 1 (int_of_float (float_of_int n *. factor))) in
  { vm_steps = s b.vm_steps;
    lifted_insns = s b.lifted_insns;
    solver_conflicts = s b.solver_conflicts;
    expr_nodes = s b.expr_nodes;
    taint_events = s b.taint_events;
    wall_us = Option.map (fun w -> w *. factor) b.wall_us }

let to_string b =
  let f k = function
    | None -> []
    | Some v -> [ Printf.sprintf "%s=%d" k v ]
  in
  let fields =
    f "vm" b.vm_steps @ f "lift" b.lifted_insns @ f "smt" b.solver_conflicts
    @ f "nodes" b.expr_nodes @ f "taint" b.taint_events
    @ (match b.wall_us with
       | None -> []
       | Some w -> [ Printf.sprintf "wall=%g" (w /. 1e6) ])
  in
  if fields = [] then "unlimited" else String.concat "," fields

(** Parse a budget spec of the form ["vm=20000,smt=500,wall=1.5"].
    Keys: [vm], [lift], [smt], [nodes], [taint] (integer caps) and
    [wall] (seconds, float).  Unknown keys or malformed values yield
    [Error]. *)
let parse spec =
  let parse_field acc field =
    match acc with
    | Error _ as e -> e
    | Ok b -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "budget field %S lacks '='" field)
        | Some i ->
            let key = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            let int_cap set =
              match int_of_string_opt v with
              | Some n when n >= 0 -> Ok (set (Some n))
              | _ -> Error (Printf.sprintf "budget %s=%S: not a count" key v)
            in
            (match key with
             | "vm" -> int_cap (fun c -> { b with vm_steps = c })
             | "lift" -> int_cap (fun c -> { b with lifted_insns = c })
             | "smt" -> int_cap (fun c -> { b with solver_conflicts = c })
             | "nodes" -> int_cap (fun c -> { b with expr_nodes = c })
             | "taint" -> int_cap (fun c -> { b with taint_events = c })
             | "wall" -> (
                 match float_of_string_opt v with
                 | Some s when s > 0. -> Ok { b with wall_us = Some (s *. 1e6) }
                 | _ ->
                     Error
                       (Printf.sprintf "budget wall=%S: not a duration" v))
             | _ -> Error (Printf.sprintf "unknown budget key %S" key)))
  in
  if spec = "" || spec = "unlimited" then Ok unlimited
  else
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.fold_left parse_field (Ok unlimited)
