(** JSON codec for {!Supervisor.outcome} journal payloads.

    The journal itself ({!Robust.Journal}) only moves checksummed
    lines; this module round-trips a complete supervised cell result
    — grade, proposed input, diagnostics, cause, Es-stage, attempts —
    through the payload slot.  Decoding is total: anything unexpected
    yields [None] and the caller re-runs the cell, so a hand-edited or
    version-skewed journal can cost work but never inject a wrong
    grade. *)

open Concolic.Error

let esc = Robust.Journal.json_escape

let str s = "\"" ^ esc s ^ "\""

let opt_str = function None -> "null" | Some s -> str s

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)
(* ------------------------------------------------------------------ *)

let encode_stage s = show_stage s  (* "Es0" .. "Es3" *)

let decode_stage = function
  | "Es0" -> Some Es0
  | "Es1" -> Some Es1
  | "Es2" -> Some Es2
  | "Es3" -> Some Es3
  | _ -> None

let encode_cell = function
  | Success -> str "OK"
  | Fail s -> str (encode_stage s)
  | Abnormal -> str "E"
  | Partial -> str "P"

let decode_cell = function
  | "OK" -> Some Success
  | "E" -> Some Abnormal
  | "P" -> Some Partial
  | s -> Option.map (fun st -> Fail st) (decode_stage s)

(* diags: {"d":<tag>} plus "s" (string payload) or "a" (int64 payload,
   kept as a decimal string — addresses don't fit a float mantissa) *)
let encode_diag d =
  let tag n = Printf.sprintf "{\"d\":%s}" (str n) in
  let tag_s n s = Printf.sprintf "{\"d\":%s,\"s\":%s}" (str n) (str s) in
  let tag_a n a =
    Printf.sprintf "{\"d\":%s,\"a\":%s}" (str n) (str (Int64.to_string a))
  in
  match d with
  | Lift_failure s -> tag_s "lift_failure" s
  | Signal_in_trace -> tag "signal_in_trace"
  | Taint_lost_in_kernel -> tag "taint_lost_in_kernel"
  | Concretized_load a -> tag_a "concretized_load" a
  | Concretized_store a -> tag_a "concretized_store" a
  | Symbolic_jump_target -> tag "symbolic_jump_target"
  | Unconstrained_syscall s -> tag_s "unconstrained_syscall" s
  | Unconstrained_external s -> tag_s "unconstrained_external" s
  | Unconstrained_input s -> tag_s "unconstrained_input" s
  | Unsupported_syscall s -> tag_s "unsupported_syscall" s
  | Symbolic_syscall_number -> tag "symbolic_syscall_number"
  | Fault_path_pruned -> tag "fault_path_pruned"
  | Fp_constraint -> tag "fp_constraint"
  | Solver_budget -> tag "solver_budget"
  | State_budget -> tag "state_budget"
  | Engine_crash s -> tag_s "engine_crash" s
  | Solver_degraded s -> tag_s "solver_degraded" s

let encode_cause (c : Supervisor.cause) =
  match c with
  | Supervisor.Exhausted r ->
      Printf.sprintf "{\"c\":\"exhausted\",\"r\":%s}"
        (str (Robust.Meter.resource_name r))
  | Supervisor.Crashed m | Supervisor.Injected m ->
      Printf.sprintf "{\"c\":\"crash\",\"m\":%s}" (str m)
  | Supervisor.Degraded rung ->
      Printf.sprintf "{\"c\":\"degraded\",\"rung\":%s}" (str rung)

let encode_outcome (o : Supervisor.outcome) : string =
  let g = o.graded in
  Printf.sprintf
    "{\"cell\":%s,\"proposed\":%s,\"detonated\":%b,\"false_positive\":%b,\
     \"diags\":[%s],\"work\":%d,\"cause\":%s,\"stage\":%s,\"attempts\":%d}"
    (encode_cell g.cell) (opt_str g.proposed) g.detonated g.false_positive
    (String.concat "," (List.map encode_diag g.diags))
    g.work
    (match o.cause with None -> "null" | Some c -> encode_cause c)
    (match o.stage with None -> "null" | Some s -> str (encode_stage s))
    o.attempts

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)
(* ------------------------------------------------------------------ *)

open Telemetry.Trace_check

(* Option.bind-style decoding: any shape surprise collapses to None *)
let ( let* ) = Option.bind

let as_str = function Str s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_int = function Num n -> Some (int_of_float n) | _ -> None
let as_arr = function Arr l -> Some l | _ -> None

let opt_member name j =
  (* distinguish "absent / null" (None payload) from present *)
  match member name j with
  | None | Some Null -> Ok None
  | Some v -> (
      match as_str v with Some s -> Ok (Some s) | None -> Error ())

let decode_diag j =
  let* tag = Option.bind (member "d" j) as_str in
  let s () = Option.bind (member "s" j) as_str in
  let a () =
    Option.bind
      (Option.bind (member "a" j) as_str)
      Int64.of_string_opt
  in
  match tag with
  | "lift_failure" -> Option.map (fun x -> Lift_failure x) (s ())
  | "signal_in_trace" -> Some Signal_in_trace
  | "taint_lost_in_kernel" -> Some Taint_lost_in_kernel
  | "concretized_load" -> Option.map (fun x -> Concretized_load x) (a ())
  | "concretized_store" -> Option.map (fun x -> Concretized_store x) (a ())
  | "symbolic_jump_target" -> Some Symbolic_jump_target
  | "unconstrained_syscall" ->
      Option.map (fun x -> Unconstrained_syscall x) (s ())
  | "unconstrained_external" ->
      Option.map (fun x -> Unconstrained_external x) (s ())
  | "unconstrained_input" -> Option.map (fun x -> Unconstrained_input x) (s ())
  | "unsupported_syscall" -> Option.map (fun x -> Unsupported_syscall x) (s ())
  | "symbolic_syscall_number" -> Some Symbolic_syscall_number
  | "fault_path_pruned" -> Some Fault_path_pruned
  | "fp_constraint" -> Some Fp_constraint
  | "solver_budget" -> Some Solver_budget
  | "state_budget" -> Some State_budget
  | "engine_crash" -> Option.map (fun x -> Engine_crash x) (s ())
  | "solver_degraded" -> Option.map (fun x -> Solver_degraded x) (s ())
  | _ -> None

let decode_cause j : Supervisor.cause option =
  let* tag = Option.bind (member "c" j) as_str in
  match tag with
  | "exhausted" ->
      let* r = Option.bind (member "r" j) as_str in
      Option.map
        (fun r -> Supervisor.Exhausted r)
        (Robust.Meter.resource_of_name r)
  | "crash" ->
      Option.map
        (fun m -> Supervisor.Crashed m)
        (Option.bind (member "m" j) as_str)
  | "degraded" ->
      Option.map
        (fun rung -> Supervisor.Degraded rung)
        (Option.bind (member "rung" j) as_str)
  | _ -> None

let rec map_all f = function
  | [] -> Some []
  | x :: xs ->
      let* y = f x in
      let* ys = map_all f xs in
      Some (y :: ys)

let decode_outcome (j : json) : Supervisor.outcome option =
  let* cell = Option.bind (Option.bind (member "cell" j) as_str) decode_cell in
  let* proposed =
    match opt_member "proposed" j with Ok p -> Some p | Error () -> None
  in
  let* detonated = Option.bind (member "detonated" j) as_bool in
  let* false_positive = Option.bind (member "false_positive" j) as_bool in
  let* diags =
    Option.bind (Option.bind (member "diags" j) as_arr) (map_all decode_diag)
  in
  let* work = Option.bind (member "work" j) as_int in
  let* cause =
    match member "cause" j with
    | None | Some Null -> Some None
    | Some c -> Option.map (fun c -> Some c) (decode_cause c)
  in
  let* stage =
    match member "stage" j with
    | None | Some Null -> Some None
    | Some s ->
        Option.map
          (fun s -> Some s)
          (Option.bind (as_str s) decode_stage)
  in
  let* attempts = Option.bind (member "attempts" j) as_int in
  Some
    { Supervisor.graded =
        { Grade.cell; proposed; detonated; false_positive; diags; work };
      cause; stage; attempts }
