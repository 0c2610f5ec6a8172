(** Seeded fault injection.

    A chaos {!plan} is derived deterministically from a 64-bit seed: a
    small set of arms, each naming a probe {!point} and the hit count
    at which the fault fires.  Probe points are placed at the spots
    the paper's abnormal-exit taxonomy blames for real-tool deaths —
    the solver, the lifter, allocation, and external cancellation.

    The same seed always yields the same plan, and because every probe
    site is on a deterministic execution path, the same (seed, cell)
    pair always fires the same faults.  That property is what lets the
    soak test compare chaos runs against a clean baseline cell by
    cell. *)

type point =
  | Solver_timeout  (** fired entering [Smt.Session.check] *)
  | Lifter_unmodeled  (** fired in [Ir.Lifter.lift] *)
  | Alloc_failure  (** fired when a session interns a fresh node *)
  | Cancellation  (** sets the meter's cancelled flag (graded [P]) *)

let all_points = [ Solver_timeout; Lifter_unmodeled; Alloc_failure; Cancellation ]

let point_index = function
  | Solver_timeout -> 0
  | Lifter_unmodeled -> 1
  | Alloc_failure -> 2
  | Cancellation -> 3

let point_name = function
  | Solver_timeout -> "solver_timeout"
  | Lifter_unmodeled -> "lifter_unmodeled"
  | Alloc_failure -> "alloc_failure"
  | Cancellation -> "cancellation"

(** Inverse of {!point_name} (journal decoding). *)
let point_of_name = function
  | "solver_timeout" -> Some Solver_timeout
  | "lifter_unmodeled" -> Some Lifter_unmodeled
  | "alloc_failure" -> Some Alloc_failure
  | "cancellation" -> Some Cancellation
  | _ -> None

(** Raised at a firing probe (except {!Cancellation}, which raises
    through {!Meter} as an [Exhausted Cancelled] at the next
    checkpoint instead — a cancelled run is a partial result, not a
    crash). *)
exception Injected of { point : point; hit : int }

let () =
  Printexc.register_printer (function
    | Injected { point; hit } ->
        Some
          (Printf.sprintf "Robust.Chaos.Injected(%s, hit %d)"
             (point_name point) hit)
    | _ -> None)

type arm = { point : point; at_hit : int }

type plan = { seed : int64; arms : arm list }

(* ---- SplitMix64: tiny, seed-pure, no dependence on Random ---- *)

let mix state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_below state n =
  let r = Int64.to_int (Int64.logand (mix state) 0x3FFFFFFFFFFFFFFFL) in
  r mod n

(* Hit windows per point, sized to the hit rates a Table II cell
   actually produces: one or two solver checks, hundreds of lifted
   instructions, thousands of interned nodes.  Arms landing past a
   cell's actual hit count simply never fire — the soak counts those
   cells as clean and checks them against the baseline. *)
let hit_window = function
  | Solver_timeout -> 4
  | Lifter_unmodeled -> 400
  | Alloc_failure -> 2000
  | Cancellation -> 4

(** [plan_of_seed seed] derives a deterministic plan of 1–3 arms. *)
let plan_of_seed ?(max_arms = 3) seed =
  let state = ref seed in
  let n_arms = 1 + rand_below state max_arms in
  let arms =
    List.init n_arms (fun _ ->
        let point = List.nth all_points (rand_below state 4) in
        { point; at_hit = 1 + rand_below state (hit_window point) })
  in
  { seed; arms }

let pp_plan ppf plan =
  Format.fprintf ppf "seed=0x%Lx:[%s]" plan.seed
    (String.concat ";"
       (List.map
          (fun a -> Printf.sprintf "%s@%d" (point_name a.point) a.at_hit)
          plan.arms))

(* ---- per-attempt probe state ---- *)

type state = {
  plan : plan;
  hits : int array;  (** probe hits so far, indexed by {!point_index} *)
  mutable fired : (point * int) list;  (** faults fired, newest first *)
}

let start plan = { plan; hits = Array.make 4 0; fired = [] }

let m_injected =
  List.map
    (fun p -> (point_index p, Telemetry.Metrics.counter ("robust.injected." ^ point_name p)))
    all_points

(** [fires st point] counts one probe hit and returns [Some hit] when
    the plan injects a fault at this exact hit of this point. *)
let fires st point =
  let i = point_index point in
  st.hits.(i) <- st.hits.(i) + 1;
  let hit = st.hits.(i) in
  if List.exists (fun a -> a.point = point && a.at_hit = hit) st.plan.arms
  then begin
    st.fired <- (point, hit) :: st.fired;
    Telemetry.Metrics.incr (List.assoc i m_injected);
    Some hit
  end
  else None

(* ------------------------------------------------------------------ *)
(* Disk faults: seeded probe states under the durable-IO layer         *)
(* ------------------------------------------------------------------ *)

(** Fault sites one layer out from {!point}: not inside a cell but in
    the bytes under the journals and sidecars.  {!Diskio} consults an
    installed hook at every append, sync and rename; an {!io_state}
    turns those probes into seeded faults.  Constructors are
    {!Diskio.fault}'s, re-exported. *)
type disk_point = Diskio.fault =
  | Enospc  (** the append raises {!Diskio.Full}; nothing lands *)
  | Short_write  (** a prefix lands (torn tail), then {!Diskio.Full} *)
  | Failed_rename  (** the publishing rename raises [Sys_error] *)
  | Bit_flip  (** one byte flipped silently; checksums catch it *)
  | Torn_fsync  (** the synced record's tail is silently dropped *)

let all_disk_points =
  [ Enospc; Short_write; Failed_rename; Bit_flip; Torn_fsync ]

let disk_point_name = Diskio.fault_name

(** How an {!io_state} decides whether a probe fires:
    - [Arms]: fire at exactly the given hit counts of each point —
      deterministic placement for unit tests ("fail the second append,
      nothing else").
    - [Rate]: per-probe Bernoulli draw at the given rate over the
      enabled points, from a seed-pure stream — the soak mode,
      where fault {e placement} may vary with scheduling but the run
      is still reproducible for a fixed seed and message order. *)
type mode =
  | Arms of (disk_point * int) list
  | Rate of { rate : float; points : disk_point list }

type io_state = {
  io_mode : mode;
  io_rngs : int64 ref array;
      (** one independent SplitMix stream per point, so probes of one
          point never perturb another point's draws *)
  io_hits : int array;
  io_fired : int array;
}

(* a point's index is its position in [all_disk_points] *)
let disk_index point =
  let rec go i = function
    | [] -> assert false
    | p :: rest -> if p = point then i else go (i + 1) rest
  in
  go 0 all_disk_points

let m_disk_injected =
  let counter p =
    Telemetry.Metrics.counter ("robust.disk_injected." ^ disk_point_name p)
  in
  Array.of_list (List.map counter all_disk_points)

(* spaces the seeds of the points' streams *)
let seed_mult = 0xBF58476D1CE4E5B9L

let io_state ~seed mode =
  let n = List.length all_disk_points in
  { io_mode = mode;
    io_rngs =
      Array.init n (fun i ->
          ref (Int64.add seed (Int64.mul seed_mult (Int64.of_int (i + 1)))));
    io_hits = Array.make n 0;
    io_fired = Array.make n 0 }

(* a 53-bit uniform draw in [0,1) from the point's own stream *)
let uniform (rng : int64 ref) =
  Int64.to_float (Int64.logand (mix rng) 0x1FFFFFFFFFFFFFL)
  /. 9007199254740992.0

(** [io_fires st point] counts one probe hit of [point] and reports
    whether the fault fires there. *)
let io_fires st point =
  let i = disk_index point in
  st.io_hits.(i) <- st.io_hits.(i) + 1;
  let fire =
    match st.io_mode with
    | Arms arms -> List.mem (point, st.io_hits.(i)) arms
    | Rate { rate; points } ->
        rate > 0. && List.mem point points && uniform st.io_rngs.(i) < rate
  in
  if fire then begin
    st.io_fired.(i) <- st.io_fired.(i) + 1;
    Telemetry.Metrics.incr m_disk_injected.(i)
  end;
  fire

(** Per-point fired counts so far (non-zero entries only). *)
let io_fired st =
  List.mapi (fun i p -> (p, st.io_fired.(i))) all_disk_points
  |> List.filter (fun (_, n) -> n > 0)

(* which faults can fire at which IO operation *)
let disk_points_of_op : Diskio.op -> disk_point list = function
  | Diskio.Append -> [ Enospc; Short_write; Bit_flip ]
  | Diskio.Sync -> [ Torn_fsync ]
  | Diskio.Rename -> [ Failed_rename ]

(** The {!Diskio} hook a seeded {!io_state} drives: every candidate
    point of the operation is probed (so hit counts stay comparable
    across runs) and the first firing one wins.  Install with
    [Diskio.set_fault_hook (Some (disk_hook st))], clear with
    [None]. *)
let disk_hook (st : io_state) : Diskio.hook =
 fun ~op ~path:_ ->
  match List.filter (io_fires st) (disk_points_of_op op) with
  | [] -> None
  | p :: _ -> Some p
