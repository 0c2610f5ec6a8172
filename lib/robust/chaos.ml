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
(* Fleet fault class: faults at the IPC boundary                       *)
(* ------------------------------------------------------------------ *)

(** Fault sites one layer up from {!point}: not inside a cell but on
    the pipes and sockets that carry cells between processes.  The
    probe discipline is the same — the fleet master and the serve
    daemon consult {!fleet_fires} at every dispatch write, reply read
    and response send, and the seeded state decides which probes turn
    into faults. *)
type fleet_point =
  | Corrupt_dispatch  (** flip a byte in a dispatch frame on the pipe *)
  | Corrupt_reply  (** flip a byte in a worker reply frame *)
  | Drop_reply  (** lose a reply frame entirely (worker looks wedged) *)
  | Delay_reply  (** stall a reply frame briefly before processing *)
  | Worker_stall  (** wedge the worker past the wall watchdog *)
  | Client_reset  (** close a served client's connection mid-reply *)

let all_fleet_points =
  [ Corrupt_dispatch; Corrupt_reply; Drop_reply; Delay_reply; Worker_stall;
    Client_reset ]

let fleet_point_index = function
  | Corrupt_dispatch -> 0
  | Corrupt_reply -> 1
  | Drop_reply -> 2
  | Delay_reply -> 3
  | Worker_stall -> 4
  | Client_reset -> 5

let fleet_point_name = function
  | Corrupt_dispatch -> "corrupt_dispatch"
  | Corrupt_reply -> "corrupt_reply"
  | Drop_reply -> "drop_reply"
  | Delay_reply -> "delay_reply"
  | Worker_stall -> "worker_stall"
  | Client_reset -> "client_reset"

(** How a {!fleet_state} decides whether a probe fires:
    - [Arms]: fire at exactly the given hit counts of each point —
      deterministic placement for unit tests ("corrupt the first
      reply, nothing else").
    - [Rate]: per-probe Bernoulli draw at the given rate over the
      enabled points, from a seed-pure stream — the soak mode,
      where fault {e placement} may vary with scheduling but the run
      is still reproducible for a fixed seed and message order. *)
type fleet_mode =
  | Arms of (fleet_point * int) list
  | Rate of { rate : float; points : fleet_point list }

type fleet_state = {
  fs_mode : fleet_mode;
  fs_rngs : int64 ref array;
      (** one independent SplitMix stream per point, so probes of one
          point never perturb another point's draws *)
  fs_hits : int array;
  fs_fired : int array;
}

let fleet_state ~seed mode =
  let n = List.length all_fleet_points in
  { fs_mode = mode;
    fs_rngs =
      Array.init n (fun i ->
          ref (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L
                                 (Int64.of_int (i + 1)))));
    fs_hits = Array.make n 0;
    fs_fired = Array.make n 0 }

let m_fleet_injected =
  List.map
    (fun p ->
       ( fleet_point_index p,
         Telemetry.Metrics.counter
           ("robust.fleet_injected." ^ fleet_point_name p) ))
    all_fleet_points

(* a 53-bit uniform draw in [0,1) from the point's own stream *)
let uniform (rng : int64 ref) =
  Int64.to_float (Int64.logand (mix rng) 0x1FFFFFFFFFFFFFL)
  /. 9007199254740992.0

(** [fleet_fires st point] counts one probe hit of [point] and reports
    whether the fault fires there. *)
let fleet_fires st point =
  let i = fleet_point_index point in
  st.fs_hits.(i) <- st.fs_hits.(i) + 1;
  let fire =
    match st.fs_mode with
    | Arms arms -> List.mem (point, st.fs_hits.(i)) arms
    | Rate { rate; points } ->
        rate > 0. && List.mem point points && uniform st.fs_rngs.(i) < rate
  in
  if fire then begin
    st.fs_fired.(i) <- st.fs_fired.(i) + 1;
    Telemetry.Metrics.incr (List.assoc i m_fleet_injected)
  end;
  fire

(** Per-point fired counts so far (non-zero entries only). *)
let fleet_fired st =
  List.filter_map
    (fun p ->
       let n = st.fs_fired.(fleet_point_index p) in
       if n > 0 then Some (p, n) else None)
    all_fleet_points

(* ------------------------------------------------------------------ *)
(* Disk fault class: faults under the durable-IO layer                 *)
(* ------------------------------------------------------------------ *)

(** The storage fault class, one layer below {!fleet_point}: not the
    pipes between processes but the bytes under the journals and
    sidecars.  {!Diskio} consults an installed hook at every
    append, sync and rename; this state turns those probes into
    seeded faults with the same [Arms]/[Rate] discipline as the
    fleet class.  Constructors are {!Diskio.fault}'s, re-exported. *)
type disk_point = Diskio.fault =
  | Enospc  (** the append raises {!Diskio.Full}; nothing lands *)
  | Short_write  (** a prefix lands (torn tail), then {!Diskio.Full} *)
  | Failed_rename  (** the publishing rename raises [Sys_error] *)
  | Bit_flip  (** one byte flipped silently; checksums catch it *)
  | Torn_fsync  (** the synced record's tail is silently dropped *)

let all_disk_points =
  [ Enospc; Short_write; Failed_rename; Bit_flip; Torn_fsync ]

let disk_point_index = function
  | Enospc -> 0
  | Short_write -> 1
  | Failed_rename -> 2
  | Bit_flip -> 3
  | Torn_fsync -> 4

let disk_point_name = Diskio.fault_name

let disk_point_of_name = function
  | "enospc" -> Some Enospc
  | "short_write" -> Some Short_write
  | "failed_rename" -> Some Failed_rename
  | "bit_flip" -> Some Bit_flip
  | "torn_fsync" -> Some Torn_fsync
  | _ -> None

(** Same two firing disciplines as {!fleet_mode}: [Disk_arms] places
    faults at exact probe hits (unit tests), [Disk_rate] draws each
    probe Bernoulli from a seed-pure per-point stream (soaks). *)
type disk_mode =
  | Disk_arms of (disk_point * int) list
  | Disk_rate of { rate : float; points : disk_point list }

type disk_state = {
  ds_mode : disk_mode;
  ds_rngs : int64 ref array;
  ds_hits : int array;
  ds_fired : int array;
}

let disk_state ~seed mode =
  let n = List.length all_disk_points in
  { ds_mode = mode;
    ds_rngs =
      Array.init n (fun i ->
          ref (Int64.add seed (Int64.mul 0xBF58476D1CE4E5B9L
                                 (Int64.of_int (i + 1)))));
    ds_hits = Array.make n 0;
    ds_fired = Array.make n 0 }

let m_disk_injected =
  List.map
    (fun p ->
       ( disk_point_index p,
         Telemetry.Metrics.counter
           ("robust.disk_injected." ^ disk_point_name p) ))
    all_disk_points

(** [disk_fires st point] counts one probe hit of [point] and reports
    whether the fault fires there. *)
let disk_fires st point =
  let i = disk_point_index point in
  st.ds_hits.(i) <- st.ds_hits.(i) + 1;
  let fire =
    match st.ds_mode with
    | Disk_arms arms -> List.mem (point, st.ds_hits.(i)) arms
    | Disk_rate { rate; points } ->
        rate > 0. && List.mem point points && uniform st.ds_rngs.(i) < rate
  in
  if fire then begin
    st.ds_fired.(i) <- st.ds_fired.(i) + 1;
    Telemetry.Metrics.incr (List.assoc i m_disk_injected)
  end;
  fire

(** Per-point fired counts so far (non-zero entries only). *)
let disk_fired st =
  List.filter_map
    (fun p ->
       let n = st.ds_fired.(disk_point_index p) in
       if n > 0 then Some (p, n) else None)
    all_disk_points

(* which faults can fire at which IO operation *)
let disk_points_of_op : Diskio.op -> disk_point list = function
  | Diskio.Append -> [ Enospc; Short_write; Bit_flip ]
  | Diskio.Sync -> [ Torn_fsync ]
  | Diskio.Rename -> [ Failed_rename ]

(** The {!Diskio} hook a seeded disk state drives: every candidate
    point of the operation is probed (so hit counts stay comparable
    across runs) and the first firing one wins.  Install with
    [Diskio.set_fault_hook (Some (disk_hook st))], clear with
    [None]. *)
let disk_hook st : Diskio.hook =
 fun ~op ~path:_ ->
  match List.filter (disk_fires st) (disk_points_of_op op) with
  | [] -> None
  | p :: _ -> Some p
