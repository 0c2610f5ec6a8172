(** What every workload shares: the run context, the result record,
    seeded time-boxed passes, and process-level measurements. *)

let now = Unix.gettimeofday

type ctx = {
  seed : int;  (** permutes cell and request order; nothing else *)
  seconds : float;  (** budget of the untraced measured phase *)
  trace : bool;  (** add one traced pass for the per-layer metrics *)
  smoke : bool;  (** seconds-long sizes for [@bench-smoke] *)
  data : string;  (** directory of golden.tsv and fixtures/ *)
  tmp : string;  (** scratch directory for sockets and journals *)
}

type run = {
  e2e : (string * float) list;
  layers : (string * float) list;  (** empty unless traced *)
  checks : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;  (** why the run's outputs are not correct *)
}

(** A workload after its set-up; [teardown] releases what set-up
    started (the serve daemon). *)
type prepared = { measure : unit -> run; teardown : unit -> unit }

type workload = { name : string; setup : ctx -> prepared }

let shuffled rng items =
  let a = Array.copy items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(** Passes over [items], each in a fresh seeded order: at least
    [min_passes], then more while one more pass at the median pass time
    so far would end within [seconds].  Returns the number of passes and
    each item's latencies, by [key], in seconds. *)
let passes ~rng ~seconds ~min_passes ~key items run_item =
  let walls = ref [] and lats = Hashtbl.create 64 in
  let start = now () in
  let rec go () =
    let t0 = now () in
    Array.iter
      (fun it ->
         let t = now () in
         run_item it;
         let k = key it in
         Hashtbl.replace lats k
           ((now () -. t) :: Option.value ~default:[] (Hashtbl.find_opt lats k)))
      (shuffled rng items);
    walls := (now () -. t0) :: !walls;
    if List.length !walls < min_passes
       || now () -. start +. Stats.median !walls <= seconds
    then go ()
  in
  go ();
  (List.length !walls, lats)

let all_latencies lats = Hashtbl.fold (fun _ l acc -> l @ acc) lats []

(** One pass's wall in s, each item at its median latency: robust to
    the bursts of interference a shared machine adds to single
    samples. *)
let pass_wall lats = Hashtbl.fold (fun _ l acc -> acc +. Stats.median l) lats 0.

(** Peak resident set (VmHWM) of [pid] in MB; 0 when unreadable. *)
let peak_rss_mb pid =
  match
    In_channel.with_open_text
      (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> 0.
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.map (fun k -> k /. 1024.) (float_of_string_opt kb)
              | [] -> None)
          | _ -> None)
      |> Option.value ~default:0.

(** Direct children of [pid]. *)
let children pid =
  match
    In_channel.with_open_text
      (Printf.sprintf "/proc/%d/task/%d/children" pid pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> []
  | s -> List.filter_map int_of_string_opt (String.split_on_char ' ' s)

(** The end-to-end metrics but [setup_s], which the runner adds: one
    pass's wall, the typical and the slow per-item latency, and the
    peak resident set.

    Items differ in cost by up to four orders of magnitude, so a
    percentile lands on whichever item sits at its rank and jumps when
    two neighbours trade places.  The geometric mean and the mean of
    the slowest tenth average over every item instead. *)
let end_to_end ~wall_s ~lats ~rss_mb =
  [ ("wall_s", wall_s);
    ("latency_ms_geomean", 1000. *. Stats.geomean lats);
    ("latency_ms_tail10", 1000. *. Stats.top_mean 0.1 lats);
    ("peak_rss_mb", rss_mb) ]

let frac n d = Stats.ratio (float_of_int n) (float_of_int d)

(** Golden bookkeeping: [tbl] keeps each key whose answer [got]
    differs from its entry in [golden]. *)
let record_mismatch tbl (golden : (string, string) Hashtbl.t) k got =
  let want = Hashtbl.find_opt golden k in
  if want <> Some got then Hashtbl.replace tbl k (got, want)

(** One problem line per key {!record_mismatch} kept. *)
let mismatch_problems what tbl =
  Hashtbl.fold
    (fun k (got, want) acc ->
       Printf.sprintf "%s %s: got %s, golden %s" what k got
         (Option.value ~default:"(none)" want)
       :: acc)
    tbl []
