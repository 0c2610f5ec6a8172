(** Serializable registry snapshots — the unit of cross-process
    metrics aggregation.

    A fleet worker cannot share the master's in-memory registry, so
    after each task it captures its registry as a {!t}, diffs it
    against its capture after the previous task (a forked child starts
    with the parent's counter values already in place, so the first
    diff is against a capture taken right after [fork]), and ships the
    delta as JSON inside that task's reply frame.  The master
    {!publish}es each delta into its own live registry (counter-add,
    gauge-last, bucket-wise histogram add) when it accepts the reply,
    so a whole fleet run reads like one process in
    [Metrics.snapshot].

    Snapshots are plain immutable values with name-sorted association
    lists, so structural equality and deterministic serialization come
    for free — the tests compare them with [=]. *)

type histo = {
  hs_count : int;
  hs_sum : int;
  hs_max : int;
  hs_buckets : (int * int) list;
      (** (bucket index, count), ascending, non-zero entries only *)
}

type t = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * histo) list;
}

let empty = { counters = []; gauges = []; histograms = [] }

let find_counter t name =
  match List.assoc_opt name t.counters with Some v -> v | None -> 0

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

(** The live registry as a snapshot ([Metrics.snapshot] order, so the
    lists come out name-sorted). *)
let capture () : t =
  List.fold_left
    (fun acc (name, r) ->
       match (r : Metrics.reading) with
       | Metrics.Vcounter v ->
           { acc with counters = (name, v) :: acc.counters }
       | Metrics.Vgauge v -> { acc with gauges = (name, v) :: acc.gauges }
       | Metrics.Vhistogram { count; sum; max; buckets } ->
           { acc with
             histograms =
               ( name,
                 { hs_count = count; hs_sum = sum; hs_max = max;
                   hs_buckets = buckets } )
               :: acc.histograms })
    empty (Metrics.snapshot ())
  |> fun t ->
  { counters = List.rev t.counters;
    gauges = List.rev t.gauges;
    histograms = List.rev t.histograms }

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

(* fold two name-sorted assoc lists into one, combining values present
   on both sides *)
let merge_assoc (combine : 'a -> 'a -> 'a) a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        if ka < kb then go ta b ((ka, va) :: acc)
        else if kb < ka then go a tb ((kb, vb) :: acc)
        else go ta tb ((ka, combine va vb) :: acc)
  in
  go a b []

let sub_buckets cur base =
  merge_assoc ( + ) cur (List.map (fun (i, n) -> (i, -n)) base)
  |> List.filter (fun (_, n) -> n > 0)

(* one walk over two name-sorted assoc lists: [f base_value cur_value]
   for every name of [cur] ([None] when [base] lacks it), keeping the
   [Some] results; names only in [base] are skipped *)
let diff_assoc (f : 'a option -> 'a -> 'a option) base cur =
  let rec go base cur acc =
    match (base, cur) with
    | _, [] -> List.rev acc
    | (kb, _) :: tb, (kc, _) :: _ when kb < kc -> go tb cur acc
    | _, (kc, vc) :: tc ->
        let b, base =
          match base with
          | (kb, vb) :: tb when kb = kc -> (Some vb, tb)
          | _ -> (None, base)
        in
        go base tc (match f b vc with Some d -> (kc, d) :: acc | None -> acc)
  in
  go base cur []

(** [diff ~base cur] is what happened since [base]: counter and
    histogram deltas (zero deltas dropped, so a fresh worker that did
    nothing ships an empty snapshot), gauges at their current value
    when they moved.  A histogram delta keeps the current max — the
    per-interval max is not recoverable from a cumulative registry,
    and for {!publish} (which keeps the larger max) an
    over-approximation is harmless.  Both snapshots' lists are
    name-sorted, so it is one walk over each. *)
let diff ~base cur =
  let counters =
    diff_assoc
      (fun b v ->
         let d = v - Option.value ~default:0 b in
         if d = 0 then None else Some d)
      base.counters cur.counters
  in
  let gauges =
    diff_assoc
      (fun b v -> if v <> Option.value ~default:0.0 b then Some v else None)
      base.gauges cur.gauges
  in
  let histograms =
    diff_assoc
      (fun b h ->
         match b with
         | None -> if h.hs_count = 0 then None else Some h
         | Some b ->
             let d =
               { hs_count = h.hs_count - b.hs_count;
                 hs_sum = h.hs_sum - b.hs_sum;
                 hs_max = h.hs_max;
                 hs_buckets = sub_buckets h.hs_buckets b.hs_buckets }
             in
             if d.hs_count = 0 then None else Some d)
      base.histograms cur.histograms
  in
  { counters; gauges; histograms }

(* ------------------------------------------------------------------ *)
(* Publish                                                             *)
(* ------------------------------------------------------------------ *)

(** Fold a snapshot additively into the live registry, creating the
    metrics as needed: counters add, gauges take the snapshot's value,
    histograms add bucket-wise (max keeps the larger).  Publishing
    every worker delta is how a fleet run becomes indistinguishable
    from a sequential one for deterministic counters. *)
let publish t =
  List.iter (fun (name, v) -> Metrics.add (Metrics.counter name) v) t.counters;
  List.iter (fun (name, v) -> Metrics.set (Metrics.gauge name) v) t.gauges;
  List.iter
    (fun (name, hs) ->
       let h = Metrics.histogram name in
       List.iter
         (fun (i, n) ->
            if i >= 0 && i < Metrics.num_buckets then
              h.Metrics.h_buckets.(i) <- h.Metrics.h_buckets.(i) + n)
         hs.hs_buckets;
       h.Metrics.h_count <- h.Metrics.h_count + hs.hs_count;
       h.Metrics.h_sum <- h.Metrics.h_sum + hs.hs_sum;
       if hs.hs_max > h.Metrics.h_max then h.Metrics.h_max <- hs.hs_max)
    t.histograms

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let esc = Trace_check.json_escape

(** One line with no tab (names are escaped) — a snapshot rides a
    fleet reply frame ahead of the frame's first tab.  [%.17g] keeps
    gauge floats exact across the round trip. *)
let to_json t =
  let buf = Buffer.create 256 in
  let sep = ref false in
  let field body =
    if !sep then Buffer.add_char buf ',';
    sep := true;
    Buffer.add_string buf body
  in
  Buffer.add_string buf "{\"c\":{";
  List.iter
    (fun (name, v) ->
       field (Printf.sprintf "\"%s\":%d" (esc name) v))
    t.counters;
  Buffer.add_string buf "},\"g\":{";
  sep := false;
  List.iter
    (fun (name, v) ->
       field (Printf.sprintf "\"%s\":%.17g" (esc name) v))
    t.gauges;
  Buffer.add_string buf "},\"h\":{";
  sep := false;
  List.iter
    (fun (name, h) ->
       field
         (Printf.sprintf "\"%s\":{\"n\":%d,\"s\":%d,\"m\":%d,\"b\":[%s]}"
            (esc name) h.hs_count h.hs_sum h.hs_max
            (String.concat ","
               (List.map
                  (fun (i, n) -> Printf.sprintf "[%d,%d]" i n)
                  h.hs_buckets))))
    t.histograms;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let of_json line : t option =
  let open Trace_check in
  let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let int = function Num n -> Some (int_of_float n) | _ -> None in
  match parse_opt line with
  | None -> None
  | Some j -> (
      let obj name =
        match member name j with Some (Obj fields) -> Some fields | _ -> None
      in
      match (obj "c", obj "g", obj "h") with
      | Some cs, Some gs, Some hs -> (
          let counters =
            List.filter_map
              (fun (k, v) -> Option.map (fun n -> (k, n)) (int v))
              cs
          in
          let gauges =
            List.filter_map
              (fun (k, v) ->
                 match v with Num f -> Some (k, f) | _ -> None)
              gs
          in
          let histo v =
            match
              (Option.bind (member "n" v) int,
               Option.bind (member "s" v) int,
               Option.bind (member "m" v) int,
               member "b" v)
            with
            | Some n, Some s, Some m, Some (Arr pairs) ->
                let buckets =
                  List.filter_map
                    (function
                      | Arr [ Num i; Num c ] ->
                          Some (int_of_float i, int_of_float c)
                      | _ -> None)
                    pairs
                in
                if List.length buckets = List.length pairs then
                  Some
                    { hs_count = n; hs_sum = s; hs_max = m;
                      hs_buckets = buckets }
                else None
            | _ -> None
          in
          let histograms =
            List.map (fun (k, v) -> (k, histo v)) hs
          in
          if List.for_all (fun (_, h) -> h <> None) histograms then
            Some
              { counters = sort counters;
                gauges = sort gauges;
                histograms =
                  sort
                    (List.filter_map
                       (fun (k, h) -> Option.map (fun h -> (k, h)) h)
                       histograms) }
          else None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Prometheus-style text exposition                                    *)
(* ------------------------------------------------------------------ *)

let prom_name name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
       | _ -> '_')
    name

(** Prometheus text format: counters and gauges as single samples,
    histograms as cumulative [_bucket{le=…}] series plus [_sum] and
    [_count].  Dotted registry names flatten to underscores. *)
let to_prometheus t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, v) ->
       let n = prom_name name in
       pr "# TYPE %s counter\n%s %d\n" n n v)
    t.counters;
  List.iter
    (fun (name, v) ->
       let n = prom_name name in
       pr "# TYPE %s gauge\n%s %g\n" n n v)
    t.gauges;
  List.iter
    (fun (name, h) ->
       let n = prom_name name in
       pr "# TYPE %s histogram\n" n;
       let cum = ref 0 in
       List.iter
         (fun (i, c) ->
            cum := !cum + c;
            let _, hi = Metrics.bucket_range i in
            pr "%s_bucket{le=\"%d\"} %d\n" n hi !cum)
         h.hs_buckets;
       pr "%s_bucket{le=\"+Inf\"} %d\n" n h.hs_count;
       pr "%s_sum %d\n" n h.hs_sum;
       pr "%s_count %d\n" n h.hs_count)
    t.histograms;
  Buffer.contents buf
