(** Span tracing over a monotonic clock, plus re-exports of the
    sibling modules so [Telemetry.Metrics], [Telemetry.Log] and
    [Telemetry.Trace_check] are the library's public face.

    Spans are parent/child nested wall-time intervals recorded only
    while tracing is {!enable}d; {!with_span} is a single flag check
    when disabled, so instrumented hot paths (the VM step loop, the
    solver's check) cost nothing in normal runs.  Finished spans
    accumulate in memory and can be rendered two ways: a
    human-readable tree ({!render_tree}), or Chrome [trace_event] JSON
    ({!to_chrome}) loadable in [about:tracing] / Perfetto. *)

module Metrics = Metrics
module Log = Log
module Trace_check = Trace_check
module Snapshot = Snapshot

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* Mach/posix monotonic clocks need C stubs; [Unix.gettimeofday] is
   the best zero-dependency approximation.  Spans additionally clamp
   ([duration_us] is never negative) so a clock step cannot produce
   E-before-B traces. *)
let clock_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int option;
  name : string;
  depth : int;
  t_start : float;                       (** µs since process epoch *)
  mutable t_stop : float;                (** µs; = t_start until ended *)
  mutable attrs : (string * string) list;  (** newest first *)
}

let enabled = ref false
let spans : span list ref = ref []       (* finished spans, newest first *)
let open_stack : span list ref = ref []  (* innermost first *)
let next_id = ref 0

let enable () = enabled := true
let is_enabled () = !enabled

let disable () = enabled := false

(** Drop all recorded and open spans (tracing enablement and metric
    registrations are untouched). *)
let reset () =
  spans := [];
  open_stack := [];
  next_id := 0

let finished_spans () =
  List.sort (fun a b -> compare a.id b.id) !spans

(** A watermark in the finished spans: {!spans_since} lists the spans
    finished after it was taken, {!drop_since} forgets them. *)
let watermark () = !spans

let spans_since mark =
  let rec go acc l =
    if l == mark then acc
    else match l with s :: rest -> go (s :: acc) rest | [] -> acc
  in
  go [] !spans

let drop_since mark = spans := mark

(** Attach a key/value attribute to the innermost open span; no-op
    when tracing is disabled or no span is open. *)
let annotate key value =
  if !enabled then
    match !open_stack with
    | s :: _ -> s.attrs <- (key, value) :: s.attrs
    | [] -> ()

let attr span key = List.assoc_opt key span.attrs

let begin_span name =
  let parent, depth =
    match !open_stack with
    | p :: _ -> (Some p.id, p.depth + 1)
    | [] -> (None, 0)
  in
  let s =
    { id = !next_id; parent; name; depth;
      t_start = clock_us (); t_stop = 0.0; attrs = [] }
  in
  incr next_id;
  open_stack := s :: !open_stack;
  s

let end_span s =
  let t = clock_us () in
  s.t_stop <- (if t < s.t_start then s.t_start else t);
  (* tolerate mis-nested manual begin/end by popping through *)
  let rec pop = function
    | x :: rest when x.id = s.id -> rest
    | _ :: rest -> pop rest
    | [] -> []
  in
  open_stack := pop !open_stack;
  spans := s :: !spans

(** [with_span name f] runs [f ()] inside a span.  When tracing is
    disabled this is one [ref] read and a call.  An exception ends
    the span (tagged with an ["exn"] attribute) before re-raising. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    let s = begin_span name in
    match f () with
    | v -> end_span s; v
    | exception e ->
      s.attrs <- ("exn", Printexc.to_string e) :: s.attrs;
      end_span s;
      raise e
  end

let duration_us s =
  let d = s.t_stop -. s.t_start in
  if d < 0.0 then 0.0 else d

(* ------------------------------------------------------------------ *)
(* Renderings                                                          *)
(* ------------------------------------------------------------------ *)

let children_of all id =
  List.filter (fun s -> s.parent = Some id) all

(* --- human-readable tree --- *)

(* Same-name siblings collapse to one line (×count, summed time) so a
   10k-iteration loop renders as one row, like a profiler's
   aggregated call tree.  A span carrying a "mark" attribute is
   prefixed with "!" — the error-stage attribution report uses this
   to point at where symbolic state died. *)
let render_tree ?root () =
  let all = finished_spans () in
  let roots =
    match root with
    | Some id -> List.filter (fun s -> s.id = id) all
    | None -> List.filter (fun s -> s.parent = None) all
  in
  let buf = Buffer.create 1024 in
  let rec render_group indent group =
    let total = List.fold_left (fun acc s -> acc +. duration_us s) 0.0 group in
    let n = List.length group in
    let leader = List.hd group in
    let marked = List.exists (fun s -> attr s "mark" <> None) group in
    let mark_text =
      match List.find_map (fun s -> attr s "mark") group with
      | Some m -> "  ! " ^ m
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s%s  %.1f us%s\n" indent
         (if marked then "! " else "")
         leader.name
         (if n > 1 then Printf.sprintf " (x%d)" n else "")
         total mark_text);
    let kids = List.concat_map (fun s -> children_of all s.id) group in
    render_children (indent ^ "  ") kids
  and render_children indent kids =
    (* group same-name siblings, preserving first-seen order *)
    let seen = Hashtbl.create 8 in
    let names =
      List.filter
        (fun s ->
           if Hashtbl.mem seen s.name then false
           else begin Hashtbl.replace seen s.name (); true end)
        kids
      |> List.map (fun s -> s.name)
    in
    List.iter
      (fun name ->
         render_group indent (List.filter (fun s -> s.name = name) kids))
      names
  in
  List.iter (fun r -> render_group "" [ r ]) roots;
  Buffer.contents buf

(* --- JSON emission --- *)

let json_escape = Trace_check.json_escape

let attrs_json attrs =
  String.concat ", "
    (List.rev_map
       (fun (k, v) ->
          Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
       attrs)

(** One group of spans (one cell's, say) as Chrome trace_event events
    on lane [lane] (the events' [pid]): paired B/E duration events
    emitted by walking the group's span tree, so nesting in the viewer
    mirrors the recorded parent/child structure and B/E events balance
    like brackets.  A span whose parent is outside the group is one of
    its roots.  Nesting never crosses groups, so span ids need to be
    unique only within one group, and groups concatenate into one
    valid trace ({!chrome_document}) in any order. *)
let chrome_events ~lane group =
  let group = List.sort (fun a b -> compare a.id b.id) group in
  let ids = Hashtbl.create 64 and kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) group;
  (* added newest first, so [find_all] lists each span's children in
     start order *)
  List.iter
    (fun s -> Option.iter (fun p -> Hashtbl.add kids p s) s.parent)
    (List.rev group);
  let events = ref [] in  (* reversed *)
  let emit ev = events := ev :: !events in
  let rec emit_span s =
    emit
      (Printf.sprintf
         "{\"name\": \"%s\", \"ph\": \"B\", \"ts\": %.1f, \
          \"pid\": %d, \"tid\": 1%s}"
         (json_escape s.name) s.t_start lane
         (match s.attrs with
          | [] -> ""
          | attrs -> Printf.sprintf ", \"args\": {%s}" (attrs_json attrs)));
    List.iter emit_span (Hashtbl.find_all kids s.id);
    emit
      (Printf.sprintf
         "{\"name\": \"%s\", \"ph\": \"E\", \"ts\": %.1f, \
          \"pid\": %d, \"tid\": 1}"
         (json_escape s.name) s.t_stop lane)
  in
  List.iter
    (fun s ->
       match s.parent with
       | Some p when Hashtbl.mem ids p -> ()
       | _ -> emit_span s)
    group;
  List.rev !events

(** A Chrome trace_event JSON document holding [events], loadable in
    [about:tracing] / Perfetto. *)
let chrome_document events =
  "{\"traceEvents\": [\n"
  ^ String.concat ",\n" events
  ^ "\n], \"displayTimeUnit\": \"ms\"}\n"

(** Every finished span as one Chrome trace on lane 1. *)
let to_chrome () = chrome_document (chrome_events ~lane:1 (finished_spans ()))
