(** [eval fsck]: format-detecting verify/repair over every durable
    artifact the system writes — cell/queue journals and profile
    sidecars.

    Verification is structural, not configuration-bound: a journal
    line is sound when its FNV-1a checksum covers its body and the
    body has the fixed record shape, whatever fingerprint it carries
    (the distinct fingerprints seen are reported instead).  That lets
    one fsck pass audit artifacts from many runs.

    Repair semantics per format:
    - JSONL artifacts (journals, sidecars): rewrite the file
      atomically keeping only sound records — drops bit-flipped and
      short-written lines, truncates a torn tail.  Lossy by design:
      the loaders re-run what a journal no longer carries, so a
      repair costs compute, never a wrong cached result.
    - Stale [*.tmp] files (interrupted atomic publishes): removed.

    Exit discipline (see {!exit_code}): 0 all clean, 1 damage found
    and repaired, 2 damage present (verify-only mode, or a repair
    that could not complete). *)

type kind =
  | Journal
  | Profile_sidecar
  | Stale_tmp
  | Unknown

let kind_name = function
  | Journal -> "journal"
  | Profile_sidecar -> "profile sidecar"
  | Stale_tmp -> "stale tmp"
  | Unknown -> "unknown"

type report = {
  r_path : string;
  r_kind : kind;
  r_records : int;  (** sound records *)
  r_damaged : int;  (** unsound complete records (bit rot, fusion) *)
  r_torn : bool;  (** unterminated or damaged final record *)
  r_fingerprints : string list;  (** distinct fingerprints, in order *)
  r_repaired : bool;
  r_unrepairable : string option;
}

let m_checked = Telemetry.Metrics.counter "fsck.checked"
let m_damaged = Telemetry.Metrics.counter "fsck.damaged"
let m_repaired = Telemetry.Metrics.counter "fsck.repaired"

let has_damage r =
  r.r_damaged > 0 || r.r_torn || r.r_kind = Stale_tmp
  || r.r_unrepairable <> None

let base_report path =
  { r_path = path; r_kind = Unknown; r_records = 0; r_damaged = 0;
    r_torn = false; r_fingerprints = [];
    r_repaired = false; r_unrepairable = None }

(* ------------------------------------------------------------------ *)
(* Format detection                                                    *)
(* ------------------------------------------------------------------ *)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let looks_journal_line line =
  String.length line >= 18
  && line.[16] = ' '
  && (let ok = ref true in
      String.iteri (fun i c -> if i < 16 && not (is_hex c) then ok := false)
        (String.sub line 0 16);
      !ok)

(* ------------------------------------------------------------------ *)
(* JSONL walks                                                         *)
(* ------------------------------------------------------------------ *)

(* split into complete lines + a torn tail (bytes after the last
   newline), exactly like the journal loader *)
let split_lines raw =
  let size = String.length raw in
  match String.rindex_opt raw '\n' with
  | None -> ([], raw)
  | Some i ->
      let complete = String.sub raw 0 i in
      let tail = String.sub raw (i + 1) (size - i - 1) in
      ((if complete = "" then [] else String.split_on_char '\n' complete),
       tail)

(* verify/repair any line-record file given a per-line validity check
   returning [Some tag] (an optional fingerprint) for sound lines *)
let check_jsonl ~repair ~(sound : string -> string option) path r =
  let raw = Robust.Diskio.read_all path in
  let lines, tail = split_lines raw in
  let keep = Buffer.create (String.length raw) in
  let records = ref 0 and damaged = ref 0 and torn = ref false in
  let fps = ref [] in
  let note_fp fp =
    if fp <> "" && not (List.mem fp !fps) then fps := fp :: !fps
  in
  let eat line =
    match sound line with
    | Some fp ->
        incr records;
        note_fp fp;
        Buffer.add_string keep line;
        Buffer.add_char keep '\n'
    | None -> if String.trim line = "" then () else incr damaged
  in
  List.iter eat lines;
  if tail <> "" then begin
    torn := true;
    (* a torn tail that still parses lost only its terminator — keep *)
    match sound tail with
    | Some fp ->
        incr records;
        note_fp fp;
        Buffer.add_string keep tail;
        Buffer.add_char keep '\n'
    | None -> ()
  end;
  let r =
    { r with
      r_records = !records;
      r_damaged = !damaged;
      r_torn = !torn;
      r_fingerprints = List.rev !fps }
  in
  if repair && (!damaged > 0 || !torn) then begin
    Robust.Diskio.write_atomic ~path (Buffer.contents keep);
    { r with r_repaired = true }
  end
  else r

let sound_profile line =
  match Cellprof.decode line with Some _ -> Some "" | None -> None

(* the first sound line tells the format, so damage to the first
   record cannot hide the whole file; with no sound line the first
   line's shape or body decides (a wholly damaged journal still reads
   as one, even when the damage hit its checksum prefix) *)
let detect path : kind =
  if Filename.check_suffix path ".tmp" then Stale_tmp
  else
    let lines =
      match split_lines (Robust.Diskio.read_all path) with
      | lines, tail -> lines @ [ tail ]
      | exception Sys_error _ -> []
    in
    let sound_kind line =
      if Robust.Journal.line_fingerprint line <> None then Some Journal
      else if sound_profile line <> None then Some Profile_sidecar
      else None
    in
    let has j name = Telemetry.Trace_check.member name j <> None in
    let record_body line =
      let n = String.length line in
      if n <= 17 then None
      else Telemetry.Trace_check.parse_opt (String.sub line 17 (n - 17))
    in
    match (List.find_map sound_kind lines, lines) with
    | Some k, _ -> k
    | None, first :: _ when looks_journal_line first -> Journal
    | None, first :: _ -> (
        match Telemetry.Trace_check.parse_opt first with
        | Some j when has j "wall_us" && has j "key" -> Profile_sidecar
        | _ -> (
            match record_body first with
            | Some j when has j "fp" && has j "key" -> Journal
            | _ -> Unknown))
    | None, [] -> Unknown

(* ------------------------------------------------------------------ *)
(* Per-file check                                                      *)
(* ------------------------------------------------------------------ *)

(** Verify (and with [repair], fix) one artifact file. *)
let check ?(repair = false) path : report =
  Telemetry.Metrics.incr m_checked;
  let r = base_report path in
  let r =
    if not (Sys.file_exists path) then
      { r with r_unrepairable = Some "no such file" }
    else
      match detect path with
      | Stale_tmp ->
          let r = { r with r_kind = Stale_tmp } in
          if repair then begin
            (try Sys.remove path with Sys_error _ -> ());
            { r with r_repaired = true }
          end
          else r
      | Journal as k -> (
          let r = { r with r_kind = k } in
          try
            check_jsonl ~repair ~sound:Robust.Journal.line_fingerprint path r
          with Sys_error msg | Robust.Diskio.Full msg ->
            { r with r_unrepairable = Some msg })
      | Profile_sidecar as k -> (
          let r = { r with r_kind = k } in
          try check_jsonl ~repair ~sound:sound_profile path r
          with Sys_error msg | Robust.Diskio.Full msg ->
            { r with r_unrepairable = Some msg })
      | Unknown -> { r with r_kind = Unknown }
  in
  if has_damage r then Telemetry.Metrics.incr m_damaged;
  if r.r_repaired then Telemetry.Metrics.incr m_repaired;
  r

(** Check paths, recursing into directories (every file inside is
    checked).  Stale tmps go first: repairing [PATH] publishes through
    [PATH.tmp], which would swallow a stale one checked after it. *)
let rec scan ?(repair = false) (paths : string list) : report list =
  let tmps, rest =
    List.partition (fun p -> Filename.check_suffix p ".tmp") paths
  in
  List.concat_map
    (fun path ->
       if Sys.file_exists path && Sys.is_directory path then
         scan ~repair
           (Sys.readdir path |> Array.to_list |> List.sort compare
            |> List.map (Filename.concat path))
       else [ check ~repair path ])
    (tmps @ rest)

(* ------------------------------------------------------------------ *)
(* Rendering and exit discipline                                       *)
(* ------------------------------------------------------------------ *)

let render_one (r : report) : string =
  let b = Buffer.create 128 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "%s: %s" r.r_path (kind_name r.r_kind);
  (match r.r_kind with
   | Unknown | Stale_tmp -> ()
   | _ -> pr ", %d record(s)" r.r_records);
  (match r.r_fingerprints with
   | [] -> ()
   | [ fp ] -> pr ", fp %s" fp
   | fps -> pr ", %d fingerprints (%s)" (List.length fps)
              (String.concat " " fps));
  if r.r_damaged > 0 then pr ", %d corrupt" r.r_damaged;
  if r.r_torn then pr ", torn tail";
  (match r.r_unrepairable with
   | Some msg -> pr " — UNREPAIRABLE (%s)" msg
   | None ->
       if r.r_repaired then pr " [repaired]"
       else if has_damage r then pr " [damaged; run --repair]"
       else if r.r_kind <> Unknown then pr " — clean");
  Buffer.contents b

let render (reports : report list) : string =
  String.concat "\n" (List.map render_one reports)

(** 0 — every artifact clean; 1 — damage was found and every damaged
    artifact was repaired; 2 — damage present and not repaired
    (verify-only mode, an unrepairable file, or an unknown path). *)
let exit_code ~repair (reports : report list) : int =
  let damaged = List.filter has_damage reports in
  if damaged = [] then 0
  else if
    repair
    && List.for_all
         (fun r -> r.r_repaired && r.r_unrepairable = None)
         damaged
  then 1
  else 2
