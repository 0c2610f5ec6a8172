(** Write-ahead cell journal: durable, checksummed JSONL records of
    completed evaluation cells, so a killed run resumes instead of
    re-paying for every finished cell.

    Each line is [<fnv64-hex> <json-body>\n] where the 16-hex-digit
    FNV-1a checksum covers the exact body text.  The body carries the
    run {e fingerprint} (hash of tool set, bomb catalog, budget/policy
    and solver configuration), a monotonically increasing sequence
    number, the cell key ([tool/bomb]) and an opaque payload the
    caller encodes.  The journal is engine-agnostic: this module only
    knows about lines, checksums and fingerprints — the cell payload
    codec lives with the evaluation layer.

    Durability model: every {!append} hands one complete line to the
    kernel in one write before returning, so after a crash the file is
    a valid journal plus at most one torn final line.  {!load} skips (and
    counts, and warns about) torn, corrupt and stale records rather
    than failing: a damaged journal costs re-running cells, never a
    wrong cached grade. *)

(* ------------------------------------------------------------------ *)
(* FNV-1a 64-bit (the implementation lives with the IO layer)          *)
(* ------------------------------------------------------------------ *)

let fnv64 = Diskio.fnv64
let fnv64_hex = Diskio.fnv64_hex

(** Fingerprint a run configuration: hash of the given components in
    order, stable across processes.  Components may be arbitrary
    binary (bomb images); length-prefixing keeps the encoding
    injective. *)
let fingerprint (components : string list) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
       Buffer.add_string buf (string_of_int (String.length c));
       Buffer.add_char buf ':';
       Buffer.add_string buf c)
    components;
  fnv64_hex (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_appended = Telemetry.Metrics.counter "journal.appended"
let m_replayed = Telemetry.Metrics.counter "journal.replayed"
let m_corrupt = Telemetry.Metrics.counter "journal.corrupt"
let m_truncated = Telemetry.Metrics.counter "journal.truncated"
let m_stale = Telemetry.Metrics.counter "journal.stale"
let m_undecodable = Telemetry.Metrics.counter "journal.undecodable"
let m_shed = Telemetry.Metrics.counter "journal.shed"

(** The replay layer calls this once per cell answered from the
    journal, so [journal.replayed] counts cells, not parsed lines. *)
let count_replayed () = Telemetry.Metrics.incr m_replayed

(** A checksummed-valid record whose payload the caller's codec
    rejected (version skew, hand edits): skipped like corruption. *)
let count_undecodable () = Telemetry.Metrics.incr m_undecodable

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  h : Diskio.handle;
  w_fingerprint : string;
  mutable seq : int;
  mutable shedding : bool;
      (** the device refused an append (ENOSPC class); further
          records are shed instead of crashing the run *)
}

(* proposed inputs can contain arbitrary bytes; the shared escaper
   writes every byte outside ' '..'~' as \u00XX, which the loader's
   parser maps back to the same byte *)
let json_escape = Telemetry.Trace_check.json_escape

(** Open [path] for appending records under [fingerprint].  [seq] is
    the next sequence number (continue from {!load}'s [next_seq] when
    resuming).  If the file ends in a torn line (crash mid-append),
    {!Diskio.open_append} terminates the tail with a newline first so
    new records never fuse with the torn bytes. *)
let open_writer ~fingerprint ?(seq = 0) path : writer =
  { h = Diskio.open_append path; w_fingerprint = fingerprint; seq;
    shedding = false }

let body ~fingerprint ~seq ~key ~payload =
  Printf.sprintf "{\"fp\":\"%s\",\"seq\":%d,\"key\":\"%s\",\"cell\":%s}"
    (json_escape fingerprint) seq (json_escape key) payload

(* one complete record line: checksum, body, newline *)
let line ~fingerprint ~seq ~key ~payload =
  let b = body ~fingerprint ~seq ~key ~payload in
  fnv64_hex b ^ " " ^ b ^ "\n"

(** Append one record ([payload] must be a complete JSON value): once
    [append] returns, the record survives a [kill -9].

    ENOSPC degradation: if the device refuses the bytes
    ({!Diskio.Full}), the writer warns once, counts the record in
    [journal.shed] and sheds this and every later append instead of
    crashing the run — a full disk costs resume coverage, never the
    in-memory results of a grid in flight. *)
let append (w : writer) ~key ~payload =
  if w.shedding then Telemetry.Metrics.incr m_shed
  else begin
    match
      Diskio.append w.h
        (line ~fingerprint:w.w_fingerprint ~seq:w.seq ~key ~payload)
    with
    | () ->
        w.seq <- w.seq + 1;
        Telemetry.Metrics.incr m_appended
    | exception Diskio.Full msg ->
        w.shedding <- true;
        Telemetry.Metrics.incr m_shed;
        Telemetry.Log.warnf
          "journal: %s; shedding journal writes (results stay in memory; \
           resume will re-run unjournaled cells)"
          msg
  end

(** Whether the writer has started shedding appends (disk full). *)
let is_shedding (w : writer) = w.shedding

let close_writer (w : writer) = Diskio.close w.h

(* ------------------------------------------------------------------ *)
(* Loader                                                              *)
(* ------------------------------------------------------------------ *)

type entry = {
  key : string;
  seq : int;
  cell : Telemetry.Trace_check.json;  (** opaque payload, caller-decoded *)
  raw : string;
      (** the payload's exact byte text, so {!rewrite} can re-append
          the record without a decode/re-encode round trip *)
}

(* the writer's body layout is fixed ([body] above):
   [{"fp":"…","seq":N,"key":"…","cell":<payload>}] with both strings
   [json_escape]d, so neither contains a raw '"'.  Walk that exact
   shape and slice out the payload text. *)
let raw_payload_of_body (b : string) : string option =
  let n = String.length b in
  let expect pos lit =
    let l = String.length lit in
    if pos + l <= n && String.sub b pos l = lit then Some (pos + l) else None
  in
  let skip_escaped_string pos =
    (* scan to the closing unescaped quote *)
    let rec go i =
      if i >= n then None
      else
        match b.[i] with
        | '"' -> Some (i + 1)
        | '\\' -> go (i + 2)
        | _ -> go (i + 1)
    in
    go pos
  in
  let skip_digits pos =
    let rec go i =
      if i < n && (b.[i] >= '0' && b.[i] <= '9') then go (i + 1) else i
    in
    if pos < n then Some (go pos) else None
  in
  let ( let* ) = Option.bind in
  let* p = expect 0 "{\"fp\":\"" in
  let* p = skip_escaped_string p in
  let* p = expect p ",\"seq\":" in
  let* p = skip_digits p in
  let* p = expect p ",\"key\":\"" in
  let* p = skip_escaped_string p in
  let* p = expect p ",\"cell\":" in
  if n > p && b.[n - 1] = '}' then Some (String.sub b p (n - 1 - p))
  else None

type load_result = {
  entries : entry list;  (** valid matching records, last-wins per key *)
  total_lines : int;
  valid : int;
  corrupt : int;    (** checksum or structural failure before EOF *)
  truncated : int;  (** damaged final line (torn write) *)
  stale : int;      (** valid record under a different fingerprint *)
  next_seq : int;   (** where a resuming writer should continue *)
}

let empty_load =
  { entries = []; total_lines = 0; valid = 0; corrupt = 0; truncated = 0;
    stale = 0; next_seq = 0 }

(* one "<checksum> <body>" line; a sound record carries its
   fingerprint *)
type parsed = Valid of entry * string | Stale of string | Damaged

let parse_line ~fingerprint line : parsed =
  let open Telemetry.Trace_check in
  if String.length line < 18 || line.[16] <> ' ' then Damaged
  else
    let sum = String.sub line 0 16 in
    let b = String.sub line 17 (String.length line - 17) in
    if not (String.equal sum (fnv64_hex b)) then Damaged
    else
      match parse_opt b with
      | None -> Damaged
      | Some j -> (
          match (member "fp" j, member "seq" j, member "key" j,
                 member "cell" j) with
          | Some (Str fp), Some (Num seq), Some (Str key), Some cell -> (
              if not (String.equal fp fingerprint) then Stale fp
              else
                match raw_payload_of_body b with
                | Some raw ->
                    Valid ({ key; seq = int_of_float seq; cell; raw }, fp)
                | None -> Damaged)
          | _ -> Damaged)

(** The fingerprint a sound record line carries, whatever run it
    belongs to; [None] for a damaged line. *)
let line_fingerprint line =
  match parse_line ~fingerprint:"" line with
  | Valid (_, fp) | Stale fp -> Some fp
  | Damaged -> None

(** The fingerprint of the first checksummed-valid record of [path],
    whatever it is — [None] for a missing, empty or wholly damaged
    file.  Lets a resuming caller distinguish "this journal belongs to
    a different run configuration" (refuse loudly) from damage (skip
    and re-run), instead of {!load} silently treating every record as
    stale.  Reads the file once, as {!load} does, so the read is
    bounded by the file's size. *)
let peek_fingerprint path : string option =
  if not (Sys.file_exists path) then None
  else
    List.find_map line_fingerprint
      (String.split_on_char '\n' (Diskio.read_all path))

(** Load every record of [path] that matches [fingerprint].  A missing
    file is an empty journal.  Damaged or stale lines are skipped with
    a {!Telemetry.Log} warning and counted — in the result and in the
    [journal.*] metrics ([quiet] counts them in the result only).
    [dedup:false] keeps every valid record in file order instead of
    collapsing to last-wins per key — for callers auditing the full
    append history (the exactly-once soak check). *)
let load ?(dedup = true) ?(quiet = false) ~fingerprint path : load_result =
  if not (Sys.file_exists path) then empty_load
  else begin
    let raw = Diskio.read_all path in
    let size = String.length raw in
    (* a well-formed journal ends in '\n'; anything after the final
       newline is a torn tail from a crashed append *)
    let complete, tail =
      match String.rindex_opt raw '\n' with
      | None -> ("", raw)
      | Some i ->
          (String.sub raw 0 i, String.sub raw (i + 1) (size - i - 1))
    in
    let lines =
      if complete = "" then [] else String.split_on_char '\n' complete
    in
    let acc = ref empty_load in
    let skip ~kind metric lineno =
      if not quiet then begin
        Telemetry.Metrics.incr metric;
        Telemetry.Log.warnf "journal: skipping %s record at %s:%d" kind path
          lineno
      end
    in
    (* [torn]: the bytes after the last newline.  A torn tail could
       still parse if the crash landed exactly on the newline boundary
       minus the terminator; it is accepted only if fully valid *)
    let take ~torn line =
      acc := { !acc with total_lines = !acc.total_lines + 1 };
      let lineno = !acc.total_lines in
      match parse_line ~fingerprint line with
      | Valid (e, _) ->
          acc :=
            { !acc with
              valid = !acc.valid + 1;
              entries = e :: !acc.entries;
              next_seq = max !acc.next_seq (e.seq + 1) }
      | Stale _ ->
          skip ~kind:"stale (fingerprint mismatch)" m_stale lineno;
          acc := { !acc with stale = !acc.stale + 1 }
      | Damaged when torn ->
          skip ~kind:"truncated" m_truncated lineno;
          acc := { !acc with truncated = !acc.truncated + 1 }
      | Damaged ->
          skip ~kind:"corrupt" m_corrupt lineno;
          acc := { !acc with corrupt = !acc.corrupt + 1 }
    in
    List.iter (take ~torn:false) lines;
    if tail <> "" then take ~torn:true tail;
    (* last-wins per key: a resumed run may have re-executed a cell *)
    let entries =
      if not dedup then List.rev !acc.entries
      else begin
        let seen = Hashtbl.create 64 in
        List.rev
          (List.filter
             (fun (e : entry) ->
                if Hashtbl.mem seen e.key then false
                else begin
                  Hashtbl.replace seen e.key ();
                  true
                end)
             !acc.entries (* newest first *))
      end
    in
    { !acc with entries }
  end

(** Rewrite [path] as the canonical journal of [order]: the last
    record of each key in [order] that carries [fingerprint], in
    [order]'s order, numbered from 0 — byte-identical to the journal
    a run appending exactly those cells in that order writes.  Damaged,
    stale and off-grid records are dropped (the loads that replay the
    file already counted them).  Published with one tmp+rename. *)
let rewrite ~fingerprint ~order path =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (e : entry) -> Hashtbl.replace by_key e.key e.raw)
    (load ~quiet:true ~fingerprint path).entries;
  let buf = Buffer.create 4096 in
  let seq = ref 0 in
  List.iter
    (fun key ->
       Option.iter
         (fun payload ->
            Buffer.add_string buf (line ~fingerprint ~seq:!seq ~key ~payload);
            incr seq)
         (Hashtbl.find_opt by_key key))
    order;
  Diskio.write_atomic ~path (Buffer.contents buf)
