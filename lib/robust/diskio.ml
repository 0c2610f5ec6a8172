(** Durable-IO layer: the one audited path every on-disk artifact
    goes through — append-only record files (cell journals, queue
    journals, profile sidecars), atomic tmp+rename publication
    (rewritten journals, traces) and whole-file reads.

    Before this module the repo carried five independent copies of
    torn-tail healing and tmp+rename.  Centralizing them buys one
    place to count bytes and operations and one place to type the
    storage failures callers must survive.

    Failure semantics, as a caller observes them:
    - a full device (ENOSPC) or an exhausted quota (EDQUOT) raises
      {!Full} from {!append} or {!write_atomic}; callers shed or
      degrade (the journal stops journaling, the profile sidecar drops
      the sample).  Any other write error propagates as [Sys_error].
    - bytes of a record that landed before the device refused the
      rest stay in the file as a torn tail; the next append on the
      same handle heals it with a newline first, exactly like a
      crashed-writer reopen, so the damage stays confined to one
      record.
    - {!write_atomic} never leaves a half-written file under the final
      name: a crash (or a failed rename) can leave only a stale
      [path ^ ".tmp"], which [eval fsck --repair] removes.
    - a flipped byte anywhere is caught by the record checksums at
      load and repaired by [eval fsck]. *)

(* ------------------------------------------------------------------ *)
(* FNV-1a 64-bit — the checksum every durable format shares.  It      *)
(* lives here (not in Journal) so the wire protocol and fsck both     *)
(* hash through the IO layer without a dependency cycle.              *)
(* ------------------------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv64 (s : string) : int64 =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
       h := Int64.logxor !h (Int64.of_int (Char.code c));
       h := Int64.mul !h fnv_prime)
    s;
  !h

let fnv64_hex s = Printf.sprintf "%016Lx" (fnv64 s)

(* ------------------------------------------------------------------ *)
(* Typed failures                                                      *)
(* ------------------------------------------------------------------ *)

(** ENOSPC-class failure: the device refused the bytes.  The payload
    is a one-line human-readable description including the path. *)
exception Full of string

let () =
  Printexc.register_printer (function
    | Full msg -> Some (Printf.sprintf "Robust.Diskio.Full(%s)" msg)
    | _ -> None)

(* a full device or quota is {!Full} ([EUNKNOWNERR 122] is Linux's
   EDQUOT, which [Unix.error] has no constructor for); every other
   error is the [Sys_error] the channel functions raise *)
let typed path = function
  | Unix.Unix_error (((ENOSPC | EUNKNOWNERR 122) as e), _, _) ->
      Full (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | Unix.Unix_error (e, _, _) ->
      Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | e -> e

(* [s] at the end of [fd], one write(2) per 64-KiB chunk (every record
   this repo writes is one chunk), retried on EINTR; [landed n] is told
   each time the first [n] bytes are in.  Raises {!typed}'s
   exception. *)
let write_all ~path ?(landed = ignore) fd s =
  let n = String.length s in
  let rec go off =
    if off > 0 then landed off;
    if off < n then
      match Unix.single_write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception e -> raise (typed path e)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_appends = Telemetry.Metrics.counter "diskio.appends"
let m_bytes = Telemetry.Metrics.counter "diskio.bytes"
let m_atomic = Telemetry.Metrics.counter "diskio.atomic_writes"
let m_reads = Telemetry.Metrics.counter "diskio.reads"

(* ------------------------------------------------------------------ *)
(* Append handles                                                      *)
(* ------------------------------------------------------------------ *)

type handle = {
  h_fd : Unix.file_descr;
  h_path : string;
  mutable h_torn : bool;
      (* the file does not end in '\n' (a crashed writer's tail, or
         the prefix of a record the device refused): the next record
         starts with a newline so the damage stays in one record *)
}

(* a well-formed record file ends in '\n'; anything else is the torn
   tail of a crashed append.  (The journal writer and the profile
   sidecar both heal through here.) *)
let ends_torn path =
  Sys.file_exists path
  && (let ic = open_in_bin path in
      let size = in_channel_length ic in
      let torn =
        size > 0
        && (seek_in ic (size - 1);
            input_char ic <> '\n')
      in
      close_in ic;
      torn)

(** Open [path] for record appends.  A torn tail is healed by the
    first append, in the same write, so opening writes nothing. *)
let open_append path : handle =
  let torn = ends_torn path in
  let fd =
    try Unix.openfile path [ O_WRONLY; O_APPEND; O_CREAT ] 0o644
    with e -> raise (typed path e)
  in
  { h_fd = fd; h_path = path; h_torn = torn }

(** Append one complete record (the caller includes any trailing
    newline).  It reaches the kernel before [append] returns, so it
    survives the process dying.  Raises {!Full} on ENOSPC or EDQUOT;
    a prefix that landed first is healed over by the next append. *)
let append h s =
  (* after the newline a torn tail is owed, in one write; track
     whether the file now ends mid-record *)
  let record = if h.h_torn then "\n" ^ s else s in
  write_all ~path:h.h_path h.h_fd record
    ~landed:(fun n -> h.h_torn <- record.[n - 1] <> '\n');
  Telemetry.Metrics.incr m_appends;
  Telemetry.Metrics.add m_bytes (String.length s)

let close h = Unix.close h.h_fd

(* ------------------------------------------------------------------ *)
(* Atomic publication and reads                                        *)
(* ------------------------------------------------------------------ *)

(** Write [contents] under [path] via tmp+rename, fsync before the
    publish: a crash can leave a stale [path ^ ".tmp"] but never a
    torn file under the final name.  Raises {!Full} on ENOSPC or
    EDQUOT (the partial tmp is removed) and [Sys_error] on any other
    failure, a failed rename included (the tmp stays behind). *)
let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  (try
     let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
     match
       write_all ~path:tmp fd contents;
       Unix.fsync fd
     with
     | () -> Unix.close fd
     | exception e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e
   with e -> (
     match typed tmp e with
     | Full _ as full ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise full
     | e -> raise e));
  Sys.rename tmp path;
  Telemetry.Metrics.incr m_atomic;
  Telemetry.Metrics.add m_bytes (String.length contents)

(** The whole file as a string ([Sys_error] if unreadable). *)
let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let s = really_input_string ic (in_channel_length ic) in
       Telemetry.Metrics.incr m_reads;
       s)
