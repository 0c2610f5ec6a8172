(** Durable-IO layer: the one audited path every on-disk artifact
    goes through — append-only record files (cell journals, queue
    journals, profile sidecars), atomic tmp+rename publication
    (rewritten journals, traces) and whole-file reads.

    Before this module the repo carried five independent copies of
    torn-tail healing and tmp+rename.  Centralizing them buys one
    place to (a) apply a sync policy, (b) count bytes and operations,
    and (c) inject the {e storage} fault class: a pluggable hook
    consulted at every append, sync and rename turns seeded
    [Chaos.io_state] decisions into ENOSPC, short writes, failed
    renames, flipped bits and lying fsyncs — the faults a long
    evaluation campaign's partial results actually meet.

    Fault semantics, as a caller observes them:
    - [Enospc]: {!Full} raised, nothing written — callers shed or
      degrade (the journal stops journaling).
    - [Short_write]: a prefix of the record lands (torn tail), then
      {!Full} — the next append on the same handle heals with a
      newline first, exactly like a crashed-writer reopen.
    - [Bit_flip]: one byte of the record is flipped and the write
      "succeeds" — silent corruption, caught by checksums at load and
      repaired by [eval fsck].
    - [Torn_fsync]: the sync "succeeds" but the tail of the record it
      claimed durable is dropped from the file — the durability lie,
      healed over on the next append so damage stays record-local.
    - [Failed_rename]: the tmp file is written but the publishing
      rename raises [Sys_error] — readers keep seeing the old bytes,
      never a half-published file. *)

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
(* Fault hook                                                          *)
(* ------------------------------------------------------------------ *)

(** The disk fault class.  Constructors are re-exported (and seeded)
    by [Chaos.disk_point]; metric accounting lives with the chaos
    state so [robust.disk_injected.*] mirrors the compute and fleet
    fault classes. *)
type fault = Enospc | Short_write | Failed_rename | Bit_flip | Torn_fsync

let fault_name = function
  | Enospc -> "enospc"
  | Short_write -> "short_write"
  | Failed_rename -> "failed_rename"
  | Bit_flip -> "bit_flip"
  | Torn_fsync -> "torn_fsync"

(** Where a probe sits: one hook consultation per record append, per
    claimed-durable sync, and per publishing rename. *)
type op = Append | Sync | Rename

(** ENOSPC-class failure: the device refused the bytes.  The payload
    is a one-line human-readable description including the path. *)
exception Full of string

let () =
  Printexc.register_printer (function
    | Full msg -> Some (Printf.sprintf "Robust.Diskio.Full(%s)" msg)
    | _ -> None)

type hook = op:op -> path:string -> fault option

(* disabled by default: the happy path costs one ref read per op *)
let fault_hook : hook option ref = ref None

(** Install (or clear, with [None]) the ambient fault hook.  Every
    append/sync/rename in the process consults it — including the
    forked fleet workers, which inherit it across [fork]. *)
let set_fault_hook h = fault_hook := h

let probe ~op ~path =
  match !fault_hook with None -> None | Some h -> h ~op ~path

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_appends = Telemetry.Metrics.counter "diskio.appends"
let m_bytes = Telemetry.Metrics.counter "diskio.bytes"
let m_syncs = Telemetry.Metrics.counter "diskio.syncs"
let m_atomic = Telemetry.Metrics.counter "diskio.atomic_writes"
let m_renames = Telemetry.Metrics.counter "diskio.renames"
let m_reads = Telemetry.Metrics.counter "diskio.reads"

(* ------------------------------------------------------------------ *)
(* Append handles                                                      *)
(* ------------------------------------------------------------------ *)

(** How much durability an append buys before it returns:
    [`None] leaves bytes in the channel buffer (callers flush on
    close), [`Flush] pushes them to the kernel (survives the process
    dying), [`Fsync] additionally fsyncs (survives the machine
    dying).  Journals default to [`Flush] — the historical
    behavior. *)
type sync_policy = [ `None | `Flush | `Fsync ]

type handle = {
  h_oc : out_channel;
  h_path : string;
  h_sync : sync_policy;
  mutable h_torn : bool;
      (* an injected short write / torn fsync left the file without a
         trailing newline; heal before the next append so the damage
         stays confined to one record *)
}

let handle_path h = h.h_path

(* a well-formed record file ends in '\n'; anything else is the torn
   tail of a crashed append — terminate it so new records never fuse
   with the torn bytes.  (The journal writer and the profile sidecar
   both heal through here.) *)
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

(** Open [path] for record appends, healing a torn tail first. *)
let open_append ?(sync : sync_policy = `Flush) path : handle =
  let torn = ends_torn path in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  if torn then output_char oc '\n';
  { h_oc = oc; h_path = path; h_sync = sync; h_torn = false }

let flip_byte s =
  let i = String.length s / 2 in
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  Bytes.to_string b

(* apply the sync policy; a firing [Torn_fsync] probe truncates the
   tail of the [wrote]-byte record the sync just claimed durable *)
let do_sync h ~wrote =
  match h.h_sync with
  | `None -> ()
  | (`Flush | `Fsync) as s ->
      flush h.h_oc;
      Telemetry.Metrics.incr m_syncs;
      let fd = Unix.descr_of_out_channel h.h_oc in
      (match probe ~op:Sync ~path:h.h_path with
       | Some Torn_fsync when wrote > 0 ->
           let size = (Unix.fstat fd).Unix.st_size in
           let cut = min size ((wrote / 2) + 1) in
           Unix.ftruncate fd (size - cut);
           h.h_torn <- true
       | _ -> ());
      if s = `Fsync then Unix.fsync fd

(** Append one complete record (the caller includes any trailing
    newline) and apply the handle's sync policy.  Raises {!Full} on
    an (injected) ENOSPC or short write. *)
let append h s =
  if h.h_torn then begin
    output_char h.h_oc '\n';
    h.h_torn <- false
  end;
  (match probe ~op:Append ~path:h.h_path with
   | Some Enospc ->
       raise (Full (Printf.sprintf "%s: no space left on device" h.h_path))
   | Some Short_write ->
       output_string h.h_oc (String.sub s 0 (String.length s / 2));
       flush h.h_oc;
       h.h_torn <- true;
       raise
         (Full (Printf.sprintf "%s: short write (device full)" h.h_path))
   | Some Bit_flip -> output_string h.h_oc (flip_byte s)
   | _ -> output_string h.h_oc s);
  Telemetry.Metrics.incr m_appends;
  Telemetry.Metrics.add m_bytes (String.length s);
  do_sync h ~wrote:(String.length s)

(** Test helper: write [s] verbatim (no newline, no fault probes) and
    flush — simulates a crash between [output] and the terminator. *)
let append_torn h s =
  output_string h.h_oc s;
  flush h.h_oc

let close h =
  (try do_sync h ~wrote:0 with Full _ -> ());
  close_out h.h_oc

(* ------------------------------------------------------------------ *)
(* Atomic publication and reads                                        *)
(* ------------------------------------------------------------------ *)

(** Rename [src] over [dst] (a publishing rename).  A firing
    [Failed_rename] probe leaves [src] in place and raises
    [Sys_error] — exactly what a remote filesystem does. *)
let rename ~src ~dst =
  (match probe ~op:Rename ~path:dst with
   | Some Failed_rename ->
       raise
         (Sys_error
            (Printf.sprintf "%s -> %s: rename failed (injected)" src dst))
   | _ -> ());
  Sys.rename src dst;
  Telemetry.Metrics.incr m_renames

(** Write [contents] under [path] via tmp+rename, fsync before the
    publish: a crash (or fault) can leave a stale [path ^ ".tmp"] but
    never a torn file under the final name.  Raises {!Full} on
    ENOSPC/short write and [Sys_error] on a failed rename. *)
let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  (match probe ~op:Append ~path with
   | Some Enospc ->
       raise (Full (Printf.sprintf "%s: no space left on device" path))
   | Some Short_write ->
       let oc = open_out_bin tmp in
       output_string oc
         (String.sub contents 0 (String.length contents / 2));
       close_out oc;
       raise (Full (Printf.sprintf "%s: short write (device full)" path))
   | fault ->
       let contents =
         match fault with
         | Some Bit_flip when String.length contents > 0 ->
             flip_byte contents
         | _ -> contents
       in
       let oc = open_out_bin tmp in
       output_string oc contents;
       flush oc;
       let fd = Unix.descr_of_out_channel oc in
       (match probe ~op:Sync ~path with
        | Some Torn_fsync when String.length contents > 0 ->
            let size = (Unix.fstat fd).Unix.st_size in
            Unix.ftruncate fd (size - min size 8)
        | _ -> ());
       Unix.fsync fd;
       close_out oc);
  rename ~src:tmp ~dst:path;
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

(** [read_checksummed path] — the file plus its FNV-1a fingerprint,
    for callers that compare artifact bytes (the disk soak, fsck's
    report). *)
let read_checksummed path =
  let s = read_all path in
  (s, fnv64_hex s)
