(** Seekable binary trace store: compact framed encoding of
    {!Vm.Event.t} streams with an in-file index, so consumers seek
    instead of re-executing the VM.

    File layout (format v2):

    {v
    "BTRC\x02"  <fingerprint:str>          header
    frame*                                 one frame per event
    frame                                  meta (result, argv layout)
    frame                                  index (samples, postings)
    frame?                                 taint hint (appended later)
    meta_off index_off taint_off fnv64 "BTRCEND\n"   40-byte trailer
    v}

    Every frame is [<varint paylen> <payload> <fix64 FNV-1a-64>] — the
    same checksum family as the write-ahead journal — so torn and
    bit-flipped files are detected at open, never trusted.  Event
    payloads use varint/zigzag coding with pc/register deltas against
    the previous exec frame; every {!keyframe_interval}-th exec frame
    is encoded in full and listed in the sample table, giving seeks a
    nearby self-contained restart point.  Frame [i] is event [i], so
    stored traces stay index-compatible with the in-memory event
    array.  Machine state is never stored: {!Trace.mem_before} rebuilds
    it by replaying the events.  A file of another format version is
    refused at open with a pointer at [eval fsck --repair]. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let format_version = 2
let magic_prefix = "BTRC"
let magic = magic_prefix ^ String.make 1 (Char.chr format_version)

(** [s] opens like a trace store of any format version — how
    [eval fsck] recognises stores, including old or damaged ones that
    {!open_file} refuses. *)
let is_store_header s =
  String.length s > String.length magic_prefix
  && String.sub s 0 (String.length magic_prefix) = magic_prefix

let trailer_magic = "BTRCEND\n"
let trailer_size = 40
let keyframe_interval = 64

(* store telemetry: the evaluation layer reads these back to prove a
   replayed cell did no VM work *)
let m_written = Telemetry.Metrics.counter "trace.store.written"
let m_opened = Telemetry.Metrics.counter "trace.store.opened"
let m_corrupt = Telemetry.Metrics.counter "trace.store.corrupt"
let m_bytes = Telemetry.Metrics.counter "trace.store.bytes"
let m_frames = Telemetry.Metrics.counter "trace.store.frames"

(* ------------------------------------------------------------------ *)
(* Primitive codec: LEB128 varints, zigzag, length-prefixed strings    *)
(* ------------------------------------------------------------------ *)

let put_u64 b (v : int64) =
  let v = ref v in
  let fin = ref false in
  while not !fin do
    let byte = Int64.to_int (Int64.logand !v 0x7fL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char b (Char.chr byte);
      fin := true
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let put_uint b n =
  if n < 0 then invalid_arg "Store.put_uint: negative";
  put_u64 b (Int64.of_int n)

let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag z =
  Int64.logxor (Int64.shift_right_logical z 1)
    (Int64.neg (Int64.logand z 1L))

let put_s64 b v = put_u64 b (zigzag v)
let put_sint b n = put_s64 b (Int64.of_int n)

let put_str b s =
  put_uint b (String.length s);
  Buffer.add_string b s

let put_fix64 b (v : int64) =
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

type cursor = { src : string; mutable pos : int }

let get_u8 c =
  if c.pos >= String.length c.src then corrupt "truncated at byte %d" c.pos;
  let v = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u64 c : int64 =
  let v = ref 0L in
  let shift = ref 0 in
  let fin = ref false in
  while not !fin do
    if !shift > 63 then corrupt "overlong varint at byte %d" c.pos;
    let byte = get_u8 c in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte land 0x7f)) !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then fin := true
  done;
  !v

let get_uint c =
  let v = get_u64 c in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    corrupt "uint out of range at byte %d" c.pos;
  Int64.to_int v

let get_s64 c = unzigzag (get_u64 c)
let get_sint c = Int64.to_int (get_s64 c)

let get_raw c n =
  if n < 0 || c.pos + n > String.length c.src then
    corrupt "truncated string at byte %d" c.pos;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_str c = get_raw c (get_uint c)

let get_fix64 c : int64 =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (get_u8 c)) (8 * i))
  done;
  !v

(* ------------------------------------------------------------------ *)
(* Instruction codec                                                   *)
(* ------------------------------------------------------------------ *)

(* The ISA codec is the compact path; it is verified to round-trip at
   write time (structural equality), with a Marshal fallback so an
   instruction the codec cannot reproduce still stores faithfully. *)
let put_insn b (i : Isa.Insn.t) =
  let verified =
    match Isa.Codec.encode i with
    | enc -> (
        match Isa.Codec.decode enc 0 with
        | i', sz when sz = String.length enc && Isa.Insn.equal i i' -> Some enc
        | _ -> None
        | exception _ -> None)
    | exception _ -> None
  in
  match verified with
  | Some enc ->
    Buffer.add_char b '\000';
    put_str b enc
  | None ->
    Buffer.add_char b '\001';
    put_str b (Marshal.to_string i [])

let get_insn c : Isa.Insn.t =
  match get_u8 c with
  | 0 -> (
      let enc = get_str c in
      match Isa.Codec.decode enc 0 with
      | i, _ -> i
      | exception _ -> corrupt "undecodable instruction at byte %d" c.pos)
  | 1 -> (
      let s = get_str c in
      try (Marshal.from_string s 0 : Isa.Insn.t)
      with _ -> corrupt "unmarshalable instruction at byte %d" c.pos)
  | t -> corrupt "unknown instruction tag %d" t

(* ------------------------------------------------------------------ *)
(* Delta context                                                       *)
(* ------------------------------------------------------------------ *)

(* Exec frames are delta-coded against the previous exec frame; a
   fresh context (all zeros) is the state at every keyframe restart. *)
type dctx = {
  mutable prev_pc : int64;
  prev_regs : int64 array;
  prev_xmm : int64 array;  (* float bits *)
}

let fresh_dctx () =
  { prev_pc = 0L;
    prev_regs = Array.make Isa.Reg.count 0L;
    prev_xmm = Array.make Isa.Reg.xmm_count 0L }

let update_dctx d (e : Vm.Event.exec) =
  d.prev_pc <- e.pc;
  Array.blit e.regs_before 0 d.prev_regs 0 Isa.Reg.count;
  for i = 0 to Isa.Reg.xmm_count - 1 do
    d.prev_xmm.(i) <- Int64.bits_of_float e.xmm_before.(i)
  done

(* ------------------------------------------------------------------ *)
(* Event payloads                                                      *)
(* ------------------------------------------------------------------ *)

let tag_exec_full = 0
let tag_exec_delta = 1
let tag_sys = 2
let tag_signal = 3

let put_exec b d ~full (e : Vm.Event.exec) =
  Buffer.add_char b (Char.chr (if full then tag_exec_full else tag_exec_delta));
  put_uint b e.pid;
  put_uint b e.tid;
  if full then put_u64 b e.pc else put_s64 b (Int64.sub e.pc d.prev_pc);
  put_insn b e.insn;
  put_s64 b (Int64.sub e.next_pc e.pc);
  put_uint b e.flags_before;
  put_uint b (List.length e.ea);
  List.iter (fun a -> put_s64 b (Int64.sub a e.pc)) e.ea;
  put_uint b (List.length e.mem_reads);
  List.iter
    (fun (a, data) ->
       put_s64 b (Int64.sub a e.pc);
       put_str b data)
    e.mem_reads;
  if full then
    Array.iter (fun r -> put_u64 b r) e.regs_before
  else begin
    let mask = ref 0 in
    for i = 0 to Isa.Reg.count - 1 do
      if not (Int64.equal e.regs_before.(i) d.prev_regs.(i)) then
        mask := !mask lor (1 lsl i)
    done;
    put_uint b !mask;
    for i = 0 to Isa.Reg.count - 1 do
      if !mask land (1 lsl i) <> 0 then
        put_s64 b (Int64.sub e.regs_before.(i) d.prev_regs.(i))
    done
  end;
  if full then
    Array.iter (fun x -> put_fix64 b (Int64.bits_of_float x)) e.xmm_before
  else begin
    let mask = ref 0 in
    for i = 0 to Isa.Reg.xmm_count - 1 do
      if not (Int64.equal (Int64.bits_of_float e.xmm_before.(i)) d.prev_xmm.(i))
      then mask := !mask lor (1 lsl i)
    done;
    put_uint b !mask;
    for i = 0 to Isa.Reg.xmm_count - 1 do
      if !mask land (1 lsl i) <> 0 then
        put_fix64 b (Int64.bits_of_float e.xmm_before.(i))
    done
  end;
  update_dctx d e

let get_exec c d ~full : Vm.Event.exec =
  let pid = get_uint c in
  let tid = get_uint c in
  let pc = if full then get_u64 c else Int64.add d.prev_pc (get_s64 c) in
  let insn = get_insn c in
  let next_pc = Int64.add pc (get_s64 c) in
  let flags_before = get_uint c in
  let n_ea = get_uint c in
  let ea = List.init n_ea (fun _ -> Int64.add pc (get_s64 c)) in
  let n_mr = get_uint c in
  let mem_reads =
    List.init n_mr (fun _ ->
        let a = Int64.add pc (get_s64 c) in
        let data = get_str c in
        (a, data))
  in
  let regs_before =
    if full then Array.init Isa.Reg.count (fun _ -> get_u64 c)
    else begin
      let mask = get_uint c in
      Array.init Isa.Reg.count (fun i ->
          if mask land (1 lsl i) <> 0 then Int64.add d.prev_regs.(i) (get_s64 c)
          else d.prev_regs.(i))
    end
  in
  let xmm_before =
    if full then
      Array.init Isa.Reg.xmm_count (fun _ -> Int64.float_of_bits (get_fix64 c))
    else begin
      let mask = get_uint c in
      Array.init Isa.Reg.xmm_count (fun i ->
          if mask land (1 lsl i) <> 0 then Int64.float_of_bits (get_fix64 c)
          else Int64.float_of_bits d.prev_xmm.(i))
    end
  in
  let e : Vm.Event.exec =
    { pid; tid; pc; insn; next_pc; ea; mem_reads; regs_before; xmm_before;
      flags_before }
  in
  update_dctx d e;
  e

let put_effect b (eff : Vm.Event.sys_effect) =
  match eff with
  | Eff_read { obj; off; addr; len; data } ->
    Buffer.add_char b '\000';
    put_uint b obj; put_uint b off; put_u64 b addr; put_uint b len;
    put_str b data
  | Eff_write { obj; off; addr; len } ->
    Buffer.add_char b '\001';
    put_uint b obj; put_uint b off; put_u64 b addr; put_uint b len
  | Eff_spawn id ->
    Buffer.add_char b '\002';
    put_uint b id

let get_effect c : Vm.Event.sys_effect =
  match get_u8 c with
  | 0 ->
    let obj = get_uint c in
    let off = get_uint c in
    let addr = get_u64 c in
    let len = get_uint c in
    let data = get_str c in
    Eff_read { obj; off; addr; len; data }
  | 1 ->
    let obj = get_uint c in
    let off = get_uint c in
    let addr = get_u64 c in
    let len = get_uint c in
    Eff_write { obj; off; addr; len }
  | 2 -> Eff_spawn (get_uint c)
  | t -> corrupt "unknown effect tag %d" t

let put_sys b ~pid ~tid (r : Vm.Event.sys_record) =
  Buffer.add_char b (Char.chr tag_sys);
  put_uint b pid;
  put_uint b tid;
  put_s64 b r.nr;
  put_str b r.name;
  Array.iter (fun a -> put_s64 b a) r.args;
  put_s64 b r.ret;
  put_uint b (List.length r.effects);
  List.iter (put_effect b) r.effects

let get_sys c : Vm.Event.t =
  let pid = get_uint c in
  let tid = get_uint c in
  let nr = get_s64 c in
  let name = get_str c in
  let args = Array.init 6 (fun _ -> get_s64 c) in
  let ret = get_s64 c in
  let n = get_uint c in
  let effects = List.init n (fun _ -> get_effect c) in
  Sys { pid; tid; record = { nr; name; args; ret; effects } }

let put_signal b ~pid ~tid ~signum ~handler ~resume =
  Buffer.add_char b (Char.chr tag_signal);
  put_uint b pid;
  put_uint b tid;
  put_uint b signum;
  put_u64 b handler;
  put_u64 b resume

let get_signal c : Vm.Event.t =
  let pid = get_uint c in
  let tid = get_uint c in
  let signum = get_uint c in
  let handler = get_u64 c in
  let resume = get_u64 c in
  Signal { pid; tid; signum; handler; resume }

let decode_payload d (payload : string) : Vm.Event.t =
  let c = { src = payload; pos = 0 } in
  match get_u8 c with
  | t when t = tag_exec_full -> Exec (get_exec c d ~full:true)
  | t when t = tag_exec_delta -> Exec (get_exec c d ~full:false)
  | t when t = tag_sys -> get_sys c
  | t when t = tag_signal -> get_signal c
  | t -> corrupt "unknown frame tag %d" t

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let add_frame buf payload =
  put_uint buf (String.length payload);
  Buffer.add_string buf payload;
  put_fix64 buf (Robust.Journal.fnv64 payload)

(** Read the frame at [off]: payload plus the offset just past it.
    The per-frame checksum is always verified. *)
let read_frame (raw : string) ~limit off : string * int =
  if off >= limit then corrupt "frame offset %d past section end %d" off limit;
  let c = { src = raw; pos = off } in
  let len = get_uint c in
  if c.pos + len + 8 > limit then corrupt "torn frame at byte %d" off;
  let payload = get_raw c len in
  let sum = get_fix64 c in
  if not (Int64.equal sum (Robust.Journal.fnv64 payload)) then
    corrupt "frame checksum mismatch at byte %d" off;
  (payload, c.pos)

(* ------------------------------------------------------------------ *)
(* Meta and taint payloads                                             *)
(* ------------------------------------------------------------------ *)

type meta = {
  s_result : Vm.Machine.run_result;
  s_argv_layout : (int64 * int) list;
  s_truncated : bool;
}

let encode_meta (m : meta) =
  let b = Buffer.create 256 in
  let r = m.s_result in
  (match r.exit_code with
   | None -> Buffer.add_char b '\000'
   | Some c ->
     Buffer.add_char b '\001';
     put_sint b c);
  put_str b r.stdout;
  put_str b r.stderr;
  put_uint b r.steps;
  (match r.fault with
   | None -> Buffer.add_char b '\000'
   | Some Vm.Machine.Div_by_zero -> Buffer.add_char b '\001'
   | Some (Vm.Machine.Bad_decode msg) ->
     Buffer.add_char b '\002';
     put_str b msg);
  Buffer.add_char b (if r.fuel_exhausted then '\001' else '\000');
  Buffer.add_char b (if r.deadlocked then '\001' else '\000');
  put_uint b (List.length m.s_argv_layout);
  List.iter
    (fun (addr, len) ->
       put_u64 b addr;
       put_uint b len)
    m.s_argv_layout;
  Buffer.add_char b (if m.s_truncated then '\001' else '\000');
  Buffer.contents b

let decode_meta (payload : string) : meta =
  let c = { src = payload; pos = 0 } in
  let exit_code =
    match get_u8 c with
    | 0 -> None
    | 1 -> Some (get_sint c)
    | t -> corrupt "meta exit tag %d" t
  in
  let stdout = get_str c in
  let stderr = get_str c in
  let steps = get_uint c in
  let fault =
    match get_u8 c with
    | 0 -> None
    | 1 -> Some Vm.Machine.Div_by_zero
    | 2 -> Some (Vm.Machine.Bad_decode (get_str c))
    | t -> corrupt "meta fault tag %d" t
  in
  let fuel_exhausted = get_u8 c <> 0 in
  let deadlocked = get_u8 c <> 0 in
  let n = get_uint c in
  let s_argv_layout =
    List.init n (fun _ ->
        let addr = get_u64 c in
        let len = get_uint c in
        (addr, len))
  in
  let s_truncated = get_u8 c <> 0 in
  { s_result =
      { exit_code; stdout; stderr; steps; fault; fuel_exhausted; deadlocked };
    s_argv_layout;
    s_truncated }

(** Post-hoc taint summary, appended once an analysis has run so later
    sessions (and [run-to taint] in the debugger) can seek the first
    tainted event without re-analyzing. *)
type taint_hint = {
  th_first : int;                 (** seq of first tainted exec; -1 = none *)
  th_tainted : int array;         (** seqs of tainted exec events, sorted *)
  th_branches : (int * bool) array;  (** (seq, direction) of tainted Jcc *)
}

let put_deltas b (seqs : int array) =
  put_uint b (Array.length seqs);
  let prev = ref 0 in
  Array.iter
    (fun s ->
       put_uint b (s - !prev);
       prev := s)
    seqs

let get_deltas c : int array =
  let n = get_uint c in
  let prev = ref 0 in
  Array.init n (fun _ ->
      let s = !prev + get_uint c in
      prev := s;
      s)

let encode_taint (h : taint_hint) =
  let b = Buffer.create 128 in
  put_sint b h.th_first;
  put_deltas b h.th_tainted;
  put_uint b (Array.length h.th_branches);
  let prev = ref 0 in
  Array.iter
    (fun (s, taken) ->
       put_uint b (s - !prev);
       prev := s;
       Buffer.add_char b (if taken then '\001' else '\000'))
    h.th_branches;
  Buffer.contents b

let decode_taint (payload : string) : taint_hint =
  let c = { src = payload; pos = 0 } in
  let th_first = get_sint c in
  let th_tainted = get_deltas c in
  let n = get_uint c in
  let prev = ref 0 in
  let th_branches =
    Array.init n (fun _ ->
        let s = !prev + get_uint c in
        prev := s;
        let taken = get_u8 c <> 0 in
        (s, taken))
  in
  { th_first; th_tainted; th_branches }

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  w_buf : Buffer.t;
  w_path : string;
  w_scratch : Buffer.t;
  w_dctx : dctx;
  mutable w_events : int;
  mutable w_execs_since_key : int;   (* 0 = next exec is a keyframe *)
  mutable w_samples : (int * int) list;      (* (seq, offset), newest first *)
  w_pc_post : (int64, int list ref) Hashtbl.t;
  w_sys_post : (string, int list ref) Hashtbl.t;
  w_tid_post : (int, int list ref) Hashtbl.t;
}

let create_writer ~fingerprint ~path : writer =
  let w_buf = Buffer.create 65536 in
  Buffer.add_string w_buf magic;
  let hdr = Buffer.create 32 in
  put_str hdr fingerprint;
  Buffer.add_buffer w_buf hdr;
  { w_buf; w_path = path;
    w_scratch = Buffer.create 512;
    w_dctx = fresh_dctx ();
    w_events = 0;
    w_execs_since_key = 0;
    w_samples = [];
    w_pc_post = Hashtbl.create 256;
    w_sys_post = Hashtbl.create 16;
    w_tid_post = Hashtbl.create 4 }

let posting tbl key seq =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := seq :: !l
  | None -> Hashtbl.replace tbl key (ref [ seq ])

let add_event w (ev : Vm.Event.t) =
  (* cooperative budget poll, amortized over the write stream *)
  if w.w_events land 0xFFF = 0 then Robust.Meter.checkpoint_ambient ();
  let seq = w.w_events in
  (match ev with
   | Exec e ->
     let full = w.w_execs_since_key = 0 in
     if full then w.w_samples <- (seq, Buffer.length w.w_buf) :: w.w_samples;
     w.w_execs_since_key <-
       (w.w_execs_since_key + 1) mod keyframe_interval;
     put_exec w.w_scratch w.w_dctx ~full e;
     posting w.w_pc_post e.pc seq;
     posting w.w_tid_post e.tid seq
   | Sys { pid; tid; record } ->
     put_sys w.w_scratch ~pid ~tid record;
     posting w.w_sys_post record.name seq
   | Signal { pid; tid; signum; handler; resume } ->
     put_signal w.w_scratch ~pid ~tid ~signum ~handler ~resume);
  add_frame w.w_buf (Buffer.contents w.w_scratch);
  Buffer.clear w.w_scratch;
  w.w_events <- seq + 1

let encode_index w =
  let b = Buffer.create 1024 in
  put_uint b w.w_events;
  let samples = Array.of_list (List.rev w.w_samples) in
  put_uint b (Array.length samples);
  let pk = ref 0 and pv = ref 0 in
  Array.iter
    (fun (k, v) ->
       put_uint b (k - !pk);
       put_uint b (v - !pv);
       pk := k;
       pv := v)
    samples;
  let sorted_postings tbl cmp =
    Hashtbl.fold (fun k l acc -> (k, Array.of_list (List.rev !l)) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> cmp a b)
  in
  let pcs = sorted_postings w.w_pc_post Int64.compare in
  put_uint b (List.length pcs);
  let prev = ref 0L in
  List.iter
    (fun (pc, seqs) ->
       put_u64 b (Int64.sub pc !prev);
       prev := pc;
       put_deltas b seqs)
    pcs;
  let syss = sorted_postings w.w_sys_post String.compare in
  put_uint b (List.length syss);
  List.iter
    (fun (name, seqs) ->
       put_str b name;
       put_deltas b seqs)
    syss;
  let tids = sorted_postings w.w_tid_post compare in
  put_uint b (List.length tids);
  List.iter
    (fun (tid, seqs) ->
       put_uint b tid;
       put_deltas b seqs)
    tids;
  Buffer.contents b

let add_trailer buf ~meta_off ~index_off ~taint_off =
  let fixed = Buffer.create 24 in
  put_fix64 fixed (Int64.of_int meta_off);
  put_fix64 fixed (Int64.of_int index_off);
  put_fix64 fixed (Int64.of_int taint_off);
  let fixed = Buffer.contents fixed in
  Buffer.add_string buf fixed;
  put_fix64 buf (Robust.Journal.fnv64 fixed);
  Buffer.add_string buf trailer_magic

let write_atomically path contents =
  Robust.Diskio.write_atomic ~path contents

(** Seal the store: meta + index + trailer, then an atomic
    tmp-and-rename write so a crash can never leave a torn file under
    the final name. *)
let finish w (m : meta) =
  let meta_off = Buffer.length w.w_buf in
  add_frame w.w_buf (encode_meta m);
  let index_off = Buffer.length w.w_buf in
  add_frame w.w_buf (encode_index w);
  add_trailer w.w_buf ~meta_off ~index_off ~taint_off:0;
  let contents = Buffer.contents w.w_buf in
  write_atomically w.w_path contents;
  Telemetry.Metrics.incr m_written;
  Telemetry.Metrics.add m_bytes (String.length contents);
  Telemetry.Metrics.add m_frames (w.w_events + 2)

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = {
  raw : string;
  r_fingerprint : string;
  frames_off : int;
  frames_end : int;                     (* = meta_off *)
  r_meta : meta;
  r_events : int;
  samples : (int * int) array;          (* (seq, offset), ascending *)
  pc_post : (int64, int array) Hashtbl.t;
  sys_post : (string, int array) Hashtbl.t;
  tid_post : (int, int array) Hashtbl.t;
}

let decode_index (payload : string) =
  let c = { src = payload; pos = 0 } in
  let events = get_uint c in
  let n = get_uint c in
  let pk = ref 0 and pv = ref 0 in
  let samples =
    Array.init n (fun _ ->
        let k = !pk + get_uint c in
        let v = !pv + get_uint c in
        pk := k;
        pv := v;
        (k, v))
  in
  let n_pc = get_uint c in
  let pc_post = Hashtbl.create (max 16 n_pc) in
  let prev = ref 0L in
  for _ = 1 to n_pc do
    let pc = Int64.add !prev (get_u64 c) in
    prev := pc;
    Hashtbl.replace pc_post pc (get_deltas c)
  done;
  let n_sys = get_uint c in
  let sys_post = Hashtbl.create (max 4 n_sys) in
  for _ = 1 to n_sys do
    let name = get_str c in
    Hashtbl.replace sys_post name (get_deltas c)
  done;
  let n_tid = get_uint c in
  let tid_post = Hashtbl.create (max 4 n_tid) in
  for _ = 1 to n_tid do
    let tid = get_uint c in
    Hashtbl.replace tid_post tid (get_deltas c)
  done;
  (events, samples, pc_post, sys_post, tid_post)

let read_file path = Robust.Diskio.read_all path

(** Open and validate a store.  All structural metadata (trailer,
    meta, index) is checked now, and every frame's checksum is
    verified in one pass, so a reader that opens successfully cannot
    later trip over a torn or bit-flipped region. *)
let open_file path : reader =
  let raw = try read_file path with Sys_error m -> corrupt "unreadable: %s" m in
  let len = String.length raw in
  if len < String.length magic + trailer_size then corrupt "file too short";
  if not (String.sub raw 0 (String.length magic) = magic) then
    if is_store_header raw then
      corrupt "trace store format v%d, this build reads v%d; run \
               `eval fsck --repair` to quarantine it"
        (Char.code raw.[String.length magic_prefix]) format_version
    else corrupt "bad magic";
  let hdr = { src = raw; pos = String.length magic } in
  let r_fingerprint = get_str hdr in
  let frames_off = hdr.pos in
  (* trailer *)
  let toff = len - trailer_size in
  if String.sub raw (len - 8) 8 <> trailer_magic then
    corrupt "bad trailer magic";
  let fixed = String.sub raw toff 24 in
  let tc = { src = raw; pos = toff } in
  let meta_off = Int64.to_int (get_fix64 tc) in
  let index_off = Int64.to_int (get_fix64 tc) in
  let taint_off = Int64.to_int (get_fix64 tc) in
  let sum = get_fix64 tc in
  if not (Int64.equal sum (Robust.Journal.fnv64 fixed)) then
    corrupt "trailer checksum mismatch";
  if meta_off < frames_off || meta_off >= len then corrupt "meta offset";
  if index_off <= meta_off || index_off >= len then corrupt "index offset";
  if taint_off <> 0 && (taint_off <= index_off || taint_off >= len) then
    corrupt "taint offset";
  let meta_payload, _ = read_frame raw ~limit:index_off meta_off in
  let r_meta = decode_meta meta_payload in
  let index_end = if taint_off <> 0 then taint_off else toff in
  let index_payload, _ = read_frame raw ~limit:index_end index_off in
  let r_events, samples, pc_post, sys_post, tid_post =
    decode_index index_payload
  in
  (* verify every event frame checksum *)
  let off = ref frames_off in
  let n_ev = ref 0 in
  while !off < meta_off do
    let payload, next = read_frame raw ~limit:meta_off !off in
    if String.length payload = 0 then corrupt "empty frame at %d" !off;
    incr n_ev;
    off := next
  done;
  if !n_ev <> r_events then
    corrupt "event count mismatch: %d frames, index says %d" !n_ev r_events;
  Telemetry.Metrics.incr m_opened;
  { raw; r_fingerprint; frames_off; frames_end = meta_off; r_meta; r_events;
    samples; pc_post; sys_post; tid_post }

let fingerprint r = r.r_fingerprint
let event_count r = r.r_events
let meta r = r.r_meta

let taint_of_reader_path raw len =
  (* decode the taint section if the trailer points at one *)
  let toff = len - trailer_size in
  let tc = { src = raw; pos = toff + 16 } in
  let taint_off = Int64.to_int (get_fix64 tc) in
  if taint_off = 0 then None
  else
    let payload, _ = read_frame raw ~limit:toff taint_off in
    Some (decode_taint payload)

let taint r = taint_of_reader_path r.raw (String.length r.raw)

(** Rewrite [path] with the taint hint appended: the old trailer is
    replaced by a taint frame plus a fresh trailer.  Atomic like
    {!finish}. *)
let save_taint ~path (h : taint_hint) =
  let raw = read_file path in
  let len = String.length raw in
  if len < trailer_size || String.sub raw (len - 8) 8 <> trailer_magic then
    corrupt "refusing taint append: no valid trailer";
  let toff = len - trailer_size in
  let tc = { src = raw; pos = toff } in
  let meta_off = Int64.to_int (get_fix64 tc) in
  let index_off = Int64.to_int (get_fix64 tc) in
  let old_taint = Int64.to_int (get_fix64 tc) in
  (* drop an existing taint section along with the trailer *)
  let keep = if old_taint <> 0 then old_taint else toff in
  let b = Buffer.create (keep + 256) in
  Buffer.add_substring b raw 0 keep;
  let taint_off = Buffer.length b in
  add_frame b (encode_taint h);
  add_trailer b ~meta_off ~index_off ~taint_off;
  write_atomically path (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Sequential cursor over a reader                                     *)
(* ------------------------------------------------------------------ *)

type rcursor = {
  rd : reader;
  mutable c_seq : int;    (* seq of the next event the cursor returns *)
  mutable c_off : int;
  c_dctx : dctx;
}

let cursor_start rd =
  { rd; c_seq = 0; c_off = rd.frames_off; c_dctx = fresh_dctx () }

let rcursor_seq c = c.c_seq

(** Next event, or [None] past the last one. *)
let read_next (c : rcursor) : Vm.Event.t option =
  if c.c_off >= c.rd.frames_end then None
  else begin
    let payload, next = read_frame c.rd.raw ~limit:c.rd.frames_end c.c_off in
    c.c_off <- next;
    c.c_seq <- c.c_seq + 1;
    Some (decode_payload c.c_dctx payload)
  end

(** Cursor positioned at event [target], restarted from the nearest
    keyframe sample at or before it. *)
let cursor_at rd target : rcursor =
  if target < 0 || target > rd.r_events then
    invalid_arg (Printf.sprintf "Store.cursor_at %d (of %d)" target rd.r_events);
  (* greatest sample with seq <= target; fall back to the stream head *)
  let best = ref (0, rd.frames_off) in
  Array.iter
    (fun (s, o) -> if s <= target && s >= fst !best then best := (s, o))
    rd.samples;
  let seq0, off0 = !best in
  let c = { rd; c_seq = seq0; c_off = off0; c_dctx = fresh_dctx () } in
  while c.c_seq < target do
    match read_next c with
    | Some _ -> ()
    | None -> corrupt "seek to %d ran off the stream at %d" target c.c_seq
  done;
  c

let pc_seqs rd pc =
  match Hashtbl.find_opt rd.pc_post pc with Some a -> a | None -> [||]

let sys_seqs rd name =
  match Hashtbl.find_opt rd.sys_post name with Some a -> a | None -> [||]

let tid_seqs rd tid =
  match Hashtbl.find_opt rd.tid_post tid with Some a -> a | None -> [||]

(* tid postings cover exactly the exec events, so their total size is
   the exec count — no stream scan needed *)
let exec_count rd =
  Hashtbl.fold (fun _ seqs acc -> acc + Array.length seqs) rd.tid_post 0
