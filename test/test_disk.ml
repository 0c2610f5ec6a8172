(** Storage-failure hardening: {!Robust.Diskio} primitives, a real
    full device under a journaled grid (shed and finish), and
    {!Engines.Fsck} verify/repair + resume over damage inflicted on
    finished artifacts from the test side.

    A full device is [/dev/full], reached only through a symlink in
    the test's own directory: the code under test may rename over or
    remove that symlink, never the device, and nothing here reads it
    with a line reader. *)

let tools = [ Engines.Profile.Bap; Engines.Profile.Triton ]
let bombs = lazy (List.map Bombs.Catalog.find [ "time_bomb"; "argvlen_bomb" ])
let rm p = try Sys.remove p with Sys_error _ -> ()

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [path] becomes a symlink to the full device *)
let to_dev_full path =
  rm path;
  Unix.symlink "/dev/full" path

let run_grid ?workers ?journal ?profile () =
  Engines.Eval.render_table2
    (Engines.Eval.run_table2 ~tools ~bombs:(Lazy.force bombs) ?workers
       ?journal ?profile ())

(* fault-free ground truth: the grid's table and its journal bytes *)
let baseline = lazy (run_grid ())

let baseline_journal =
  lazy
    (let path = "disk_test_base.jsonl" in
     rm path;
     ignore (run_grid ~journal:path () : string);
     let bytes = Robust.Diskio.read_all path in
     rm path;
     bytes)

let shed () = Telemetry.Metrics.counter_value "journal.shed"

(* fsck --repair over [paths], then a clean verify of [path] and a
   resume off it: the table and the journal bytes must both be the
   fault-free run's *)
let repair_and_resume ~what path paths =
  ignore (Engines.Fsck.scan ~repair:true paths : Engines.Fsck.report list);
  Alcotest.(check int) (what ^ ": repaired journal verifies clean") 0
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ path ]));
  Alcotest.(check string) (what ^ ": resumed table")
    (Lazy.force baseline)
    (run_grid ~journal:path ());
  Alcotest.(check string) (what ^ ": resumed journal bytes")
    (Lazy.force baseline_journal)
    (Robust.Diskio.read_all path)

(* ---------------- diskio primitives ---------------- *)

let diskio_roundtrip () =
  let path = "disk_test_rt.dat" in
  rm path;
  Robust.Diskio.write_atomic ~path "hello\nworld\n";
  Alcotest.(check string) "contents" "hello\nworld\n"
    (Robust.Diskio.read_all path);
  let h = Robust.Diskio.open_append path in
  Robust.Diskio.append h "more\n";
  (* bytes that end mid-record are healed over by the next append *)
  Robust.Diskio.append h "tor";
  Robust.Diskio.append h "next\n";
  Robust.Diskio.close h;
  Alcotest.(check string) "appended" "hello\nworld\nmore\ntor\nnext\n"
    (Robust.Diskio.read_all path);
  (* a torn tail found on open is healed by the first append *)
  Robust.Diskio.write_atomic ~path "crashed mid-rec";
  let h = Robust.Diskio.open_append path in
  Robust.Diskio.append h "after\n";
  Robust.Diskio.close h;
  Alcotest.(check string) "healed on open" "crashed mid-rec\nafter\n"
    (Robust.Diskio.read_all path);
  rm path

(* a real ENOSPC is the typed Full, from an append and from an atomic
   publish, and leaves nothing half done *)
let diskio_full_device () =
  let path = "disk_test_dev_full.dat" in
  to_dev_full path;
  let h = Robust.Diskio.open_append path in
  (match Robust.Diskio.append h "record\n" with
   | () -> Alcotest.fail "an append to a full device must fail"
   | exception Robust.Diskio.Full _ -> ());
  Robust.Diskio.close h;
  rm path;
  Robust.Diskio.write_atomic ~path "first\n";
  to_dev_full (path ^ ".tmp");
  (match Robust.Diskio.write_atomic ~path "second\n" with
   | () -> Alcotest.fail "a publish through a full device must fail"
   | exception Robust.Diskio.Full _ -> ());
  Alcotest.(check string) "published target untouched" "first\n"
    (Robust.Diskio.read_all path);
  Alcotest.(check bool) "the refused tmp is removed" false
    (Sys.file_exists (path ^ ".tmp"));
  rm path

(* a publish onto a FIFO reaches its reader, and the FIFO stays a
   FIFO: a tmp+rename over it would leave a regular file in its place
   and the reader with nothing *)
let diskio_fifo_target () =
  let dir = Filename.temp_dir "disk_test_fifo" "" in
  let path = Filename.concat dir "fifo" in
  Unix.mkfifo path 0o600;
  (* the read end first, non-blocking, so opening the write end does
     not wait for a reader *)
  let rd = Unix.openfile path [ O_RDONLY; O_NONBLOCK ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      rm path;
      rm (path ^ ".tmp");
      Sys.rmdir dir)
    (fun () ->
       Robust.Diskio.write_atomic ~path "through the fifo\n";
       Alcotest.(check bool) "still a FIFO" true
         ((Unix.stat path).st_kind = S_FIFO);
       let buf = Bytes.create 64 in
       let n =
         try Unix.read rd buf 0 64
         with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> 0
       in
       Alcotest.(check string) "the reader got the bytes"
         "through the fifo\n" (Bytes.sub_string buf 0 n))

(* ---------------- a real full device ----------------
   The profile sidecar is a symlink to /dev/full: every sample append
   meets a real ENOSPC.  The sidecar drops its samples and the grid
   finishes with the fault-free table, at 1 and 2 workers. *)

let sidecar_enospc () =
  let sidecar = "disk_test_full_profile.jsonl" in
  List.iter
    (fun workers ->
       to_dev_full sidecar;
       Alcotest.(check string)
         (Printf.sprintf "%d worker(s): a full --profile sidecar drops its \
                          samples" workers)
         (Lazy.force baseline)
         (run_grid ~workers ~profile:sidecar ()))
    [ 1; 2 ];
  rm sidecar

(* ---------------- damage to a finished journal ----------------
   What a short write, a lying fsync or bit rot leaves behind, made
   by hand on a finished journal: fsck --repair and a resume must
   rebuild the fault-free table and journal byte for byte. *)

let finished_journal path =
  rm path;
  rm (path ^ ".tmp");
  ignore (run_grid ~journal:path () : string);
  Robust.Diskio.read_all path

(* the byte range [start, stop) of record [i] (0-based), newline
   excluded *)
let record_span raw i =
  let rec start k pos =
    if k = 0 then pos else start (k - 1) (String.index_from raw pos '\n' + 1)
  in
  let s = start i 0 in
  (s, String.index_from raw s '\n')

let damage_containment damage () =
  let path = "disk_test_damage.jsonl" in
  let raw = finished_journal path in
  write_file path (damage raw (record_span raw 1));
  repair_and_resume ~what:"damaged" path [ path ]

(* a prefix of the second record landed, then the device was full *)
let short_write =
  damage_containment (fun raw (s, e) -> String.sub raw 0 ((s + e) / 2))

(* the second record's tail was claimed durable and lost; the next
   append healed over it *)
let torn_fsync =
  damage_containment (fun raw (s, e) ->
      let cut = (s + e) / 2 in
      String.sub raw 0 cut ^ String.sub raw e (String.length raw - e))

let flip raw i =
  let b = Bytes.of_string raw in
  Bytes.set b i (Char.chr (Char.code raw.[i] lxor 0x10));
  Bytes.to_string b

(* one byte of the second record flipped silently *)
let bit_flip = damage_containment (fun raw (s, e) -> flip raw ((s + e) / 2))

(* rename(2) onto a non-empty directory fails: the target is
   untouched, only a stale tmp stays behind, and fsck --repair clears
   it *)
let failed_rename () =
  let path = "disk_test_rename.dir" in
  let inner = Filename.concat path "keep" in
  rm inner;
  (try Sys.rmdir path with Sys_error _ -> ());
  rm (path ^ ".tmp");
  Sys.mkdir path 0o755;
  close_out (open_out_bin inner);
  (match Robust.Diskio.write_atomic ~path "second\n" with
   | () -> Alcotest.fail "rename onto a non-empty directory must fail"
   | exception Sys_error _ -> ());
  Alcotest.(check bool) "target untouched" true
    (Sys.is_directory path && Sys.file_exists inner);
  Alcotest.(check bool) "tmp left behind" true
    (Sys.file_exists (path ^ ".tmp"));
  let reports = Engines.Fsck.scan ~repair:true [ path ^ ".tmp" ] in
  Alcotest.(check int) "stale tmp repaired" 1
    (Engines.Fsck.exit_code ~repair:true reports);
  Alcotest.(check bool) "tmp removed" false
    (Sys.file_exists (path ^ ".tmp"));
  rm inner;
  Sys.rmdir path

(* 30 seeds, each 1-3 damages to a finished 4-cell journal: a byte
   flipped anywhere, a truncation at any offset, or a stale tmp *)
let seeded_damage () =
  let path = "disk_test_seeded.jsonl" in
  let tmp = path ^ ".tmp" in
  let raw = finished_journal path in
  for seed = 1 to 30 do
    let rng = Random.State.make [| seed |] in
    let damaged = ref raw in
    for _ = 1 to 1 + Random.State.int rng 3 do
      let len = String.length !damaged in
      match Random.State.int rng 3 with
      | 0 when len > 0 -> damaged := flip !damaged (Random.State.int rng len)
      | 0 | 1 ->
          damaged := String.sub !damaged 0 (Random.State.int rng (len + 1))
      | _ -> write_file tmp "stale"
    done;
    write_file path !damaged;
    repair_and_resume
      ~what:(Printf.sprintf "seed %d" seed)
      path
      (if Sys.file_exists tmp then [ path; tmp ] else [ path ]);
    Alcotest.(check bool) "no tmp left" false (Sys.file_exists tmp)
  done;
  rm path

(* ---------------- fsck round-trips on damaged fixtures ------------- *)

let fsck_journal_roundtrip () =
  let path = "disk_test_fsck.jsonl" in
  rm path;
  let fp = "testfp" in
  let w = Robust.Journal.open_writer ~fingerprint:fp path in
  Robust.Journal.append w ~key:"a" ~payload:{|{"grade":1}|};
  Robust.Journal.append w ~key:"b" ~payload:{|{"grade":2}|};
  Robust.Journal.close_writer w;
  let clean = Robust.Diskio.read_all path in
  (* damage: a corrupt middle record plus a torn tail *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "deadbeefdeadbeef {\"garbage\":true}\n";
  output_string oc "0123456789abcdef {\"fp\":\"x\",\"se";
  close_out oc;
  Alcotest.(check int) "verify flags damage (exit 2)" 2
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ path ]));
  Alcotest.(check int) "repair fixes it (exit 1)" 1
    (Engines.Fsck.exit_code ~repair:true
       (Engines.Fsck.scan ~repair:true [ path ]));
  Alcotest.(check string) "repaired bytes = pre-damage bytes" clean
    (Robust.Diskio.read_all path);
  Alcotest.(check int) "re-verify clean (exit 0)" 0
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ path ]));
  let l = Robust.Journal.load ~fingerprint:fp path in
  Alcotest.(check int) "loader sees both records" 2
    (List.length l.Robust.Journal.entries);
  Alcotest.(check int) "no damage left for the loader" 0
    (l.Robust.Journal.corrupt + l.Robust.Journal.truncated);
  rm path

(* repairing a journal publishes through its tmp path: a stale tmp
   named after the journal must still be reported removed, not missing *)
let fsck_tmp_beside_journal () =
  let path = "disk_test_fsck_tmp.jsonl" in
  rm path;
  let w = Robust.Journal.open_writer ~fingerprint:"fp" path in
  Robust.Journal.append w ~key:"a" ~payload:"{}";
  Robust.Journal.close_writer w;
  (* a torn tail: half a record, no newline *)
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path
    (fun oc -> output_string oc "0123456789abcdef {\"fp\":\"fp\",\"se");
  close_out (open_out (path ^ ".tmp"));
  Alcotest.(check int) "both repaired (exit 1)" 1
    (Engines.Fsck.exit_code ~repair:true
       (Engines.Fsck.scan ~repair:true [ path; path ^ ".tmp" ]));
  Alcotest.(check bool) "tmp gone" false (Sys.file_exists (path ^ ".tmp"));
  rm path

(* a real --profile sidecar: each line is a ~360-byte sample, so the
   format must be told from the whole first line; a bit-flipped copy
   must then verify damaged and repair *)
let fsck_profile_sidecar () =
  let path = "disk_test_profile.jsonl" and copy = "disk_test_profile2.jsonl" in
  rm path;
  rm copy;
  ignore
    (Engines.Eval.run_table2 ~tools:[ Engines.Profile.Bap ]
       ~bombs:(Lazy.force bombs) ~profile:path ()
      : Engines.Eval.table2_result);
  (match Engines.Fsck.scan [ path ] with
   | [ r ] ->
     Alcotest.(check string) "read as a profile sidecar" "profile sidecar"
       (Engines.Fsck.kind_name r.Engines.Fsck.r_kind);
     Alcotest.(check int) "one sample per cell" 2 r.Engines.Fsck.r_records;
     Alcotest.(check int) "clean (exit 0)" 0
       (Engines.Fsck.exit_code ~repair:false [ r ])
   | reports ->
     Alcotest.failf "expected one report, got %d" (List.length reports));
  (* flip the low bit of the second sample's closing brace *)
  let raw = Robust.Diskio.read_all path in
  let flipped = Bytes.of_string raw in
  let i = String.length raw - 2 in
  Bytes.set flipped i (Char.chr (Char.code raw.[i] lxor 1));
  Robust.Diskio.write_atomic ~path:copy (Bytes.to_string flipped);
  Alcotest.(check int) "bit flip verifies damaged (exit 2)" 2
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ copy ]));
  Alcotest.(check int) "repair fixes it (exit 1)" 1
    (Engines.Fsck.exit_code ~repair:true
       (Engines.Fsck.scan ~repair:true [ copy ]));
  Alcotest.(check int) "re-verify clean (exit 0)" 0
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ copy ]));
  rm path;
  rm copy

(* damage to the first sample must not hide the file: the format is
   told from the first sound line, so the flipped line is reported and
   repaired away *)
let fsck_profile_first_byte () =
  let path = "disk_test_profile_b0.jsonl" in
  rm path;
  ignore
    (Engines.Eval.run_table2 ~tools:[ Engines.Profile.Bap ]
       ~bombs:(Lazy.force bombs) ~profile:path ()
      : Engines.Eval.table2_result);
  let raw = Bytes.of_string (Robust.Diskio.read_all path) in
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 1));
  Robust.Diskio.write_atomic ~path (Bytes.to_string raw);
  (match Engines.Fsck.scan [ path ] with
   | [ r ] ->
     Alcotest.(check string) "still read as a profile sidecar"
       "profile sidecar"
       (Engines.Fsck.kind_name r.Engines.Fsck.r_kind);
     Alcotest.(check int) "the second sample is sound" 1
       r.Engines.Fsck.r_records;
     Alcotest.(check int) "the first is damaged" 1 r.Engines.Fsck.r_damaged
   | reports ->
     Alcotest.failf "expected one report, got %d" (List.length reports));
  Alcotest.(check int) "verify flags damage (exit 2)" 2
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ path ]));
  Alcotest.(check int) "repair fixes it (exit 1)" 1
    (Engines.Fsck.exit_code ~repair:true
       (Engines.Fsck.scan ~repair:true [ path ]));
  Alcotest.(check int) "re-verify clean (exit 0)" 0
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ path ]));
  rm path

(* the same damage to a one-record journal: no line is sound and the
   checksum prefix no longer looks like one, so the record body tells
   the format; verify, repair and a resume then agree *)
let fsck_journal_first_byte () =
  let path = "disk_test_journal_b0.jsonl" in
  rm path;
  let grid () =
    Engines.Eval.render_table2
      (Engines.Eval.run_table2 ~tools:[ Engines.Profile.Bap ]
         ~bombs:[ Bombs.Catalog.find "time_bomb" ] ~journal:path
         ())
  in
  let table = grid () in
  let raw = Bytes.of_string (Robust.Diskio.read_all path) in
  Bytes.set raw 0 'z';
  Robust.Diskio.write_atomic ~path (Bytes.to_string raw);
  (match Engines.Fsck.scan [ path ] with
   | [ r ] ->
     Alcotest.(check string) "still read as a journal" "journal"
       (Engines.Fsck.kind_name r.Engines.Fsck.r_kind);
     Alcotest.(check int) "no sound record" 0 r.Engines.Fsck.r_records;
     Alcotest.(check int) "one corrupt" 1 r.Engines.Fsck.r_damaged
   | reports ->
     Alcotest.failf "expected one report, got %d" (List.length reports));
  Alcotest.(check int) "verify flags damage (exit 2)" 2
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ path ]));
  Alcotest.(check int) "repair fixes it (exit 1)" 1
    (Engines.Fsck.exit_code ~repair:true
       (Engines.Fsck.scan ~repair:true [ path ]));
  (* `eval table2 --journal` refuses a nonempty journal with no sound
     record; the repaired one is empty, so it runs *)
  Alcotest.(check string) "repaired journal is empty" ""
    (Robust.Diskio.read_all path);
  Alcotest.(check string) "resumed table" table (grid ());
  rm path

(* a repair that meets a full device reports the file unrepairable
   (exit 2) instead of raising, and leaves the damage for a retry *)
let fsck_repair_on_full_device () =
  let path = "disk_test_fsck_full.jsonl" in
  let raw = finished_journal path in
  let damaged = flip raw 0 ^ "torn" in
  write_file path damaged;
  to_dev_full (path ^ ".tmp");
  Alcotest.(check int) "unrepairable (exit 2)" 2
    (Engines.Fsck.exit_code ~repair:true
       (Engines.Fsck.scan ~repair:true [ path ]));
  Alcotest.(check string) "journal untouched" damaged
    (Robust.Diskio.read_all path);
  rm (path ^ ".tmp");
  rm path

(* ---------------- ENOSPC mid-grid: shed and finish ----------------
   The journal is a symlink to /dev/full: the first append, after the
   first cell finishes, meets a real ENOSPC.  The grid must finish
   with the fault-free table, shedding its journal writes, at 1 and 2
   workers; a resume onto a real file must then rebuild table and
   journal. *)

let enospc_shed_and_finish () =
  let path = "disk_test_full.jsonl" in
  List.iter
    (fun workers ->
       let what = Printf.sprintf "%d worker(s)" workers in
       rm (path ^ ".tmp");
       to_dev_full path;
       let shed0 = shed () in
       Alcotest.(check string) (what ^ ": grid finishes, same table")
         (Lazy.force baseline)
         (run_grid ~workers ~journal:path ());
       Alcotest.(check bool) (what ^ ": journal.shed counts the shed") true
         (shed () > shed0);
       (* space comes back: the journal is an empty file *)
       rm path;
       close_out (open_out_bin path);
       Alcotest.(check string) (what ^ ": resumed table")
         (Lazy.force baseline)
         (run_grid ~workers ~journal:path ());
       Alcotest.(check string) (what ^ ": resumed journal bytes")
         (Lazy.force baseline_journal)
         (Robust.Diskio.read_all path))
    [ 1; 2 ];
  rm path

let () =
  Alcotest.run "disk"
    [ ("diskio",
       [ Alcotest.test_case "atomic write + append round trip" `Quick
           diskio_roundtrip;
         Alcotest.test_case "full device raises Full" `Quick
           diskio_full_device;
         Alcotest.test_case "FIFO target written in place" `Quick
           diskio_fifo_target ]);
      ("containment",
       [ Alcotest.test_case "enospc" `Quick sidecar_enospc;
         Alcotest.test_case "short write" `Quick short_write;
         Alcotest.test_case "bit flip" `Quick bit_flip;
         Alcotest.test_case "torn fsync" `Quick torn_fsync;
         Alcotest.test_case "failed rename" `Quick failed_rename;
         Alcotest.test_case "30 seeded damage plans" `Quick seeded_damage ]);
      ("fsck",
       [ Alcotest.test_case "journal verify/repair round trip" `Quick
           fsck_journal_roundtrip;
         Alcotest.test_case "profile sidecar verify/repair" `Quick
           fsck_profile_sidecar;
         Alcotest.test_case "profile sidecar with a flipped first byte"
           `Quick fsck_profile_first_byte;
         Alcotest.test_case "journal with a flipped first byte" `Quick
           fsck_journal_first_byte;
         Alcotest.test_case "stale tmp beside its journal" `Quick
           fsck_tmp_beside_journal;
         Alcotest.test_case "repair on a full device" `Quick
           fsck_repair_on_full_device ]);
      ("enospc",
       [ Alcotest.test_case "shed and finish mid-grid" `Quick
           enospc_shed_and_finish ]) ]
