(** Storage-failure hardening: {!Robust.Diskio} primitives, a real
    full device under a journaled grid (shed and finish), and a plain
    resume over damage inflicted on finished artifacts from the test
    side: the loaders skip and count what is damaged, and the resumed
    run rewrites the journal from its sound records.

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

(* a resume off the damaged journal at [path]: the table and the
   journal bytes must both be the fault-free run's, and the rewritten
   journal must load with nothing left to skip *)
let resume ~what path =
  Alcotest.(check string) (what ^ ": resumed table")
    (Lazy.force baseline)
    (run_grid ~journal:path ());
  Alcotest.(check string) (what ^ ": resumed journal bytes")
    (Lazy.force baseline_journal)
    (Robust.Diskio.read_all path);
  let fingerprint =
    Engines.Eval.journal_fingerprint ~tools ~bombs:(Lazy.force bombs) ()
  in
  let l = Robust.Journal.load ~fingerprint path in
  Alcotest.(check (pair int int)) (what ^ ": no corrupt or truncated record")
    (0, 0)
    (l.Robust.Journal.corrupt, l.Robust.Journal.truncated)

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

(* a publish through a symlink to a regular file lands in that file,
   and the link stays a link: a tmp+rename over the link itself would
   replace it with a regular file and leave its target stale *)
let diskio_symlink_target () =
  let dir = Filename.temp_dir "disk_test_link" "" in
  let target = Filename.concat dir "target.txt"
  and link = Filename.concat dir "link" in
  write_file target "old\n";
  Unix.symlink "target.txt" link;
  Fun.protect
    ~finally:(fun () ->
      List.iter rm [ link; target; link ^ ".tmp"; target ^ ".tmp" ];
      Sys.rmdir dir)
    (fun () ->
       Robust.Diskio.write_atomic ~path:link "new\n";
       Alcotest.(check bool) "still a symlink" true
         ((Unix.lstat link).st_kind = S_LNK);
       Alcotest.(check string) "the target holds the new bytes" "new\n"
         (Robust.Diskio.read_all target);
       Alcotest.(check (list string)) "no tmp left" [ "link"; "target.txt" ]
         (List.sort compare (Array.to_list (Sys.readdir dir))))

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
   by hand on a finished journal: a plain resume must rebuild the
   fault-free table and journal byte for byte. *)

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
  resume ~what:"damaged" path

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
   untouched and only a stale tmp stays behind; once the obstacle is
   gone, the next publish goes through and consumes the tmp *)
let failed_rename () =
  let path = "disk_test_rename.dir" in
  let inner = Filename.concat path "keep" in
  rm inner;
  (try Sys.rmdir path with Sys_error _ -> ());
  rm path;
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
  rm inner;
  Sys.rmdir path;
  Robust.Diskio.write_atomic ~path "third\n";
  Alcotest.(check string) "published" "third\n" (Robust.Diskio.read_all path);
  Alcotest.(check bool) "tmp consumed" false (Sys.file_exists (path ^ ".tmp"));
  rm path

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
    resume ~what:(Printf.sprintf "seed %d" seed) path;
    Alcotest.(check bool) "no tmp left" false (Sys.file_exists tmp)
  done;
  rm path

(* ---------------- damage to a profile sidecar ----------------
   A real --profile sidecar with its second sample's closing brace
   flipped: the loader returns the first sample, warns and counts the
   skipped line. *)

let sidecar_skip () =
  let path = "disk_test_profile.jsonl" and copy = "disk_test_profile2.jsonl" in
  rm path;
  rm copy;
  ignore
    (Engines.Eval.run_table2 ~tools:[ Engines.Profile.Bap ]
       ~bombs:(Lazy.force bombs) ~profile:path ()
      : Engines.Eval.table2_result);
  let keys p =
    List.map (fun s -> s.Engines.Cellprof.p_key) (Engines.Cellprof.load p)
  in
  let sound = keys path in
  Alcotest.(check int) "one sample per cell" 2 (List.length sound);
  let raw = Robust.Diskio.read_all path in
  write_file copy (flip raw (String.length raw - 2));
  let skipped () = Telemetry.Metrics.counter_value "profile.skipped" in
  let skipped0 = skipped () in
  Alcotest.(check (list string)) "the sound sample loads" [ List.hd sound ]
    (keys copy);
  Alcotest.(check int) "profile.skipped counts the damaged line" 1
    (skipped () - skipped0);
  rm path;
  rm copy

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
           diskio_fifo_target;
         Alcotest.test_case "symlink target written through" `Quick
           diskio_symlink_target ]);
      ("containment",
       [ Alcotest.test_case "enospc" `Quick sidecar_enospc;
         Alcotest.test_case "short write" `Quick short_write;
         Alcotest.test_case "bit flip" `Quick bit_flip;
         Alcotest.test_case "torn fsync" `Quick torn_fsync;
         Alcotest.test_case "failed rename" `Quick failed_rename;
         Alcotest.test_case "30 seeded damage plans" `Quick seeded_damage;
         Alcotest.test_case "sidecar skips a damaged sample" `Quick
           sidecar_skip ]);
      ("enospc",
       [ Alcotest.test_case "shed and finish mid-grid" `Quick
           enospc_shed_and_finish ]) ]
