(** Storage-fault hardening: {!Robust.Diskio} primitives, per-fault-class
    containment of injected disk faults under a journaled grid,
    {!Engines.Fsck} verify/repair round-trips on deliberately damaged
    fixtures, and ENOSPC shed-and-finish. *)

let tools = [ Engines.Profile.Bap; Engines.Profile.Triton ]
let bombs = lazy (List.map Bombs.Catalog.find [ "time_bomb"; "argvlen_bomb" ])
let rm p = try Sys.remove p with Sys_error _ -> ()

let with_hook st f =
  Robust.Diskio.set_fault_hook (Some (Robust.Chaos.disk_hook st));
  Fun.protect ~finally:(fun () -> Robust.Diskio.set_fault_hook None) f

let run_grid ?journal () =
  let journal =
    Option.map
      (fun path ->
         { Engines.Eval.journal_path = path; kill_after = None;
           kill_torn = false })
      journal
  in
  Engines.Eval.render_table2
    (Engines.Eval.run_table2 ~tools ~bombs:(Lazy.force bombs) ?journal ())

(* fault-free ground truth for the grid *)
let baseline = lazy (run_grid ())

(* ---------------- diskio primitives ---------------- *)

let diskio_roundtrip () =
  let path = "disk_test_rt.dat" in
  rm path;
  Robust.Diskio.write_atomic ~path "hello\nworld\n";
  let contents, sum = Robust.Diskio.read_checksummed path in
  Alcotest.(check string) "contents" "hello\nworld\n" contents;
  Alcotest.(check string) "checksum"
    (Robust.Diskio.fnv64_hex "hello\nworld\n") sum;
  let h = Robust.Diskio.open_append path in
  Robust.Diskio.append h "more\n";
  Robust.Diskio.close h;
  Alcotest.(check string) "appended" "hello\nworld\nmore\n"
    (Robust.Diskio.read_all path);
  rm path

(* ---------------- per-fault-class containment ----------------
   One exactly-placed fault during a journaled grid run: the run's
   table must not change (results live in memory; the journal is a
   cache), the fire must be accounted, and fsck --repair + resume
   must reconstruct the same table from what survives on disk. *)

let fault_containment fault () =
  let path = "disk_test_fault.jsonl" in
  rm path;
  rm (path ^ ".tmp");
  let st =
    Robust.Chaos.io_state ~seed:5L
      (Robust.Chaos.Arms [ (fault, 2) ])
  in
  let table = with_hook st (fun () -> run_grid ~journal:path ()) in
  Alcotest.(check string) "faulted run's table unchanged"
    (Lazy.force baseline) table;
  Alcotest.(check bool) "fault fired and was accounted" true
    (List.mem_assoc fault (Robust.Chaos.io_fired st));
  ignore
    (Engines.Fsck.scan ~repair:true [ path ] : Engines.Fsck.report list);
  Alcotest.(check int) "repaired journal verifies clean" 0
    (Engines.Fsck.exit_code ~repair:false (Engines.Fsck.scan [ path ]));
  Alcotest.(check string) "resume off the repaired journal"
    (Lazy.force baseline)
    (run_grid ~journal:path ());
  rm path

let enospc_containment = fault_containment Robust.Chaos.Enospc
let short_write_containment = fault_containment Robust.Chaos.Short_write
let bit_flip_containment = fault_containment Robust.Chaos.Bit_flip
let torn_fsync_containment = fault_containment Robust.Chaos.Torn_fsync

(* a failed rename must leave the published target untouched and only
   a stale tmp behind, which fsck --repair clears *)
let failed_rename_containment () =
  let path = "disk_test_rename.dat" in
  rm path;
  rm (path ^ ".tmp");
  Robust.Diskio.write_atomic ~path "first\n";
  let st =
    Robust.Chaos.io_state ~seed:5L
      (Robust.Chaos.Arms [ (Robust.Chaos.Failed_rename, 1) ])
  in
  (match
     with_hook st (fun () -> Robust.Diskio.write_atomic ~path "second\n")
   with
   | () -> Alcotest.fail "armed rename should have failed"
   | exception Sys_error _ -> ());
  Alcotest.(check string) "published target untouched" "first\n"
    (Robust.Diskio.read_all path);
  Alcotest.(check bool) "tmp left behind" true
    (Sys.file_exists (path ^ ".tmp"));
  let reports = Engines.Fsck.scan ~repair:true [ path ^ ".tmp" ] in
  Alcotest.(check int) "stale tmp repaired" 1
    (Engines.Fsck.exit_code ~repair:true reports);
  Alcotest.(check bool) "tmp removed" false
    (Sys.file_exists (path ^ ".tmp"));
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
  Robust.Journal.append_torn w ~key:"b";
  Robust.Journal.close_writer w;
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

(* ---------------- ENOSPC mid-grid: shed and finish ---------------- *)

let enospc_shed_and_finish () =
  let path = "disk_test_shed.jsonl" in
  rm path;
  let shed0 = Telemetry.Metrics.counter_value "journal.shed" in
  let st =
    Robust.Chaos.io_state ~seed:9L
      (Robust.Chaos.Arms [ (Robust.Chaos.Enospc, 2) ])
  in
  let table = with_hook st (fun () -> run_grid ~journal:path ()) in
  Alcotest.(check string) "grid finishes with identical grades"
    (Lazy.force baseline) table;
  Alcotest.(check bool) "shed records counted (journal.shed)" true
    (Telemetry.Metrics.counter_value "journal.shed" > shed0);
  Alcotest.(check string) "resume re-runs the unjournaled cells"
    (Lazy.force baseline)
    (run_grid ~journal:path ());
  rm path

let () =
  Alcotest.run "disk"
    [ ("diskio",
       [ Alcotest.test_case "atomic write + append round trip" `Quick
           diskio_roundtrip ]);
      ("containment",
       [ Alcotest.test_case "enospc" `Quick enospc_containment;
         Alcotest.test_case "short write" `Quick short_write_containment;
         Alcotest.test_case "bit flip" `Quick bit_flip_containment;
         Alcotest.test_case "torn fsync" `Quick torn_fsync_containment;
         Alcotest.test_case "failed rename" `Quick
           failed_rename_containment ]);
      ("fsck",
       [ Alcotest.test_case "journal verify/repair round trip" `Quick
           fsck_journal_roundtrip;
         Alcotest.test_case "profile sidecar verify/repair" `Quick
           fsck_profile_sidecar;
         Alcotest.test_case "profile sidecar with a flipped first byte"
           `Quick fsck_profile_first_byte;
         Alcotest.test_case "stale tmp beside its journal" `Quick
           fsck_tmp_beside_journal ]);
      ("enospc",
       [ Alcotest.test_case "shed and finish mid-grid" `Quick
           enospc_shed_and_finish ]) ]
