(** Trace-store tests: binary codec round-trip through a store file,
    replayed memory checked against a live VM, corrupt/torn/old-format
    store rejection and
    recovery, truncation accounting, the cursor/index API, and the
    acceptance gates — Table II and Figure 3 byte-identical with a
    store, and [--explain] over an existing store running zero VM
    steps with the same stage attribution. *)

let bomb name = Bombs.Catalog.find name

let config_of ?(argv1 = "5") name =
  let b = bomb name in
  Bombs.Common.config_for b argv1

(* every test runs with an explicit store-dir override (or none) and
   restores the ambient setting, so suites compose with TRACE_DIR *)
let with_store_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trace_test_%d_%s" (Unix.getpid ()) name)
  in
  let rm () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  rm ();
  let saved = Trace.current_store_dir () in
  Fun.protect ~finally:(fun () -> Trace.set_store_dir saved; rm ())
    (fun () -> f dir)

let store_file dir =
  match Sys.readdir dir with
  | [| f |] -> Filename.concat dir f
  | files -> Alcotest.failf "expected 1 store file, found %d" (Array.length files)

let events_of t = Array.init (Trace.length t) (fun i -> Trace.get t i)

let check_events_equal what (a : Vm.Event.t array) (b : Vm.Event.t array) =
  Alcotest.(check int) (what ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i ev ->
       (* structural compare, not (=): xmm state is float arrays *)
       if compare ev b.(i) <> 0 then
         Alcotest.failf "%s: event %d differs:\n  %s\n  %s" what i
           (Format.asprintf "%a" Trace.pp_event ev)
           (Format.asprintf "%a" Trace.pp_event b.(i)))
    a

(* ------------------------------------------------------------------ *)
(* Codec round-trip                                                    *)
(* ------------------------------------------------------------------ *)

(* exec deltas/keyframes, syscalls with every effect kind, signal
   frames, multi-digit argv: record through the store and reopen; the
   decoded stream must equal the in-memory recording exactly *)
let codec_roundtrip () =
  List.iter
    (fun (name, argv1) ->
       let config = config_of ~argv1 name in
       let image = Bombs.Catalog.image (bomb name) in
       Trace.set_store_dir None;
       let mem_t = Trace.record ~config image in
       with_store_dir ("codec_" ^ name) @@ fun dir ->
       Trace.set_store_dir (Some dir);
       let written = Trace.record ~config image in
       let reopened = Trace.record ~config image in
       Alcotest.(check bool) (name ^ ": second record is store-backed") true
         (Trace.store_backed reopened);
       check_events_equal (name ^ " write") (events_of mem_t)
         (events_of written);
       check_events_equal (name ^ " reopen") (events_of mem_t)
         (events_of reopened);
       Alcotest.(check int) (name ^ ": exec_count") (Trace.exec_count mem_t)
         (Trace.exec_count reopened);
       let r_mem = mem_t.Trace.result and r_st = reopened.Trace.result in
       Alcotest.(check bool) (name ^ ": run result survives") true
         (r_mem.exit_code = r_st.exit_code
          && r_mem.stdout = r_st.stdout
          && r_mem.stderr = r_st.stderr
          && r_mem.steps = r_st.steps
          && r_mem.fault = r_st.fault);
       Alcotest.(check bool) (name ^ ": argv layout survives") true
         (mem_t.Trace.argv_layout = reopened.Trace.argv_layout))
    [ ("stack_bomb", "K"); ("fork_bomb", "33"); ("exception_bomb", "7");
      ("sha1_bomb", "abc") ]

(* ------------------------------------------------------------------ *)
(* Replay against a live VM                                            *)
(* ------------------------------------------------------------------ *)

let mem_equal (a : Vm.Mem.t) (b : Vm.Mem.t) =
  let keys (m : Vm.Mem.t) =
    Hashtbl.fold (fun k _ acc -> k :: acc) m.pages []
  in
  let zero = String.make Vm.Mem.page_size '\000' in
  let get (m : Vm.Mem.t) idx =
    match Hashtbl.find_opt m.pages idx with
    | Some p -> Bytes.to_string p
    | None -> zero
  in
  List.for_all
    (fun idx -> String.equal (get a idx) (get b idx))
    (List.sort_uniq compare (keys a @ keys b))

(* the oracle is the machine itself: rerun each Table II bomb on its
   decoy input and, as the hook sees root event [p], compare the root
   process's live memory with [mem_before t (p+1)].  Events are emitted
   after their instruction (and syscall) ran, so a Sys or Signal event
   that follows an exec is already in memory at the exec's hook; the
   check therefore runs where event [p+1] is an exec, and at the end.
   The long crypto traces are sampled with a stride. *)
let mem_before_matches_live_vm () =
  List.iter
    (fun (b : Bombs.Common.t) ->
       let config = Bombs.Common.config_for b b.decoy in
       let image = Bombs.Catalog.image b in
       let t = Trace.record ~config image in
       let n = Trace.length t in
       let is_exec = Array.make n false in
       Trace.iteri t (fun i ev ->
           is_exec.(i) <- (match ev with Vm.Event.Exec _ -> true | _ -> false));
       let stride =
         if List.mem b.name [ "sha1_bomb"; "aes_bomb" ] then 97 else 1
       in
       let checks = ref 0 in
       let seq = ref 0 in
       let m = Vm.Machine.create ~config image in
       Vm.Machine.set_hook m (fun ev ->
           if Trace.event_pid ev = 1 then begin
             let p = !seq in
             incr seq;
             if p = n - 1 || (p + 1 < n && is_exec.(p + 1) && p mod stride = 0)
             then begin
               incr checks;
               let root =
                 List.find
                   (fun (task : Vm.Machine.task) -> task.proc.pid = 1)
                   m.Vm.Machine.tasks
               in
               if not (mem_equal (Trace.mem_before t (p + 1)) root.proc.mem)
               then
                 Alcotest.failf "%s: replayed memory before #%d differs from \
                                 the live VM" b.name (p + 1)
             end
           end);
       ignore (Vm.Machine.run m : Vm.Machine.run_result);
       Alcotest.(check int) (b.name ^ ": live run emits the traced events") n
         !seq;
       Alcotest.(check bool) (b.name ^ ": positions checked") true
         (!checks > 0))
    Bombs.Catalog.table2

(* ------------------------------------------------------------------ *)
(* Corruption                                                          *)
(* ------------------------------------------------------------------ *)

let patch_file path f =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  let b = f b in
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let corrupt_store_rejected () =
  with_store_dir "corrupt" @@ fun dir ->
  Trace.set_store_dir (Some dir);
  let config = config_of "stack_bomb" in
  let image = Bombs.Catalog.image (bomb "stack_bomb") in
  let original = Trace.record ~config image in
  let path = store_file dir in
  (* flip one payload byte: open must raise, record must re-record *)
  patch_file path (fun b ->
      Bytes.set b 100 (Char.chr (Char.code (Bytes.get b 100) lxor 0xFF));
      b);
  (try
     ignore (Trace.Store.open_file path);
     Alcotest.fail "open_file accepted a corrupt store"
   with Trace.Store.Corrupt _ -> ());
  let before = Telemetry.Metrics.counter_value "trace.store.corrupt" in
  let recovered = Trace.record ~config image in
  Alcotest.(check int) "corruption counted" (before + 1)
    (Telemetry.Metrics.counter_value "trace.store.corrupt");
  check_events_equal "recovered by re-recording" (events_of original)
    (events_of recovered);
  (* the rewritten store must be valid again *)
  ignore (Trace.Store.open_file (store_file dir))

let torn_store_rejected () =
  with_store_dir "torn" @@ fun dir ->
  Trace.set_store_dir (Some dir);
  let config = config_of "stack_bomb" in
  let image = Bombs.Catalog.image (bomb "stack_bomb") in
  let original = Trace.record ~config image in
  let path = store_file dir in
  patch_file path (fun b -> Bytes.sub b 0 (Bytes.length b / 2));
  (try
     ignore (Trace.Store.open_file path);
     Alcotest.fail "open_file accepted a torn store"
   with Trace.Store.Corrupt _ -> ());
  let recovered = Trace.record ~config image in
  check_events_equal "recovered from torn store" (events_of original)
    (events_of recovered)

(* ------------------------------------------------------------------ *)
(* Truncation, argv_region, cursor API                                 *)
(* ------------------------------------------------------------------ *)

let truncation_counted () =
  let config = config_of "stack_bomb" in
  let image = Bombs.Catalog.image (bomb "stack_bomb") in
  let full = Trace.record ~config image in
  Alcotest.(check bool) "untruncated by default" false full.Trace.truncated;
  let before = Telemetry.Metrics.counter_value "trace.truncated" in
  let t = Trace.record ~max_events:10 ~config image in
  Alcotest.(check int) "capped length" 10 (Trace.length t);
  Alcotest.(check bool) "flagged" true t.Trace.truncated;
  Alcotest.(check int) "counted once" (before + 1)
    (Telemetry.Metrics.counter_value "trace.truncated")

let argv_region_total () =
  let t = Trace.record ~config:(config_of ~argv1:"xyz" "stack_bomb")
      (Bombs.Catalog.image (bomb "stack_bomb"))
  in
  (match Trace.argv_region t 1 with
   | Some (_, len) -> Alcotest.(check int) "argv1 length incl NUL" 4 len
   | None -> Alcotest.fail "argv.(1) missing");
  Alcotest.(check bool) "argv.(0) present" true
    (Trace.argv_region t 0 <> None);
  Alcotest.(check (option (pair int64 int))) "out of range is None" None
    (Trace.argv_region t 7);
  Alcotest.(check (option (pair int64 int))) "negative is None" None
    (Trace.argv_region t (-1))

let cursor_and_index () =
  with_store_dir "cursor" @@ fun dir ->
  let config = config_of ~argv1:"33" "fork_bomb" in
  let image = Bombs.Catalog.image (bomb "fork_bomb") in
  Trace.set_store_dir None;
  let m = Trace.record ~config image in
  Trace.set_store_dir (Some dir);
  ignore (Trace.record ~config image);
  let s = Trace.record ~config image in
  Alcotest.(check bool) "store-backed" true (Trace.store_backed s);
  (* random-access seeks against the in-memory truth *)
  let n = Trace.length m in
  List.iter
    (fun i ->
       let i = ((i * 37) + 11) mod n in
       if compare (Trace.get m i) (Trace.get s i) <> 0 then
         Alcotest.failf "seek to %d differs" i)
    (List.init 24 Fun.id);
  (* index walks agree with scans *)
  let execs_m = Trace.execs_of_tid m 1 and execs_s = Trace.execs_of_tid s 1 in
  Alcotest.(check int) "execs_of_tid count" (List.length execs_m)
    (List.length execs_s);
  Alcotest.(check bool) "execs_of_tid covers the execs" true
    (List.length execs_m = Trace.exec_count m);
  List.iter2
    (fun (a : Vm.Event.exec) (b : Vm.Event.exec) ->
       if compare a b <> 0 then Alcotest.fail "execs_of_tid event differs")
    execs_m execs_s;
  Alcotest.(check int) "no such tid" 0
    (List.length (Trace.execs_of_tid s 99));
  (* positional queries *)
  let first_sys name = Trace.next_syscall s ~from:0 name in
  Alcotest.(check bool) "fork syscall indexed" true (first_sys "fork" <> None);
  Alcotest.(check (option int)) "absent syscall" None (first_sys "openat");
  (match Trace.get m 5 with
   | Vm.Event.Exec e ->
     Alcotest.(check (option int)) "next_exec_at agrees"
       (Trace.next_exec_at m ~from:0 e.pc)
       (Trace.next_exec_at s ~from:0 e.pc)
   | _ -> ());
  (* stateful cursor *)
  let c = Trace.cursor ~at:3 s in
  (match Trace.next c with
   | Some ev -> Alcotest.(check bool) "cursor next = get 3" true
                  (compare ev (Trace.get m 3) = 0)
   | None -> Alcotest.fail "cursor exhausted early");
  Alcotest.(check int) "cursor advanced" 4 (Trace.pos c)

let taint_hint_persists () =
  with_store_dir "hint" @@ fun dir ->
  Trace.set_store_dir (Some dir);
  let config = config_of ~argv1:"33" "fork_bomb" in
  let image = Bombs.Catalog.image (bomb "fork_bomb") in
  let t = Trace.record ~config image in
  Alcotest.(check bool) "no hint before analysis" true
    (Trace.taint_hint t = None);
  let sources =
    match Trace.argv_region t 1 with
    | Some (a, len) -> [ (a, len - 1) ]
    | None -> Alcotest.fail "no argv"
  in
  let r = Taint.analyze ~sources t in
  Alcotest.(check bool) "analysis found taint" true (r.tainted_count > 0);
  (* a later open of the same store sees the persisted summary *)
  let t2 = Trace.record ~config image in
  match Trace.taint_hint t2 with
  | None -> Alcotest.fail "hint not persisted"
  | Some h ->
    Alcotest.(check int) "tainted count persisted" r.tainted_count
      (Array.length h.th_tainted);
    Alcotest.(check int) "branch count persisted"
      (List.length r.tainted_branch)
      (Array.length h.th_branches);
    Alcotest.(check bool) "first taint consistent" true
      (h.th_first = h.th_tainted.(0))

(* ------------------------------------------------------------------ *)
(* Acceptance gates                                                    *)
(* ------------------------------------------------------------------ *)

let table2_byte_identical () =
  let tools = [ Engines.Profile.Bap; Engines.Profile.Triton ] in
  let bombs = List.map bomb [ "time_bomb"; "stack_bomb"; "argvlen_bomb" ] in
  let render () =
    Engines.Eval.render_table2 (Engines.Eval.run_table2 ~tools ~bombs ())
  in
  Trace.set_store_dir None;
  let fresh = render () in
  with_store_dir "table2" @@ fun dir ->
  Trace.set_store_dir (Some dir);
  let writing = render () in
  let replaying = render () in
  Alcotest.(check string) "store-writing run identical" fresh writing;
  Alcotest.(check string) "store-replaying run identical" fresh replaying

let fig3_byte_identical () =
  Trace.set_store_dir None;
  let fresh = Engines.Eval.run_fig3 () in
  with_store_dir "fig3" @@ fun dir ->
  Trace.set_store_dir (Some dir);
  let writing = Engines.Eval.run_fig3 () in
  let replaying = Engines.Eval.run_fig3 () in
  List.iter
    (fun (what, (r : Engines.Eval.fig3_result)) ->
       Alcotest.(check (pair int int)) (what ^ ": tainted counts")
         (fresh.noprint_tainted, fresh.print_tainted)
         (r.noprint_tainted, r.print_tainted);
       Alcotest.(check (pair int int)) (what ^ ": branch counts")
         (fresh.noprint_branches, fresh.print_branches)
         (r.noprint_branches, r.print_branches);
       Alcotest.(check (pair int int)) (what ^ ": direct counts")
         (fresh.noprint_tainted_direct, fresh.print_tainted_direct)
         (r.noprint_tainted_direct, r.print_tainted_direct))
    [ ("writing", writing); ("replaying", replaying) ]

(* the tentpole gate: an --explain over an existing store re-executes
   nothing on the VM (asserted via the vm.* counters, which
   Explain.run resets per invocation) yet attributes the same stage *)
let explain_zero_vm () =
  with_store_dir "explain" @@ fun dir ->
  Trace.set_store_dir (Some dir);
  let b = bomb "time_bomb" in
  let r1 = Engines.Explain.run Engines.Profile.Triton b in
  let cold_steps = Telemetry.Metrics.counter_value "vm.steps" in
  Alcotest.(check bool) "cold run executed the VM" true (cold_steps > 0);
  let r2 = Engines.Explain.run Engines.Profile.Triton b in
  Alcotest.(check int) "warm run: zero VM steps" 0
    (Telemetry.Metrics.counter_value "vm.steps");
  Alcotest.(check int) "warm run: zero VM syscalls" 0
    (Telemetry.Metrics.counter_value "vm.syscalls");
  Alcotest.(check bool) "stores were opened" true
    (Telemetry.Metrics.counter_value "trace.store.opened" > 0);
  Alcotest.(check string) "same stage attribution"
    (match r1.stage with Some s -> Concolic.Error.show_stage s | None -> "-")
    (match r2.stage with Some s -> Concolic.Error.show_stage s | None -> "-");
  Alcotest.(check string) "same cell"
    (Concolic.Error.cell_symbol r1.graded.cell)
    (Concolic.Error.cell_symbol r2.graded.cell)

let () =
  Alcotest.run "trace"
    [ ("store",
       [ Alcotest.test_case "codec round-trip" `Quick codec_roundtrip;
         Alcotest.test_case "corrupt rejected" `Quick corrupt_store_rejected;
         Alcotest.test_case "torn rejected" `Quick torn_store_rejected;
         Alcotest.test_case "taint hint persists" `Quick taint_hint_persists ]);
      ("replay",
       [ Alcotest.test_case "mem_before matches live VM" `Quick
           mem_before_matches_live_vm ]);
      ("cursor",
       [ Alcotest.test_case "seek and index" `Quick cursor_and_index;
         Alcotest.test_case "argv_region total" `Quick argv_region_total;
         Alcotest.test_case "truncation counted" `Quick truncation_counted ]);
      ("acceptance",
       [ Alcotest.test_case "table2 byte-identical" `Quick
           table2_byte_identical;
         Alcotest.test_case "fig3 byte-identical" `Quick fig3_byte_identical;
         Alcotest.test_case "explain zero VM" `Quick explain_zero_vm ]) ]
