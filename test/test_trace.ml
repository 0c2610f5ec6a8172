(** Trace tests: the replica memory trace-based executors read,
    checked against a live VM before every exec; truncation accounting;
    [argv_region]. *)

let bomb name = Bombs.Catalog.find name

let config_of ?(argv1 = "5") name =
  let b = bomb name in
  Bombs.Common.config_for b argv1

(* ------------------------------------------------------------------ *)
(* Replay against a live VM                                            *)
(* ------------------------------------------------------------------ *)

(* page by page, a page one side lacks reading as zeros *)
let mem_equal (a : Vm.Mem.t) (b : Vm.Mem.t) =
  let zero = Bytes.make Vm.Mem.page_size '\000' in
  let covers (x : Vm.Mem.t) (y : Vm.Mem.t) =
    Hashtbl.fold
      (fun idx p ok ->
         ok
         && Bytes.equal p
           (Option.value (Hashtbl.find_opt y.pages idx) ~default:zero))
      x.pages true
  in
  covers a b && covers b a

(* the oracle is the machine itself: rerun each Table II bomb on its
   decoy input and on its winning input (exception_bomb's then
   delivers SIGFPE, so a signal push is replayed), step a
   [Trace.Replica] over root event [p] as the hook sees it, and
   compare the root process's live memory with the replica's.  Events
   are emitted after their instruction (and syscall) ran, so a Sys or
   Signal event that follows an exec is already in memory at the
   exec's hook; the check therefore runs before the run starts,
   wherever event [p+1] is an exec, and at the end: once before every
   exec, and once more. *)
let replica_matches_live_vm () =
  List.iter
    (fun ((b : Bombs.Common.t), name, config) ->
       let image = Bombs.Catalog.image b in
       let t = Trace.record ~config image in
       let n = Trace.length t in
       let is_exec i =
         match Trace.get t i with Vm.Event.Exec _ -> true | _ -> false
       in
       let r = Trace.Replica.create t in
       let m = Vm.Machine.create ~config image in
       let checks = ref 0 in
       let check_before i =
         incr checks;
         let root =
           List.find
             (fun (task : Vm.Machine.task) -> task.proc.pid = 1)
             m.Vm.Machine.tasks
         in
         if not (mem_equal r.mem root.proc.mem) then
           Alcotest.failf "%s: replica memory before #%d differs from the \
                           live VM" name i
       in
       let seq = ref 0 in
       check_before 0;
       Vm.Machine.set_hook m (fun ev ->
           let p = !seq in
           if Trace.event_pid ev = 1 then incr seq;
           if Trace.event_pid ev = 1 && p < n then begin
             (match Trace.get t p with
              | Vm.Event.Exec e ->
                Trace.Replica.exec r e
                  ~next:
                    (Int64.add e.pc
                       (Int64.of_int (Isa.Codec.encoded_size e.insn)))
              | Vm.Event.Sys { record; _ } -> Trace.Replica.sys r record
              | Vm.Event.Signal { resume; _ } ->
                ignore (Trace.Replica.signal r ~resume : int64));
             if p = n - 1 || (p + 1 < n && is_exec (p + 1)) then
               check_before (p + 1)
           end);
       ignore (Vm.Machine.run m : Vm.Machine.run_result);
       Alcotest.(check int) (name ^ ": live run emits the traced events") n
         !seq;
       Alcotest.(check int) (name ^ ": checked before every exec")
         (Trace.exec_count t + if is_exec 0 then 1 else 2)
         !checks)
    (List.concat_map
       (fun (b : Bombs.Common.t) ->
          [ (b, b.name, Bombs.Common.config_for b b.decoy);
            (b, b.name ^ " (winning)",
             Bombs.Common.config_for ~winning:true b
               (Bombs.Common.winning_argv b)) ])
       Bombs.Catalog.table2)

(* ------------------------------------------------------------------ *)
(* Truncation, argv_region                                             *)
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

let () =
  Alcotest.run "trace"
    [ ("replay",
       [ Alcotest.test_case "replica matches live VM" `Quick
           replica_matches_live_vm ]);
      ("cursor",
       [ Alcotest.test_case "argv_region total" `Quick argv_region_total;
         Alcotest.test_case "truncation counted" `Quick truncation_counted ]) ]
