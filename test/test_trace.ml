(** Trace tests: memory rebuilt by replay checked against a live VM,
    truncation accounting, [argv_region], and the positional lookups
    the debugger's [run-to] uses checked against a linear scan. *)

let bomb name = Bombs.Catalog.find name

let config_of ?(argv1 = "5") name =
  let b = bomb name in
  Bombs.Common.config_for b argv1

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
(* Truncation, argv_region, lookups                                    *)
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

(* the reference: a plain walk over [Trace.get] from [max 0 from] *)
let scan t ~from p =
  let n = Trace.length t in
  let rec go i =
    if i >= n then None else if p (Trace.get t i) then Some i else go (i + 1)
  in
  go (max 0 from)

(* every Table II decoy trace, every start in [-1, length] (strided on
   the long crypto traces): [next_exec_at] for the pcs around the start
   (one of them earlier, so possibly absent afterwards) and
   [next_syscall] for every syscall name in the trace plus one absent
   name must agree with the scan *)
let lookups_match_scan () =
  List.iter
    (fun (b : Bombs.Common.t) ->
       let t =
         Trace.record ~config:(Bombs.Common.config_for b b.decoy)
           (Bombs.Catalog.image b)
       in
       let n = Trace.length t in
       let names = ref [ "no_such_syscall" ] in
       Trace.iteri t (fun _ ev ->
           match ev with
           | Vm.Event.Sys { record; _ } when not (List.mem record.name !names) ->
             names := record.name :: !names
           | _ -> ());
       let pc_at i =
         if i < 0 || i >= n then None
         else match Trace.get t i with
           | Vm.Event.Exec e -> Some e.pc
           | _ -> None
       in
       let stride =
         if List.mem b.name [ "sha1_bomb"; "aes_bomb" ] then 53 else 1
       in
       let check what got want from =
         if got <> want then
           Alcotest.failf "%s: %s from %d: got %s, scan says %s" b.name what
             from
             (match got with Some i -> string_of_int i | None -> "None")
             (match want with Some i -> string_of_int i | None -> "None")
       in
       let from = ref (-1) in
       while !from <= n do
         let f = !from in
         List.iter
           (fun pc ->
              check (Printf.sprintf "next_exec_at 0x%Lx" pc)
                (Trace.next_exec_at t ~from:f pc)
                (scan t ~from:f (function
                   | Vm.Event.Exec e -> Int64.equal e.pc pc
                   | _ -> false))
                f)
           (List.filter_map pc_at [ f - 1; f; f + 1; f + 7 ]);
         List.iter
           (fun name ->
              check ("next_syscall " ^ name)
                (Trace.next_syscall t ~from:f name)
                (scan t ~from:f (function
                   | Vm.Event.Sys { record; _ } -> String.equal record.name name
                   | _ -> false))
                f)
           !names;
         from := if f = n then n + 1 else min n (f + stride)
       done)
    Bombs.Catalog.table2

let () =
  Alcotest.run "trace"
    [ ("replay",
       [ Alcotest.test_case "mem_before matches live VM" `Quick
           mem_before_matches_live_vm ]);
      ("cursor",
       [ Alcotest.test_case "lookups match a scan" `Quick lookups_match_scan;
         Alcotest.test_case "argv_region total" `Quick argv_region_total;
         Alcotest.test_case "truncation counted" `Quick truncation_counted ]) ]
