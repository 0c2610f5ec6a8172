(** Lifter golden tests: the BIL statements produced for each
    instruction class, plus feature gating and branch lowering, and the
    per-pc lift memo against fresh lifts over real traces. *)

open Ir.Bil
module L = Ir.Lifter
module I = Isa.Insn

let lift ?(features = L.full) insn = L.lift features ~next:0x2000L insn

let has_set name stmts =
  List.exists (function Set (n, _, _) -> n = name | _ -> false) stmts

let has_store stmts =
  List.exists (function Store _ -> true | _ -> false) stmts

let count p stmts = List.length (List.filter p stmts)

let mov_reg_reg () =
  match lift (I.Mov (W64, Reg RAX, Reg RBX)) with
  | [ Set ("RAX", 64, Var ("RBX", 64)) ] -> ()
  | s -> Alcotest.failf "unexpected: %s" (String.concat ";" (List.map show_stmt s))

let mov_w32_zero_extends () =
  match lift (I.Mov (W32, Reg RAX, Imm 5L)) with
  | [ Set ("RAX", 64, Zext (64, Int (5L, 32))) ] -> ()
  | s -> Alcotest.failf "unexpected: %s" (String.concat ";" (List.map show_stmt s))

let mov_w8_merges () =
  match lift (I.Mov (W8, Reg RBX, Imm 7L)) with
  | [ Set ("RBX", 64, Concat (Extract (63, 8, Var ("RBX", 64)), Int (7L, 8))) ]
    -> ()
  | s -> Alcotest.failf "unexpected: %s" (String.concat ";" (List.map show_stmt s))

let add_sets_all_flags () =
  let stmts = lift (I.Alu (Add, W64, Reg RAX, Reg RBX)) in
  List.iter
    (fun f ->
       Alcotest.(check bool) (f ^ " set") true (has_set f stmts))
    [ "ZF"; "SF"; "CF"; "OF"; "PF" ];
  Alcotest.(check bool) "writes back" true (has_set "RAX" stmts)

let cmp_sets_flags_only () =
  let stmts = lift (I.Cmp (W64, Reg RAX, Imm 5L)) in
  Alcotest.(check bool) "no RAX write" false (has_set "RAX" stmts);
  Alcotest.(check bool) "ZF set" true (has_set "ZF" stmts)

let push_lowered () =
  let stmts = lift (I.Push (Reg RAX)) in
  Alcotest.(check bool) "stores" true (has_store stmts);
  Alcotest.(check bool) "moves RSP" true (has_set "RSP" stmts)

let call_pushes_return () =
  let stmts = lift (I.Call (Direct 0x1234L)) in
  Alcotest.(check bool) "stores return addr" true (has_store stmts);
  match List.rev stmts with
  | Jmp (Int (0x1234L, 64)) :: _ -> ()
  | _ -> Alcotest.fail "must end in Jmp to target"

let ret_is_load_jump () =
  let stmts = lift I.Ret in
  match List.rev stmts with
  | Jmp (Var ("t_ret", 64)) :: _ -> ()
  | _ -> Alcotest.fail "ret must jump through t_ret"

let jcc_is_cjmp () =
  match lift (I.Jcc (E, 0x500L)) with
  | [ Cjmp (Var ("ZF", 1), 0x500L) ] -> ()
  | s -> Alcotest.failf "unexpected: %s" (String.concat ";" (List.map show_stmt s))

let indirect_jump_reads_operand () =
  match lift (I.Jmp (Indirect (Reg RCX))) with
  | [ Jmp (Var ("RCX", 64)) ] -> ()
  | _ -> Alcotest.fail "indirect jump"

let fp_gated_by_features () =
  let insn = I.Cvtsi2sd (XMM0, Reg RAX) in
  (match lift ~features:L.no_fp insn with
   | [ Special _ ] -> ()
   | _ -> Alcotest.fail "no_fp must refuse cvtsi2sd");
  match lift ~features:L.full insn with
  | [ Set ("XMM0", 64, Fof_int (Var ("RAX", 64))) ] -> ()
  | _ -> Alcotest.fail "full must lift cvtsi2sd"

let ucomisd_sets_zcp () =
  let stmts = lift (I.Ucomisd (XMM0, Xreg XMM1)) in
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " set") true (has_set f stmts))
    [ "ZF"; "CF"; "PF" ]

let shifts_mask_amount () =
  let stmts = lift (I.Alu (Shl, W64, Reg RAX, Reg RCX)) in
  let masked =
    List.exists
      (function
        | Set ("t_res", _, Binop (Shl, _, Binop (And, _, Int (0x3fL, _)))) ->
          true
        | _ -> false)
      stmts
  in
  Alcotest.(check bool) "amount masked to 6 bits" true masked

let setcc_byte () =
  let stmts = lift (I.Setcc (NE, Reg RAX)) in
  Alcotest.(check int) "single write" 1
    (count (function Set ("RAX", _, _) -> true | _ -> false) stmts)

let nop_empty () =
  Alcotest.(check int) "nop lifts to nothing" 0 (List.length (lift I.Nop))

let width_of_sane () =
  Alcotest.(check int) "cmp width" 1
    (width_of_exp (Cmp (Eq, Int (0L, 64), Int (0L, 64))));
  Alcotest.(check int) "concat width" 24
    (width_of_exp (Concat (Int (0L, 16), Int (0L, 8))));
  Alcotest.(check int) "extract width" 8
    (width_of_exp (Extract (15, 8, Int (0L, 64))))

(* ---------------- lift memo ---------------- *)

let winning_trace bomb =
  Trace.record
    ~config:
      (Bombs.Common.config_for ~winning:true bomb
         (Bombs.Common.winning_argv bomb))
    (Bombs.Catalog.image bomb)

(* every exec of every Table II bomb's winning trace, under both
   feature sets: a memoised lift equals a fresh [Lifter.lift], and hits
   and misses alike tick [lifter.insns_lifted] and the ambient meter's
   lifted-insn charge exactly once *)
let memo_matches_fresh_lift () =
  let hits = ref 0 and misses = ref 0 in
  let lifted () = Telemetry.Metrics.counter_value "lifter.insns_lifted" in
  List.iter
    (fun (bomb : Bombs.Common.t) ->
       let trace = winning_trace bomb in
       List.iter
         (fun features ->
            let memo = L.Memo.create features in
            let meter = Robust.Meter.create Robust.Budget.unlimited in
            Robust.Meter.with_ambient meter @@ fun () ->
            Trace.iteri trace (fun _ ev ->
                match ev with
                | Vm.Event.Exec e ->
                  let entry = L.Memo.find memo ~pc:e.pc e.insn in
                  Alcotest.(check int64) "fall-through"
                    (Int64.add e.pc
                       (Int64.of_int (Isa.Codec.encoded_size e.insn)))
                    entry.next;
                  if entry.stmts = None then incr misses else incr hits;
                  let n0 = lifted () and c0 = meter.lifted_insns in
                  let stmts = L.Memo.lift memo entry in
                  Alcotest.(check int) "insns_lifted once" (n0 + 1) (lifted ());
                  Alcotest.(check int) "meter charged once" (c0 + 1)
                    meter.lifted_insns;
                  let fresh = L.lift features ~next:entry.next e.insn in
                  if not (List.equal equal_stmt stmts fresh) then
                    Alcotest.failf "%s: memo differs from a fresh lift of %s"
                      bomb.name (I.show e.insn)
                | _ -> ()))
         [ L.no_fp; L.full ])
    Bombs.Catalog.table2;
  Alcotest.(check bool) "memo hit" true (!hits > 0);
  Alcotest.(check bool) "memo missed" true (!misses > 0)

(* code rewritten at a remembered pc is encoded and lifted afresh *)
let memo_rewritten_code () =
  let memo = L.Memo.create L.full in
  let pc = 0x1000L in
  let nop = L.Memo.find memo ~pc I.Nop in
  ignore (L.Memo.lift memo nop);
  let mov = I.Mov (W64, Reg RAX, Imm 7L) in
  let entry = L.Memo.find memo ~pc mov in
  Alcotest.(check bool) "fresh entry" true (entry.stmts = None);
  Alcotest.(check int64) "fall-through of the new insn"
    (Int64.add pc (Int64.of_int (Isa.Codec.encoded_size mov)))
    entry.next;
  Alcotest.(check bool) "lifts the new insn" true
    (List.equal equal_stmt (L.Memo.lift memo entry)
       (L.lift L.full ~next:entry.next mov))

let () =
  Alcotest.run "ir"
    [ ("lifter",
       [ Alcotest.test_case "mov reg,reg" `Quick mov_reg_reg;
         Alcotest.test_case "mov w32 zext" `Quick mov_w32_zero_extends;
         Alcotest.test_case "mov w8 merge" `Quick mov_w8_merges;
         Alcotest.test_case "add flags" `Quick add_sets_all_flags;
         Alcotest.test_case "cmp flags only" `Quick cmp_sets_flags_only;
         Alcotest.test_case "push lowering" `Quick push_lowered;
         Alcotest.test_case "call pushes return" `Quick call_pushes_return;
         Alcotest.test_case "ret" `Quick ret_is_load_jump;
         Alcotest.test_case "jcc" `Quick jcc_is_cjmp;
         Alcotest.test_case "indirect jump" `Quick indirect_jump_reads_operand;
         Alcotest.test_case "fp feature gate" `Quick fp_gated_by_features;
         Alcotest.test_case "ucomisd flags" `Quick ucomisd_sets_zcp;
         Alcotest.test_case "shift masking" `Quick shifts_mask_amount;
         Alcotest.test_case "setcc" `Quick setcc_byte;
         Alcotest.test_case "nop" `Quick nop_empty;
         Alcotest.test_case "widths" `Quick width_of_sane ]);
      ("memo",
       [ Alcotest.test_case "memo matches fresh lift" `Quick
           memo_matches_fresh_lift;
         Alcotest.test_case "rewritten code" `Quick memo_rewritten_code ]) ]
