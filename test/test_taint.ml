(** Taint-engine tests: source propagation through registers, memory,
    the stack and flags; strong updates; the kernel-object policy
    matrix (files / pipes / sockets); per-thread register shadows. *)

module Dsl = Asm.Ast.Dsl

let trace_bomb ?(argv1 = "5") name =
  let b = Bombs.Catalog.find name in
  let config = Bombs.Common.config_for b argv1 in
  let t = Trace.record ~config (Bombs.Catalog.image b) in
  let addr, len =
    match Trace.argv_region t 1 with
    | Some r -> r
    | None -> failwith "trace has no argv.(1)"
  in
  (t, [ (addr, len - 1) ])

let analyze ?policy name =
  let t, sources = trace_bomb name in
  Taint.analyze ?policy ~sources t

let stack_carries_taint () =
  (* push/pop of the input byte keeps it tainted: the final compare is
     a tainted branch *)
  let r = analyze "stack_bomb" in
  Alcotest.(check bool) "has tainted branch" true
    (List.length r.tainted_branch > 0)

let file_policy_matrix () =
  let r_pin = analyze ~policy:Taint.pin_policy "file_bomb" in
  let r_full = analyze ~policy:Taint.full_policy "file_bomb" in
  (* pin: the strcmp on re-read bytes is untainted; taint died at the
     kernel *)
  Alcotest.(check bool) "pin loses at kernel" true
    (List.length r_pin.kernel_writes > 0);
  (* full: more tainted instructions (the comparison after re-read) *)
  Alcotest.(check bool) "full tracks more" true
    (r_full.tainted_count > r_pin.tainted_count)

let pipe_policy_matrix () =
  let r_pin = analyze ~policy:Taint.pin_policy "syscovert_bomb" in
  let r_full = analyze ~policy:Taint.full_policy "syscovert_bomb" in
  Alcotest.(check bool) "pipe round-trip tracked only by full policy"
    true
    (r_full.tainted_count > r_pin.tainted_count)

let untainted_program_is_clean () =
  let r = analyze "time_bomb" in
  Alcotest.(check int) "no tainted instructions" 0 r.tainted_count;
  Alcotest.(check int) "no tainted branches" 0
    (List.length r.tainted_branch)

let overwrite_clears_taint () =
  (* mov rbx, argv; mov rbx, 0; branch on rbx must be untainted *)
  let open Dsl in
  let prog =
    Asm.Ast.obj
      [ label "main";
        mov rbx (mreg ~disp:8 Isa.Reg.RSI);
        movzx rcx ~sw:Isa.Insn.W8 (mreg Isa.Reg.RBX);  (* tainted *)
        mov rcx (imm 0);                                (* strong update *)
        test rcx rcx;
        je ".z";
        mov rax (imm 1);
        ret;
        label ".z";
        mov rax (imm 0);
        ret ]
  in
  let image = Libc.Runtime.link_with_libs prog in
  let config = { Vm.Machine.default_config with argv = [ "t"; "abc" ] } in
  let t = Trace.record ~config image in
  let addr, len =
    match Trace.argv_region t 1 with
    | Some r -> r
    | None -> failwith "trace has no argv.(1)"
  in
  let r = Taint.analyze ~sources:[ (addr, len - 1) ] t in
  Alcotest.(check int) "no tainted branch after overwrite" 0
    (List.length r.tainted_branch)

(* write argv[1][0] to a file, seek back, optionally overwrite it with
   a constant, seek back, read it into memory and branch on it *)
let file_overwrite_program ~overwrite =
  let open Dsl in
  let rewind =
    [ mov rdi r12; xor rsi rsi; xor rdx rdx; call "lseek" ]
  in
  Asm.Ast.obj
    ~data:[ label "__path"; asciz "data.txt"; label "__zero"; asciz "0" ]
    ~bss:[ label "__buf"; space 8 ]
    ([ label "main";
       mov rbx (mreg ~disp:8 Isa.Reg.RSI);
       (* fd = open(path, O_RDWR|O_CREAT|O_TRUNC) *)
       lea rdi "__path";
       mov rsi (imm 0o1102);
       call "open";
       mov r12 rax;
       mov rdi r12;
       mov rsi rbx;
       mov rdx (imm 1);
       call "write" ]
     @ rewind
     @ (if overwrite then
          [ mov rdi r12; lea rsi "__zero"; mov rdx (imm 1); call "write" ]
          @ rewind
        else [])
     @ [ mov rdi r12;
         lea rsi "__buf";
         mov rdx (imm 1);
         call "read";
         lea rax "__buf";
         movzx rcx ~sw:Isa.Insn.W8 (mreg Isa.Reg.RAX);
         cmp rcx (imm (Char.code 'a'));
         je ".eq";
         mov rax (imm 1);
         ret;
         label ".eq";
         mov rax (imm 0);
         ret ])

let kernel_overwrite_clears_taint () =
  let tainted_branches ~overwrite =
    let image =
      Libc.Runtime.link_with_libs (file_overwrite_program ~overwrite)
    in
    let config = { Vm.Machine.default_config with argv = [ "t"; "abc" ] } in
    let t = Trace.record ~config image in
    let addr, len =
      match Trace.argv_region t 1 with
      | Some r -> r
      | None -> failwith "trace has no argv.(1)"
    in
    let r =
      Taint.analyze ~policy:Taint.full_policy ~sources:[ (addr, len - 1) ] t
    in
    List.length r.tainted_branch
  in
  Alcotest.(check int) "re-read input byte is tainted" 1
    (tainted_branches ~overwrite:false);
  Alcotest.(check int) "re-read constant overwrite is untainted" 0
    (tainted_branches ~overwrite:true)

let flags_propagate () =
  (* cmp on tainted value; the following jcc is a tainted branch with
     the right direction *)
  let open Dsl in
  let prog =
    Asm.Ast.obj
      [ label "main";
        mov rbx (mreg ~disp:8 Isa.Reg.RSI);
        movzx rcx ~sw:Isa.Insn.W8 (mreg Isa.Reg.RBX);
        cmp rcx (imm (Char.code 'a'));
        je ".eq";
        mov rax (imm 1);
        ret;
        label ".eq";
        mov rax (imm 0);
        ret ]
  in
  let image = Libc.Runtime.link_with_libs prog in
  let config = { Vm.Machine.default_config with argv = [ "t"; "abc" ] } in
  let t = Trace.record ~config image in
  let addr, len =
    match Trace.argv_region t 1 with
    | Some r -> r
    | None -> failwith "trace has no argv.(1)"
  in
  let r = Taint.analyze ~sources:[ (addr, len - 1) ] t in
  match r.tainted_branch with
  | [ (_, taken) ] -> Alcotest.(check bool) "je on 'a' taken" true taken
  | l -> Alcotest.failf "expected 1 tainted branch, got %d" (List.length l)

let indirect_jump_flagged () =
  let t, sources = trace_bomb ~argv1:"0" "jump_bomb" in
  let r = Taint.analyze ~sources t in
  Alcotest.(check bool) "tainted jump recorded" true
    (List.length r.tainted_jumps > 0)

let fig3_monotone () =
  let count name =
    let t, sources = trace_bomb ~argv1:"77" name in
    (Taint.analyze ~sources t).tainted_count
  in
  Alcotest.(check bool) "printf adds tainted instructions" true
    (count "fig3_print" > count "fig3_noprint")

let () =
  Alcotest.run "taint"
    [ ("propagation",
       [ Alcotest.test_case "stack" `Quick stack_carries_taint;
         Alcotest.test_case "strong update" `Quick overwrite_clears_taint;
         Alcotest.test_case "flags" `Quick flags_propagate;
         Alcotest.test_case "indirect jump" `Quick indirect_jump_flagged;
         Alcotest.test_case "clean program" `Quick untainted_program_is_clean ]);
      ("kernel-policy",
       [ Alcotest.test_case "files" `Quick file_policy_matrix;
         Alcotest.test_case "pipes" `Quick pipe_policy_matrix;
         Alcotest.test_case "file overwrite clears taint" `Quick
           kernel_overwrite_clears_taint ]);
      ("fig3", [ Alcotest.test_case "monotone" `Quick fig3_monotone ]) ]
