(** VM tests: CPU semantics, codec round-trips, kernel objects
    (pipes, files, fork, threads, signals), and determinism. *)

open Isa
module Dsl = Asm.Ast.Dsl

(* ---------------- codec round-trip (property) ---------------- *)

let gen_reg = QCheck2.Gen.oneofl Reg.all
let gen_xmm = QCheck2.Gen.oneofl Reg.all_xmm

let gen_width = QCheck2.Gen.oneofl [ Insn.W8; W16; W32; W64 ]

let gen_mem =
  let open QCheck2.Gen in
  let* base = opt gen_reg in
  let* index = opt gen_reg in
  let* scale = oneofl [ 1; 2; 4; 8 ] in
  let* disp = map Int64.of_int (int_range (-4096) 4096) in
  return { Insn.base; index; scale; disp }

let gen_operand =
  let open QCheck2.Gen in
  oneof
    [ map (fun r -> Insn.Reg r) gen_reg;
      map (fun v -> Insn.Imm (Int64.of_int v)) int;
      map (fun m -> Insn.Mem m) gen_mem ]

let gen_insn =
  let open QCheck2.Gen in
  let reg_op = map (fun r -> Insn.Reg r) gen_reg in
  oneof
    [ (let* w = gen_width and* d = gen_operand and* s = gen_operand in
       return (Insn.Mov (w, d, s)));
      (let* op =
         oneofl [ Insn.Add; Sub; And; Or; Xor; Shl; Shr; Sar; Imul ]
       and* w = gen_width and* d = reg_op and* s = gen_operand in
       return (Insn.Alu (op, w, d, s)));
      (let* c = oneofl [ Insn.E; NE; L; LE; G; GE; B; BE; A; AE ]
       and* a = map Int64.of_int (int_range 0 100000) in
       return (Insn.Jcc (c, a)));
      (let* m = gen_mem and* r = gen_reg in
       return (Insn.Lea (r, m)));
      (let* x = gen_xmm and* o = gen_operand in
       return (Insn.Cvtsi2sd (x, o)));
      (let* x = gen_xmm and* m = gen_mem in
       return (Insn.Movsd (x, Xmem m)));
      return Insn.Syscall;
      return Insn.Ret;
      (let* o = gen_operand in return (Insn.Push o)) ]

let codec_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"codec round-trip" gen_insn (fun insn ->
      let enc = Codec.encode insn in
      let dec, consumed = Codec.decode enc 0 in
      Insn.equal dec insn && consumed = String.length enc)

(* ---------------- CPU semantics spot checks ---------------- *)

let run_asm ?(argv = [ "t" ]) ?(config = Vm.Machine.default_config) items =
  let prog = Asm.Ast.obj items in
  let image = Libc.Runtime.link_with_libs prog in
  Vm.Machine.run_image ~config:{ config with argv } image

let exit_code res =
  Option.value ~default:(-1) res.Vm.Machine.exit_code

let flags_sub () =
  (* 5 - 7 is negative: jl taken *)
  let open Dsl in
  let res =
    run_asm
      [ label "main";
        mov rax (imm 5);
        cmp rax (imm 7);
        jl ".yes";
        mov rax (imm 1);
        ret;
        label ".yes";
        mov rax (imm 42);
        ret ]
  in
  Alcotest.(check int) "jl taken" 42 (exit_code res)

let unsigned_compare () =
  (* 0xffffffffffffffff > 1 unsigned: ja taken *)
  let open Dsl in
  let res =
    run_asm
      [ label "main";
        mov rax (imm (-1));
        cmp rax (imm 1);
        ja ".yes";
        mov rax (imm 1);
        ret;
        label ".yes";
        mov rax (imm 42);
        ret ]
  in
  Alcotest.(check int) "ja taken" 42 (exit_code res)

let partial_register_write () =
  (* W32 write zeroes the top half; W8 write merges *)
  let open Dsl in
  let res =
    run_asm
      [ label "main";
        mov rax (imm64 0x1122334455667788L);
        mov ~w:Isa.Insn.W32 rax (imm 0x99);
        cmp rax (imm 0x99);
        jne ".bad";
        mov rbx (imm64 0xff00L);
        mov ~w:Isa.Insn.W8 rbx (imm 0x7);
        mov rcx (imm64 0xff07L);
        cmp rbx rcx;
        jne ".bad";
        mov rax (imm 42);
        ret;
        label ".bad";
        mov rax (imm 1);
        ret ]
  in
  Alcotest.(check int) "width merges" 42 (exit_code res)

let idiv_semantics () =
  let open Dsl in
  let res =
    run_asm
      [ label "main";
        mov rax (imm (-17));
        mov rcx (imm 5);
        idiv rcx;
        (* C semantics: -17 / 5 = -3 rem -2 *)
        cmp rax (imm (-3));
        jne ".bad";
        cmp rdx (imm (-2));
        jne ".bad";
        mov rax (imm 42);
        ret;
        label ".bad";
        mov rax (imm 1);
        ret ]
  in
  Alcotest.(check int) "idiv" 42 (exit_code res)

let div_by_zero_faults () =
  let open Dsl in
  let res =
    run_asm
      [ label "main";
        mov rax (imm 100);
        xor rcx rcx;
        idiv rcx;
        mov rax (imm 0);
        ret ]
  in
  Alcotest.(check bool) "faulted" true (res.fault <> None)

let signal_handler_resumes () =
  let open Dsl in
  let res =
    run_asm
      [ label "main";
        mov rdi (imm 8);
        mov_lbl rsi ".handler";
        call "signal";
        mov rax (imm 100);
        xor rcx rcx;
        idiv rcx;                       (* faults; handler returns here *)
        mov rax (imm 42);
        ret;
        label ".handler";
        ret ]
  in
  Alcotest.(check int) "resumed after fault" 42 (exit_code res);
  Alcotest.(check bool) "no machine fault" true (res.fault = None)

(* ---------------- kernel objects ---------------- *)

let pipe_roundtrip () =
  let prog =
    Asm.Ast.obj
      ~data:[ Dsl.label "msg"; Dsl.asciz "hello" ]
      ~bss:[ Dsl.label "pfds"; Dsl.space 8; Dsl.label "buf"; Dsl.space 8 ]
      [ Dsl.label "main";
        Dsl.lea Dsl.rdi "pfds";
        Dsl.call "pipe";
        Dsl.lea Dsl.rax "pfds";
        Dsl.mov ~w:Isa.Insn.W32 Dsl.rdi (Dsl.mreg ~disp:4 Isa.Reg.RAX);
        Dsl.lea Dsl.rsi "msg";
        Dsl.mov Dsl.rdx (Dsl.imm 5);
        Dsl.call "write";
        Dsl.lea Dsl.rax "pfds";
        Dsl.mov ~w:Isa.Insn.W32 Dsl.rdi (Dsl.mreg Isa.Reg.RAX);
        Dsl.lea Dsl.rsi "buf";
        Dsl.mov Dsl.rdx (Dsl.imm 5);
        Dsl.call "read";
        Dsl.mov Dsl.rdi (Dsl.imm 1);
        Dsl.lea Dsl.rsi "buf";
        Dsl.mov Dsl.rdx (Dsl.imm 5);
        Dsl.call "write";
        Dsl.mov Dsl.rax (Dsl.imm 0);
        Dsl.ret ]
  in
  let image = Libc.Runtime.link_with_libs prog in
  let r = Vm.Machine.run_image image in
  Alcotest.(check string) "pipe carried the bytes" "hello" r.stdout

let file_roundtrip () =
  let bomb = Bombs.Catalog.find "file_bomb" in
  let config = Bombs.Common.config_for bomb "mango" in
  let r = Vm.Machine.run_image ~config (Bombs.Catalog.image bomb) in
  Alcotest.(check bool) "file bomb works" true (Bombs.Common.triggered r)

let fork_isolates_memory () =
  let bomb = Bombs.Catalog.find "fork_bomb" in
  (* child writes 3*33+1 = 100 into the pipe; parent must see it *)
  let config = Bombs.Common.config_for bomb "33" in
  let r = Vm.Machine.run_image ~config (Bombs.Catalog.image bomb) in
  Alcotest.(check bool) "fork+pipe" true (Bombs.Common.triggered r)

let threads_share_memory () =
  let bomb = Bombs.Catalog.find "pthread_bomb" in
  let config = Bombs.Common.config_for bomb "70" in
  let r = Vm.Machine.run_image ~config (Bombs.Catalog.image bomb) in
  Alcotest.(check bool) "pthread shared var" true (Bombs.Common.triggered r)

let deterministic_runs () =
  let bomb = Bombs.Catalog.find "srand_bomb" in
  let config = Bombs.Common.config_for bomb "12345" in
  let r1 = Vm.Machine.run_image ~config (Bombs.Catalog.image bomb) in
  let r2 = Vm.Machine.run_image ~config (Bombs.Catalog.image bomb) in
  Alcotest.(check string) "same stdout" r1.stdout r2.stdout;
  Alcotest.(check int) "same steps" r1.steps r2.steps

let fuel_limits () =
  let open Dsl in
  let prog =
    Asm.Ast.obj [ label "main"; label ".spin"; jmp ".spin" ]
  in
  let image = Libc.Runtime.link_with_libs prog in
  let config = { Vm.Machine.default_config with fuel = 10_000 } in
  let r = Vm.Machine.run_image ~config image in
  Alcotest.(check bool) "fuel exhausted" true r.fuel_exhausted

(* ---------------- paged memory ---------------- *)

type mem_op = Read of int64 * int | Write of int64 * int * int64

(* 1..8-byte accesses over four pages (three adjacent, one far), mostly
   within 8 bytes of a page boundary, so accesses cross pages and the
   last-page cache both hits and misses *)
let gen_mem_ops : mem_op list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let ps = Vm.Mem.page_size in
  let addr =
    let* page = oneofl [ 0x10; 0x11; 0x12; 0x400 ] in
    let* off =
      frequency
        [ (3, int_range (ps - 8) (ps - 1)); (2, int_range 0 7);
          (1, int_bound (ps - 1)) ]
    in
    return (Int64.of_int ((page * ps) + off))
  in
  let op =
    let* a = addr and* n = int_range 1 8 and* write = bool in
    if write then map (fun v -> Write (a, n, v)) ui64 else return (Read (a, n))
  in
  list_size (int_range 1 120) op

let mem_matches_byte_map =
  QCheck2.Test.make ~count:300 ~name:"mem matches a reference byte map"
    gen_mem_ops (fun ops ->
        let m = Vm.Mem.create () and bytes = Hashtbl.create 64 in
        let byte a = Option.value ~default:0 (Hashtbl.find_opt bytes a) in
        let at a i = Int64.add a (Int64.of_int i) in
        List.for_all
          (function
            | Write (a, n, v) ->
              Vm.Mem.write m a n v;
              for i = 0 to n - 1 do
                Hashtbl.replace bytes (at a i)
                  (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
              done;
              true
            | Read (a, n) ->
              let expected = ref 0L in
              for i = n - 1 downto 0 do
                expected :=
                  Int64.logor (Int64.shift_left !expected 8)
                    (Int64.of_int (byte (at a i)))
              done;
              Int64.equal (Vm.Mem.read m a n) !expected
              && List.for_all
                   (fun i -> Vm.Mem.read_u8 m (at a i) = byte (at a i))
                   (List.init n Fun.id))
          ops)

(* [write_bytes]/[read_bytes] move each page's run in one blit; they
   must equal the byte loop, across page edges and on untouched pages *)
let gen_page_runs =
  let open QCheck2.Gen in
  let page = Vm.Mem.page_size in
  let* start =
    map (fun (p, o) -> (p * page) + o)
      (pair (int_range 1 6) (int_range (-40) 40))
  in
  let* data = string_size ~gen:char (int_range 0 ((2 * page) + 100)) in
  let* roff = int_range (-50) 50 and* rlen = int_range 0 ((2 * page) + 200) in
  return (Int64.of_int start, data, Int64.of_int (start + roff), rlen)

let mem_bytes_match_byte_loop =
  QCheck2.Test.make ~count:200 ~name:"mem write_bytes/read_bytes = byte loop"
    gen_page_runs (fun (addr, data, raddr, rlen) ->
        let at a i = Int64.add a (Int64.of_int i) in
        let m = Vm.Mem.create () and r = Vm.Mem.create () in
        Vm.Mem.write_bytes m addr data;
        String.iteri (fun i c -> Vm.Mem.write_u8 r (at addr i) (Char.code c))
          data;
        let loop mem =
          String.init rlen (fun i -> Char.chr (Vm.Mem.read_u8 mem (at raddr i)))
        in
        let want = loop r in
        String.equal (Vm.Mem.read_bytes m raddr rlen) want
        && String.equal (loop m) want
        && String.equal (Vm.Mem.read_bytes m addr (String.length data)) data)

(* the flat register file: a write at every width keeps x86's merge
   rules, reads back through [reg], [get] and [read_operand], and
   leaves every other register as it was *)
let flat_registers_at_every_width =
  QCheck2.Test.make ~count:500 ~name:"flat registers at every width"
    QCheck2.Gen.(tup4 gen_reg gen_width ui64 ui64)
    (fun (r, w, init, v) ->
       let cpu = Vm.Cpu.create () and mem = Vm.Mem.create () in
       let fill i = Int64.mul 0x0101010101010101L (Int64.of_int (i + 1)) in
       List.iteri (fun i r -> Vm.Cpu.set_reg cpu r (fill i)) Reg.all;
       Vm.Cpu.set_reg cpu r init;
       Vm.Cpu.write_operand cpu mem w (Insn.Reg r) v;
       let m = Vm.Cpu.mask_of_width w in
       let want =
         match w with
         | W64 -> v
         | W32 -> Int64.logand v m
         | W8 | W16 ->
           Int64.logor (Int64.logand init (Int64.lognot m)) (Int64.logand v m)
       in
       let i = Reg.index r in
       Bytes.length cpu.Vm.Cpu.regs = 8 * Reg.count
       && Int64.equal (Vm.Cpu.reg cpu r) want
       && Int64.equal (Vm.Cpu.get cpu.Vm.Cpu.regs i) want
       && Int64.equal
            (Vm.Cpu.read_operand cpu mem w (Insn.Reg r))
            (Int64.logand want m)
       && List.for_all
            (fun j ->
               j = i || Int64.equal (Vm.Cpu.get cpu.Vm.Cpu.regs j) (fill j))
            (List.init Reg.count Fun.id))

(* the register name table keeps the strings the derived printers
   print, and finds each register back from its name *)
let register_names () =
  List.iter
    (fun r ->
       let shown = Format.asprintf "%a" Reg.pp r in
       Alcotest.(check string) "show" shown (Reg.show r);
       Alcotest.(check string) "name" (String.lowercase_ascii shown)
         (Reg.name r);
       Alcotest.(check int) "index_of_show" (Reg.index r)
         (Reg.index_of_show shown))
    Reg.all;
  List.iter
    (fun x ->
       let shown = Format.asprintf "%a" Reg.pp_xmm x in
       Alcotest.(check string) "show_xmm" shown (Reg.show_xmm x);
       Alcotest.(check string) "xmm_name" (String.lowercase_ascii shown)
         (Reg.xmm_name x);
       Alcotest.(check int) "xmm_index_of_show" (Reg.xmm_index x)
         (Reg.xmm_index_of_show shown))
    Reg.all_xmm;
  Alcotest.(check int) "a flag is no register" (-1) (Reg.index_of_show "ZF")

(* a clone taken while the last-page cache is warm shares no page with
   its source: writes on either side stay on that side *)
let mem_clone_after_primed_cache () =
  let m = Vm.Mem.create () in
  let a = 0x5000L and b = 0x5008L in
  Vm.Mem.write m a 8 0x1111111111111111L;
  ignore (Vm.Mem.read m a 8);
  let c = Vm.Mem.clone m in
  Vm.Mem.write m a 8 0x2222222222222222L;
  Alcotest.(check int64) "source write not in clone" 0x1111111111111111L
    (Vm.Mem.read c a 8);
  Vm.Mem.write c b 8 0x3333333333333333L;
  Vm.Mem.write_u8 c a 0x44;
  Alcotest.(check int64) "clone write not in source" 0L (Vm.Mem.read m b 8);
  Alcotest.(check int64) "clone byte write not in source"
    0x2222222222222222L (Vm.Mem.read m a 8);
  Vm.Mem.write_u8 m b 0x55;
  Alcotest.(check int64) "source byte write not in clone"
    0x3333333333333333L (Vm.Mem.read c b 8);
  Alcotest.(check int64) "clone keeps its own writes" 0x1111111111111144L
    (Vm.Mem.read c a 8)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ codec_roundtrip ]

let () =
  Alcotest.run "vm"
    [ ("codec", qcheck_tests);
      ("cpu",
       [ Alcotest.test_case "signed flags" `Quick flags_sub;
         Alcotest.test_case "unsigned flags" `Quick unsigned_compare;
         Alcotest.test_case "partial register writes" `Quick
           partial_register_write;
         Alcotest.test_case "idiv" `Quick idiv_semantics;
         Alcotest.test_case "div by zero faults" `Quick div_by_zero_faults;
         Alcotest.test_case "signal handler" `Quick signal_handler_resumes;
         QCheck_alcotest.to_alcotest flat_registers_at_every_width;
         Alcotest.test_case "register names" `Quick register_names ]);
      ("kernel",
       [ Alcotest.test_case "pipe round-trip" `Quick pipe_roundtrip;
         Alcotest.test_case "file round-trip" `Quick file_roundtrip;
         Alcotest.test_case "fork + pipe" `Quick fork_isolates_memory;
         Alcotest.test_case "threads share memory" `Quick threads_share_memory;
         Alcotest.test_case "determinism" `Quick deterministic_runs;
         Alcotest.test_case "fuel" `Quick fuel_limits ]);
      ("mem",
       [ QCheck_alcotest.to_alcotest mem_matches_byte_map;
         QCheck_alcotest.to_alcotest mem_bytes_match_byte_loop;
         Alcotest.test_case "clone after primed cache" `Quick
           mem_clone_after_primed_cache ]) ]
