(** The concrete machine: a deterministic user-mode VM with a small
    kernel model.

    The kernel implements the slice of POSIX the logic bombs need:
    files (an in-memory filesystem), pipes, [fork], threads with a
    round-robin scheduler, a settable clock, a deterministic PRNG, a
    socket stub that serves configurable "web contents", and SIGFPE
    delivery for the exception bombs.  Everything is deterministic
    given a {!config}. *)

(* ------------------------------------------------------------------ *)
(* Kernel objects and file descriptors                                 *)
(* ------------------------------------------------------------------ *)

type kfile = { fpath : string; mutable data : string }
type kpipe = { q : Buffer.t; mutable readers : int; mutable writers : int;
               mutable rpos : int; mutable wpos : int }
type ksock = { content : string }

type kobj = KFile of kfile | KPipe of kpipe | KSock of ksock

type fd_entry =
  | Fd_stdin
  | Fd_stdout
  | Fd_stderr
  | Fd_file of { obj : int; mutable pos : int; writable : bool }
  | Fd_pipe_r of int
  | Fd_pipe_w of int
  | Fd_sock of { obj : int; mutable pos : int }

type proc = {
  pid : int;
  mem : Mem.t;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable sigfpe_handler : int64;  (** 0 = none *)
  mutable exited : bool;
  mutable exit_code : int;
  parent : int;
}

type task_state =
  | Runnable
  | Blocked  (** re-execute the pending syscall when scheduled *)
  | Dead

type task = {
  tid : int;
  proc : proc;
  cpu : Cpu.t;
  mutable state : task_state;
}

type config = {
  argv : string list;          (** argv.(0) is the program name *)
  now : int64;                 (** UNIX-seconds value of the clock *)
  files : (string * string) list;  (** pre-existing filesystem content *)
  web_content : string;        (** what the socket stub serves *)
  uid : int64;                 (** what getuid() reports *)
  random_seed : int64;
  fuel : int;                  (** max total executed instructions *)
  quantum : int;               (** instructions per scheduling slice *)
}

let default_config =
  { argv = [ "prog" ];
    now = 1_400_000_000L;
    files = [];
    web_content = "HTTP/1.0 200 OK\r\n\r\nhello";
    uid = 1000L;
    random_seed = 0x5eedL;
    fuel = 2_000_000;
    quantum = 64 }

type fault = Div_by_zero | Bad_decode of string
[@@deriving show { with_path = false }]

(* machine-level telemetry; steps are added as a per-run delta so the
   hot step loop pays nothing for instrumentation *)
let m_steps = Telemetry.Metrics.counter "vm.steps"
let m_faults = Telemetry.Metrics.counter "vm.faults"
let m_syscalls = Telemetry.Metrics.counter "vm.syscalls"
let m_signals = Telemetry.Metrics.counter "vm.signals"

type run_result = {
  exit_code : int option;      (** of the root process *)
  stdout : string;
  stderr : string;
  steps : int;
  fault : fault option;
  fuel_exhausted : bool;
  deadlocked : bool;
}

type t = {
  image : Asm.Image.t;
  config : config;
  mutable tasks : task list;
  mutable next_pid : int;
  mutable next_tid : int;
  objects : (int, kobj) Hashtbl.t;
  mutable next_obj : int;
  fs : (string, int) Hashtbl.t;        (** path -> file object id *)
  out_buf : Buffer.t;
  err_buf : Buffer.t;
  mutable prng : int64;
  mutable steps : int;
  mutable fault : fault option;
  decode_cache : (int64, Isa.Insn.t * int64) Hashtbl.t;
  mutable hook : (Event.t -> unit) option;
  argv_layout : (int64 * int) list;
      (** (address, length-with-NUL) of each argv string *)
  meter : Robust.Meter.t option;
      (** resource accounting; captured from the ambient meter at
          {!create} so supervised cells govern every machine they
          spin up without threading a parameter through each site *)
}

let stack_top = 0x7ff0_0000L
let thread_stack_area = 0x7e00_0000L

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let load_segments image mem =
  Mem.write_bytes mem image.Asm.Image.text_addr image.text;
  Mem.write_bytes mem image.data_addr image.data

(* SysV-flavoured process stack: argc at RSP, then argv pointers,
   NULL, then the strings. *)
let setup_stack mem argv =
  let strings_base = Int64.sub stack_top 0x800L in
  let addrs = ref [] in
  let layout = ref [] in
  let cursor = ref strings_base in
  List.iter
    (fun s ->
       addrs := !cursor :: !addrs;
       layout := (!cursor, String.length s + 1) :: !layout;
       Mem.write_bytes mem !cursor (s ^ "\000");
       cursor := Int64.add !cursor (Int64.of_int (String.length s + 1)))
    argv;
  let addrs = List.rev !addrs in
  let layout = List.rev !layout in
  let argc = List.length argv in
  let frame = Int64.sub strings_base (Int64.of_int (8 * (argc + 2))) in
  Mem.write mem frame 8 (Int64.of_int argc);
  List.iteri
    (fun i a -> Mem.write mem (Int64.add frame (Int64.of_int (8 * (i + 1)))) 8 a)
    addrs;
  Mem.write mem (Int64.add frame (Int64.of_int (8 * (argc + 1)))) 8 0L;
  (frame, layout)

(** A freshly loaded memory image with the argv stack in place, plus
    the initial RSP and argv layout — what a trace-replaying executor
    needs to mirror the machine's starting point. *)
let fresh_memory ?(config = default_config) image =
  let mem = Mem.create () in
  load_segments image mem;
  let rsp, argv_layout = setup_stack mem config.argv in
  (mem, rsp, argv_layout)

let create ?meter ?(config = default_config) image =
  let meter = Robust.Meter.default meter in
  let mem, rsp, argv_layout = fresh_memory ~config image in
  let cpu = Cpu.create ~pc:image.Asm.Image.entry () in
  Cpu.set_reg cpu RSP rsp;
  let proc =
    { pid = 1; mem; fds = Hashtbl.create 8; next_fd = 3;
      sigfpe_handler = 0L; exited = false; exit_code = 0; parent = 0 }
  in
  Hashtbl.replace proc.fds 0 Fd_stdin;
  Hashtbl.replace proc.fds 1 Fd_stdout;
  Hashtbl.replace proc.fds 2 Fd_stderr;
  let t =
    { image; config;
      tasks = [ { tid = 1; proc; cpu; state = Runnable } ];
      next_pid = 2; next_tid = 2;
      objects = Hashtbl.create 16;
      next_obj = Event.Obj_id.first_dynamic;
      fs = Hashtbl.create 8;
      out_buf = Buffer.create 256;
      err_buf = Buffer.create 64;
      prng = config.random_seed;
      steps = 0;
      fault = None;
      decode_cache = Hashtbl.create 1024;
      hook = None;
      argv_layout;
      meter }
  in
  List.iter
    (fun (path, data) ->
       let id = t.next_obj in
       t.next_obj <- id + 1;
       Hashtbl.replace t.objects id (KFile { fpath = path; data });
       Hashtbl.replace t.fs path id)
    config.files;
  t

let set_hook t f = t.hook <- Some f

let emit t ev = match t.hook with Some f -> f ev | None -> ()

(* ------------------------------------------------------------------ *)
(* PRNG (SplitMix64, deterministic)                                    *)
(* ------------------------------------------------------------------ *)

let next_random t =
  t.prng <- Int64.add t.prng 0x9E3779B97F4A7C15L;
  let z = t.prng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* ------------------------------------------------------------------ *)
(* Syscalls                                                            *)
(* ------------------------------------------------------------------ *)

type sys_outcome =
  | Done of Event.sys_record
  | Would_block

let enoent = -2L
let ebadf = -9L
let einval = -22L

let new_obj t o =
  let id = t.next_obj in
  t.next_obj <- id + 1;
  Hashtbl.replace t.objects id o;
  id

let alloc_fd proc entry =
  let fd = proc.next_fd in
  proc.next_fd <- fd + 1;
  Hashtbl.replace proc.fds fd entry;
  fd

let pipe_of t id =
  match Hashtbl.find_opt t.objects id with
  | Some (KPipe p) -> p
  | _ -> invalid_arg "pipe_of"

let close_fd t proc fd =
  match Hashtbl.find_opt proc.fds fd with
  | None -> ebadf
  | Some entry ->
    (match entry with
     | Fd_pipe_r id -> let p = pipe_of t id in p.readers <- p.readers - 1
     | Fd_pipe_w id -> let p = pipe_of t id in p.writers <- p.writers - 1
     | _ -> ());
    Hashtbl.remove proc.fds fd;
    0L

let close_all_fds t proc =
  let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) proc.fds [] in
  List.iter (fun fd -> ignore (close_fd t proc fd)) fds

let kill_process t pid code =
  List.iter
    (fun task ->
       if task.proc.pid = pid && task.state <> Dead then begin
         task.state <- Dead;
         task.proc.exited <- true;
         task.proc.exit_code <- code
       end)
    t.tasks;
  List.iter
    (fun task -> if task.proc.pid = pid then close_all_fds t task.proc)
    t.tasks

let sys_names : (int, string) Hashtbl.t = Hashtbl.create 32

let () =
  List.iter (fun (n, s) -> Hashtbl.replace sys_names n s)
    [ (0, "read"); (1, "write"); (2, "open"); (3, "close"); (8, "lseek");
      (13, "rt_sigaction"); (22, "pipe"); (35, "nanosleep"); (39, "getpid");
      (41, "socket"); (42, "connect"); (57, "fork"); (60, "exit");
      (61, "wait4"); (96, "gettimeofday"); (102, "getuid"); (201, "time");
      (318, "getrandom");
      (0x1000, "thread_create"); (0x1001, "thread_join"); (0x1002, "yield");
      (0x1003, "thread_exit") ]

let sys_name nr =
  match Hashtbl.find_opt sys_names nr with
  | Some s -> s
  | None -> Printf.sprintf "sys_%d" nr

(** Execute the syscall pending at the current pc of [task].  Returns
    [Would_block] to retry later (pc untouched). *)
let handle_syscall t task : sys_outcome =
  let cpu = task.cpu and proc = task.proc in
  let nr = Int64.to_int (Cpu.reg cpu RAX) in
  let a0 = Cpu.reg cpu RDI and a1 = Cpu.reg cpu RSI and a2 = Cpu.reg cpu RDX in
  let a3 = Cpu.reg cpu R10 and a4 = Cpu.reg cpu R8 and a5 = Cpu.reg cpu R9 in
  let args = [| a0; a1; a2; a3; a4; a5 |] in
  let done_ ?(effects = []) ret =
    Cpu.set_reg cpu RAX ret;
    Done { nr = Int64.of_int nr; name = sys_name nr; args; ret; effects }
  in
  match nr with
  | 0 (* read(fd, buf, len) *) -> (
      let fd = Int64.to_int a0 and buf = a1 and len = Int64.to_int a2 in
      match Hashtbl.find_opt proc.fds fd with
      | None -> done_ ebadf
      | Some Fd_stdin -> done_ 0L (* EOF *)
      | Some (Fd_stdout | Fd_stderr) -> done_ ebadf
      | Some (Fd_file f) -> (
          match Hashtbl.find_opt t.objects f.obj with
          | Some (KFile kf) ->
            let avail = String.length kf.data - f.pos in
            let n = max 0 (min len avail) in
            let chunk = String.sub kf.data f.pos n in
            Mem.write_bytes proc.mem buf chunk;
            let off = f.pos in
            f.pos <- f.pos + n;
            done_
              ~effects:
                [ Event.Eff_read
                    { obj = f.obj; off; addr = buf; len = n; data = chunk } ]
              (Int64.of_int n)
          | _ -> done_ ebadf)
      | Some (Fd_pipe_r id) ->
        let p = pipe_of t id in
        let avail = Buffer.length p.q in
        if avail = 0 then
          if p.writers > 0 then Would_block else done_ 0L
        else begin
          let n = min len avail in
          let data = Buffer.contents p.q in
          let chunk = String.sub data 0 n in
          Mem.write_bytes proc.mem buf chunk;
          Buffer.clear p.q;
          Buffer.add_string p.q (String.sub data n (avail - n));
          let off = p.rpos in
          p.rpos <- off + n;
          done_
            ~effects:
              [ Event.Eff_read
                  { obj = id; off; addr = buf; len = n; data = chunk } ]
            (Int64.of_int n)
        end
      | Some (Fd_pipe_w _) -> done_ ebadf
      | Some (Fd_sock s) -> (
          match Hashtbl.find_opt t.objects s.obj with
          | Some (KSock k) ->
            let avail = String.length k.content - s.pos in
            let n = max 0 (min len avail) in
            let chunk = String.sub k.content s.pos n in
            Mem.write_bytes proc.mem buf chunk;
            let off = s.pos in
            s.pos <- s.pos + n;
            done_
              ~effects:
                [ Event.Eff_read
                    { obj = s.obj; off; addr = buf; len = n; data = chunk } ]
              (Int64.of_int n)
          | _ -> done_ ebadf))
  | 1 (* write(fd, buf, len) *) -> (
      let fd = Int64.to_int a0 and buf = a1 and len = Int64.to_int a2 in
      let data = Mem.read_bytes proc.mem buf len in
      match Hashtbl.find_opt proc.fds fd with
      | None -> done_ ebadf
      | Some Fd_stdout ->
        let off = Buffer.length t.out_buf in
        Buffer.add_string t.out_buf data;
        done_
          ~effects:
            [ Event.Eff_write
                { obj = Event.Obj_id.stdout_; off; addr = buf; len } ]
          a2
      | Some Fd_stderr ->
        let off = Buffer.length t.err_buf in
        Buffer.add_string t.err_buf data;
        done_
          ~effects:
            [ Event.Eff_write
                { obj = Event.Obj_id.stderr_; off; addr = buf; len } ]
          a2
      | Some Fd_stdin -> done_ ebadf
      | Some (Fd_file f) -> (
          match Hashtbl.find_opt t.objects f.obj with
          | Some (KFile kf) ->
            if not f.writable then done_ ebadf
            else begin
              let off = f.pos in
              let before = kf.data in
              let pad =
                if off > String.length before then
                  String.make (off - String.length before) '\000'
                else ""
              in
              let keep = min off (String.length before) in
              let tail_start = off + len in
              let tail =
                if tail_start < String.length before then
                  String.sub before tail_start (String.length before - tail_start)
                else ""
              in
              kf.data <- String.sub before 0 keep ^ pad ^ data ^ tail;
              f.pos <- off + len;
              done_
                ~effects:
                  [ Event.Eff_write { obj = f.obj; off; addr = buf; len } ]
                a2
            end
          | _ -> done_ ebadf)
      | Some (Fd_pipe_w id) ->
        let p = pipe_of t id in
        Buffer.add_string p.q data;
        let off = p.wpos in
        p.wpos <- off + len;
        done_
          ~effects:[ Event.Eff_write { obj = id; off; addr = buf; len } ]
          a2
      | Some (Fd_pipe_r _) | Some (Fd_sock _) -> done_ ebadf)
  | 2 (* open(path, flags) *) ->
    let path = Mem.read_cstring proc.mem a0 in
    let flags = Int64.to_int a1 in
    let writable = flags land 3 <> 0 in
    (match Hashtbl.find_opt t.fs path with
     | Some id ->
       (if writable && flags land 0o1000 <> 0 then
          match Hashtbl.find_opt t.objects id with
          | Some (KFile kf) -> kf.data <- ""
          | _ -> ());
       done_ (Int64.of_int (alloc_fd proc (Fd_file { obj = id; pos = 0; writable })))
     | None ->
       if writable then begin
         let id = new_obj t (KFile { fpath = path; data = "" }) in
         Hashtbl.replace t.fs path id;
         done_
           (Int64.of_int (alloc_fd proc (Fd_file { obj = id; pos = 0; writable })))
       end
       else done_ enoent)
  | 3 (* close *) -> done_ (close_fd t proc (Int64.to_int a0))
  | 8 (* lseek(fd, off, whence) *) -> (
      match Hashtbl.find_opt proc.fds (Int64.to_int a0) with
      | Some (Fd_file f) ->
        let target =
          match Int64.to_int a2 with
          | 0 -> Int64.to_int a1
          | 1 -> f.pos + Int64.to_int a1
          | 2 -> (
              match Hashtbl.find_opt t.objects f.obj with
              | Some (KFile kf) -> String.length kf.data + Int64.to_int a1
              | _ -> 0)
          | _ -> -1
        in
        if target < 0 then done_ einval
        else (f.pos <- target; done_ (Int64.of_int target))
      | _ -> done_ ebadf)
  | 13 (* rt_sigaction(signum, handler) *) ->
    if Int64.to_int a0 = 8 then begin
      proc.sigfpe_handler <- a1;
      done_ 0L
    end
    else done_ 0L
  | 22 (* pipe(fds_ptr) *) ->
    let id = new_obj t (KPipe { q = Buffer.create 64; readers = 1; writers = 1;
                       rpos = 0; wpos = 0 }) in
    let rfd = alloc_fd proc (Fd_pipe_r id) in
    let wfd = alloc_fd proc (Fd_pipe_w id) in
    Mem.write proc.mem a0 4 (Int64.of_int rfd);
    Mem.write proc.mem (Int64.add a0 4L) 4 (Int64.of_int wfd);
    done_
      ~effects:
        [ Event.Eff_read
            { obj = id; off = 0; addr = a0; len = 8;
              data = Mem.read_bytes proc.mem a0 8 } ]
      0L
  | 35 (* nanosleep *) -> done_ 0L
  | 39 (* getpid *) -> done_ (Int64.of_int proc.pid)
  | 41 (* socket *) ->
    let id = new_obj t (KSock { content = t.config.web_content }) in
    done_ (Int64.of_int (alloc_fd proc (Fd_sock { obj = id; pos = 0 })))
  | 42 (* connect *) -> done_ 0L
  | 57 (* fork *) ->
    let child_pid = t.next_pid in
    t.next_pid <- child_pid + 1;
    let child_proc =
      { pid = child_pid;
        mem = Mem.clone proc.mem;
        fds = Hashtbl.copy proc.fds;
        next_fd = proc.next_fd;
        sigfpe_handler = proc.sigfpe_handler;
        exited = false; exit_code = 0;
        parent = proc.pid }
    in
    (* shared pipe ends gain a reference *)
    Hashtbl.iter
      (fun _ entry ->
         match entry with
         | Fd_pipe_r id -> let p = pipe_of t id in p.readers <- p.readers + 1
         | Fd_pipe_w id -> let p = pipe_of t id in p.writers <- p.writers + 1
         | _ -> ())
      child_proc.fds;
    let child_cpu = Cpu.clone cpu in
    (* both continue after the syscall; child sees 0 *)
    Cpu.set_reg child_cpu RAX 0L;
    let child_tid = t.next_tid in
    t.next_tid <- child_tid + 1;
    let child_task =
      { tid = child_tid; proc = child_proc; cpu = child_cpu; state = Runnable }
    in
    (* child's pc still points at the syscall insn; advance it past *)
    let _, next_pc =
      Hashtbl.find t.decode_cache cpu.Cpu.pc
    in
    child_cpu.Cpu.pc <- next_pc;
    t.tasks <- t.tasks @ [ child_task ];
    done_ ~effects:[ Event.Eff_spawn child_pid ] (Int64.of_int child_pid)
  | 60 (* exit *) ->
    kill_process t proc.pid (Int64.to_int a0);
    done_ a0
  | 61 (* wait4 *) ->
    let child =
      List.find_opt
        (fun task -> task.proc.parent = proc.pid && task.proc.exited)
        t.tasks
    in
    (match child with
     | Some c -> done_ (Int64.of_int c.proc.pid)
     | None ->
       if List.exists (fun task -> task.proc.parent = proc.pid
                                   && not task.proc.exited) t.tasks
       then Would_block
       else done_ (-10L (* ECHILD *)))
  | 96 (* gettimeofday(tv_ptr) *) ->
    Mem.write proc.mem a0 8 t.config.now;
    Mem.write proc.mem (Int64.add a0 8L) 8
      (Int64.of_int (t.steps mod 1_000_000));
    done_
      ~effects:
        [ Event.Eff_read
            { obj = Event.Obj_id.clock; off = 0; addr = a0; len = 16;
              data = Mem.read_bytes proc.mem a0 16 } ]
      0L
  | 102 (* getuid *) -> done_ t.config.uid
  | 201 (* time *) ->
    if a0 <> 0L then Mem.write proc.mem a0 8 t.config.now;
    let effects =
      if a0 <> 0L then
        [ Event.Eff_read
            { obj = Event.Obj_id.clock; off = 0; addr = a0; len = 8;
              data = Mem.read_bytes proc.mem a0 8 } ]
      else []
    in
    Cpu.set_reg cpu RAX t.config.now;
    Done { nr = Int64.of_int nr; name = "time"; args; ret = t.config.now; effects }
  | 318 (* getrandom(buf, len) *) ->
    let len = Int64.to_int a1 in
    let bytes =
      String.init len (fun i ->
          if i mod 8 = 0 then ignore (next_random t);
          Char.chr
            (Int64.to_int
               (Int64.shift_right_logical t.prng (8 * (i mod 8)))
             land 0xff))
    in
    Mem.write_bytes proc.mem a0 bytes;
    done_
      ~effects:
        [ Event.Eff_read
            { obj = Event.Obj_id.prng; off = 0; addr = a0; len; data = bytes } ]
      a1
  | 0x1000 (* thread_create(entry, stack_top, arg) *) ->
    let tid = t.next_tid in
    t.next_tid <- tid + 1;
    let tcpu = Cpu.clone cpu in
    tcpu.Cpu.pc <- a0;
    Cpu.set_reg tcpu RSP a1;
    Cpu.set_reg tcpu RDI a2;
    t.tasks <- t.tasks @ [ { tid; proc; cpu = tcpu; state = Runnable } ];
    done_ ~effects:[ Event.Eff_spawn tid ] (Int64.of_int tid)
  | 0x1001 (* thread_join(tid) *) ->
    let target = Int64.to_int a0 in
    (match List.find_opt (fun task -> task.tid = target) t.tasks with
     | Some { state = Dead; _ } | None -> done_ 0L
     | Some _ -> Would_block)
  | 0x1002 (* yield *) -> done_ 0L
  | 0x1003 (* thread_exit *) ->
    task.state <- Dead;
    done_ 0L
  | _ -> done_ (-38L (* ENOSYS *))

(* ------------------------------------------------------------------ *)
(* Stepping and scheduling                                             *)
(* ------------------------------------------------------------------ *)

exception Decode_fault of string

let decode_at t (proc : proc) pc =
  match Hashtbl.find_opt t.decode_cache pc with
  | Some r -> r
  | None ->
    let raw = Mem.read_bytes proc.mem pc 64 in
    (match Isa.Codec.decode raw 0 with
     | insn, sz ->
       let r = (insn, Int64.add pc (Int64.of_int sz)) in
       Hashtbl.replace t.decode_cache pc r;
       r
     | exception Isa.Codec.Decode_error m -> raise (Decode_fault m))

(** Execute one instruction of [task].  Returns [false] if the task can
    make no progress right now (blocked). *)
let step_task t task =
  let cpu = task.cpu and proc = task.proc in
  let pc = cpu.Cpu.pc in
  match decode_at t proc pc with
  | exception Decode_fault m ->
    (* illegal instruction: the process dies, the machine reports it *)
    t.steps <- t.steps + 1;
    t.fault <- Some (Bad_decode m);
    kill_process t proc.pid 132;
    true
  | insn, next_pc ->
  let ea = Cpu.effective_addrs cpu insn in
  let regs_before = Array.copy cpu.Cpu.regs in
  let xmm_before = Array.copy cpu.Cpu.xmm in
  let mem_reads =
    let acc = Access.of_insn regs_before insn in
    List.map (fun (a, n) -> (a, Mem.read_bytes proc.mem a n)) acc.Access.r_mem
  in
  let flags_before = Cpu.pack_flags cpu in
  let exec actual_next =
    emit t
      (Event.Exec
         { pid = proc.pid; tid = task.tid; pc; insn; next_pc = actual_next;
           ea; mem_reads; regs_before; xmm_before; flags_before })
  in
  match Cpu.execute cpu proc.mem ~next_pc insn with
  | Next ->
    cpu.Cpu.pc <- next_pc;
    t.steps <- t.steps + 1;
    exec next_pc;
    true
  | Jumped ->
    t.steps <- t.steps + 1;
    exec cpu.Cpu.pc;
    true
  | Halted ->
    t.steps <- t.steps + 1;
    exec next_pc;
    kill_process t proc.pid 0;
    true
  | Do_syscall -> (
      match handle_syscall t task with
      | Done record ->
        if task.state <> Dead then cpu.Cpu.pc <- next_pc;
        t.steps <- t.steps + 1;
        task.state <- (if task.state = Dead then Dead else Runnable);
        exec next_pc;
        Telemetry.Metrics.incr m_syscalls;
        emit t (Event.Sys { pid = proc.pid; tid = task.tid; record });
        true
      | Would_block ->
        task.state <- Blocked;
        false)
  | Fault_div ->
    t.steps <- t.steps + 1;
    if proc.sigfpe_handler <> 0L then begin
      (* push the resume address; the handler returns past the fault *)
      Cpu.stack_push cpu proc.mem next_pc;
      cpu.Cpu.pc <- proc.sigfpe_handler;
      Cpu.set_reg cpu RDI 8L;
      exec proc.sigfpe_handler;
      Telemetry.Metrics.incr m_signals;
      emit t
        (Event.Signal
           { pid = proc.pid; tid = task.tid; signum = 8;
             handler = proc.sigfpe_handler; resume = next_pc });
      true
    end
    else begin
      exec next_pc;
      t.fault <- Some Div_by_zero;
      kill_process t proc.pid 136;
      true
    end

let root_exited t =
  List.for_all
    (fun task -> task.proc.pid <> 1 || task.state = Dead)
    t.tasks

let finish t ~deadlocked ~fuel_exhausted =
  let root =
    List.find_opt (fun task -> task.proc.pid = 1) t.tasks
  in
  { exit_code =
      (match root with
       | Some { proc; _ } when proc.exited -> Some proc.exit_code
       | _ -> None);
    stdout = Buffer.contents t.out_buf;
    stderr = Buffer.contents t.err_buf;
    steps = t.steps;
    fault = t.fault;
    fuel_exhausted;
    deadlocked }

(** Run to completion (root process exit), fuel exhaustion, fault, or
    deadlock. *)
let run t =
  Telemetry.with_span "vm.run" @@ fun () ->
  let steps_before = t.steps in
  let fault_before = t.fault in
  let deadlocked = ref false in
  let out_of_fuel = ref false in
  let charge =
    match t.meter with
    | None -> fun () -> ()
    | Some m -> fun () -> Robust.Meter.charge_vm_steps m 1
  in
  let account () =
    Telemetry.Metrics.add m_steps (t.steps - steps_before);
    if t.fault <> None && fault_before = None then
      Telemetry.Metrics.incr m_faults
  in
  (try
     while not (root_exited t) do
       if t.steps >= t.config.fuel then begin
         out_of_fuel := true;
         raise Exit
       end;
       if t.fault <> None then raise Exit;
       let progressed = ref false in
       let snapshot = t.tasks in
       List.iter
         (fun task ->
            match task.state with
            | Dead -> ()
            | Runnable | Blocked ->
              let budget = ref t.config.quantum in
              let continue_ = ref true in
              while
                !continue_ && !budget > 0 && task.state <> Dead
                && t.fault = None && t.steps < t.config.fuel
              do
                if step_task t task then begin
                  charge ();
                  progressed := true;
                  task.state <-
                    (if task.state = Blocked then Runnable else task.state)
                end
                else continue_ := false;
                decr budget
              done)
         snapshot;
       if not !progressed then begin
         deadlocked := true;
         raise Exit
       end
     done
   with
   | Exit -> ()
   | e ->
     (* a tripped budget or a crash propagates to the cell
        supervisor; record the step delta before unwinding *)
     account ();
     raise e);
  account ();
  finish t ~deadlocked:!deadlocked ~fuel_exhausted:!out_of_fuel

(** Convenience: load, run, return the result. *)
let run_image ?meter ?config image =
  let t = create ?meter ?config image in
  run t
