(** Interactive trace debugger ([eval debug BOMB]).

    Records one concrete execution and walks it: step forward, step
    {e backward} (a cursor move — nothing is re-run), run to an
    instruction address / syscall / first tainted event, inspect
    registers and memory (rebuilt by replaying the recorded events,
    never by re-running the program), and answer "why is this byte
    tainted" by walking the taint analyzer's provenance chain back to
    the argv source bytes.

    Commands arrive on stdin, one per line, so the same engine serves
    the interactive prompt and the scripted [@trace-smoke] transcript.
    Lines that are empty or start with [#] are ignored. *)

type session = {
  trace : Trace.t;
  bomb : Bombs.Common.t;
  sources : (int64 * int) list;
  taint : Taint.result Lazy.t;
      (** full-policy, provenance-recording analysis; forced only by
          [taint], [why] and [run-to taint] *)
  mutable pos : int;  (** seq of the event the cursor sits on *)
}

let clamp s p = max 0 (min p (Trace.length s.trace - 1))

let show_current s =
  if Trace.length s.trace = 0 then print_endline "(empty trace)"
  else
    Fmt.pr "#%d  %a@." s.pos Trace.pp_event (Trace.get s.trace s.pos)

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

(** The next [Exec] at or after [pos] — its [regs_before] is the CPU
    state the cursor position observes. *)
let next_exec_from s pos =
  let n = Trace.length s.trace in
  let rec go i =
    if i >= n then None
    else
      match Trace.get s.trace i with
      | Vm.Event.Exec e -> Some (i, e)
      | _ -> go (i + 1)
  in
  go pos

let cmd_info s =
  let t = s.trace in
  Printf.printf "bomb:        %s (%s)\n" s.bomb.name s.bomb.category;
  Printf.printf "events:      %d (%d execs)\n" (Trace.length t)
    (Trace.exec_count t);
  (match s.sources with
   | [ (a, n) ] -> Printf.printf "taint src:   argv[1] at 0x%Lx (%d bytes)\n" a n
   | _ -> ());
  let r = t.Trace.result in
  Printf.printf "exit:        %s, %d steps%s\n"
    (match r.exit_code with Some c -> string_of_int c | None -> "-")
    r.steps
    (match r.fault with
     | Some f -> ", fault: " ^ Vm.Machine.show_fault f
     | None -> "")

let cmd_list s n =
  let stop = min (Trace.length s.trace) (s.pos + n) in
  for i = s.pos to stop - 1 do
    Fmt.pr "#%d  %a@." i Trace.pp_event (Trace.get s.trace i)
  done

let cmd_regs s =
  match next_exec_from s s.pos with
  | None -> print_endline "no exec event at or after cursor"
  | Some (i, e) ->
    Printf.printf "CPU state before #%d (tid %d, pc 0x%Lx):\n" i e.tid e.pc;
    for r = 0 to Isa.Reg.count - 1 do
      Printf.printf "  %-3s = 0x%-16Lx" (Isa.Reg.name (Isa.Reg.of_index r))
        e.regs_before.(r);
      if r mod 4 = 3 then print_newline ()
    done;
    Printf.printf "  flags = 0x%x\n" e.flags_before

let cmd_mem s addr n =
  let mem = Trace.mem_before s.trace s.pos in
  Printf.printf "memory before #%d (%d replayed events):\n" s.pos s.pos;
  let bytes = Vm.Mem.read_bytes mem addr n in
  let i = ref 0 in
  while !i < n do
    let row = min 16 (n - !i) in
    Printf.printf "  %08Lx " (Int64.add addr (Int64.of_int !i));
    for j = 0 to row - 1 do
      Printf.printf " %02x" (Char.code bytes.[!i + j])
    done;
    Printf.printf "  |";
    for j = 0 to row - 1 do
      let c = bytes.[!i + j] in
      print_char (if c >= ' ' && c < '\127' then c else '.')
    done;
    print_endline "|";
    i := !i + row
  done

(* ------------------------------------------------------------------ *)
(* Taint and provenance                                                *)
(* ------------------------------------------------------------------ *)

(** First tainted event at or after [from] (forces the analysis). *)
let first_taint_from s from =
  let t = Lazy.force s.taint in
  let rec go i =
    if i >= Array.length t.tainted then None
    else if t.tainted.(i) then Some i
    else go (i + 1)
  in
  go from

let cmd_taint s =
  let t = Lazy.force s.taint in
  Printf.printf "tainted execs:    %d\n" t.tainted_count;
  Printf.printf "tainted branches: %d\n" (List.length t.tainted_branch);
  (match first_taint_from s 0 with
   | Some i ->
     Fmt.pr "first taint:      #%d  %a@." i Trace.pp_event (Trace.get s.trace i)
   | None -> print_endline "first taint:      (none)");
  List.iter
    (fun (i, taken) ->
      Fmt.pr "  branch #%d (%s)  %a@." i
        (if taken then "taken" else "fallthrough")
        Trace.pp_event (Trace.get s.trace i))
    t.tainted_branch

let parse_loc s arg =
  let arg = String.trim arg in
  if String.lowercase_ascii arg = "flags" then
    let tid = match next_exec_from s s.pos with
      | Some (_, e) -> e.tid | None -> 1
    in
    Some (Taint.L_flags tid)
  else if String.length arg > 2 && String.sub arg 0 2 = "0x" then
    match Int64.of_string_opt arg with
    | Some a -> Some (Taint.L_mem a)
    | None -> None
  else
    match Isa.Reg.of_name arg with
    | r ->
      let tid = match next_exec_from s s.pos with
        | Some (_, e) -> e.tid | None -> 1
      in
      Some (Taint.L_reg (tid, Isa.Reg.index r))
    | exception Invalid_argument _ -> None

let in_source s a =
  List.exists
    (fun (base, len) -> a >= base && a < Int64.add base (Int64.of_int len))
    s.sources

(** Walk provenance backward: the latest flow before [pos] that wrote
    [loc], then recurse on its first tainted input, until a location
    with no recorded flow — a source byte — is reached. *)
let cmd_why s arg =
  match parse_loc s arg with
  | None ->
    Printf.printf "cannot parse location %S (use 0xADDR, a register, or flags)\n"
      arg
  | Some loc0 ->
    let t = Lazy.force s.taint in
    let rec walk depth loc pos =
      if depth > 48 then print_endline "  ... (chain truncated)"
      else
        let entry =
          List.fold_left
            (fun best (e : Taint.prov_entry) ->
              if e.p_ev < pos && e.p_dst = loc then
                match best with
                | Some (b : Taint.prov_entry) when b.p_ev >= e.p_ev -> best
                | _ -> Some e
              else best)
            None t.prov
        in
        match entry with
        | None ->
          (match loc with
           | Taint.L_mem a when in_source s a ->
             let base = match s.sources with (b, _) :: _ -> b | [] -> 0L in
             Fmt.pr "  %a is a SOURCE: argv[1] byte %Ld@."
               Taint.pp_loc loc (Int64.sub a base)
           | _ ->
             Fmt.pr "  %a: no recorded flow before #%d (untainted here)@."
               Taint.pp_loc loc pos)
        | Some e ->
          Fmt.pr "  #%-5d %a <- %a@."
            e.p_ev Taint.pp_loc e.p_dst
            Fmt.(list ~sep:(any ", ") Taint.pp_loc) e.p_srcs;
          Fmt.pr "         %a@." Trace.pp_event (Trace.get s.trace e.p_ev);
          (match e.p_srcs with
           | [] -> ()
           | src :: _ -> walk (depth + 1) src e.p_ev)
    in
    (* [pos + 1]: a flow written *by* the event under the cursor counts *)
    walk 0 loc0 (s.pos + 1)

(* ------------------------------------------------------------------ *)
(* Command loop                                                        *)
(* ------------------------------------------------------------------ *)

let help () =
  print_string
    "commands:\n\
    \  info                 trace summary\n\
    \  list [N]             print N events from the cursor (default 10)\n\
    \  step|s [N]           advance N events (default 1)\n\
    \  back|b [N]           step back N events\n\
    \  goto SEQ             jump to event SEQ\n\
    \  run-to addr 0xA      next exec at instruction address\n\
    \  run-to sys NAME      next syscall NAME\n\
    \  run-to taint         first tainted event at/after the cursor\n\
    \  regs                 CPU state at the cursor\n\
    \  mem 0xA [N]          N bytes of memory, rebuilt by replay (default 16)\n\
    \  taint                taint summary (forces the analysis)\n\
    \  why LOC              provenance: why is LOC tainted here\n\
    \  help                 this text\n\
    \  quit                 exit\n"

let int_arg ?(default = 1) = function
  | [] -> Some default
  | [ a ] -> int_of_string_opt a
  | _ -> None

let dispatch s line =
  match String.split_on_char ' ' (String.trim line)
        |> List.filter (fun w -> w <> "") with
  | [] -> true
  | cmd :: args when cmd.[0] = '#' -> ignore args; true
  | "quit" :: _ | "exit" :: _ | "q" :: _ -> false
  | "help" :: _ -> help (); true
  | "info" :: _ -> cmd_info s; true
  | "list" :: rest ->
    (match int_arg ~default:10 rest with
     | Some n when n > 0 -> cmd_list s n
     | _ -> print_endline "usage: list [N]");
    true
  | ("step" | "s") :: rest ->
    (match int_arg rest with
     | Some n ->
       s.pos <- clamp s (s.pos + n);
       show_current s
     | None -> print_endline "usage: step [N]");
    true
  | ("back" | "b") :: rest ->
    (match int_arg rest with
     | Some n ->
       s.pos <- clamp s (s.pos - n);
       show_current s
     | None -> print_endline "usage: back [N]");
    true
  | "goto" :: rest ->
    (match int_arg ~default:0 rest with
     | Some n ->
       s.pos <- clamp s n;
       show_current s
     | None -> print_endline "usage: goto SEQ");
    true
  | "run-to" :: "addr" :: [ a ] ->
    (match Int64.of_string_opt a with
     | None -> print_endline "usage: run-to addr 0xADDR"
     | Some pc ->
       (match Trace.next_exec_at s.trace ~from:(s.pos + 1) pc with
        | Some i -> s.pos <- i; show_current s
        | None -> Printf.printf "no exec at 0x%Lx after #%d\n" pc s.pos));
    true
  | "run-to" :: "sys" :: [ name ] ->
    (match Trace.next_syscall s.trace ~from:(s.pos + 1) name with
     | Some i -> s.pos <- i; show_current s
     | None -> Printf.printf "no %s syscall after #%d\n" name s.pos);
    true
  | "run-to" :: "taint" :: _ ->
    (match first_taint_from s (s.pos + 1) with
     | Some i -> s.pos <- i; show_current s
     | None -> Printf.printf "no tainted event after #%d\n" s.pos);
    true
  | "regs" :: _ -> cmd_regs s; true
  | "mem" :: addr :: rest ->
    (match Int64.of_string_opt addr, int_arg ~default:16 rest with
     | Some a, Some n when n > 0 && n <= 4096 -> cmd_mem s a n
     | _ -> print_endline "usage: mem 0xADDR [N]");
    true
  | "taint" :: _ -> cmd_taint s; true
  | "why" :: rest when rest <> [] ->
    cmd_why s (String.concat " " rest); true
  | w :: _ ->
    Printf.printf "unknown command %S (try: help)\n" w;
    true

(** Run the debugger over [bomb] on [argv1] (default: its decoy
    input), reading commands from stdin until EOF or [quit]. *)
let run ?input (bomb : Bombs.Common.t) =
  let argv1 = match input with Some s -> s | None -> bomb.decoy in
  let config = Bombs.Common.config_for bomb argv1 in
  let trace = Trace.record ~config (Bombs.Catalog.image bomb) in
  let sources =
    match Trace.argv_region trace 1 with
    | Some (addr, len) when len > 1 -> [ (addr, len - 1) ]
    | _ -> []
  in
  let s =
    { trace;
      bomb;
      sources;
      taint =
        lazy (Taint.analyze ~policy:Taint.full_policy ~provenance:true
                ~sources trace);
      pos = 0 }
  in
  Printf.printf "trace debugger: %s, argv[1]=%S, %d events\n"
    bomb.name argv1 (Trace.length trace);
  show_current s;
  let interactive = Unix.isatty Unix.stdin in
  let rec loop () =
    if interactive then (print_string "(tdb) "; flush stdout);
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      if not interactive && String.trim line <> "" then
        Printf.printf "(tdb) %s\n" line;
      if dispatch s line then loop ()
  in
  loop ()
