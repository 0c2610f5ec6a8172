(** Dataset CLI: list bombs, show one (metadata + disassembly), run
    one concretely, or dump a trace. *)

let find_bomb name =
  match Bombs.Catalog.find_opt name with
  | Some b -> b
  | None -> Cli.unknown_name "bomb" name Bombs.Catalog.names

let list_bombs () =
  Printf.printf "%-18s %-28s %s\n" "name" "category" "trigger";
  List.iter
    (fun (b : Bombs.Common.t) ->
       Printf.printf "%-18s %-28s %s\n" b.name b.category
         (match b.trigger with
          | None -> "(dead code)"
          | Some { argv1 = Some s; env = [] } -> Printf.sprintf "argv=%S" s
          | Some { argv1 = Some s; _ } -> Printf.sprintf "argv=%S + env" s
          | Some { argv1 = None; _ } -> "environment"))
    Bombs.Catalog.all

let show_bomb name =
  let b = find_bomb name in
  let image = Bombs.Catalog.image b in
  Printf.printf "%s — %s\n%s\nimage: %d bytes, entry 0x%Lx\n\n" b.name
    b.category b.challenge (Asm.Image.size image) image.entry;
  (* disassemble just the program's own code (before lib symbols) *)
  let first_lib =
    List.filter_map
      (fun (s : Asm.Image.symbol) ->
         if s.from_lib && s.kind = Asm.Image.Func then Some s.addr else None)
      image.symbols
    |> List.fold_left min Int64.max_int
  in
  List.iter
    (fun (addr, insn) ->
       if addr < first_lib then begin
         (match Asm.Image.symbol_at image addr with
          | Some s -> Printf.printf "%s:\n" s.name
          | None -> ());
         Printf.printf "  %6Lx: %s\n" addr (Isa.Pp.to_string insn)
       end)
    (Asm.Image.disassemble image)

let run_bomb name argv1 winning =
  let b = find_bomb name in
  let argv1 =
    match argv1 with
    | Some s -> s
    | None -> if winning then Bombs.Common.winning_argv b else b.decoy
  in
  let config = Bombs.Common.config_for ~winning b argv1 in
  let res = Vm.Machine.run_image ~config (Bombs.Catalog.image b) in
  Printf.printf "argv[1]=%S exit=%s steps=%d\nstdout: %s"
    argv1
    (match res.exit_code with Some c -> string_of_int c | None -> "-")
    res.steps res.stdout;
  if Bombs.Common.triggered res then print_endline ">>> BOOM <<<"

let dump_trace name argv1 limit =
  let b = find_bomb name in
  let config = Bombs.Common.config_for b argv1 in
  let trace = Trace.record ~config (Bombs.Catalog.image b) in
  let upto = min limit (Trace.length trace) in
  Trace.iteri ~upto trace (fun _ ev -> Fmt.pr "%a@." Trace.pp_event ev);
  Printf.printf "(%d events total)\n" (Trace.length trace)

open Cmdliner

let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"BOMB")
let argv1_arg = Arg.(value & opt (some string) None & info [ "input" ])
let winning_arg = Arg.(value & flag & info [ "winning" ])
let limit_arg = Arg.(value & opt int 200 & info [ "limit" ])

let () =
  let cmds =
    [ Cmd.v (Cmd.info "list" ~doc:"List the dataset")
        Term.(const list_bombs $ const ());
      Cmd.v (Cmd.info "show" ~doc:"Metadata and disassembly")
        Term.(const show_bomb $ name_arg);
      Cmd.v (Cmd.info "run" ~doc:"Run concretely")
        Term.(const run_bomb $ name_arg $ argv1_arg $ winning_arg);
      Cmd.v (Cmd.info "trace" ~doc:"Dump an execution trace")
        Term.(const dump_trace $ name_arg
              $ Arg.(value & opt string "5" & info [ "input" ])
              $ limit_arg) ]
  in
  exit (Cmd.eval (Cmd.group (Cmd.info "bombs" ~doc:"Logic-bomb dataset") cmds))
