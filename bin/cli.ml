(** Helpers shared by the [eval] and [bombctl] command lines. *)

(** An unknown tool or bomb name is a usage error: list the valid
    names, exit 2. *)
let unknown_name kind name valid =
  Printf.eprintf "unknown %s %S (valid: %s)\n" kind name
    (String.concat ", " valid);
  exit 2
