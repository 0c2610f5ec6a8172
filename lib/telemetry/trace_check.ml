(** Structural validation of emitted trace files.

    Spans and journals are written as JSON by string concatenation
    (no JSON library in the toolchain), so the smoke test needs an
    independent reader to prove the output is actually parseable.
    This is a minimal recursive-descent JSON parser plus
    {!validate_chrome}: the file is one JSON object with a
    [traceEvents] array whose B/E phase events balance per (pid, tid)
    like a bracket language — what [about:tracing] / Perfetto requires
    to render a span tree. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

(** The one JSON string escaper every writer in the tree uses: ['"']
    and ['\\'] get a backslash, and every byte outside [' '..'~']
    goes out as [\u00XX], which {!parse} maps back to the same byte —
    so any byte string (a proposed input, a span attribute) round-trips,
    and an escaped string never holds a raw tab or newline. *)
let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | ' ' .. '~' -> Buffer.add_char buf c
       | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)))
    s;
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "at %d: expected %c, got %c" c.pos ch x
  | None -> fail "at %d: expected %c, got end of input" c.pos ch

let parse_literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "at %d: expected %s" c.pos word

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail "at %d: unterminated string" c.pos
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
       | None -> fail "at %d: unterminated escape" c.pos
       | Some 'n' -> Buffer.add_char buf '\n'; advance c; loop ()
       | Some 't' -> Buffer.add_char buf '\t'; advance c; loop ()
       | Some 'r' -> Buffer.add_char buf '\r'; advance c; loop ()
       | Some 'b' -> Buffer.add_char buf '\b'; advance c; loop ()
       | Some 'f' -> Buffer.add_char buf '\012'; advance c; loop ()
       | Some 'u' ->
         advance c;
         if c.pos + 4 > String.length c.src then
           fail "at %d: truncated \\u escape" c.pos;
         let hex = String.sub c.src c.pos 4 in
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> fail "at %d: bad \\u escape %S" c.pos hex
         in
         c.pos <- c.pos + 4;
         (* non-BMP fidelity is irrelevant for validation *)
         Buffer.add_char buf (Char.chr (code land 0xff));
         loop ()
       | Some ch -> Buffer.add_char buf ch; advance c; loop ())
    | Some ch -> Buffer.add_char buf ch; advance c; loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance c
    | _ -> continue := false
  done;
  if c.pos = start then fail "at %d: expected number" start;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail "at %d: bad number %S" start s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "at %d: unexpected end of input" c.pos
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin advance c; Obj [] end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; members ()
        | Some '}' -> advance c
        | _ -> fail "at %d: expected , or } in object" c.pos
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin advance c; Arr [] end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; elements ()
        | Some ']' -> advance c
        | _ -> fail "at %d: expected , or ] in array" c.pos
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let parse (s : string) : json =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    fail "at %d: trailing garbage after JSON value" c.pos;
  v

let parse_opt s = try Some (parse s) with Parse_error _ -> None

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Chrome trace_event validation                                       *)
(* ------------------------------------------------------------------ *)

type chrome_summary = {
  events : int;       (** total traceEvents *)
  spans : int;        (** balanced B/E pairs *)
  max_depth : int;    (** deepest B-nesting seen *)
}

(** Validate a Chrome [trace_event] JSON string.  Checks: top level is
    an object with a [traceEvents] array; every event is an object
    with string [name]/[ph] and numeric [ts]; B/E events balance like
    brackets per (pid, tid) with matching names and non-decreasing
    timestamps. *)
let validate_chrome (s : string) : (chrome_summary, string) result =
  match parse_opt s with
  | None -> Error "not parseable as JSON"
  | Some root ->
    (match member "traceEvents" root with
     | None -> Error "missing traceEvents field"
     | Some (Arr events) ->
       (* stack of open (name, ts) per (pid, tid) track *)
       let tracks : (float * float, (string * float) list ref) Hashtbl.t =
         Hashtbl.create 4
       in
       let spans = ref 0 and max_depth = ref 0 in
       let err = ref None in
       let check_event i ev =
         if !err = None then
           match ev with
           | Obj _ ->
             let str k = match member k ev with Some (Str s) -> Some s | _ -> None in
             let num k = match member k ev with Some (Num n) -> Some n | _ -> None in
             (match str "name", str "ph", num "ts" with
              | Some name, Some ph, Some ts ->
                let pid = Option.value ~default:0.0 (num "pid") in
                let tid = Option.value ~default:0.0 (num "tid") in
                let stack =
                  match Hashtbl.find_opt tracks (pid, tid) with
                  | Some st -> st
                  | None ->
                    let st = ref [] in
                    Hashtbl.replace tracks (pid, tid) st;
                    st
                in
                (match ph with
                 | "B" ->
                   stack := (name, ts) :: !stack;
                   if List.length !stack > !max_depth then
                     max_depth := List.length !stack
                 | "E" ->
                   (match !stack with
                    | (open_name, open_ts) :: rest ->
                      if open_name <> name then
                        err := Some (Printf.sprintf
                                       "event %d: E %S closes open B %S"
                                       i name open_name)
                      else if ts < open_ts then
                        err := Some (Printf.sprintf
                                       "event %d: E %S ends before it begins"
                                       i name)
                      else begin incr spans; stack := rest end
                    | [] ->
                      err := Some (Printf.sprintf
                                     "event %d: E %S with no open B" i name))
                 | "X" | "i" | "I" | "C" | "M" -> ()  (* complete/instant/counter/metadata *)
                 | _ ->
                   err := Some (Printf.sprintf "event %d: unknown phase %S" i ph))
              | _ ->
                err := Some (Printf.sprintf
                               "event %d: missing name/ph/ts fields" i))
           | _ -> err := Some (Printf.sprintf "event %d: not an object" i)
       in
       List.iteri check_event events;
       (match !err with
        | Some e -> Error e
        | None ->
          let unclosed = ref [] in
          Hashtbl.iter
            (fun _ st -> List.iter (fun (n, _) -> unclosed := n :: !unclosed) !st)
            tracks;
          (match !unclosed with
           | n :: _ -> Error (Printf.sprintf "unclosed B event %S" n)
           | [] ->
             Ok { events = List.length events; spans = !spans;
                  max_depth = !max_depth }))
     | Some _ -> Error "traceEvents is not an array")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let validate_chrome_file path = validate_chrome (read_file path)
