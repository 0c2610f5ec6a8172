(** Paged byte-addressable guest memory.

    4-KiB pages allocated on first touch.  [clone] performs the deep
    copy needed by [fork]; thread tasks share a single [t].

    [page] remembers the last page it returned, so runs of accesses to
    one page skip the table lookup.  Pages are never removed, so the
    remembered page stays the table's page for its index. *)

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable last_idx : int;  (** -1: nothing remembered yet *)
  mutable last_page : Bytes.t;
}

let page_bits = 12
let page_size = 1 lsl page_bits

let create () =
  { pages = Hashtbl.create 64; last_idx = -1; last_page = Bytes.empty }

(* the copy starts with the cache cold: its pages are fresh copies *)
let clone t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter (fun k v -> Hashtbl.replace pages k (Bytes.copy v)) t.pages;
  { pages; last_idx = -1; last_page = Bytes.empty }

let page t idx =
  if idx <> t.last_idx then begin
    let p =
      match Hashtbl.find_opt t.pages idx with
      | Some p -> p
      | None ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.replace t.pages idx p;
        p
    in
    t.last_idx <- idx;
    t.last_page <- p
  end;
  t.last_page

let read_u8 t addr =
  let addr = Int64.to_int addr in
  let p = page t (addr lsr page_bits) in
  Char.code (Bytes.get p (addr land (page_size - 1)))

let write_u8 t addr v =
  let addr = Int64.to_int addr in
  let p = page t (addr lsr page_bits) in
  Bytes.set p (addr land (page_size - 1)) (Char.chr (v land 0xff))

(* offset of an 8-byte access that stays inside one page, which then
   moves as one word; -1 sends shorter and page-crossing accesses
   through the byte loop *)
let word_offset addr n =
  let off = Int64.to_int addr land (page_size - 1) in
  if n = 8 && off <= page_size - 8 then off else -1

(** Little-endian read of [n] bytes (1..8), zero-extended. *)
let read t addr n =
  let off = word_offset addr n in
  if off >= 0 then
    Bytes.get_int64_le (page t (Int64.to_int addr lsr page_bits)) off
  else begin
    let v = ref 0L in
    for i = n - 1 downto 0 do
      let b = read_u8 t (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  end

(** Little-endian write of the low [n] bytes of [v]. *)
let write t addr n v =
  let off = word_offset addr n in
  if off >= 0 then
    Bytes.set_int64_le (page t (Int64.to_int addr lsr page_bits)) off v
  else
    for i = 0 to n - 1 do
      let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
      write_u8 t (Int64.add addr (Int64.of_int i)) b
    done

(* [iter_pages t addr n f]: [f page off pos len] over the pieces of the
   [n] bytes at [addr], one per page touched, where [pos] counts bytes
   from [addr] *)
let iter_pages t addr n f =
  let rec go pos =
    if pos < n then begin
      let a = Int64.to_int addr + pos in
      let off = a land (page_size - 1) in
      let len = min (n - pos) (page_size - off) in
      f (page t (a lsr page_bits)) off pos len;
      go (pos + len)
    end
  in
  go 0

let read_bytes t addr n =
  let b = Bytes.create n in
  iter_pages t addr n (fun p off pos len -> Bytes.blit p off b pos len);
  Bytes.unsafe_to_string b

let write_bytes t addr s =
  iter_pages t addr (String.length s) (fun p off pos len ->
      Bytes.blit_string s pos p off len)

(** Read the NUL-terminated string at [addr] (bounded at [max]). *)
let read_cstring ?(max = 4096) t addr =
  let b = Buffer.create 16 in
  let rec go i =
    if i >= max then Buffer.contents b
    else
      let c = read_u8 t (Int64.add addr (Int64.of_int i)) in
      if c = 0 then Buffer.contents b
      else (Buffer.add_char b (Char.chr c); go (i + 1))
  in
  go 0

let read_f64 t addr = Int64.float_of_bits (read t addr 8)
let write_f64 t addr f = write t addr 8 (Int64.bits_of_float f)
