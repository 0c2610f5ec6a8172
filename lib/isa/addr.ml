(** Hash tables keyed by 64-bit guest addresses, hashed without the
    polymorphic hash: consecutive addresses fall in consecutive
    buckets, and the high bits fold in so that distant regions with
    equal low bits spread apart. *)

module Tbl = Hashtbl.Make (struct
    type t = int64

    let equal = Int64.equal

    let hash a =
      let x = Int64.to_int a in
      (x lxor (x lsr 16)) land max_int
  end)
