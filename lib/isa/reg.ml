(** General-purpose and SIMD registers of the VX64 instruction set.

    VX64 is a compact x86-64-like machine language: sixteen 64-bit
    general-purpose registers, eight 64-bit floating-point registers
    (each holding one IEEE-754 double, standing in for the low lane of
    an XMM register), an instruction pointer and a flags register. *)

type t =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15
[@@deriving show { with_path = false }, eq, ord, enum]

(** Floating-point registers (one IEEE-754 double each). *)
type xmm = XMM0 | XMM1 | XMM2 | XMM3 | XMM4 | XMM5 | XMM6 | XMM7
[@@deriving show { with_path = false }, eq, ord, enum]

let count = 16
let xmm_count = 8

let all =
  [ RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP;
    R8; R9; R10; R11; R12; R13; R14; R15 ]

let all_xmm = [ XMM0; XMM1; XMM2; XMM3; XMM4; XMM5; XMM6; XMM7 ]

let index = to_enum
let xmm_index = xmm_to_enum

let of_index i =
  match of_enum i with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Reg.of_index: %d" i)

let xmm_of_index i =
  match xmm_of_enum i with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Reg.xmm_of_index: %d" i)

(* The one table of register names, by index: [show] is the upper-case
   name the derived printer prints (and the lifter's state-variable
   name), [name] its lower-case assembly spelling. *)
let shows = Array.init count (fun i -> show (of_index i))
let names = Array.map String.lowercase_ascii shows
let xmm_shows = Array.init xmm_count (fun i -> show_xmm (xmm_of_index i))
let xmm_names = Array.map String.lowercase_ascii xmm_shows

let show r = shows.(index r)
let name r = names.(index r)
let show_xmm x = xmm_shows.(xmm_index x)
let xmm_name x = xmm_names.(xmm_index x)

(* index of [s] in [table], -1 when absent *)
let index_in table s =
  let rec go i =
    if i = Array.length table then -1
    else if String.equal table.(i) s then i
    else go (i + 1)
  in
  go 0

(** Index of the register whose {!show} is [s] ("RAX"), -1 for none. *)
let index_of_show s = index_in shows s

(** Index of the XMM register whose {!show_xmm} is [s], -1 for none. *)
let xmm_index_of_show s = index_in xmm_shows s
