(** Events emitted during concrete execution — the raw material a
    Pin-style tracer records. *)

(** How a syscall moved data between guest memory and a kernel object.
    Object ids name kernel entities (files, pipes, sockets, the
    stdio streams, the clock, the PRNG) so taint policies can decide
    whether to propagate through them. *)
type sys_effect =
  | Eff_read of { obj : int; off : int; addr : int64; len : int;
                  data : string }
      (** kernel object [obj] at [off] was copied to memory [addr];
          [data] is the concrete bytes *)
  | Eff_write of { obj : int; off : int; addr : int64; len : int }
      (** memory [addr] was copied into kernel object [obj] at [off] *)
  | Eff_spawn of int  (** new pid or tid *)

type sys_record = {
  nr : int64;
  name : string;
  args : int64 array;  (** RDI, RSI, RDX, R10, R8, R9 at entry *)
  ret : int64;
  effects : sys_effect list;
}

type exec = {
  pid : int;
  tid : int;
  pc : int64;
  insn : Isa.Insn.t;
  next_pc : int64;          (** where control actually went *)
  regs_before : Bytes.t;
      (** the flat register file before the step (read with
          {!Cpu.get}) *)
  xmm_before : float array;
  flags_before : int;  (** packed ZF|SF<<1|CF<<2|OF<<3|PF<<4 *)
}

type t =
  | Exec of exec
  | Sys of { pid : int; tid : int; record : sys_record }
  | Signal of { pid : int; tid : int; signum : int; handler : int64;
                resume : int64 }

(** Well-known kernel object ids. *)
module Obj_id = struct
  let stdin_ = 0
  let stdout_ = 1
  let stderr_ = 2
  let clock = 3
  let prng = 4
  let first_dynamic = 16
end
