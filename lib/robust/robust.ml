(** Resource governance and fault tolerance.

    {!Budget} describes per-cell resource caps, and {!Meter} does the
    mutable accounting and raises {!Meter.Exhausted} at a tripped
    cap.  The cell supervisor that consumes these lives in
    [Engines.Supervisor] — this library deliberately depends only on
    [telemetry] so every layer below the engines can charge it. *)

module Budget = Budget
module Meter = Meter
module Diskio = Diskio
module Journal = Journal

exception Exhausted = Meter.Exhausted

(** [is_fault e] — is [e] a typed budget trip (as opposed to an
    unexpected engine crash)?  Used by engine-level catch-alls to
    re-raise instead of swallowing. *)
let is_fault = function
  | Meter.Exhausted _ -> true
  | _ -> false
