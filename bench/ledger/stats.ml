(** Order statistics over float samples. *)

(** [quantile q xs]: linear interpolation between the closest ranks
    (Hyndman–Fan type 7); [nan] without samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(** Geometric mean of positive samples; [nan] without samples. *)
let geomean xs =
  exp
    (List.fold_left (fun s x -> s +. log x) 0. xs
     /. float_of_int (List.length xs))

(** Mean of the largest [frac] of the samples, at least one of them. *)
let top_mean frac xs =
  let a = Array.of_list xs in
  Array.sort (fun x y -> Float.compare y x) a;
  let k = max 1 (int_of_float (Float.round (frac *. float_of_int (Array.length a)))) in
  let k = min k (Array.length a) in
  let s = ref 0. in
  for i = 0 to k - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int k

(** [a /. b], or 0 when [b] is 0: a layer the workload never enters
    reports no rate rather than a NaN. *)
let ratio a b = if b = 0. then 0. else a /. b
