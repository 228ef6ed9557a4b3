(* Order statistics over benchmark samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks on a sorted array
   (numpy's default), [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads this benchmark records
   are the ones a reader recomputes from its raw samples. One sample has
   no spread: both quartiles are that sample. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.quartiles: no samples";
  if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* A tail percentile is only reported when at least [min_beyond]
   samples lie beyond it; otherwise the number is one or two outliers,
   not a percentile. *)
let supports ?(min_beyond = 10) ~n p =
  float_of_int n *. (1.0 -. (p /. 100.0)) >= float_of_int min_beyond -. 1e-9

let percentile ?min_beyond xs p =
  let n = Array.length xs in
  if n = 0 || not (supports ?min_beyond ~n p) then None
  else Some (quantile_sorted (sorted xs) (p /. 100.0))

type t = { median : float; p25 : float; p75 : float; n : int }

let of_samples xs =
  let p25, p75 = quartiles xs in
  { median = median xs; p25; p75; n = Array.length xs }
