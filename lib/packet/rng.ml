(* The SplitMix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field would box a fresh state on every draw. *)
type t = bytes

let create seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 seed;
  b

let copy = Bytes.copy

(* SplitMix64 (Steele, Lea, Flood 2014): tiny state, passes BigCrush, and --
   unlike Stdlib.Random -- stable across OCaml versions. Inlined into
   every draw, so its [int64] temporaries stay in registers. *)
let[@inline] next64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let bits53 t = Int64.to_int (Int64.shift_right_logical (next64 t) 11)

let float t = float_of_int (bits53 t) *. 0x1p-53

let byte t = Char.unsafe_chr (int t 256)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (byte t)
  done;
  b

let choice t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  assert (total > 0);
  let pick = int t total in
  let rec go acc = function
    | [] -> assert false
    | (w, x) :: rest -> if pick < acc + w then x else go (acc + w) rest
  in
  go 0 choices

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
