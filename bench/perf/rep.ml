(* What one repetition of a workload reports, and the loops that measure
   it. *)

open Perf_core

type t = {
  readings : Gate.reading list;  (** every speed probe the rep took *)
  metrics : Gate.t -> (string * float) list;
      (** the rep's samples under the run's gate, which is only known
          once every rep has run; a name repeats when the rep took
          several samples of it *)
  latencies : Gate.t -> float array;
      (** the closed loop's kept per-operation latencies, µs: the run
          pools them for its tail percentile *)
  attempted : int;  (** operations offered: packets or requests *)
  failed : int;  (** operations lost, dropped, stranded or refused *)
  gates : (string * bool) list;  (** correctness checks, by name *)
}

(* A workload after set-up: [run] is one untraced rep (end-to-end
   metrics), [traced] one traced rep (per-layer metrics). *)
type instance = { run : unit -> t; traced : unit -> t }

(* Every workload is [prepare ~seed], which builds the inputs, returning
   the set-up — the part [setup_s] times — which returns the instance and
   its own breakdown in ms. *)
type workload = seed:int -> unit -> instance * (string * float) list

(* Lap timer for set-up breakdowns, in ms. *)
let stopwatch () =
  let last = ref (Trace.now_ns ()) and laps = ref [] in
  let lap name =
    let t = Trace.now_ns () in
    laps := (name, float_of_int (t - !last) /. 1e6) :: !laps;
    last := t
  in
  (lap, fun () -> List.rev !laps)

(* One timed sample under the gate: dropped when its reading is not
   quiet, otherwise stated at nominal speed as its unit says (durations
   scaled, rates inversely). Counts and shares pass unchanged. *)
let timed g (r : Gate.reading) (name, v) =
  if not (Gate.ok g r) then None
  else
    let s = Gate.scale g r in
    match Spec.unit_of_name name with
    | "1/s" -> Some (name, v /. s)
    | "ns" | "us" | "ms" | "s" | "ns/op" -> Some (name, v *. s)
    | _ -> Some (name, v)

(* [f ()] between two probes of this core: its result and the reading
   that covers it. *)
let bracket probe f =
  let r0 = probe () in
  let v = f () in
  let r1 = probe () in
  (v, Gate.worse r0 r1)

(* A closed loop's per-operation latencies (ns) and the reading that
   covers each operation's chunk. *)
type ops = { lat : int array; at : Gate.reading array }

(* Run operations [0 .. n-1] in order, [chunk] at a time, probing the
   core between chunks. [op i] runs operation [i] and returns its
   latency in ns; whatever it does after taking its own time (off-path
   probes) stays out of that latency. Also returns every reading. *)
let closed_loop ~chunk n op =
  let lat = Array.make n 0 in
  let first = Speed.probe () in
  let at = Array.make n first in
  let readings = ref [ first ] and prev = ref first in
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + chunk) in
    for j = !i to hi - 1 do
      lat.(j) <- op j
    done;
    let r = Speed.probe () in
    let w = Gate.worse !prev r in
    for j = !i to hi - 1 do
      at.(j) <- w
    done;
    readings := r :: !readings;
    prev := r;
    i := hi
  done;
  ({ lat; at }, !readings)

(* The latencies the gate keeps, in µs at nominal speed. *)
let kept g ops =
  let xs = ref [] in
  Array.iteri
    (fun i ns ->
      let r = ops.at.(i) in
      if Gate.ok g r then xs := (float_of_int ns /. 1e3 *. Gate.scale g r) :: !xs)
    ops.lat;
  Array.of_list !xs

(* Fewer kept operations than this and a rep reports no latency. *)
let min_kept = 64

(* The rep's median latency. *)
let latency g ops =
  let us = kept g ops in
  if Array.length us < min_kept then [] else [ ("latency_us_p50", Summary.median us) ]

(* The run's tail, over every rep's kept latencies: reported only when at
   least ten of them lie beyond the p99. *)
let tail latencies =
  match Summary.percentile (Array.concat latencies) 99.0 with
  | Some p -> [ ("latency_us_p99", p) ]
  | None -> []

(* A closed loop's rate: kept operations over their summed latency. *)
let rate g ops =
  let us = kept g ops in
  if Array.length us < min_kept then []
  else [ ("ops_per_s", float_of_int (Array.length us) /. (Array.fold_left ( +. ) 0.0 us /. 1e6)) ]

(* Time [f] on each of [n] inputs in a batching loop: rounds are doubled
   until one measurement lasts at least 1 ms, then the median of seven
   measurements is the per-call cost. The loop itself (an indirect call
   and an add) is included. *)
let ns_per_call n (f : int -> int64) =
  let sink = ref 0L in
  let measure rounds =
    let t0 = Trace.now_ns () in
    for _ = 1 to rounds do
      for i = 0 to n - 1 do
        sink := Int64.add !sink (f i)
      done
    done;
    Trace.now_ns () - t0
  in
  let rec calibrate rounds =
    if measure rounds >= 1_000_000 || rounds >= 1 lsl 20 then rounds
    else calibrate (2 * rounds)
  in
  let rounds = calibrate 1 in
  let samples =
    Array.init 7 (fun _ ->
        float_of_int (measure rounds) /. float_of_int (rounds * n))
  in
  ignore (Sys.opaque_identity !sink);
  Summary.median samples
