(* Nanoseconds in a native int: 63 bits last 146 years from any start a
   test or model uses, and a tick then allocates nothing. *)
type t = { step : int; mutable cur : int }

let create ?(step_ns = 100L) ?(start_ns = 1_000_000_000L) () =
  { step = Int64.to_int step_ns; cur = Int64.to_int start_ns }

let tick t =
  t.cur <- t.cur + t.step;
  t.cur

let now t = Int64.of_int (tick t)
let peek t = Int64.of_int t.cur
