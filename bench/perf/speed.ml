(* The speed probe behind {!Perf_core.Gate}: how fast this core runs
   memory-bound code right now.

   The kernel is 1000 lookups in a 65536-entry [Hashtbl], about 30 µs on
   a quiet core. Pointer-chasing through a table that lives in L2/L3 is
   what a neighbour on the same physical core slows most, so the kernel
   separates quiet from contended periods far better than arithmetic
   does (1.5x against 1.15x). It allocates nothing and calls no library
   code of this repository, so no change under test can move it. *)

open Perf_core

(* The kernel's reading on a quiet 2 GHz Xeon vCPU: the speed every
   timed metric is stated at. [Worker] readings are taken in the middle
   of a run, with the run's data in cache, and read a little higher. *)
let nominal = function Gate.Main -> 30.0 | Gate.Worker -> 31.0

let table =
  let t = Hashtbl.create 65536 in
  for i = 0 to 65535 do
    Hashtbl.replace t (i * 7) i
  done;
  t

(* Every key looked up is present, so [find] neither raises nor
   allocates: no collection can land inside a reading. *)
let kernel () =
  let acc = ref 0 in
  for i = 0 to 999 do
    acc := !acc + Hashtbl.find table (((i * 7919) land 65535) * 7)
  done;
  !acc

(* The fastest of three kernel runs, in µs, after one untimed run that
   brings the table back into cache after the work just measured: a
   reading is the core's level, not the previous work's footprint, one
   run's luck or a timer interrupt. *)
let fastest () =
  ignore (Sys.opaque_identity (kernel ()));
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = Trace.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    best := min !best (Trace.now_ns () - t0)
  done;
  float_of_int !best /. 1e3

let probe () = { Gate.kind = Main; us = fastest () }
