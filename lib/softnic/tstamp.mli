(** Virtual clock for packet timestamps.

    Real NICs stamp packets with a PHC (PTP hardware clock); the simulator
    needs a deterministic stand-in. The clock ticks once per [now] call by
    a fixed step plus a per-instance phase, so streams of timestamps are
    strictly monotonic and reproducible. *)

type t

val create : ?step_ns:int64 -> ?start_ns:int64 -> unit -> t
(** Default: starts at 1_000_000_000 ns and advances 100 ns per reading. *)

val now : t -> int64
(** Next timestamp (ns). Strictly increasing. *)

val tick : t -> int
(** {!now} as a native int, allocating nothing: the clock counts in an
    int, so start and step are taken modulo 2{^63}. *)

val peek : t -> int64
(** Current value without advancing. *)
