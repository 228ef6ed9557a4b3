(** Deterministic pseudo-random number generation for workload synthesis.

    All workload generators in this repository draw from this SplitMix64
    implementation so that every experiment is reproducible bit-for-bit
    across runs and machines, independently of [Stdlib.Random].

    The state is held unboxed, so the draws that return an immediate
    value ({!int}, {!int_in}, {!bits53}, {!bool}, {!byte}, {!choice})
    allocate nothing; {!next64} and {!float} box only their result. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator positioned at the same point. *)

val next64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val bits53 : t -> int
(** Uniform in [\[0, 2{^53})]: the top 53 bits of {!next64}. *)

val float : t -> float
(** Uniform in [\[0, 1)]: [bits53 t] times [2{^-53}], exactly. A caller
    that compares the draw with a threshold [a] can compare [bits53]
    with [ceil (a * 2{^53})] instead, with the same outcome and no boxed
    float. *)

val byte : t -> char
(** Uniform byte. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniform bytes. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted : t -> (int * 'a) list -> 'a
(** [weighted t choices] picks proportionally to the integer weights.
    Requires at least one strictly positive weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
