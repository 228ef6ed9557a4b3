(** Catalogues of software feature implementations, keyed by @semantic
    name.

    Applications can {!register} implementations for new semantics (the
    paper's evolvability story: a new feature ships a reference
    implementation alongside its annotation). Registration is
    per-registry, so tests and experiments can build isolated
    catalogues. The built-in features are {!Semantic.rows}' reference
    implementations, each built once. *)

type t

val builtin : unit -> t
(** A fresh registry holding {!all}: a copy of one table built at
    start-up. *)

val empty : unit -> t

val register : t -> Feature.t -> unit
(** Adds or replaces the implementation for [f.semantic]. *)

val find : t -> string -> Feature.t option

val mem : t -> string -> bool

val names : t -> string list
(** Sorted semantic names with software implementations. *)

val all : Feature.t list
(** The feature of every row with a host implementation (finite w(s)),
    in row order. Every one but [kvs_key]'s is its {!Codec} core's
    value boxed. *)

val device_only : Feature.t list
(** The feature of every hardware-only row with an implementation: a
    NIC model's stand-in, run on the simulated device only. *)

val core_of :
  (Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64) -> Codec.sem option
(** [core_of compute] names the {!Codec} core behind a built-in
    feature's [compute], compared by identity: [None] for anything else
    — a custom registry's implementation, a wrapper around a builtin,
    or a feature without a core ([kvs_key]). Callers that find a core
    may call it instead of [compute] and get the same value unboxed. *)
