(** Grammar-directed spec generation.

    Draws a random {!Spec.t} inside {!bounds} from a SplitMix64 stream,
    so equal seeds give equal specs on every machine. The grammar is
    constrained to the region every stage must accept — byte-padded
    headers, enumerable context domains below the product cap, branch
    predicates over context fields only, no [@semantic] on fields wider
    than 64 bits — which makes any downstream failure a genuine bug in
    the toolchain rather than an invalid input. *)

type bounds = {
  b_max_ctx : int;  (** context fields, 0..b_max_ctx *)
  b_max_depth : int;  (** decision-tree depth (2^d leaves max) *)
  b_max_headers : int;
  b_max_fields : int;  (** per completion header *)
  b_max_emits : int;  (** per leaf *)
  b_max_configs : int;
      (** context product cap (< Opendesc_analysis.Context.max_assignments) *)
}

val default_bounds : bounds

val spec_seed : seed:int64 -> index:int -> int64
(** The derived seed of one campaign member: a SplitMix64 mix of the
    campaign seed and the index, so any single spec replays without
    generating its predecessors. *)

val software_semantics : string array
(** The pool a field's [@semantic] is usually drawn from: every built-in
    row with a finite w(s), TX rows included, sorted. Draws index it, so
    its order is part of every seed's spec. *)

val hardware_semantics : string array
(** The pool of the rarer hardware-only draw: the rows with w(s) =
    infinity, in row order. *)

val generate : ?bounds:bounds -> seed:int64 -> name:string -> unit -> Spec.t
(** One random spec. Equal arguments, equal result. *)
