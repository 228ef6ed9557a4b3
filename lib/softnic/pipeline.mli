(** SoftNIC-style software augmentation pipeline.

    A pipeline is an ordered set of features executed per packet to fill
    the metadata the NIC could not provide — the "SoftNIC shim" half of
    the paper's compiler output. The packet is parsed once; every feature
    reuses the view. The pipeline also tallies its nominal cycle cost so
    driver simulations can charge for it. *)

type t

val create : ?env:Feature.env -> Feature.t list -> t
(** Feature order is preserved; results are reported in that order. *)

val of_semantics : ?env:Feature.env -> Registry.t -> string list -> (t, string) result
(** Look every semantic up in the registry. [Error s] names the first
    semantic with no software implementation — the unsatisfiable case of
    the paper's Eq. 1. *)

val run : t -> Packet.Pkt.t -> (string * int64) list
(** Compute every feature for one packet. *)

val cost_cycles : t -> float
(** Sum of member feature costs: the per-packet software bill. *)

val semantics : t -> string list

val env : t -> Feature.env
