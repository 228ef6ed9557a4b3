(** BlueField-style partially-programmable model.

    A base CQE (hash, checksum status, VLAN, length, wire timestamp) plus
    one programmable metadata slot filled by the match-action pipeline
    currently installed on the NIC — per the paper, "a field for specific
    metadata computed through a series of Match-Action tables, recently
    programmable in P4". Installing a different pipeline regenerates the
    interface description: {!model}[ ~slot] is that regeneration.

    The default instance installs a key-value-store pipeline
    (slot = [kvs_key]), matching the Figure-1 scenario. *)

val source : string
(** The description with the slot bound to [kvs_key], 64 bits. *)

val model : ?slot:string * int -> unit -> Model.t
(** [model ~slot:(semantic, width) ()]; default slot ["kvs_key", 64]. *)
