(** NVIDIA/Mellanox ConnectX-style model (mlx5).

    The 64-byte receive CQE exposes twelve metadata fields — the figure
    the paper quotes when noting that the kernel's XDP accessors cover
    only three of them. CQE compression replaces full CQEs with 8-byte
    mini-CQEs whose single payload slot carries either the RSS hash or
    the packet checksum, selected by the compression format
    configuration. *)

val source : string

val model : unit -> Model.t

val full_cqe_semantics : string list
(** The 12 metadata semantics of the full CQE, in layout order. *)

val xdp_exposed : string list
(** The full CQE's semantics a Linux XDP metadata accessor reads (the
    {!Softnic.Semantic.Xdp_hint} rows: hash, timestamp, VLAN), in layout
    order — the baseline of experiment C4. *)
