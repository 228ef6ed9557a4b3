(** The built-in catalogue of software feature implementations.

    Keyed by @semantic name. Applications can {!register} implementations
    for new semantics (the paper's evolvability story: a new feature ships
    a reference implementation alongside its annotation). Registration is
    per-registry, so tests and experiments can build isolated catalogues. *)

type t

val builtin : unit -> t
(** A fresh registry holding every built-in feature below. *)

val empty : unit -> t

val register : t -> Feature.t -> unit
(** Adds or replaces the implementation for [f.semantic]. *)

val find : t -> string -> Feature.t option

val mem : t -> string -> bool

val names : t -> string list
(** Sorted semantic names with software implementations. *)

val core_of :
  (Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64) -> Codec.sem option
(** [core_of compute] names the {!Codec} core behind a builtin feature's
    [compute], compared by identity: [None] for anything else — a custom
    registry's implementation, a wrapper around a builtin, or a builtin
    without a core ([kvs_key]). Callers that find a core may call it
    instead of [compute] and get the same value unboxed. *)

(** {1 Built-in features}

    Every builtin except {!kvs_key} is its {!Codec} core's value boxed.

    Cycle costs are nominal single-core x86 figures; what matters to the
    compiler and the simulator is their relative order (e.g. recomputing a
    checksum costs more than re-hashing a 12-byte tuple, which is exactly
    the preference Figure 6 of the paper illustrates). *)

val rss : Feature.t
(** Toeplitz 4-tuple hash; 32 bits, ~120 cycles. *)

val rss_type : Feature.t
(** Input-tuple class: 0 none, 1 ipv4, 2 tcp4, 3 udp4; 8 bits. *)

val ip_checksum : Feature.t
(** Computed IPv4 header checksum value; 16 bits, ~180 cycles. *)

val csum_ok : Feature.t
(** 1 when the IPv4 header checksum verifies (and L4, when present,
    verifies too); 1 bit. *)

val l4_checksum : Feature.t
(** Computed TCP/UDP checksum over the pseudo-header; 16 bits,
    ~450 cycles (touches the whole payload). *)

val vlan : Feature.t
(** Outermost 802.1Q TCI, 0 if untagged; 16 bits. *)

val timestamp : Feature.t
(** Software arrival timestamp (ns); 64 bits. Cheap but degraded
    precision versus a NIC's PHC. *)

val flow_id : Feature.t
(** Stable per-connection identifier (structural 5-tuple hash); 32 bits. *)

val mark : Feature.t
(** Application-installed flow mark, 0 when none; 32 bits. *)

val pkt_len : Feature.t
(** Frame length in bytes; 16 bits. *)

val l3_type : Feature.t
(** 0 none, 1 ipv4, 2 ipv6; 4 bits. *)

val l4_type : Feature.t
(** 0 none, 1 tcp, 2 udp, 3 other; 4 bits. *)

val ip_id : Feature.t
(** IPv4 identification field; 16 bits. *)

val lro_num_seg : Feature.t
(** Segments coalesced into this buffer; software cannot coalesce, so
    always 1 for valid packets; 8 bits. *)

val kvs_key : Feature.t
(** Folded key of a memcached-style GET (see {!Kvs.fold_key}); 64 bits. *)

val crc : Feature.t
(** Ethernet FCS CRC-32 of the frame; 32 bits, expensive (~8 cycles/B
    folded into a large constant). *)

val tunnel_vni : Feature.t
(** VXLAN network identifier of an encapsulated packet (UDP/4789 with
    the I flag set), 0 when not VXLAN; 24 bits. *)

val flow_pkts : Feature.t
(** Stateful: packets seen so far on this 5-tuple (including the current
    one), from the environment's per-flow register file; 16 bits. The
    paper's §5 stateful-offload example in executable form. *)

val all : Feature.t list
