(** Reproducible synthetic traffic for experiments.

    Profiles mirror the workloads the paper's motivation cites: minimum-size
    stress traffic (driver-bound), IMIX-like mixes, KVS request streams, and
    raw-payload streams for the streaming-interface comparison. *)

type profile =
  | Min_size  (** 64 B TCP packets, driver-datapath stress *)
  | Imix  (** 7:4:1 mix of 64/594/1518 B, classic IMIX *)
  | Large  (** 1518 B TCP *)
  | Kvs of { key_len : int }  (** UDP memcached-style GETs *)
  | Raw_stream of { size : int }  (** non-IP frames, payload-processing *)
  | Vlan_tagged  (** 132 B TCP with 802.1Q tags *)
  | Ipv6_mix  (** alternating IPv4 (86 B) and IPv6 (106 B) TCP *)
  | Zipf of { alpha : float }
      (** 54 B TCP (no payload) with Zipf-distributed flow popularity —
          heavy-hitter traffic (flow 1 dominates), the regime load-aware
          steering (RSS++-style) is built for *)

type t

val make : ?seed:int64 -> ?flows:int -> profile -> t
(** [make profile] builds a generator over [flows] (default 64) distinct
    5-tuples. Same seed, same stream. A [Zipf] generator builds its
    weights here, once, so drawing a frame costs O(log flows).
    @raise Invalid_argument on a negative [Kvs] key length. *)

val max_len : t -> int
(** The longest frame the generator's profile can emit: the buffer size
    {!next_into} requires. *)

val next_into : t -> bytes -> int
(** [next_into t b] writes the next frame at offset 0 of [b] and returns
    its length. Every byte of the frame is written, so [b] can be reused
    for every frame; bytes of [b] past the frame are left as they were.
    The stream is the one {!next} returns: the same frames from the same
    draws, whichever of the two is called. Allocates nothing.
    @raise Invalid_argument when [b] is shorter than {!max_len}, before
    anything is drawn. *)

val next : t -> Pkt.t
(** Draw the next packet: {!next_into} plus one exact-size copy, so
    [Bytes.length pkt.buf = pkt.len]. *)

val batch : t -> int -> Pkt.t array
(** Draw [n] packets. *)

val flow_of : t -> int -> Fivetuple.t
(** The [i]-th flow in the generator's flow table (for assertions). *)

val flows : t -> int

val profile_name : profile -> string
