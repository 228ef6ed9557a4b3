(** Toeplitz hash, the de-facto RSS algorithm.

    Implements the Microsoft RSS specification: the hash of an input byte
    string under a 40-byte key, where input bit [i] being set XORs in the
    32-bit key window starting at bit [i]. Verified against the published
    test vectors and a bit-by-bit reference (see the softnic test suite).

    A {!key} carries a table built once from its bytes: for each input
    byte position and byte value, the XOR of the windows that byte's set
    bits select. A hash is then one lookup per input byte. *)

type key
(** A secret key with its per-byte lookup table. *)

val key_of_bytes : bytes -> key
(** Build a key, and its table, from the key bytes (copied). A key of
    [n] bytes hashes inputs of up to [n - 4] bytes; the usual 40-byte key
    covers the 36-byte IPv6 4-tuple. *)

val default_key : key
(** The widely-deployed "Microsoft standard" verification key. *)

val symmetric_key : key
(** A key of repeated 0x6d5a bytes, making the hash symmetric in
    src/dst — what RSS++-style load balancers deploy. *)

val hash : ?key:key -> bytes -> int32
(** [hash input] over arbitrary input bytes. Default key: {!default_key}.
    Raises [Invalid_argument] when the key is shorter than the input plus
    4 bytes. *)

val hash_ipv4_2tuple : ?key:key -> int32 -> int32 -> int32
(** [hash_ipv4_2tuple src dst] is the RSS "IPv4" (address-only) input. *)

val hash_flow : ?key:key -> Packet.Fivetuple.t -> int32
(** 4-tuple hash (src IP, dst IP, src port, dst port) of a flow — the RSS
    "TCP/UDP over IPv4" input. *)

val hash_ipv6_flow :
  ?key:key -> src:bytes -> dst:bytes -> src_port:int -> dst_port:int -> unit -> int32
(** RSS "TCP/UDP over IPv6" input: 16-byte addresses then ports. Raises
    [Invalid_argument] unless both addresses are 16 bytes. *)

val hash_pkt : ?key:key -> Packet.Pkt.t -> Packet.Pkt.view -> int32
(** RSS hash of a packet: 4-tuple for IPv4 TCP/UDP, 2-tuple for other
    IPv4, 4-tuple over the 16-byte addresses for IPv6 TCP/UDP, and [0l]
    for non-IP (what NICs report for unhashable frames). Reads the packet
    in place. *)

val hash_pkt_int : key -> bytes -> Packet.Pkt.view -> int
(** {!hash_pkt} of the frame in a buffer, given the frame's view, as an
    unsigned 32-bit value in an int: no [Pkt.t], no option, no boxed
    result, so the per-packet callers (RSS steering and the device's
    completion encoder) allocate nothing. Reads only the bytes the view
    places inside the frame. *)
