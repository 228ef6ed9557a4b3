(** Packet construction for tests and workload generation.

    Builders fill in lengths and the IPv4 header checksum so produced
    packets are self-consistent; L4 checksums are left zero unless
    [l4_csum] is requested (software verification features then have real
    work to do). *)

type l4 = Tcp of { seq : int32; flags : int } | Udp

val ipv4 :
  ?vlan:int ->
  ?ttl:int ->
  ?ip_id:int ->
  ?l4_csum:bool ->
  ?payload:bytes ->
  flow:Fivetuple.t ->
  l4 ->
  Pkt.t
(** Ethernet/[802.1Q]/IPv4/{TCP,UDP}/payload. [vlan] is a 12-bit VLAN id
    (tagged only when given). When [l4_csum] is true a correct TCP/UDP
    checksum is filled in, at the checksum field of the header [l4]
    names, otherwise 0. Default payload is empty. The frame is
    allocated at its exact size and written by {!write_ipv4}. *)

val raw : len:int -> fill:char -> Pkt.t
(** A non-IP frame of [len] bytes: broadcast MACs, ethertype 0x88b5
    (IEEE local experimental), constant fill. *)

val ipv6 :
  ?hop_limit:int ->
  ?payload:bytes ->
  src:bytes ->
  dst:bytes ->
  src_port:int ->
  dst_port:int ->
  l4 ->
  Pkt.t
(** Ethernet/IPv6/{TCP,UDP}/payload. [src]/[dst] are 16-byte addresses.
    L4 checksums are left zero (software verification features treat a
    zero UDP checksum as "not computed"). *)

val vxlan : vni:int -> outer_flow:Fivetuple.t -> inner:Pkt.t -> Pkt.t
(** VXLAN encapsulation: Ethernet/IPv4/UDP(dst 4789)/VXLAN(8 B)/inner
    frame. [vni] is the 24-bit network identifier. The outer flow's
    protocol is forced to UDP. *)

val kvs_get : flow:Fivetuple.t -> key:string -> Pkt.t
(** A memcached-text-protocol lookalike: UDP packet whose payload is
    ["get <key>\r\n"]. Used by the key-value-store offload experiments. *)

val corrupt_ipv4_checksum : Pkt.t -> Pkt.t
(** Copy with the IPv4 header checksum flipped, for bad-checksum paths. *)

(** {1 In-place writers}

    The one place each frame layout is written: the allocating builders
    above and {!Workload.next_into} both call these. Each writes every
    byte of the frame's headers from offset 0 of a caller-owned buffer
    (zeros included, so a reused buffer keeps nothing of its last
    frame), takes the L4 header as plain ints ([udp], or a TCP header
    with sequence number [seq] (its low 32 bits) and [flags]), and
    returns the offset where the caller writes the payload. A negative
    [vlan] means untagged. They allocate nothing; the buffer must hold
    the whole frame ({!ipv4_len}, {!ipv6_len}). *)

val ipv4_len : vlan:int -> udp:bool -> payload_len:int -> int
val ipv6_len : udp:bool -> payload_len:int -> int

val write_ipv4 :
  bytes ->
  vlan:int ->
  ttl:int ->
  ip_id:int ->
  flow:Fivetuple.t ->
  udp:bool ->
  seq:int ->
  flags:int ->
  l4_csum:bool ->
  payload_len:int ->
  payload_sum:int ->
  int
(** The {!ipv4} frame's headers for a payload of [payload_len] bytes.
    With [l4_csum] the L4 checksum is computed from the headers and
    [payload_sum], the payload's {!Cksum.ones_sum} (for a payload of
    one repeated byte, {!Cksum.fill_sum}), so the payload is never read
    and may be written after the call. *)

val write_ipv6 :
  bytes ->
  hop_limit:int ->
  src:bytes ->
  dst:bytes ->
  src_port:int ->
  dst_port:int ->
  udp:bool ->
  seq:int ->
  flags:int ->
  payload_len:int ->
  int
(** The {!ipv6} frame's headers (L4 checksum zero). *)

val write_raw : bytes -> len:int -> fill:char -> unit
(** The whole {!raw} frame of [len] bytes. *)

val kvs_get_len : key_len:int -> int
(** The length of a {!kvs_get} frame whose key is [key_len] bytes. *)

val write_kvs_get : bytes -> flow:Fivetuple.t -> key_len:int -> int
(** The {!kvs_get} frame but for its key: returns the offset of the
    [key_len] key bytes the caller writes. *)
