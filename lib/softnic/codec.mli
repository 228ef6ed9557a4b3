(** The completion codec's cores, field shapes and encoder.

    Every builtin semantic with a value of at most 32 bits (or a clock
    reading) is one allocation-free {e core} here, returning an int.
    {!Registry}'s [compute] boxes the core's value; the device's
    completion encoder ({!encoder}) and the host's batched decoder call
    the core directly. One implementation per semantic, so the device and
    the shims cannot drift apart.

    Two packet facts are shared between cores: the IPv4 header sum
    ({!ipv4_sum}) and the L4 sum ({!l4_sum}). The encoder computes each
    once per packet, only when a field of its path needs it.

    Every function here that takes a packet reads it as a {e frame}:
    the first [len] bytes of a buffer that may be a longer, reused
    scratch (a ring slot, a burst buffer), plus the {!Packet.Pkt.view}
    of that frame, which the caller parsed with
    {!Packet.Pkt.parse_into} into a view it owns. No
    [Pkt.t] is built. Requires [0 <= len <= Bytes.length buf], and the
    view must describe the same frame; nothing reads past [len]. *)

type sem =
  | Rss
  | Rss_type
  | Ip_checksum
  | Csum_ok
  | L4_checksum
  | Vlan
  | Timestamp
  | Flow_id
  | Mark
  | Pkt_len
  | L3_type
  | L4_type
  | Ip_id
  | Lro_num_seg
  | Crc
  | Tunnel_vni
  | Flow_pkts
      (** The builtin semantics with an int core ([kvs_key] has none: its
          value needs all 64 bits). *)

(** {1 Shared facts} *)

val ipv4_sum : bytes -> len:int -> Packet.Pkt.view -> int
(** The computed IPv4 header checksum, or [-1] when the packet is not
    IPv4 or its IHL×4 is under 20 or runs past the frame. *)

val l4_sum : bytes -> len:int -> Packet.Pkt.view -> int
(** The computed TCP/UDP checksum over the IPv4 pseudo-header, or [-1]
    when there is no IPv4 L4 header. *)

val needs_ipsum : sem -> bool
val needs_l4sum : sem -> bool

(** {1 Cores} *)

val value :
  sem ->
  Feature.env ->
  bytes ->
  len:int ->
  Packet.Pkt.view ->
  ipsum:int ->
  l4sum:int ->
  int
(** The semantic's value on a frame, given the frame's shared facts (any
    value where [needs_*] is false). *)

val eval : sem -> Feature.env -> bytes -> len:int -> Packet.Pkt.view -> int
(** {!value} computing the facts it needs. *)

val flow_hash :
  src_ip:int -> dst_ip:int -> src_port:int -> dst_port:int -> proto:int -> int
(** {!Packet.Fivetuple.hash_fold} of the 5-tuple given as ints (the
    addresses' low 32 bits), with no tuple built: the runtime's
    MurmurHash3-based [Hashtbl.hash] replayed on ints. *)

(** {1 Field shapes}

    The one rule that turns a field's [(bit_off, bits)] into loads and
    stores. The device's encoder writes completions with it; the host's
    accessors, batched decoder and contract checker read with it; the
    compiler certifies the load chain it implies. Fields are MSB-first:
    bit 0 of a record is the top bit of byte 0, as a P4 header reads
    left to right.

    A read or a write touches only the bytes the field spans,
    [bit_off / 8 .. (bit_off + bits - 1) / 8]: the buffer needs to hold
    those and nothing past them, and every other bit stays as it was. *)

type shape =
  | Skip  (** wider than 64 bits: reserved, never written, reads as 0 *)
  | U8 of int  (** aligned 8 bits at this byte offset: one load or store *)
  | U16 of int  (** aligned 16 bits, big-endian *)
  | U32 of int  (** aligned 32 bits, big-endian *)
  | U64 of int  (** aligned 64 bits, big-endian *)
  | Bits of { first : int; nbytes : int; shift : int; mask : int }
      (** any other field within 7 bytes: the [nbytes] bytes from
          [first] as one big-endian int, shifted right by [shift] and
          masked with [mask] *)
  | Wide of { bit_off : int; bits : int }
      (** a field spread over 8 or 9 bytes: the bit walk *)

val shape : bit_off:int -> bits:int -> shape
(** Requires [bit_off >= 0] and [bits >= 1]. *)

val read_int : bytes -> shape -> int
(** The field's value, for fields of at most 62 bits, so that a call
    from another module returns an unboxed int and allocates nothing.
    On a 63- or 64-bit field it returns the low 63 bits as an OCaml int:
    bit 63 is lost and bit 62 reads as the sign. Use {!read_int64}
    there. *)

val read_int64 : bytes -> shape -> int64
(** The field's value, for every width. Allocates the boxed result when
    called from another module (3 words): a checker or decoder reads
    fields of up to 62 bits with {!read_int}, and pays this only on 63-
    and 64-bit fields. *)

val write_int : bytes -> shape -> int -> unit
(** Store the value's low [bits] bits. For fields of at most 62 bits;
    a [Wide] field boxes its value for the walk. *)

val write_int64 : bytes -> shape -> int64 -> unit
(** Store the value's low [bits] bits, for every width. *)

(** {1 Encoder} *)

type producer = Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64
(** {!Feature.t}'s [compute] type. The view is the encoder's caller's:
    valid during the call only, so a producer must not keep it. *)

type source =
  | Const of int64  (** the same value in every completion *)
  | Core of sem
  | Boxed of producer
      (** anything else: called per packet, with a [Pkt.t] the encoder
          builds over the frame only when it holds such a source *)

type encoder
(** One completion layout's encoder: the constant fields pre-written in a
    template, the rest an array of (source, write shape) in layout
    order, so stateful sources tick in the order the fields are laid
    out. *)

val encoder : size_bytes:int -> (int * int * source) list -> encoder
(** [encoder ~size_bytes fields] stages a layout of [size_bytes] bytes
    whose [fields] are [(bit_off, bits, source)], non-overlapping, in
    layout order, each written with its {!shape}. *)

val size_bytes : encoder -> int

val encode :
  encoder -> Feature.env -> bytes -> len:int -> Packet.Pkt.view -> bytes -> unit
(** [encode e env buf ~len view cmpt] writes the completion of the frame
    in the first [len] bytes of [buf] into the first [size_bytes] bytes of
    [cmpt]. Allocates nothing of its own: only an encoder with a [Boxed]
    source (one [Pkt.t] per packet, plus what its producers return) and
    table lookups ([mark] with a mark installed, [flow_pkts]) do. *)
