(** Packet buffers and a lazily-parsed protocol view.

    A [t] owns a byte buffer and a length. The [view] type is the result of
    parsing the standard Ethernet / 802.1Q / IPv4 / IPv6 / TCP / UDP ladder;
    it records header offsets rather than copying fields, so accessors read
    straight from the buffer (the zero-copy discipline drivers use). *)

type t = { buf : bytes; len : int }

val create : bytes -> t
(** Wrap a whole buffer. *)

val sub : bytes -> len:int -> t
(** Wrap the first [len] bytes. Requires [len <= Bytes.length buf]. *)

val len : t -> int

(** Where each parsed layer starts, [-1] when absent.

    A view is mutable so that a consumer on the per-packet path can parse
    every frame into one view it owns ({!parse_into}) instead of building
    a record per packet. Such a view describes the frame last parsed into
    it and is valid only until its owner's next parse: code handed a view
    (a {!Softnic.Feature.t}'s [compute], a codec core) reads it during the
    call and must not keep it. {!parse} returns a fresh view, never a
    shared one, for callers that keep it. *)
type view = {
  mutable l2_off : int;
  mutable vlan_off : int;  (** first 802.1Q tag, or -1 *)
  mutable vlan_tci : int;  (** TCI of the first tag, or 0 *)
  mutable ethertype : int; (** inner ethertype after any VLAN tags; -1 under 14 bytes *)
  mutable l3_off : int;    (** -1 if not IP *)
  mutable is_ipv4 : bool;
  mutable is_ipv6 : bool;
  mutable l4_proto : int;  (** -1 when no L3 *)
  mutable l4_off : int;    (** -1 when L4 missing/truncated *)
  mutable payload_off : int; (** -1 when L4 missing *)
  mutable src_port : int;  (** 0 when no TCP/UDP *)
  mutable dst_port : int;
}

val view : unit -> view
(** A fresh view, holding what {!parse_into} writes for a frame shorter
    than an Ethernet header. *)

val parse_into : view -> bytes -> len:int -> unit
(** [parse_into v buf ~len] parses the frame in the first [len] bytes of
    [buf] into [v], overwriting all of its fields, so nothing of the
    frame [v] held before survives. Allocates nothing and never raises:
    truncated or unknown layers yield [-1] offsets. At most two stacked
    VLAN tags are skipped. Requires [0 <= len <= Bytes.length buf]. *)

val parse : t -> view
(** A fresh view with the packet parsed into it ({!parse_into}). *)

(** {1 Field reads used by software offload implementations} *)

val ipv4_src : t -> view -> int32

val ipv4_dst : t -> view -> int32

(** Header length in bytes. *)
val ipv4_ihl : t -> view -> int

val ipv4_total_len : t -> view -> int

val ipv4_id : t -> view -> int

val ipv4_ttl : t -> view -> int

val ipv4_hdr_checksum : t -> view -> int

(** 16 bytes. *)
val ipv6_src : t -> view -> bytes

val ipv6_dst : t -> view -> bytes

val equal : t -> t -> bool

(** Short summary line: length plus parsed layering. *)
val pp : Format.formatter -> t -> unit
