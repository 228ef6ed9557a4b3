(** RFC 1071 internet checksum. *)

val ones_sum : ?acc:int -> bytes -> pos:int -> len:int -> int
(** One's-complement 16-bit sum of a byte range, folding carries.
    Odd trailing byte is padded with zero, per RFC 1071. [acc] seeds the
    sum (for pseudo-headers). *)

val finish : int -> int
(** Final fold + complement, yielding the 16-bit checksum field value. *)

val ipv4_header : bytes -> off:int -> int
(** Checksum of the IPv4 header starting at [off] (reads IHL itself),
    computed with the checksum field treated as zero. Reads IHL×4 bytes
    whatever they hold: for a received frame use {!ipv4_header_within}. *)

val ipv4_header_within : bytes -> off:int -> len:int -> int
(** {!ipv4_header} of a header that must lie in the first [len] bytes of
    the buffer: [-1] when IHL×4 is under 20 bytes or [off + IHL×4 > len],
    so a truncated frame never reads past its end (nor, in a pooled
    buffer, a previous frame's bytes). Requires [off < len]. *)

val l4_sum : bytes -> v:Pkt.view -> total_len:int -> int
(** TCP/UDP checksum over IPv4 pseudo-header + L4 segment, with the
    in-packet checksum field treated as zero; [-1] for non-IPv4 or
    missing L4. [total_len] is the packet length. Allocates nothing. *)

val l4_of_header :
  bytes ->
  l3_off:int ->
  l4_off:int ->
  hdr_len:int ->
  field:int ->
  proto:int ->
  l4_len:int ->
  payload_sum:int ->
  int
(** The {!l4_sum} of an IPv4 frame from its headers alone, for a writer
    that knows its payload's sum without reading it back: the
    pseudo-header of the IPv4 header at [l3_off] (with [proto] and the
    [l4_len]-byte L4 length), the [hdr_len]-byte L4 header at [l4_off]
    with the checksum [field] (inside it) counted as zero, and
    [payload_sum], the {!ones_sum} of the payload that follows the
    header. [hdr_len] must be even, as TCP's and UDP's are, so the
    payload's 16-bit words line up with the segment's. *)

val fill_sum : char -> len:int -> int
(** {!ones_sum} of [len] copies of one byte, in O(1): a payload made of
    one repeated byte sums without being read. *)

val l4 : bytes -> v:Pkt.view -> total_len:int -> int option
(** {!l4_sum} with [None] for [-1]. *)
