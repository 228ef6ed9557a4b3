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

val l4 : bytes -> v:Pkt.view -> total_len:int -> int option
(** {!l4_sum} with [None] for [-1]. *)
