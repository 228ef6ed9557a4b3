(** CRC-32 (IEEE 802.3), as used for the Ethernet frame check sequence. *)

val digest : ?crc:int32 -> bytes -> pos:int -> len:int -> int32
(** Reflected CRC-32, polynomial 0xEDB88320, init/xorout 0xFFFFFFFF.
    [crc] chains a previous digest. *)

val digest_int : int -> bytes -> pos:int -> len:int -> int
(** {!digest} as an unsigned 32-bit value in an int, chained from the
    unsigned previous digest (0 to start). Allocates nothing. *)

val of_pkt : Packet.Pkt.t -> int32
(** CRC of the whole frame contents. *)
