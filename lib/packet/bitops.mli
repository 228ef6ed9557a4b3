(** Byte- and bit-level access to raw buffers.

    Descriptor layouts are defined down to the bit (status bits, packed
    type fields), so accessors need arbitrary-width loads and stores at
    arbitrary bit offsets, in both byte orders. All multi-byte helpers
    bounds-check via the underlying [Bytes] primitives. *)

(** {1 Byte-aligned accessors} *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit

val get_u16_le : bytes -> int -> int
val get_u16_be : bytes -> int -> int
val set_u16_le : bytes -> int -> int -> unit
val set_u16_be : bytes -> int -> int -> unit

val get_u32_be : bytes -> int -> int32
val set_u32_be : bytes -> int -> int32 -> unit

val get_u64_le : bytes -> int -> int64
val set_u64_le : bytes -> int -> int64 -> unit

(** {1 Arbitrary bit fields}

    Bit offsets count from the most-significant bit of byte 0, matching the
    order in which P4 headers lay out their fields. Widths up to 64 bits. *)

val get_bits : bytes -> bit_off:int -> width:int -> int64
(** [get_bits b ~bit_off ~width] extracts [width] bits starting [bit_off]
    bits into [b], MSB-first, as an unsigned value.
    Requires [0 < width <= 64] and the range to lie within [b]. *)

val set_bits : bytes -> bit_off:int -> width:int -> int64 -> unit
(** [set_bits b ~bit_off ~width v] stores the low [width] bits of [v]
    MSB-first at [bit_off]. Bits outside the range are preserved. *)

(** {1 Misc} *)

val bytes_for_bits : int -> int
(** Number of bytes needed to hold [n] bits ([ceil (n/8)]). *)

val hex : bytes -> string
(** Lowercase hex dump, two characters per byte, no separators. *)

val hex_sub : bytes -> pos:int -> len:int -> string
(** Hex dump of a sub-range. *)

val mask : int -> int64
(** [mask w] is an [int64] with the low [w] bits set, [0 <= w <= 64]. *)
