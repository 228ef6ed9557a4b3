(** Simulated DMA-shared memory with transfer accounting.

    Host and device exchange data through these regions; every
    device-side read or write is counted so experiments can report real
    DMA footprints (bytes moved across the "PCIe bus" per packet) —
    that's the second term of the paper's Eq. 1 measured rather than
    assumed. *)

type t

val create : int -> t

val size : t -> int

val mem : t -> bytes
(** Host-side view: reads/writes here are not counted. *)

val dev_write : t -> off:int -> bytes -> pos:int -> len:int -> unit
(** Device writes into host memory (counted). *)

val dev_write_u16_le : t -> off:int -> int -> unit
(** Device writes a 16-bit little-endian value (2 bytes counted). *)

val dev_read : t -> off:int -> len:int -> bytes
(** Device reads from host memory (counted). *)

val corrupt : t -> off:int -> bytes -> pos:int -> len:int -> unit
(** Overwrite region bytes {e without} counting the transfer: the
    fault-injection primitive. A corrupted completion models the very
    DMA write that was already counted going wrong in flight, so it must
    not inflate the footprint a clean run would report. *)

val dev_read_into : t -> off:int -> buf:bytes -> pos:int -> len:int -> unit
(** Like {!dev_read}, but blits into the caller's reusable buffer instead
    of allocating. The hot-loop variant: device-side descriptor fetches
    happen once per TX packet, so the allocation matters. *)

val dev_written_bytes : t -> int

val dev_read_bytes : t -> int

val reset_counters : t -> unit
