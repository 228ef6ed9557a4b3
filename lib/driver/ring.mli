(** Fixed-slot descriptor rings over DMA memory.

    The classic NIC coordination structure: a power-of-two array of
    equal-size slots with a producer and a consumer index. Completion
    and packet rings have the device as producer; TX rings have the host
    as producer. Indices use the standard free-running scheme (wrap at
    2^62) so full/empty are unambiguous.

    Completion records are fixed-size prefixes of their slots; packet
    rings hold length-prefixed {{!frames}frames}. Either way a transfer
    moves only the bytes it names, never the unused tail of a slot. *)

type t

val create : slots:int -> slot_size:int -> t
(** [slots] must be a power of two. *)

val slots : t -> int

val slot_size : t -> int

val dma : t -> Dma.t
(** The backing region, for footprint accounting. *)

val is_empty : t -> bool

val is_full : t -> bool

val available : t -> int
(** Entries ready for the consumer. *)

val space : t -> int
(** Free slots for the producer. *)

val prod_index : t -> int
(** Free-running producer index: the slot [produce_*] will fill next is
    [slot_offset t (prod_index t)]; the one it just filled is
    [slot_offset t (prod_index t - 1)]. Exposed for the fault-injection
    layer, which mutates freshly-produced slots in place. *)

val slot_offset : t -> int -> int
(** Byte offset of a free-running index's slot in [dma t]'s memory. *)

val produce_dev : t -> bytes -> len:int -> bool
(** Device writes the first [len] bytes of [payload] into the next slot
    (counted as DMA), clamped to the payload and the slot. False when
    full. *)

val repeat_dev : t -> len:int -> bool
(** Device writes the first [len] bytes of the slot it produced last
    (the one at [prod_index t - 1]) again into the next slot, counted as
    DMA: a duplicated completion. False when full. *)

val produce_host : t -> bytes -> bool
(** Host writes the next slot (not counted). False when full. *)

val consume_host : t -> bytes option
(** Host reads the next slot (not counted; completions already crossed
    the bus when the device produced them). Allocates a fresh buffer per
    slot — a thin wrapper over {!consume_host_into} kept for tests and
    one-shot tooling; hot paths use the [_into] variant with a reusable
    scratch buffer. *)

val consume_host_into : t -> bytes -> bool
(** Like {!consume_host}, but blits the slot into the caller's reusable
    buffer instead of allocating. The batched datapath's harvest
    primitive.
    @raise Invalid_argument when the buffer is shorter than [slot_size]
    (a short scratch buffer would otherwise read as a silently truncated
    descriptor — indistinguishable from a torn DMA write). *)

val consume_host_prefix_into : t -> bytes -> len:int -> bool
(** Like {!consume_host_into}, but copies only the slot's first [len]
    bytes (a record shorter than the slot) to offset 0 of the buffer.
    @raise Invalid_argument when [len] exceeds the slot or the buffer. *)

val produce_host_batch : t -> bytes list -> int
(** Host writes consecutive slots; stops at the first full slot. Returns
    the number written. *)

val consume_dev : t -> bytes option
(** Device reads the next slot (counted as DMA — TX descriptor fetch).
    Allocating wrapper over {!consume_dev_into}; see {!consume_host}. *)

val consume_dev_into : t -> bytes -> bool
(** Like {!consume_dev}, but blits the slot into the caller's reusable
    buffer instead of allocating.
    @raise Invalid_argument when the buffer is shorter than [slot_size]
    (see {!consume_host_into}). *)

(** {1:frames Length-prefixed frames}

    A packet ring slot holds one frame: a 2-byte little-endian length,
    then that many bytes of data. A frame is written once, by the
    device, and read back by its length. The length is read from device
    memory, so it is clamped to {!frame_capacity} on every read. *)

val frame_capacity : t -> int
(** The largest frame a slot holds: [slot_size t - 2]. *)

val produce_frame : t -> bytes -> len:int -> bool
(** Device writes the first [len] bytes of [src] into the next slot as
    one frame; [len + 2] bytes are counted as DMA. [len] is clamped to
    [src] and to {!frame_capacity}. False when full. *)

val repeat_frame : t -> bool
(** Device writes the frame it produced last again into the next slot
    ([len + 2] bytes counted), as {!repeat_dev} does for a record.
    False when full. *)

val consume_frame_into : t -> bytes -> int
(** Host reads the next frame's data to offset 0 of the buffer and
    returns its length; [-1] when the ring is empty.
    @raise Invalid_argument when the buffer is shorter than
    {!frame_capacity} (see {!consume_host_into}). *)

val consume_frame : t -> bytes option
(** Allocating variant of {!consume_frame_into}: the next frame's data
    in a fresh buffer of exactly its length; [None] when empty. *)

val reset : t -> unit
