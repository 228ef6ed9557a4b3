(** ASNI-style aggregated frames, for real.

    ASNI "circumvents the problem by embedding metadata within the packet
    buffer itself": the NIC packs several packets, each prefixed by its
    completion metadata, into one large frame, and the host walks the
    frame instead of a descriptor ring. This module is the frame codec —
    the on-card aggregation engine when building (what a programmable NIC
    would do) and the host-side walker when consuming.

    Frame layout (all integers little-endian):
    {v
      u16 count
      repeat count times:
        u16 len | <cmpt_size bytes of completion metadata> | <len packet bytes>
    v}

    The metadata layout inside the frame is the NIC program's completion
    layout — fixed at program-install time, which is exactly the
    paper's criticism of ASNI (no per-queue negotiation). *)

val header_bytes : int
(** Frame header size (2). *)

val build : cmpt_size:int -> (bytes * int * bytes) list -> bytes
(** [build ~cmpt_size rxs] packs [(pkt_buf, len, cmpt)] triples (as a
    harvested {!Device.burst} holds them) into one frame: [len] bytes of
    each packet and the first [cmpt_size] bytes of each [cmpt], which
    must hold at least that many. *)

val iter :
  cmpt_size:int -> bytes -> f:(pkt_off:int -> len:int -> cmpt_off:int -> unit) -> unit
(** Walk a frame, calling [f] per packet with offsets into the frame —
    zero-copy, like the real consumer.
    @raise Invalid_argument on truncated/corrupt frames. *)

val count : bytes -> int
(** Packets in a frame. *)
