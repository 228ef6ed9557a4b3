(** The simulated NIC device.

    One receive queue and one transmit queue over DMA rings, driven by a
    behavioural {!Nic_models.Model.t}. The device is an interpreter of
    its own OpenDesc description: the completion layout it serialises is
    exactly the completion path selected by the programmed context — so
    if the compiler and the device ever disagreed about a layout, every
    end-to-end test would fail.

    RX: the "wire" side injects packets; the device computes its
    hardware metadata, DMAs the packet into a host buffer slot and a
    completion record into the completion ring.
    TX: the host posts descriptors in one of the NIC's accepted formats;
    the device fetches them, parses out buffer address and length, and
    counts the transmission. *)

type t

type burst = {
  bs_pkts : bytes array;  (** reusable packet buffers; payload at offset 0 *)
  bs_lens : int array;  (** packet length per slot *)
  bs_cmpts : bytes array;
      (** reusable completion buffers (max-layout-size; only the first
          [bs_cmpt_lens.(i)] bytes of entry [i] are meaningful) *)
  bs_cmpt_lens : int array;  (** active completion layout size per slot *)
  mutable bs_count : int;  (** entries filled by the last harvest *)
}
(** A reusable burst buffer: the batched datapath harvests completions
    into it with zero per-packet allocation. Create one per device with
    {!burst_create} and reuse it across polls — each harvest overwrites
    the previous contents. *)

val create :
  ?queue_depth:int ->
  ?buf_size:int ->
  config:Opendesc_analysis.Context.assignment ->
  Nic_models.Model.t ->
  (t, string) result
(** [config] must select one of the model's completion paths (compare
    with the assignments enumerated by the compiler). Default queue
    depth 512, buffer size 2048. *)

val create_exn :
  ?queue_depth:int ->
  ?buf_size:int ->
  config:Opendesc_analysis.Context.assignment ->
  Nic_models.Model.t ->
  t

val configure : t -> Opendesc_analysis.Context.assignment -> (unit, string) result
(** Reprogram the queue context (the implicit control channel of the
    paper's Figure 2) and stage the selected path's completion encoder
    ({!Softnic.Codec.encoder}): each field's {!Nic_models.Model.source}
    and write shape, resolved here once so injection does no per-field
    lookup. Outstanding completions keep the old layout; callers
    normally drain first. *)

val active_path : t -> Opendesc.Path.t

val upgrade :
  t ->
  config:Opendesc_analysis.Context.assignment ->
  Nic_models.Model.t ->
  (unit, string) result
(** Hot-swap the device's firmware contract in place: install a new
    behavioural model and program [config] (which must select one of its
    completion paths), staging the new path's completion encoder from
    the new model as {!configure} does. Rings, DMA counters and the feature
    environment (RSS key, clock, flow marks) are preserved, so steering
    and keyed semantics are continuous across the swap. Refused — with the device
    untouched — when completions are still in flight (they were written
    under the old layout), or when the new contract's completion or TX
    descriptor sizes exceed the provisioned ring slots. Callers drain to
    a quiescent point first; {!Driver.Upgrade} is the orchestrated
    path. *)

val model : t -> Nic_models.Model.t

val env : t -> Softnic.Feature.env
(** The device's feature environment (its clock, flow marks, RSS key). *)

val cmpt_ring : t -> Ring.t
(** The completion ring. Exposed (with {!pkt_ring} and {!tx_ring}) for
    the fault-injection layer, which mutates ring slots in place to model
    torn or corrupted DMA writes; normal datapath code should stay on the
    [rx_*]/[tx_*] API. *)

val pkt_ring : t -> Ring.t

val tx_ring : t -> Ring.t

val buf_size : t -> int

val install_mark : t -> Packet.Fivetuple.t -> int32 -> unit
(** Install an rte_flow-MARK-style rule: packets of this flow get the
    mark in their [mark]-semantic completion field (0 otherwise). *)

(** {1 Receive} *)

val rx_inject : t -> Packet.Pkt.t -> bool
(** Wire → device → host memory. False (and a drop counted) when the RX
    or completion ring is full. *)

val rx_inject_raw : t -> bytes -> len:int -> bool
(** Like {!rx_inject}, but the packet is the first [len] bytes of a
    caller-owned buffer (which may be a reusable scratch longer than the
    packet, so the producer loop never slices). The frame is written
    once, straight into the packet ring's slot ([len + 2] bytes of DMA),
    parsed into the device's own view ({!Packet.Pkt.parse_into}) and
    encoded from the buffer into a preallocated completion record — the
    pooled fast path's injection primitive, which allocates nothing per
    packet unless the active path has a boxed producer. A frame longer
    than [buf_size] is dropped (counted) unread, so [buf] may hold it
    truncated.
    @raise Invalid_argument when [len < 0], or when [len <= buf_size]
    and the frame runs past [buf]; neither ring nor any counter moves. *)

val rx_available : t -> int

val rx_consume : t -> (bytes * int * bytes) option
(** Host side: next (packet buffer, packet length, completion record). *)

val burst_create : ?capacity:int -> t -> burst
(** Allocate a reusable burst buffer sized for this device's rings
    (default capacity 64). Only valid for the device it was created
    for. *)

val burst_capacity : burst -> int

val rx_consume_batch : t -> burst -> int
(** Harvest up to [burst_capacity] ready completions into the burst in
    one poll, overwriting its previous contents. Returns the number
    harvested (0 when the ring is empty). Copies only what the device
    wrote: the active layout's completion bytes and each frame's [len]
    bytes, to offset 0 of the burst's buffers; bytes past those are
    left as they were. Observably equivalent to calling {!rx_consume}
    that many times. *)

(** {1 Transmit} *)

val tx_format : t -> Opendesc.Descparser.t option
(** The descriptor format the device currently parses (smallest by
    default). *)

val tx_post : t -> bytes -> bool
(** Host posts a raw TX descriptor and rings the doorbell. False when
    the ring is full. *)

val tx_post_batch : t -> bytes list -> int
(** Host posts a burst of TX descriptors with a {e single} doorbell for
    the whole burst (none when nothing fits). Returns the number
    posted; stops at the first full slot. *)

val tx_process : t -> fetch:(int64 -> Packet.Pkt.t option) -> int
(** Device drains the TX ring: parses each descriptor with the active
    format, fetches the buffer via [fetch] (keyed by the descriptor's
    [buf_addr]), counts DMA for descriptor + packet reads. Returns the
    number transmitted. *)

(** {1 Accounting} *)

val rx_count : t -> int

val tx_count : t -> int

val drops : t -> int

val doorbells : t -> int
(** MMIO doorbell writes the host has issued ({!tx_post} rings one per
    descriptor; {!tx_post_batch} one per burst). *)

val dma_bytes : t -> int
(** Total device-side DMA traffic: packets + completions written,
    descriptors + packets read. *)

val reset_counters : t -> unit
