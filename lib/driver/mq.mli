(** Multi-queue devices with on-card RSS steering.

    The paper (§3): "applications might use multiple OpenDesc instances
    with different intents to obtain different queues tailored for
    different kind[s] of traffic." A multi-queue device is an array of
    independently-configured queues — each with its own completion layout
    negotiated by its own compilation — behind one steering function: the
    RSS hash of the flow picks the queue (hashless frames go to queue 0),
    so a connection's packets always share a queue, RSS-style. *)

type t

val create :
  ?queue_depth:int ->
  configs:Opendesc_analysis.Context.assignment array ->
  (unit -> Nic_models.Model.t) ->
  (t, string) result
(** One queue per config. [model] is a thunk because every queue gets its
    own device instance of the same NIC (sharing the steering key). *)

val create_exn :
  ?queue_depth:int ->
  configs:Opendesc_analysis.Context.assignment array ->
  (unit -> Nic_models.Model.t) ->
  t

val queues : t -> int

val queue : t -> int -> Device.t
(** The underlying device of one queue (drain it with
    {!Device.rx_consume}). *)

val steer : t -> Packet.Pkt.t -> int
(** The queue the steering function selects (Toeplitz over the flow,
    modulo queue count; 0 for unhashable frames). Every packet is
    hashed: the hash is a pure function of the flow, so a flow's packets
    always pick the same queue without a flow table. The packet is
    parsed into one view the [t] owns, so steering allocates nothing;
    one domain at a time may steer on a [t] (in {!Parallel}, the
    producer domain). *)

val steer_raw : t -> bytes -> len:int -> int
(** {!steer} of the frame in the first [len] bytes of a caller-owned
    buffer, which may be a reused scratch longer than the frame:
    [steer t pkt = steer_raw t pkt.buf ~len:pkt.len]. The pairing is
    {!Device.rx_inject} and {!Device.rx_inject_raw}'s. *)

val rx_inject : t -> Packet.Pkt.t -> bool
(** Inject via the steering function. *)

type steer_cache
(** Stateless. Steering hashes every packet: {!steer} is one Toeplitz
    table lookup per input byte, cheaper than looking the flow up in a
    table. The type, {!make_steer_cache} and {!steer_cached} remain only
    for existing callers. *)

val make_steer_cache : unit -> steer_cache
(** Equivalent to [()]: there is no state to create. *)

val steer_cached : t -> steer_cache -> Packet.Pkt.t -> int
(** Equivalent to {!steer}: [steer_cached t c pkt = steer t pkt]. *)

val rx_counts : t -> int array
(** Packets delivered per queue. *)

val bursts : ?capacity:int -> t -> Device.burst array
(** One reusable burst buffer per queue (see {!Device.burst_create}). *)

val rx_consume_batch : t -> int -> Device.burst -> int
(** Harvest one queue into its burst buffer. *)

val drain_batched : t -> Device.burst array -> f:(int -> Device.burst -> unit) -> int
(** One polling sweep: harvest every queue into its burst (as created by
    {!bursts}) and call [f queue burst] for each non-empty harvest.
    Returns the total packets harvested across queues.

    @raise Invalid_argument when the burst array's length does not match
    the queue count — loud in release builds too, unlike an [assert]. *)

(** {1 Chaos datapath}

    The fault-injected twin of the batched datapath: wrap every queue in
    a {!Fault.t} (same plan, per-queue seeds), inject through the fault
    layer and drain through its recovery path. With {!Fault.zero_plan}
    this is byte-identical to {!rx_inject} + {!drain_batched}. *)

val wrap_chaos : ?quarantine_depth:int -> plan:Fault.plan -> t -> Fault.t array
(** One fault wrapper per queue, seeded with the queue id (see
    {!Fault.wrap}). *)

val rx_inject_chaos : t -> Fault.t array -> Packet.Pkt.t -> bool
(** Steer (exactly as {!rx_inject}) and inject through the queue's fault
    wrapper.
    @raise Invalid_argument on a wrapper-array/queue-count mismatch. *)

val drain_chaos :
  t -> Fault.t array -> Device.burst array -> f:(int -> Device.burst -> unit) -> int
(** One polling sweep through {!Fault.harvest}: each burst holds only
    {e validated} completions (violators are quarantined). Returns the
    total delivered this sweep.
    @raise Invalid_argument on array/queue-count mismatches. *)

val drain_chaos_all :
  t -> Fault.t array -> Device.burst array -> f:(int -> Device.burst -> unit) -> int
(** End-of-stream drain: flush deferred (reordered) completions, then
    sweep until every queue ring is dry — retrying stuck queues (bounded
    kicks per sweep) and discounting fully-quarantined bursts. Returns
    the total delivered. *)
