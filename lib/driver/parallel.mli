(** Domain-parallel multi-queue datapath.

    The sequential batched path ({!Mq.drain_batched}) polls every queue
    from one thread of control. This runtime instead gives each queue
    group to a worker {e domain} that owns its {!Device.t}s outright —
    device-side injection and host-side burst harvest both happen on the
    owner, so no device state is shared across domains. A
    steering/injection domain parses and steers each packet (the same
    Toeplitz decision as {!Mq.steer}) and hands its bytes to the owner
    over a bounded SPSC byte ring with preallocated slots, cached
    opposite indices and batched index publication ({!Pktring}) — the
    handoff allocates nothing per packet. Per-domain stats shards merge
    via {!Stats.merge}. *)

module Spsc : sig
  (** Lamport single-producer/single-consumer bounded ring. Exactly one
      domain may push and exactly one may pop; indices are [Atomic] so
      slot contents publish across the pair. The generic boxed-value
      ring; the datapath hands packets over {!Pktring} instead. *)

  type 'a t

  val create : int -> 'a t
  (** Capacity is rounded up to a power of two.
      @raise Invalid_argument on capacity < 1. *)

  val capacity : 'a t -> int

  val try_push : 'a t -> 'a -> bool
  (** False when full (producer only). *)

  val try_pop : 'a t -> 'a option
  (** None when empty (consumer only). *)

  val length : 'a t -> int
  val is_empty : 'a t -> bool
end

module Pktring : sig
  (** The zero-allocation handoff ring: a Lamport SPSC ring over
      preallocated byte slots (packet payload at offset 0, plus a length
      and a queue id per slot). Pushing blits into a pooled slot;
      popping is peek-then-advance, so the consumer reads the slot in
      place and releases it explicitly — no option or tuple boxing on
      either side.

      Two refinements cut cross-domain cache traffic: each side caches
      the other's index and re-reads the atomic only when the cached
      copy says full/empty, and each side publishes its own index in
      batches (every 16 operations, and on flush/full/empty) rather
      than per packet. Late publication is conservative — the ring can
      look fuller or emptier than it is, never the reverse. *)

  type t

  val create : capacity:int -> slot_size:int -> t
  (** Capacity is rounded up to a power of two; every slot holds
      [slot_size] bytes.
      @raise Invalid_argument on capacity < 1 or slot_size < 1. *)

  val capacity : t -> int
  val slot_size : t -> int

  val try_push : t -> bytes -> len:int -> qid:int -> bool
  (** Producer only. Blit the first [min len slot_size] bytes of [src]
      into the next slot, recording the true [len] and [qid]. False when
      full (after force-publishing staged slots so the consumer can make
      space). Packets longer than the slot are staged truncated with
      their true length — the consumer's inject drops them on the length
      check before touching the payload. *)

  val flush : t -> unit
  (** Producer only: publish all staged pushes now. Call after the last
      push so the consumer can see the end of the stream. *)

  val peek : t -> int
  (** Consumer only: the slot index of the next packet, or [-1] when
      empty. On observed-empty the consumer's index is published so the
      producer sees every freed slot. The returned index stays valid
      until {!advance}. *)

  val buf : t -> int -> bytes
  (** The slot's byte buffer (payload at offset 0). Only valid for the
      index {!peek} just returned; contents may be overwritten after
      {!advance}. *)

  val len : t -> int -> int
  val qid : t -> int -> int

  val advance : t -> unit
  (** Consumer only: release the slot {!peek} returned. *)

  val length : t -> int
  (** Published occupancy (conservative between publications). *)
end

type result = {
  pkts : int;  (** total packets delivered to consumers *)
  per_queue : int array;  (** packets delivered per queue *)
  stats : Stats.t;  (** merged view of all domain shards *)
  domain_stats : Stats.t array;  (** one shard per worker domain *)
  domain_cycles : float array;  (** modelled cycle total per worker *)
  wall_s : float;  (** wall-clock seconds, spawn to join *)
  busy_s : float array;
      (** preemption-robust busy seconds per worker domain: the
          packet-weighted median per-packet chunk cost times packets
          processed — an estimate of each domain's on-CPU work time
          that is not inflated by timeslicing when domains outnumber
          cores (see the implementation's [robust_busy]) *)
  producer_busy_s : float;  (** same estimate for the steering domain *)
  eff_wall_s : float;
      (** the busy-time critical path: [max producer_busy_s (max
          busy_s)] — what the wall clock would show with one core per
          domain. The honest basis for parallel-speedup claims on
          machines with fewer cores than domains, where spawn-to-join
          [wall_s] cannot improve no matter how good the code is. *)
  minor_words_per_pkt : float;
      (** minor-heap words allocated per delivered packet across the
          producer's push loop and every worker's drain loop
          ([Gc.minor_words] is domain-local in OCaml 5, so each domain
          measures its own delta). The GC-discipline regression metric. *)
  stranded : int;  (** packets left in handoff rings (0 = clean shutdown) *)
  drops : int;  (** device-side ring-full drops *)
  sink : int64;  (** summed consumer digests (order-insensitive) *)
  delivered : bytes list array option;
      (** with [~collect:true]: per-queue packet bytes in delivery
          order, for differential comparison against the sequential
          path *)
  faults : Fault.counters array option;
      (** with [?plan]: the per-queue fault counters after shutdown.
          Deterministic for a given plan — identical across runs and
          domain counts. *)
}

val run :
  ?domains:int ->
  ?batch:int ->
  ?ring_capacity:int ->
  ?collect:bool ->
  ?account:bool ->
  ?pregen:bool ->
  ?plan:Fault.plan ->
  mq:Mq.t ->
  stack:(int -> Stack.burst_t) ->
  pkts:int ->
  workload:Packet.Workload.t ->
  unit ->
  result
(** Run [pkts] packets of [workload] through [mq] with
    [min domains (Mq.queues mq)] worker domains; queue [q] is owned by
    worker [q mod workers]. [stack q] builds the (domain-local) consumer
    for queue [q]. Workers pop/inject in runs of up to a full [batch]
    per owned queue, then harvest (so amortised per-burst charges match
    the sequential batched path) and drain completely on shutdown: the
    injector raises the stop flag only after pushing and flushing
    everything, and workers exit only when stopped {e and} their ring
    re-reads empty, then sweep their queues dry — so [stranded = 0] and
    [pkts] equals the injected count unless a device ring overflowed
    ([drops]).

    [~account:false] passes {!Cost.Null} to every consumer: the byte
    path runs without any cost-model bookkeeping ([domain_cycles] are
    0), which is the configuration wall-clock and allocation
    measurements use. Default [true] — identical accounting to the
    sequential path.

    [~pregen:true] generates and steers the whole workload {e before}
    the clock starts, so the measured region is the drain machinery
    itself (handoff, injection, harvest, consume) rather than packet
    synthesis. Default [false].

    Idle behaviour is adaptive per domain: spin ([Domain.cpu_relax], up
    to 128 tries), then park in exponentially growing naps (2µs
    doubling to 256µs); any progress resets the ladder. The per-worker
    spin/park/wake counts are in each shard's {!Stats.t} idle counters.

    With [?plan], every queue is wrapped in a {!Fault.t} (seeded by
    queue id): workers inject through {!Fault.rx_inject} (handing it a
    private copy of the packet, since the fault layer may defer it),
    harvest through the {!Fault.harvest} recovery path (so [pkts]
    counts only validated deliveries), flush deferred reorders at
    shutdown and keep sweeping until every ring is dry despite stuck
    queues. Per-domain stats shards carry the fault counters
    ({!Stats.with_faults}), so [stats] reconciles them after the merge.

    Defaults: [domains = 1], [batch = 32], [ring_capacity = 1024],
    [collect = false], [account = true], [pregen = false], no fault
    plan. Device counters are reset on entry.

    @raise Invalid_argument on [domains < 1] or [batch < 1]. *)

(** {1 Live contract hot-swap}

    The epoch-based swap protocol behind {!Upgrade}: a running datapath
    trades its devices' firmware contract for a new one mid-stream, with
    every worker domain passing a quiescent point (handoff ring dry,
    deferred reorders emitted, device rings harvested empty) before the
    old plan is retired — no domain ever reads a completion serialised
    under one contract with the other contract's accessors. *)

(** The verdict the swap callback returns once classification (and, for
    the Recompile class, certification) has run. *)
type swap_cmd =
  | Swap_apply of {
      sc_config : Opendesc_analysis.Context.assignment;
          (** context programming for the new contract *)
      sc_model : unit -> Nic_models.Model.t;
          (** a fresh model per queue (models are stateful) *)
      sc_stack : int -> Stack.burst_t;
          (** the epoch-1 consumer for queue [q] (new accessor table) *)
    }
  | Swap_refuse  (** keep serving the old contract (stale/missing cert) *)
  | Swap_quarantine
      (** breaking: drain, stop the datapath, withhold the remainder *)

type swap_action = Sw_applied | Sw_refused | Sw_quarantined

type swap_outcome = {
  sw_action : swap_action;
  sw_at : int;  (** packets offered before the swap point *)
  sw_inflight : int;
      (** completions pending across all queues at the quiesce point
          (measured after each worker drained its handoff ring, before
          its final harvest) *)
  sw_pre_pkts : int;  (** packets delivered under epoch 0 *)
  sw_post_pkts : int;  (** packets delivered under epoch 1 *)
  sw_withheld : int;
      (** packets never offered to the device ([Swap_quarantine] only:
          the producer stops at the swap point) *)
  sw_torn : int;
      (** workers that observed a non-quiescent state at the epoch flip
          (ring or device not dry) — the torn-plan oracle, must be 0 *)
  sw_upgrade_errors : int;  (** {!Device.upgrade} refusals — must be 0 *)
  sw_latency_s : float;
      (** quiesce request until every worker acknowledged the new epoch
          (includes the verdict computation — recompile, certify) *)
  sw_pause_s : float;
      (** producer quiesce pause: how long injection was halted — from
          the quiesce request until the post-swap stream resumed (for a
          quarantine, until the verdict withheld the remainder). The
          live_upgrade bench bounds this below 100 ms at 4 domains. *)
  sw_post_pairs : (bytes * bytes) list array option;
      (** with [~collect_post:true]: per queue, the (packet, completion)
          pairs delivered under epoch 1 in delivery order — the evidence
          the rev-B reference reader re-decodes *)
}

val hot_swap :
  ?domains:int ->
  ?batch:int ->
  ?ring_capacity:int ->
  ?collect:bool ->
  ?account:bool ->
  ?collect_post:bool ->
  ?plan:Fault.plan ->
  mq:Mq.t ->
  stack:(int -> Stack.burst_t) ->
  pkts:int ->
  at:int ->
  swap:(unit -> swap_cmd) ->
  workload:Packet.Workload.t ->
  unit ->
  result * swap_outcome
(** Like {!run}, with one epoch boundary: after [min at pkts] packets
    the producer raises the quiesce flag and evaluates [swap ()] (on its
    own domain, concurrently with the workers draining dry — this is
    where a background recompile + certification runs). Once every
    worker has reached its quiescent point the verdict is published
    through one atomic cell; each worker applies it — [Swap_apply]
    upgrades its devices in place ({!Device.upgrade}), rebinds its fault
    wrappers ({!Fault.rebind}) and installs the new consumers;
    [Swap_refuse] continues unchanged; [Swap_quarantine] retires the
    worker — and acknowledges the new epoch. Only after every
    acknowledgement does the producer resume the stream (or, under
    [Swap_quarantine], withhold it). Counters reconcile exactly across
    the transition: [sw_pre_pkts + sw_post_pkts = pkts - drops -
    quarantined - withheld] for a fault-free plan, and with faults the
    per-queue {!Fault.counters} invariants hold as in {!run}.

    @raise Invalid_argument on [domains < 1] or [batch < 1]. *)
