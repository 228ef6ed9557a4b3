(** Seeded, deterministic fault injection for the driver datapath.

    The simulator's devices are perfectly behaved interpreters of their
    own OpenDesc description — real silicon is not. This layer wraps a
    {!Device.t} and perturbs the DMA/ring traffic the way broken
    hardware does: corrupted descriptor bytes, torn completion writes,
    duplicated and reordered completions, spurious ring wraparound,
    stuck queues and lost doorbells. Every decision is drawn from a
    SplitMix64 stream derived from [plan.seed] (+ the queue id), and all
    fault mechanics execute at {e injection} time on the queue's own
    ring slots — so a run is replayable bit-for-bit from one integer,
    independent of harvest timing and of how many domains poll the
    queues.

    The other half is the recovery path: {!harvest} re-validates every
    completion against the compiled contract ({!Validate.check_desc}),
    quarantines violators on a side ring so no corrupt descriptor ever
    reaches a host stack, and re-rings the doorbell (bounded retry) when
    a queue plays dead. The injector classifies each fault as
    contract-violating or benign {e at injection time} with the same
    checker, which is what lets the counters reconcile exactly:
    [detected = quarantined = contract_violating] and
    [delivered + quarantined = rx_accepted + duplicates]. *)

(** The fault taxonomy. *)
type kind =
  | Flip  (** 1–3 random bit flips anywhere in the completion record *)
  | Semantic  (** targeted corruption of one checkable @semantic field *)
  | Torn  (** partial DMA write: the record's tail is garbage *)
  | Duplicate  (** the completion and its frame are delivered twice *)
  | Reorder  (** the completion swaps places with its successor *)
  | Stale
      (** spurious wraparound: the slot retains the previous lap's
          record (zeros on the first lap) *)
  | Stuck
      (** the queue stops presenting completions until the driver
          re-rings the doorbell [stuck_kicks] times *)
  | Doorbell_loss  (** a TX doorbell MMIO write is dropped *)

val kinds : kind list
(** In declaration order — the indexing of {!counters.by_kind}. *)

val kind_name : kind -> string
(** Stable snake_case name (JSON summaries, docs). *)

val kind_index : kind -> int

type plan = {
  seed : int64;  (** the one integer a run replays from *)
  flip_rate : float;
  semantic_rate : float;
  torn_rate : float;
  duplicate_rate : float;
  reorder_rate : float;
  stale_rate : float;
  stuck_rate : float;
  doorbell_loss_rate : float;  (** rolled per posted TX burst *)
  stuck_kicks : int;  (** doorbell re-rings needed to unstick a queue *)
  burst_len : int;
      (** faults only fire on the first [burst_len] injections of every
          [burst_period]-injection window; 0 = always eligible *)
  burst_period : int;
}
(** Per-injection fault probabilities (at most one fault per packet; the
    rates should sum to at most 1) plus the burst schedule. *)

val zero_plan : int64 -> plan
(** All rates 0.0: the wrapped datapath must be byte-identical to the
    bare one. *)

val default_plan : int64 -> plan
(** The chaos suite's reference mix (≈8.5% of injections faulted,
    [stuck_kicks = 2], no burst gating). *)

val scale : float -> plan -> plan
(** Multiply every rate (clamped to 1.0); the bench sweep's intensity
    knob. *)

val pp_plan : Format.formatter -> plan -> unit

type counters = {
  mutable injected : int;  (** fault events actually applied *)
  by_kind : int array;  (** indexed per {!kinds} *)
  mutable contract_violating : int;
      (** ground truth: applied faults whose descriptor fails the
          contract checker at injection time *)
  mutable rx_accepted : int;  (** injections the device accepted *)
  mutable duplicates : int;  (** extra completions from [Duplicate] *)
  mutable detected : int;  (** completions the recovery path flagged *)
  mutable quarantined : int;  (** completions withheld from the stack *)
  mutable quarantine_drops : int;  (** quarantine-ring overflows *)
  mutable delivered : int;  (** completions passed to the stack *)
  mutable retries : int;  (** doorbell re-rings (RX kicks + TX kicks) *)
  mutable doorbells_lost : int;
  mutable tx_posted : int;
  mutable tx_sent : int;
}

val counters_zero : unit -> counters

val counters_sum : counters list -> counters
(** Field-wise sum (reconciling per-queue shards). *)

val reconciles : counters -> bool
(** The exactness invariant:
    [detected = quarantined = contract_violating] and
    [delivered + quarantined = rx_accepted + duplicates]. *)

type t

val wrap : ?qid:int -> ?quarantine_depth:int -> plan -> Device.t -> t
(** Wrap one queue. [qid] (default 0) perturbs the seed so each queue of
    a multi-queue device draws an independent deterministic stream;
    faults are injected per queue, so the combined run is reproducible
    for {e any} assignment of queues to domains. [quarantine_depth]
    (default 1024, rounded to a power of two by {!Ring.create}) bounds
    the quarantine ring. *)

val device : t -> Device.t

val rebind : t -> unit
(** Re-derive the contract checker and the targeted-corruption field set
    from the device's {e current} active path. Must be called after a
    {!Device.upgrade}: the wrap-time checker validates against the
    retired contract. Counters and the RNG stream are preserved, so the
    fault schedule remains a pure function of (seed, qid, injection
    order) across the swap. *)

val plan : t -> plan

val counters : t -> counters
(** Live counters (mutated by injection and harvest). *)

(** {1 Receive} *)

val rx_inject_raw : t -> bytes -> len:int -> bool
(** Inject the first [len] bytes of [buf], possibly applying one fault
    from the plan. Returns whether the (current) packet entered the
    device — identical to {!Device.rx_inject_raw} when the plan is
    {!zero_plan}. The frame is not kept past the call: a [Reorder]
    copies the frame it defers into a stash the wrapper owns, so the
    caller may overwrite [buf] at once (a producer reusing one frame, a
    handoff ring's slot). A frame longer than the device's buffer may be
    staged truncated, as for {!Device.rx_inject_raw}: it keeps its full
    length and stays a counted drop. Allocates nothing.
    @raise Invalid_argument as {!Device.rx_inject_raw} does. *)

val rx_inject : t -> Packet.Pkt.t -> bool
(** [rx_inject t pkt] is [rx_inject_raw t pkt.buf ~len:pkt.len]. *)

val flush : t -> unit
(** Emit a pending reordered completion, if any, from the stash. Call
    when the packet stream ends (a [Reorder] on the last packet has no
    successor to swap with). *)

val rx_available : t -> int

val harvest : ?max_kicks:int -> t -> Device.burst -> int
(** The recovery path. If the queue is stuck, re-ring the doorbell up to
    [max_kicks] (default 8) times — each counted as a retry — and give
    up (returning 0, descriptors still pending) if it stays stuck.
    Otherwise harvest a burst, check every completion against the
    contract, quarantine violators and compact the survivors to the
    front of the burst. Returns (and sets [bs_count] to) the number of
    {e validated} completions; the caller's stack never sees a
    quarantined descriptor. *)

(** {1 Quarantine} *)

val quarantined : t -> int
(** Records currently waiting in the quarantine ring. *)

val quarantine_consume : t -> bytes option
(** Pop one quarantined completion record for post-mortem inspection, at
    the length it was harvested at: the size of the layout active at
    harvest, even when a {!Device.upgrade} has since activated a layout
    of another size. *)

(** {1 Transmit} *)

val tx_post_batch : t -> bytes list -> int
(** {!Device.tx_post_batch}, except the burst's doorbell may be lost
    (per [doorbell_loss_rate]); posted descriptors then sit in the ring
    unseen until {!tx_kick}. *)

val tx_process : t -> fetch:(int64 -> Packet.Pkt.t option) -> int
(** Returns 0 — without consuming anything — while the last doorbell is
    lost. *)

val tx_kick : t -> unit
(** Re-ring the TX doorbell (counted as a retry when it was lost). *)

val tx_drain :
  ?max_kicks:int -> t -> fetch:(int64 -> Packet.Pkt.t option) -> int
(** Process the TX ring, re-kicking up to [max_kicks] (default 8) times
    while descriptors remain unprocessed. Returns the number sent. *)
