(** The cycle cost model of the driver simulator.

    The simulator runs the real machinery — real descriptor bytes, real
    accessors, real software shims — and this ledger translates each
    operation into nominal CPU cycles so experiments can compare
    coordination models. Constants are calibrated so that the headline
    ratios reported by the systems the paper cites come out at roughly
    their published values on the corresponding workloads (TinyNF ≈ 1.7×
    over a DPDK-style datapath; X-Change ≈ +70% throughput / −28%
    latency; ENSO ≈ 6× on raw payload processing). Everything else —
    crossovers, orderings, footprint curves — then {e emerges} from the
    same constants; see EXPERIMENTS.md. *)

type t

val create : unit -> t

val charge : t -> string -> float -> unit
(** Add cycles under a named component. *)

val total : t -> float

val breakdown : t -> (string * float) list
(** Components sorted by descending cost. *)

val reset : t -> unit

(** {1 Accounting sink}

    Cost-model accounting as an optional observer of the datapath rather
    than an inline tax on it. Burst consumers ({!Stack.burst_t}) take a
    sink: the bench passes [Ledger l] and gets the exact charges the
    inline path always made; the wall-clock hot path passes [Null] and
    the consumer skips all bookkeeping — no hashtable traffic, no float
    boxing, no per-packet closures — so the byte path runs at the speed
    of the bytes. *)

type sink = Null | Ledger of t

val null : sink
(** Discard all charges (the hot-path sink). *)

val ledger : t -> sink
(** Record charges into [t] (the accounting sink). *)

val enabled : sink -> bool
(** [false] iff the sink is {!Null}. Guard computed-cost charges with
    this so the hot path skips the arithmetic too. *)

(** Cost constants (cycles unless noted). *)
module K : sig
  val cache_line_load : float
  (** Loading a DMA-written cache line (DDIO hit in LLC). *)

  val field_move : float
  (** Copying one metadata field into a host structure. *)

  val field_branch : float
  (** Presence/flag test guarding a field copy. *)

  val accessor_read : float
  (** One generated constant-time accessor read. *)

  val skbuff_alloc : float
  (** Allocating + zeroing an sk_buff-scale object (4+ cache lines). *)

  val mbuf_alloc : float
  (** rte_mbuf pool get + header init. *)

  val mbuf_dyn_lookup : float
  (** mbuf_dyn offset lookup + indirection per dynamic field. *)

  val xdp_prologue : float
  (** eBPF program entry + metadata bounds check. *)

  val ring_advance : float
  (** Per-packet ring housekeeping (index update, doorbell amortised). *)

  val refill : float
  (** RX buffer refill, amortised per packet. *)

  val doorbell : float
  (** One MMIO tail-pointer write (uncached store crossing PCIe). Charged
      once per harvest/post burst by the batched datapath; the unbatched
      constants above already fold an amortised share into
      {!ring_advance}. *)

  val payload_touch_per_byte : float
  (** Application payload processing. *)

  val stream_copy_per_byte : float
  (** Streaming-interface inline copy cost per byte. *)

  val pipeline_fixed : float
  (** Fixed per-packet pipeline latency (PCIe + DMA), used for latency
      figures; does not bound throughput. *)

  val clock_ghz : float
  (** Nominal clock for converting cycles to time. *)
end

val pps_of_cycles : float -> float
(** Packets per second at {!K.clock_ghz} given cycles/packet. *)

val latency_ns_of_cycles : float -> float
(** One-packet latency: ({!K.pipeline_fixed} + cycles) / clock. *)
