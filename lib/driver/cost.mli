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
(** A ledger: cycles per named component. *)

(** {1 Accounting sink}

    Every charge goes through a sink, so accounting is an optional
    observer of the datapath rather than an inline tax on it. Host
    stacks ({!Stack.burst_t}) take a sink: the model experiments pass
    [Ledger l] and get every charge; the wall-clock hot path passes
    [Null], every charge does nothing, and the batched decoder skips
    its bookkeeping altogether — no hashtable traffic, no float boxing —
    so the byte path runs at the speed of the bytes. *)

type sink = Null | Ledger of t

val null : sink
(** Discard all charges (the hot-path sink). *)

val ledger : t -> sink
(** Record charges into [t] (the accounting sink). *)

val create : unit -> t

val charge : sink -> string -> float -> unit
(** Add cycles under a named component; nothing under {!Null}. *)

val total : t -> float

val breakdown : t -> (string * float) list
(** Components sorted by descending cost. *)

val reset : t -> unit

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

  val clock_ghz : float
  (** Nominal clock for converting cycles to time. *)
end

val pps_of_cycles : float -> float
(** Packets per second at {!K.clock_ghz} given cycles/packet. *)

val latency_ns_of_cycles : float -> float
(** One-packet latency: the cycles plus a fixed PCIe + DMA pipeline
    latency, over the clock. *)
