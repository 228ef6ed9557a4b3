(** Rate-aware offload placement (§5, "Performance and programmable
    constraint").

    Eq. 1 prices a single packet. The paper's discussion section asks the
    next question: "whether a feature should be offloaded to the NIC even
    if technically possible, or if sometimes using a software counterpart
    is not more desirable" — which depends on the traffic rate and the
    platform's bottlenecks, the territory of LogNIC/Pipeleon/PIX-style
    performance models.

    This module is that extension: evaluate every completion path of a
    NIC under a concrete operating point (packet rate, packet size, CPU
    budget, PCIe capacity) and report, per path, whether it is CPU-bound
    or PCIe-bound and the throughput it can actually sustain. The best
    path at a low rate (big completion, everything in hardware) is often
    not the best path near PCIe saturation — the crossover the [c9]
    experiment sweeps. *)

(** A concrete operating point. *)
type operating_point = {
  pkt_bytes : int;  (** average wire size per packet *)
  cpu_hz : float;  (** host cycles/s available to the datapath core *)
  pcie_gbps : float;  (** usable PCIe bandwidth toward the host, Gbit/s *)
}

val default_point : operating_point
(** 64-byte packets, one 3 GHz core, 64 Gbit/s usable (PCIe 3.0 x8-ish). *)

(** Per-path sustained-rate analysis. *)
type verdict = {
  v_path : Path.t;
  v_cpu_cycles : float;  (** host cycles per packet on this path *)
  v_dma_bytes : float;  (** bus bytes per packet: wire + completion *)
  v_cpu_pps : float;  (** rate at which the CPU saturates *)
  v_pcie_pps : float;  (** rate at which the bus saturates *)
  v_sustained_pps : float;  (** min of the two *)
  v_bottleneck : [ `Cpu | `Pcie ];
}

val evaluate :
  ?point:operating_point -> Semantic.t -> Intent.t -> Path.t -> verdict
(** CPU cycles = Σ w(s) over the missing semantics plus the per-packet
    datapath overhead; bus bytes = packet + completion record. *)

val advise :
  ?point:operating_point ->
  Semantic.t ->
  Intent.t ->
  Nic_spec.t ->
  (verdict list, Select.error) result
(** Every feasible path ranked by sustained rate (best first). Infeasible
    paths (missing hardware-only semantics) are dropped; the error cases
    match {!Select.choose}. *)

val crossover_pps :
  ?point:operating_point ->
  Semantic.t ->
  Intent.t ->
  Nic_spec.t ->
  (float * Path.t * Path.t) option
(** The low-rate winner is the path costing the CPU least per packet
    (max application headroom); the high-rate winner is the path with
    the highest sustainable rate. When they differ, leadership flips
    exactly at the low-rate winner's saturation rate — returned together
    with (low-rate winner, high-rate winner). [None] when a single path
    dominates both regimes. *)
