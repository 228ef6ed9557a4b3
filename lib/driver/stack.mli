(** Host-stack abstraction and the measurement harness.

    A stack is a per-packet receive routine: given the raw packet bytes
    and completion record the device delivered, consume the application's
    requested metadata, charging its coordination costs to the ledger.
    Different stacks embody the coordination models the paper surveys
    (sk_buff extraction, DPDK mbuf + dynamic fields, XDP accessors,
    ENSO-style streaming, generated OpenDesc accessors).

    Stacks return a fold of the values they consumed; the harness checks
    it against nothing but keeps it live so the work cannot be optimised
    away and tests can compare stacks' answers. *)

type rx = { pkt : bytes; len : int; cmpt : bytes }

type t = {
  st_name : string;
  st_consume : Cost.t -> Softnic.Feature.env -> rx -> int64;
}

val run :
  ?pkts:int ->
  ?batch:int ->
  ?touch_payload:bool ->
  device:Device.t ->
  workload:Packet.Workload.t ->
  t ->
  Stats.t
(** Drive [pkts] packets (default 4096) through the device in batches
    (default 32), consuming each with the stack. [touch_payload] charges
    (and performs) a read of every payload byte — the application-side
    work of forwarding/processing workloads. Ring housekeeping and buffer
    refill are charged by each stack (streaming interfaces amortise
    them; descriptor stacks pay per packet) via {!charge_ring}. *)

(** {1 Batched datapath} *)

type burst_t = {
  bt_name : string;
  bt_consume : Cost.sink -> Softnic.Feature.env -> Device.burst -> int64;
}
(** A burst-at-a-time receive routine: consume every packet of a
    harvested {!Device.burst}, amortising per-burst machinery (ring
    housekeeping, doorbell, contiguous descriptor loads) over its
    [bs_count] packets. The {!Cost.sink} makes accounting an optional
    observer: under [Ledger] the routine charges exactly what the inline
    path always did; under [Null] it skips all cost bookkeeping so the
    wall-clock hot path pays only for the bytes. *)

val run_batched :
  ?pkts:int ->
  ?batch:int ->
  ?touch_payload:bool ->
  ?tx_echo:bool ->
  device:Device.t ->
  workload:Packet.Workload.t ->
  burst_t ->
  Stats.t
(** The batched counterpart of {!run}: inject in batches (default 32),
    harvest with {!Device.rx_consume_batch} into one reusable burst
    buffer, and consume burst-at-a-time. Records the burst-size histogram
    in the returned stats. [tx_echo] additionally reposts every harvested
    burst as TX descriptors via {!Device.tx_post_batch} — one doorbell
    charge per burst — and drains the device, modelling a forwarder. *)

val charge_ring : ?amortize:int -> Cost.t -> unit
(** Per-packet ring advance + buffer refill, divided by the
    amortisation factor (batched descriptor processing, multi-packet
    notifications). *)

val parse_view : Cost.t -> bytes -> int -> Packet.Pkt.t * Packet.Pkt.view
(** Parse the packet, charging the standard software-parse cost. Helper
    for stacks whose shims need a view. *)

val charge_shim :
  Cost.t -> Softnic.Feature.env -> Packet.Pkt.t -> Packet.Pkt.view ->
  Softnic.Feature.t -> int64
(** Run a software feature and charge its nominal cost. *)

val parse_cost : float
(** Cycles for one software packet parse (header walk). *)
