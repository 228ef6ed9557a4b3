(** The host-stack interface and the measurement harness.

    A host stack is a burst-at-a-time receive routine: given a harvested
    {!Device.burst} (the raw packet bytes and the completion record the
    device delivered for each packet), it consumes the application's
    requested metadata and charges its coordination costs to a
    {!Cost.sink}. Every coordination model the paper surveys (sk_buff
    extraction, DPDK mbuf + dynamic fields, XDP accessors, ENSO-style
    streaming, ASNI aggregation, generated OpenDesc accessors) is one
    ({!Hoststacks}), and so is the benchmark's decoder; {!Parallel} and
    {!Upgrade} drive the same type.

    Stacks return a fold of the values they consumed; the harness checks
    it against nothing but keeps it live so the work cannot be optimised
    away and tests can compare stacks' answers. *)

type burst_t = {
  bt_name : string;
  bt_consume : Cost.sink -> Softnic.Feature.env -> Device.burst -> int64;
}
(** Consume every packet of a harvested burst, [bs_count] of them.
    Per-burst machinery (ring housekeeping, doorbell, contiguous
    descriptor loads) may amortise over the burst. Under [Ledger] the
    routine charges its model's cycles; under [Null] it charges nothing
    and decodes the same fold. *)

val run :
  ?pkts:int ->
  ?batch:int ->
  ?touch_payload:bool ->
  ?tx_echo:bool ->
  device:Device.t ->
  workload:Packet.Workload.t ->
  burst_t ->
  Stats.t
(** Offer [pkts] frames (default 4096) to the device in batches (default
    32), draining it after each batch with {!Device.rx_consume_batch}
    into one reusable burst buffer of [batch] slots, and consume each
    burst with the stack under a fresh ledger. The stats count the
    packets consumed, the device's drops (a dropped frame is not offered
    again) and the burst-size histogram. [touch_payload] charges (and
    performs) a read of every payload byte — the application-side work
    of forwarding/processing workloads. [tx_echo] reposts every burst as
    TX descriptors via {!Device.tx_post_batch} — one doorbell charge per
    burst — and drains the device, modelling a forwarder. *)
