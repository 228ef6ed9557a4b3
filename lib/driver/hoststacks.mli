(** The host-side coordination models compared in the paper (§2).

    Every stack is a {!Stack.burst_t} over the same device output; they
    differ in how much coordination machinery sits between the
    completion record and the application's metadata reads. The
    per-packet models walk the burst in order and charge each packet as
    a per-packet driver would:

    - {!skbuff}: kernel-style — allocate a large metadata object and
      eagerly extract {e every} field the descriptor carries.
    - {!dpdk}: rte_mbuf-style — extract the standard field set (the
      {!Softnic.Semantic.Mbuf_field} rows) into the mbuf, route
      everything else through the mbuf_dyn indirection layer.
    - {!xdp}: narrow accessor set — only the three upstreamed metadata
      accessors (hash, timestamp, VLAN: the {!Softnic.Semantic.Xdp_hint}
      rows) reach the program; everything else is recomputed in software
      even when the descriptor has it.
    - {!streaming}: ENSO-style — no per-packet descriptor consumed at
      all; great for raw payload, but every metadata request becomes a
      software recomputation.
    - {!opendesc}: the generated runtime — constant-time accessors for
      hardware-provided semantics, SoftNIC shims for the rest. It reads
      exactly the requested fields, so it {e is} the TinyNF-style
      minimal driver that would otherwise be written by hand.
    - {!opendesc_simd}: the §5 SIMD ablation — the same runtime
      processing descriptors four at a time, amortising descriptor loads
      and ring housekeeping.

    Two models amortise over the whole burst:

    - {!opendesc_batched}: the generated runtime, burst at a time.
    - {!asni}: ASNI-style aggregation — the harvested burst is the
      superframe. *)

val skbuff :
  path:Opendesc.Path.t ->
  requested:string list ->
  softnic:Softnic.Registry.t ->
  Stack.burst_t

val dpdk :
  path:Opendesc.Path.t ->
  requested:string list ->
  softnic:Softnic.Registry.t ->
  Stack.burst_t

val xdp :
  path:Opendesc.Path.t ->
  requested:string list ->
  softnic:Softnic.Registry.t ->
  Stack.burst_t

val streaming : requested:string list -> softnic:Softnic.Registry.t -> Stack.burst_t

val opendesc : compiled:Opendesc.Compile.t -> Stack.burst_t
(** The generated runtime over [compiled.bindings], one packet at a
    time: ring housekeeping, refill and the completion load per packet,
    then one accessor read or shim per binding, charged read by read. *)

val opendesc_simd : compiled:Opendesc.Compile.t -> Stack.burst_t
(** {!opendesc} in lanes of four descriptors. *)

val opendesc_batched : compiled:Opendesc.Compile.t -> Stack.burst_t
(** The generated runtime consuming whole harvest bursts: ring
    housekeeping, refill, doorbell and the (contiguous) completion-array
    load are charged once per burst, and so are the accessor reads and
    shims, as their count times their cost. The decode reads the
    completion bytes by field shape and runs builtin shims on their int
    cores, allocating nothing per packet; it folds the same values as
    {!opendesc}. *)

val asni : compiled:Opendesc.Compile.t -> Stack.burst_t
(** ASNI-style aggregated frames (§2/§5 of the paper), with real frame
    machinery ({!Aggregator}): the harvested burst is packed into one
    superframe and the host walks it in place, reading metadata at
    in-frame offsets. Removes the separate descriptor-ring load and
    amortises ring work over the aggregate — at the price of a fixed,
    non-negotiated layout that only programmable NICs can produce. *)
