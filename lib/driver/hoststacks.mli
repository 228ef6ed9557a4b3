(** The host-side coordination models compared in the paper (§2).

    Every stack consumes the same device output; they differ in how much
    coordination machinery sits between the completion record and the
    application's metadata reads:

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
    - {!minimal}: TinyNF-style hand-written driver — reads exactly the
      requested fields. What OpenDesc generates automatically.
    - {!opendesc}: the generated runtime — constant-time accessors for
      hardware-provided semantics, SoftNIC shims for the rest.
    - {!opendesc_simd}: the §5 SIMD ablation — processes descriptors four
      at a time, amortising descriptor loads and ring housekeeping. *)

val skbuff :
  path:Opendesc.Path.t ->
  requested:string list ->
  softnic:Softnic.Registry.t ->
  Stack.t

val dpdk :
  path:Opendesc.Path.t ->
  requested:string list ->
  softnic:Softnic.Registry.t ->
  Stack.t

val xdp :
  path:Opendesc.Path.t ->
  requested:string list ->
  softnic:Softnic.Registry.t ->
  Stack.t

val streaming : requested:string list -> softnic:Softnic.Registry.t -> Stack.t

val minimal :
  path:Opendesc.Path.t ->
  requested:string list ->
  softnic:Softnic.Registry.t ->
  Stack.t

val opendesc : compiled:Opendesc.Compile.t -> Stack.t

val opendesc_batched : compiled:Opendesc.Compile.t -> Stack.burst_t
(** The generated runtime consuming whole harvest bursts: ring
    housekeeping, refill, doorbell and the (contiguous) completion-array
    load are charged once per burst; accessor reads and shims stay
    per-packet. Decodes exactly the same values as {!opendesc}. *)

val run_asni :
  ?pkts:int ->
  ?frame_pkts:int ->
  device:Device.t ->
  workload:Packet.Workload.t ->
  compiled:Opendesc.Compile.t ->
  unit ->
  Stats.t * int64 list
(** ASNI-style aggregated frames (§2/§5 of the paper), with real frame
    machinery ({!Aggregator}): the device output is packed into
    superframes of [frame_pkts] packets; the host walks each frame in
    place, reading metadata at in-frame offsets. Removes the separate
    descriptor-ring load and amortises ring work over the aggregate — at
    the price of a fixed, non-negotiated layout that only programmable
    NICs can produce. Returns the run's stats and the per-packet consumed
    value folds (comparable against a per-packet stack's). *)

val opendesc_simd : compiled:Opendesc.Compile.t -> Stack.t
