(** Reference P4 implementations of offload features.

    The paper: "We propose each offload feature to come with a reference
    P4 implementation. If hardware lacks capability, OpenDesc can
    delegate to software ... using P4-to-software compilers." This module
    is that delegation path, with the {!P4.Interp} interpreter standing
    in for a P4-to-software compiler: a feature is a P4 control over the
    standard parsed headers, annotated [@feature("<semantic>")], and
    running it on a packet yields the shim value.

    Extractive semantics (vlan, ip_id, pkt_len, l3_type, l4_type,
    rss_type) are expressed fully in P4. Computational semantics (hashes,
    checksums, CRC) need loops or payload access that P4 cannot express —
    precisely the paper's extern discussion (§5) — so they stay native;
    {!registry} falls back to the built-in implementations for them. *)

val source : string
(** Standard Ethernet/802.1Q/IPv4/TCP/UDP header types, the standard
    wire parser, and the built-in reference feature controls. *)

val tenv : unit -> P4.Typecheck.t
(** The checked reference program (memoised). *)

val feature_controls : unit -> (string * P4.Typecheck.control_def) list
(** [(semantic, control)] for every [@feature]-annotated control. *)

val interpret : string -> (Packet.Pkt.t -> int64, string) result
(** [interpret semantic] builds an executable shim for one reference
    implementation: parse the packet with the standard parser, run the
    feature control, read [result]. *)

val feature :
  ?cost_cycles:float -> string -> (Softnic.Feature.t, string) result
(** Package a reference implementation as a SoftNIC feature. The default
    cost is the built-in semantic's w(s) scaled by {!interp_overhead}
    (interpreted execution is slower than a compiled shim, and the cost
    model says so). *)

val interp_overhead : float
(** 3.0: the nominal slowdown the cost model charges for a shim
    {e compiled} from reference P4 versus a hand-written native one
    (p4c-generated C is close to, but not as tight as, hand code). The
    AST-walking interpreter used here to {e execute} the reference is far
    slower than that — it is a functional oracle, not the performance
    path; see the [p4shim] experiment for measured numbers. *)

val registry : unit -> Softnic.Registry.t
(** The built-in software registry with every P4-expressible feature
    replaced by its interpreted reference implementation. *)

val p4_semantics : string list
(** Semantics whose reference implementation is pure P4: the
    {!feature_controls}' names, in source order. *)
