(** Runtime conformance validation of a device against its description.

    The paper (§1): with a declared contract, "software frameworks can
    auto-generate parser code, {e validate NIC behavior}, and negotiate
    features". This module is the validation half: drive probe packets
    with known properties through a device and check that every
    hardware-provided semantic read back through the compiled accessors
    equals the reference software computation. A NIC whose silicon or
    firmware disagrees with its shipped description is caught before the
    application trusts a single field.

    Which semantics are checked is read from {!Softnic.Semantic.rows}:
    {!run} skips the [Nondeterministic] rows, whose value is not a pure
    function of the probe, and reports them unchecked; the online
    {!checker_of_path} also skips the [Stateful] ones. A name with no
    row (a custom registry's) is checked. *)

type mismatch = {
  mm_semantic : string;
  mm_expected : int64;
  mm_got : int64;
  mm_probe : string;  (** hex of the offending probe packet *)
}

type report = {
  probes : int;
  checked : string list;  (** semantics verified on every probe *)
  unchecked : string list;  (** no deterministic reference; not verified *)
  mismatches : mismatch list;
}

val conforms : report -> bool
(** No mismatches. *)

val run :
  ?probes:int -> device:Device.t -> compiled:Opendesc.Compile.t -> unit -> report
(** Inject [probes] (default 64) varied packets — TCP/UDP/VLAN/IPv6/KVS/
    raw, including corrupted checksums — and verify every hardware
    binding with a builtin reference that is not [Nondeterministic].
    Stateful ones are checked: the reference environment's registers
    advance in step with the device's, one probe at a time. The device
    must be configured with [compiled.config]. *)

val pp : Format.formatter -> report -> unit

(** {1 Per-descriptor checking}

    The probe-driven {!run} validates a {e device} against its
    description offline. The checker below validates one {e descriptor}
    against the compiled contract online — the recovery half of the
    fault-injection datapath ({!Fault}): every harvested completion is
    re-derived from its packet and compared field by field before the
    host stack may trust it. *)

type checker

val checker_of_path :
  env:Softnic.Feature.env ->
  softnic:Softnic.Registry.t ->
  Opendesc.Path.t ->
  checker
(** Check every layout field whose semantic has a deterministic software
    reference: present in [softnic], at most 64 bits, and neither
    [Nondeterministic] nor [Stateful] in {!Softnic.Semantic.rows}. The
    checker runs online and shares the device's environment, so
    recomputing a stateful semantic (a register-file offload like
    [flow_pkts]) would advance the register the device reads.

    Staged once per path, as {!Device} stages its encoder. For each
    checked field it records:
    - the reference: the {!Softnic.Codec} int core when
      {!Softnic.Registry.core_of} finds one behind the feature's
      [compute] (a builtin), otherwise that boxed [compute] ([kvs_key],
      custom registries);
    - the field's {!Softnic.Codec.shape} and mask. A field of up to 62
      bits is read and compared as an int, a wider one as an [int64]
      on all its bits.

    It also records whether any core needs the IPv4 header sum or the
    L4 sum, so {!check_desc} computes each at most once per packet, and
    whether any reference is a boxed [compute], the only kind that takes
    a [Pkt.t]. The checker owns one {!Packet.Pkt.view} that every
    {!check_desc} parses into, so one domain at a time may use it. *)

val checker_of_device : Device.t -> checker
(** {!checker_of_path} over the device's active path, sharing the
    device's environment so keyed semantics (RSS hash, installed flow
    marks) agree with what the device itself computed. *)

val checker_fields : checker -> Opendesc.Path.lfield list
(** The layout fields the checker covers (the targeted-corruption
    candidates of the fault injector). *)

val check_desc : checker -> bytes -> len:int -> cmpt:bytes -> string option
(** [check_desc ck buf ~len ~cmpt]: [Some semantic] names the first
    field whose completion value differs from the reference
    recomputation on the frame in the first [len] bytes of [buf]; [None]
    means the descriptor honours the contract. Pure for the device: no
    counters advance, no state mutates. Each field's read returns only
    that field's bits, so [cmpt] may be longer than the layout (a burst
    buffer) and gives the same verdict as the record trimmed to it.
    Requires [0 <= len <= Bytes.length buf].

    Per packet: one {!Packet.Pkt.parse_into} the checker's own view
    (never the device's), each shared sum at most once, and [Bytes]
    loads compared with the core's value, so a path whose references are
    all cores allocates nothing. Each compare covers all of a field's
    bits, so a flip of bit 63 of a 64-bit field is caught. *)
