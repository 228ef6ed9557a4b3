(** Behavioural NIC models.

    A model pairs a NIC's OpenDesc interface description (its P4 source,
    checked and analysed) with the device-side behaviour: given a received
    packet and a completion-layout field, produce the value the hardware
    would write. Semantics are computed with the same reference
    implementations the SoftNIC shims use — the point of the simulation is
    layout and cost behaviour, not reimplementing vendor silicon — but on
    the device they are "free": the driver simulator does not charge CPU
    cycles for them.

    Models also resolve hardware-only semantics (wire timestamps,
    accelerator results) that no software shim can provide. *)

type producer = Softnic.Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64
(** The per-packet value of one completion field. *)

type t = {
  spec : Opendesc.Nic_spec.t;
  stage : Opendesc.Path.lfield -> producer;
      (** [stage f] does the per-field work once — registry or constant
          lookup — and returns the producer the device runs for [f] on
          every packet. {!Driver.Device} stages each field of its active
          path when the path is selected. *)
  resolve :
    Softnic.Feature.env ->
    Packet.Pkt.t ->
    Packet.Pkt.view ->
    Opendesc.Path.lfield ->
    int64;
      (** Unstaged resolution, [resolve env pkt view f = stage f env pkt
          view] for models built by {!make}: the lookup runs on every
          call. *)
  constant : producer -> int64 option;
      (** [constant p] is [Some v] when [p] is one of the constant
          producers {!stage} returns, compared by identity. *)
}

val hardware_registry : unit -> Softnic.Registry.t
(** The softnic builtins plus the device-side implementations of the
    hardware-only semantics ({!Softnic.Registry.device_only}). *)

val make :
  ?constants:(string * int64) list ->
  ?registry:Softnic.Registry.t ->
  Opendesc.Nic_spec.t ->
  t
(** Model with standard resolution: a field with a semantic is computed
    by the registry implementation; otherwise the field name is looked up
    in the constant table (status/ownership bits); otherwise 0. The
    default constant table sets [status]/[op_own]-style fields to 1; the
    default registry is {!hardware_registry}. Pass a registry extended
    with the reference implementations of any custom semantics a
    programmable pipeline is supposed to compute; it is read when a
    field is staged, so extend it before creating devices. *)

val source : t -> Opendesc.Path.lfield -> Softnic.Codec.source
(** How the device's encoder produces field [f]: calls [t.stage f] and
    classifies the producer by identity — the zero producer or one of
    the model's constants is [Const], a builtin's [compute] is its
    [Core], and anything else (a custom registry's feature, a wrapper
    around [stage], [inline_crypto_tag]) stays [Boxed] and is called
    per packet. Either way the completion bytes are those of
    [resolve]. *)
