(** The OpenDesc compiler driver: NIC description × intent → host stubs.

    Ties the pipeline of §4 together: enumerate the NIC's completion
    paths, solve Eq. 1 against the intent, then synthesise constant-time
    accessors for the hardware-provided semantics and SoftNIC shims for
    the rest. The result carries everything a driver needs: the context
    configuration to program, OCaml accessor closures (executed by the
    simulator and benches), and C/eBPF source on demand. *)

(** How each requested semantic is delivered. *)
type binding =
  | Hardware of Accessor.t  (** constant-time read from the completion *)
  | Software of Softnic.Feature.t  (** SoftNIC shim *)

type t = {
  nic : Nic_spec.t;
  intent : Intent.t;
  outcome : Select.outcome;
  bindings : (string * binding) list;  (** per requested semantic, intent order *)
  field_accessors : Accessor.t list;  (** every field of the chosen path *)
  config : Opendesc_analysis.Context.assignment;
      (** context values selecting the chosen path (first of the group) *)
  tx_format : Descparser.t option;
      (** chosen TX descriptor format: the smallest format carrying every
          TX-intent semantic, or — when no format carries them all — the
          most-covering one (smallest on ties); the smallest format
          overall when no TX intent was given *)
  tx_missing : string list;
      (** TX-intent semantics the chosen format cannot express; the host
          must apply them in software before posting (e.g. software VLAN
          insertion) *)
  registry : Semantic.t;
}

val path : t -> Path.t
(** The chosen completion path p*. *)

val missing : t -> string list
(** Semantics delivered in software. *)

val hardware : t -> string list
(** Semantics delivered by the NIC. *)

val shims : t -> Softnic.Feature.t list

val software_pipeline : ?env:Softnic.Feature.env -> t -> Softnic.Pipeline.t
(** The SoftNIC augmentation pipeline for the missing semantics. *)

val c_source : t -> string

val datapath_source : t -> string
(** The complete generated C driver datapath (see {!Codegen_c.datapath}). *)

val ebpf_source : t -> string

val contract_hash : Nic_spec.t -> string
(** Hex digest of {!Nic_spec.fingerprint} — the contract identity a
    certificate is keyed by. *)

val to_plan : t -> Opendesc_analysis.Certify.plan
(** Lift this compilation's artifacts — per-path accessor chains and the
    shim schedule — into the analysis layer's plan IR. *)

val contract : t -> Opendesc_analysis.Certify.contract
(** The deparser contract the plan must be validated against. *)

val certify :
  t ->
  ( Opendesc_analysis.Certify.certificate,
    Opendesc_analysis.Diagnostic.t list )
  result
(** Translation-validate this compilation: prove every hardware-bound
    accessor reads exactly the bytes the deparser emits on every
    feasible completion of the chosen configuration, every required
    semantic is covered, and no read escapes the layout. [Error]
    carries OD021–OD023 diagnostics (see docs/CERTIFICATION.md). *)

val tx_writer : t -> string -> (bytes -> int64 -> unit) option
(** Writer for one TX-intent semantic's field in the chosen TX format
    (None when the semantic is in {!field:tx_missing} or there is no TX
    format). *)

val run :
  ?alpha:float ->
  ?registry:Semantic.t ->
  ?softnic:Softnic.Registry.t ->
  ?tx_intent:Intent.t ->
  intent:Intent.t ->
  Nic_spec.t ->
  (t, string) result
(** Compile. Custom semantics must already be registered in both
    registries (see {!Intent.register_custom_semantics} and
    {!Softnic.Registry.register}); a finite-cost semantic lacking a
    software implementation is an error. *)

val run_exn :
  ?alpha:float ->
  ?registry:Semantic.t ->
  ?softnic:Softnic.Registry.t ->
  ?tx_intent:Intent.t ->
  intent:Intent.t ->
  Nic_spec.t ->
  t
