(** Diffing two revisions of a NIC description.

    The paper's opening pain point: "the layout may change with firmware
    updates, product revisions, or the addition of new features". With
    declared contracts, a firmware bump becomes a reviewable diff instead
    of a driver archaeology session: which semantics appeared, which
    vanished (breaking anyone who required them in hardware), which
    merely moved (transparent — accessors are regenerated), and how the
    path structure changed.

    Comparison is semantic-level, not textual: paths are matched by their
    Prov sets, fields by their semantic names. The classification itself
    is {!Opendesc_analysis.Evolution}'s; this module summarises a loaded
    NIC description for it and adds certificate enforcement. *)

val to_iface : Nic_spec.t -> Opendesc_analysis.Evolution.iface
(** The pure interface summary the symbolic evolution checker consumes. *)

val check :
  ?recompile_certificate:string option * string ->
  ?cost:float * float ->
  Nic_spec.t ->
  Nic_spec.t ->
  Opendesc_analysis.Evolution.report
(** [check old_rev new_rev]: the evolution classification — every change
    tagged [Transparent]/[Recompile]/[Breaking], Breaking entries with a
    concrete configuration witness. [?recompile_certificate] and [?cost]
    (the per-revision worst-case decode bounds from
    [Opendesc_analysis.Costbound]) are threaded to
    {!Opendesc_analysis.Evolution.check}. *)

val check_certified :
  ?alpha:float ->
  ?tx_intent:Intent.t ->
  ?cost:float * float ->
  intent:Intent.t ->
  Nic_spec.t ->
  Nic_spec.t ->
  Opendesc_analysis.Evolution.report
  * (Opendesc_analysis.Certify.certificate, Cache.cert_error) result option
(** {!check}, plus certificate enforcement for the Recompile class: when
    the classification demands recompilation, the new revision is
    compiled against [intent] and translation-validated through
    {!Cache.certify}, and the report's [r_cert] says whether the held
    certificate covers the new contract hash. The second component is
    the certification result ([None] when no Recompile-class entry
    demanded one). *)
