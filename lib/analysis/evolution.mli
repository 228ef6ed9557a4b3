(** Contract evolution (§6): classify interface changes between two
    revisions of a NIC description by their impact on deployed hosts.

    - [Transparent] — old hosts keep working with the binaries they have
      (new semantics, new layouts no old configuration selects).
    - [Recompile] — regenerating accessors restores correctness (a field
      moved or widened, TX format list changed); running old binaries
      would misread.
    - [Breaking] — no recompilation can recover the old promise (a
      semantic or a whole layout disappeared, a field narrowed below its
      certified range). Each Breaking entry carries a {e witness}: a
      concrete context assignment under which the regression is
      observable.

    The checker consumes a pure interface summary ({!iface}) so it lives
    in the analysis layer; [Opendesc.Nic_diff.to_iface] builds one from
    a loaded NIC description. *)

type config = (string * int64) list
(** One context assignment, in declaration order. *)

type ifield = {
  ev_name : string;
  ev_semantic : string option;
  ev_bit_off : int;
  ev_bits : int;
}

type ipath = {
  ev_index : int;
  ev_size_bytes : int;
  ev_fields : ifield list;
  ev_prov : string list;  (** sorted, distinct *)
  ev_configs : config list;  (** configurations selecting this path *)
}

type iface = { ev_nic : string; ev_paths : ipath list; ev_tx_sizes : int list }

type klass = Transparent | Recompile | Breaking

val class_to_string : klass -> string
val class_rank : klass -> int

type witness = { w_config : config; w_note : string }

type entry = {
  e_class : klass;
  e_kind : string;  (** stable slug, e.g. ["semantic_removed"] *)
  e_semantic : string option;
  e_old_path : int option;
  e_new_path : int option;
  e_detail : string;
  e_witness : witness option;
}

(** Verdict on the translation-validation certificate accompanying a
    Recompile-class change (docs/CERTIFICATION.md): regenerated
    accessors should not be hot-swapped until a certificate proved
    against the {e new} contract hash exists. Carried hashes are the hex
    contract digests. *)
type cert_status =
  | Cert_not_required  (** no Recompile-class entry in the report *)
  | Cert_fresh of string  (** certificate proved against this contract *)
  | Cert_stale of { held : string; current : string }
      (** a certificate exists but was proved against [held] ≠ [current] *)
  | Cert_missing of string  (** no certificate for [current] at all *)

type report = {
  r_old : string;
  r_new : string;
  r_entries : entry list;
  r_cert : cert_status option;
      (** [None] when the caller didn't supply certificate evidence *)
  r_cost : (float * float) option;
      (** (old bound, new bound): {!Costbound}'s provable worst-case
          decode cost per packet for each revision, when the caller
          compiled both — so a Transparent-but-slower bump is visible
          (and gated as OD026 by [opendesc_cc diff]). *)
}

val check :
  ?recompile_certificate:string option * string ->
  ?cost:float * float ->
  iface ->
  iface ->
  report
(** [check old new]: paths are matched by Prov-set similarity; matched
    pairs are compared semantic-by-semantic (presence, placement, width
    — widths judged by {!Absdom} range inclusion), unmatched paths
    classified whole.

    [?recompile_certificate:(held, current)] supplies certificate
    evidence for the new revision: [held] is the contract hash the
    latest stored certificate was proved against (if any), [current] the
    new revision's contract hash. When given, [r_cert] reports whether a
    Recompile-class change is covered; when omitted, [r_cert] is [None]
    and the report (including its JSON) is unchanged. *)

val worst : report -> klass
(** The report's overall class (the maximum over entries). *)

val breaking : report -> bool

val report_to_json : report -> string
(** One-line JSON document, schema ["opendesc-diff-1"]. *)

val pp : Format.formatter -> report -> unit
