(** A NIC's OpenDesc interface description.

    Bundles the P4 source a vendor ships — descriptor parser, completion
    deparser, context/descriptor/metadata header types — with the results
    of checking and analysing it: the completion paths the NIC can emit
    and the TX descriptor formats it accepts.

    The deparser is located as the control carrying a [cmpt_out]
    parameter (annotate with [@cmpt_deparser] or pass [~deparser] when a
    description has several); the TX parser as the parser carrying a
    [desc_in] parameter. *)

type kind = Fixed_function | Partially_programmable | Fully_programmable

val kind_to_string : kind -> string

type t = {
  nic_name : string;
  kind : kind;
  p4_source : string;  (** vendor description, without the prelude *)
  tenv : P4.Typecheck.t;
  deparser : P4.Typecheck.control_def;
  ctx : (P4.Typecheck.cparam * P4.Typecheck.header_def) option;
  paths : Path.t list;  (** RX completion paths, a view of [catalogue] *)
  catalogue : Opendesc_analysis.Engine.catalogue;
      (** the deparser's one walk, built eagerly by {!load} (specs are
          shared across domains, so no [Lazy.t]) and read by {!analyze},
          [Compile.contract], certification and the cost bound. The
          feasibility census of [opendesc_cc paths] reads it too:
          syntactic leaves and proved-infeasible ones from [cat_sym],
          configurations from [cat_assignments], runs from [cat_runs]. *)
  desc_parser : P4.Typecheck.parser_def option;
  tx_formats : Descparser.t list;
      (** TX descriptor formats: the desc parser's one walk, built by
          {!load} and read by {!analyze} and the compiler *)
  layout_fingerprint : string;
      (** the name-free part of {!fingerprint}, built once by {!load}
          from [paths] and [tx_formats] (a plain string, not a [Lazy.t],
          for the same reason as [catalogue]) *)
  notes : string;
}

val load :
  name:string ->
  kind:kind ->
  ?deparser:string ->
  ?notes:string ->
  string ->
  (t, string) result
(** [load ~name ~kind src] checks and analyses a vendor description. *)

val load_exn :
  name:string -> kind:kind -> ?deparser:string -> ?notes:string -> string -> t
(** @raise Failure with the error message. *)

val cfg : t -> Cfg.t
(** The deparser's control-flow graph (reporting, Figure 6). *)

val analyze :
  ?registry:Semantic.t -> ?intent:Intent.t -> t -> Opendesc_analysis.Diagnostic.t list
(** Run the full static-analysis engine (layout safety, path
    feasibility, contract consistency, codegen verification) over a
    loaded description. Spans refer to the vendor source, not the
    prelude-prefixed program. Pass [?intent] to also cross-check an
    application intent against the NIC (OD015). *)

val analyze_source :
  ?registry:Semantic.t -> ?intent:Intent.t -> string -> Opendesc_analysis.Diagnostic.t list
(** Like {!analyze} but straight from vendor source: parse and type
    errors become OD001 diagnostics instead of a load failure, so even
    broken descriptions produce located findings. *)

val lint : ?registry:Semantic.t -> t -> string list
(** Rendered error- and warning-severity diagnostics from {!analyze}
    (info-severity findings are omitted). Kept for callers that want
    flat strings; new code should use {!analyze}. *)

val fingerprint : t -> string
(** A stable textual identity of the interface: NIC name plus every
    completion path's exact field layout and every TX format's size. Two
    specs with equal fingerprints compile identically for any intent —
    the NIC half of the compile-cache key (guarding against distinct
    descriptions that happen to share a name). [nic_name] followed by
    [layout_fingerprint], so a spec rebranded with
    [{ s with nic_name }] gets the new name's fingerprint. *)

val pp : Format.formatter -> t -> unit
(** One-paragraph summary. *)
