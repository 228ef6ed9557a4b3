(** Application intents (Figure 5 of the paper).

    An intent is the ordered set of semantics an application wants
    delivered with each received packet, declared as a P4 header whose
    fields carry [@semantic] annotations. Fields may additionally carry
    [@cost(<cycles>)] to register a brand-new semantic together with its
    software-synthesis cost, or [@cost(inf)] for hardware-only features.
    The header itself may carry [@budget(<cycles>)]: the worst-case
    decode cost the application accepts per packet, gated statically by
    [Opendesc_analysis.Costbound] (OD025). *)

type field = {
  if_name : string;  (** field name in the intent header *)
  if_semantic : string;
  if_width : int;
}

type t = {
  name : string;  (** intent header name *)
  fields : field list;
  budget : float option;  (** [@budget(<cycles>)] decode-cost envelope *)
}

val required : t -> string list
(** The requested semantic set Req, in declaration order. *)

val make : ?name:string -> ?budget:float -> (string * int) list -> t
(** [make [(semantic, width); ...]] builds an intent programmatically;
    field names are the semantic names. *)

val of_program : ?header:string -> P4.Typecheck.t -> (t, string) result
(** Find the intent header in a checked program: [header] if given,
    otherwise the unique header carrying an [@intent] annotation,
    otherwise the unique header whose name contains ["intent"]. *)

val of_source : ?header:string -> string -> (t, string) result
(** Parse + check + extract in one step (prepends the prelude). *)

val register_custom_semantics :
  Semantic.t -> P4.Typecheck.header_def -> (unit, string) result
(** Register every intent field that names a semantic unknown to the
    registry, using its [@cost] annotation. Errors if a new semantic
    lacks [@cost]. *)

val canonical : t -> string
(** A stable, injective textual form of the intent ("name{field=sem:w;…}",
    declaration order preserved — order is semantically significant: it
    fixes the binding order of a compilation). Equal intents have equal
    canonical forms; used as part of the compile-cache key. *)

val to_p4 : t -> string
(** Render back to a P4 intent header (for reports and tests). *)

val pp : Format.formatter -> t -> unit
