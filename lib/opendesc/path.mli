(** Completion paths: concrete metadata layouts a NIC may emit (§4 step 2).

    A completion path is one distinct emitted sequence: the headers the
    deparser emits, in order, under some context configuration. Paths
    are not walked here. They are a view of the spec's one
    {!Opendesc_analysis.Engine.catalogue}, which runs the deparser under
    {e every} assignment of the context fields: its
    feasible groups ([cat_feasible]), one per distinct emitted
    sequence, each with the exact set of configurations that select it
    (which is what the driver later programs over the control channel).

    Per path we compute the paper's characterisation:
    Prov(p) = union of emitted field semantics, Size(p) = total bytes,
    plus the concrete field layout used for accessor synthesis. *)

(** One field of the completion record, with its absolute position. *)
type lfield = {
  l_name : string;
  l_header : string;  (** header the field came from *)
  l_semantic : string option;
  l_bit_off : int;  (** absolute offset from the start of the completion *)
  l_bits : int;
  l_span : P4.Loc.span;  (** declaration site of the source field *)
}

type layout = { fields : lfield list; size_bytes : int }

type t = {
  p_index : int;  (** stable index among the control's paths *)
  p_emits : (string * P4.Typecheck.header_def) list;
      (** (pretty-printed argument, emitted header) in order *)
  p_layout : layout;
  p_prov : string list;  (** Prov(p), sorted, distinct *)
  p_assignments : Opendesc_analysis.Context.assignment list;
      (** every context configuration that selects this path *)
}

val size : t -> int
(** Size(p) in bytes. *)

val provides : t -> string -> bool

val field_for : t -> string -> lfield option
(** First layout field carrying the given semantic. *)

exception Exec_error of string
(** Raised by the shared layout machinery on malformed layouts. *)

val layout_of_emits : (string * P4.Typecheck.header_def) list -> layout
(** Concatenate headers into an absolute field layout.
    @raise Exec_error when the total is not byte-aligned. *)

val of_catalogue : Opendesc_analysis.Engine.catalogue -> (t list, string) result
(** The catalogue's feasible groups as completion paths, with the same
    index and configurations. Errors when: the context space cannot be
    enumerated; a run forked on a branch not decidable from the context;
    or a path's layout is not byte-aligned. (An emit of a non-header
    already fails {!Opendesc_analysis.Engine.catalogue}.) *)

val pp : Format.formatter -> t -> unit
