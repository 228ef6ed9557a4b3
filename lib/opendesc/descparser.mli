(** TX descriptor parser analysis (Figure 3's DescParser).

    The dual of {!Path}: where the completion deparser serialises metadata
    toward the host, the descriptor parser interprets the TX descriptors
    the host posts. We enumerate the descriptor {e formats} the NIC
    accepts by executing the parser's state machine under every context
    assignment, following [extract] calls on the [desc_in] parameter and
    context-decidable [select] transitions.

    The host stub uses the resulting layouts to build TX descriptors the
    device will parse correctly. *)

type t = {
  d_fmt : Opendesc_analysis.Tx_ir.fmt;
      (** the walk's format: its index, its (destination lvalue,
          extracted header) pairs in stream order, and the context
          configurations that select it *)
  d_layout : Path.layout;
}

val size : t -> int

val field_for : t -> string -> Path.lfield option
(** First layout field with the given semantic. *)

val enumerate :
  P4.Typecheck.t -> P4.Typecheck.parser_def -> (t list, string) result
(** The formats [Opendesc_analysis.Tx_ir.enumerate] finds, each laid
    out with {!Path.layout_of_emits}. Errors on: missing [desc_in]
    parameter or [start] state, select scrutinees not decidable from the
    context, state cycles, or non-byte-aligned extracted headers. *)

val pp : Format.formatter -> t -> unit
