(** NIC configuration context.

    A deparser's completion layout is steered by per-queue configuration
    bits (Figure 6 branches on [ctx.use_rss]). The context parameter of a
    deparser or descriptor parser is a header whose fields are those
    configuration knobs. Path enumeration works by executing the control
    body under every assignment of the context fields, so each field needs
    a finite, enumerable domain:

    - fields up to {!max_enum_bits} wide enumerate all 2^w values;
    - wider fields must carry a [@values(v1, v2, ...)] annotation listing
      the configurations the firmware actually supports.

    The completion-path catalogue ({!Engine.catalogue}, which
    [Opendesc.Path] views), the TX walk ({!Tx_ir}, behind
    [Opendesc.Descparser]) and the driver all enumerate configurations
    through this one module, so they agree on which configurations
    exist. *)

type assignment = (string * int64) list
(** Context field name → value, in field declaration order. *)

val max_enum_bits : int
(** 4: fields up to 4 bits enumerate exhaustively. *)

val max_assignments : int
(** Cap on the context-space product (1024); beyond it, enumeration
    errors out rather than exploding. *)

val find_in :
  P4.Typecheck.cparam list -> (P4.Typecheck.cparam * P4.Typecheck.header_def) option
(** The context parameter among a parameter list: the first [in]
    parameter either annotated [@context] or whose name contains ["ctx"],
    with a header type. *)

val find_param :
  P4.Typecheck.control_def -> (P4.Typecheck.cparam * P4.Typecheck.header_def) option
(** [find_in] over a control's parameters. *)

val domains :
  P4.Typecheck.header_def -> ((string * int64 list) list, string) result
(** Per-field candidate values, in declaration order. *)

val enumerate : P4.Typecheck.header_def -> (assignment list, string) result
(** Cartesian product of the field domains.
    The empty header yields the single empty assignment. *)

val env_of : param_name:string -> assignment -> P4.Eval.env
(** Evaluation environment mapping [param_name.field] to its value. *)

val pp : Format.formatter -> assignment -> unit

val equal : assignment -> assignment -> bool
