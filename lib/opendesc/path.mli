(** Completion paths: concrete metadata layouts a NIC may emit (§4 step 2).

    A completion path is characterised by the emit sequence the deparser
    performs under one context configuration. We enumerate paths by
    executing the deparser body under {e every} assignment of the context
    fields ({!Opendesc_analysis.Context.enumerate}) — unlike a syntactic
    root-to-leaf walk of the CFG this prunes infeasible predicate
    combinations for free, and
    it yields, per path, the exact set of configurations that select it
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

(** How the symbolic engine reduced the enumeration work. *)
type pruning = {
  pr_syntactic : int;  (** root-to-leaf completion paths in the decision tree *)
  pr_feasible : int;  (** leaves with a satisfiable path condition *)
  pr_pruned : int;  (** leaves proved unreachable by abstract interpretation *)
  pr_runs : int;  (** concrete deparser executions actually performed *)
  pr_configs : int;  (** context configurations covered by those runs *)
}

val enumerate :
  P4.Typecheck.t -> P4.Typecheck.control_def -> (t list, string) result
(** All distinct completion paths of a deparser. Errors when: the control
    lacks a [cmpt_out] parameter; a branch condition is not decidable
    from the context; an emitted expression is not a byte-aligned header;
    or the context space is unbounded.

    The walk is memoized on the branch-influencing context fields (a
    taint closure through locals), so the number of concrete executions
    is the size of the projected configuration space, not the full
    product — the result is identical to {!enumerate_product}. *)

val enumerate_pruned :
  P4.Typecheck.t ->
  P4.Typecheck.control_def ->
  (t list * pruning, string) result
(** {!enumerate} plus the symbolic pruning census. *)

val enumerate_product :
  P4.Typecheck.t -> P4.Typecheck.control_def -> (t list, string) result
(** Reference enumeration: one concrete execution per configuration in
    the full cartesian product (the pre-pruning implementation). Kept for
    differential testing and the bench's speedup measurement. *)

val pp : Format.formatter -> t -> unit
