(** Control-flow graph of a completion deparser (§4 step 1, Figure 6).

    Every [emit] statement becomes a vertex carrying the three static
    properties of the paper — the emitted bit range size, the semantic
    set, and the byte size — and every conditional contributes directed
    edges labeled with the branch predicate that guards them. A
    root-to-leaf walk is a {e completion path}.

    The graph is used for reporting and for the Figure-6 reproduction;
    the authoritative paths (which also prune infeasible predicate
    combinations) are {!Path.of_catalogue}'s, from a catalogue that
    executes the body under every context assignment. *)

type vertex = {
  v_id : int;
  v_emit : string;  (** pretty-printed emitted expression *)
  v_header : P4.Typecheck.header_def;
  v_sem : string list;  (** sem(v): semantics of the emitted fields *)
  v_size : int;  (** size(v) in bytes *)
}

type edge = {
  e_src : int;  (** vertex id, or {!root} *)
  e_dst : int;
  e_label : string;  (** guarding predicate, [""] for fall-through *)
}

type t = {
  vertices : vertex list;
  edges : edge list;
  leaves : int list;
      (** vertex ids (or {!root}) at which the body can finish *)
  ends : (int * string) list;
      (** same, with the predicate label still pending at that finish —
          e.g. after [emit A; if (c) emit B;] the walk ending at A
          carries ["!(c)"] *)
}

val root : int
(** The virtual root vertex id (-1). *)

exception Analysis_error of string

val out_param : P4.Typecheck.control_def -> string
(** Name of the control's [cmpt_out]-typed parameter.
    @raise Analysis_error when there is none. *)

val emit_target : string -> P4.Ast.expr -> P4.Ast.expr option
(** [emit_target out e] is the emitted argument when [e] is
    [out.emit(arg)]. *)

val build : P4.Typecheck.t -> P4.Typecheck.control_def -> t
(** Extract the CFG. Emits are calls of the form [out.emit(e)] on the
    control's [cmpt_out]-typed parameter.
    @raise Analysis_error when an emitted expression is not a header. *)

val walks : t -> (string list * vertex list) list
(** All complete walks: (predicate labels taken, vertices visited),
    including pending negative labels at early terminations. Does not
    check predicate feasibility across labels (the catalogue behind
    {!Path.of_catalogue} does). *)

val to_dot : t -> string
(** Graphviz rendering (the left-hand side of Figure 6). *)

val pp : Format.formatter -> t -> unit
