(** Symbolic evaluation of deparser control flow over the context
    domains ({!Absdom} product domain), with path-condition refinement.

    One walk of the {!Dep_ir} decision tree covers {e every} context
    configuration at once: context fields start at the tightest
    abstraction of their enumerated domain and are narrowed by each
    branch taken, so a leaf whose path condition collapses to bottom is
    {e proved} unreachable — under every configuration and every value
    of the runtime descriptor bytes. The engine turns these proofs into
    OD018/OD019 diagnostics, and {!Engine.catalogue} keeps only feasible
    groups as the compiler's paths, pruning the Eq. 1 search space. *)

type env = { e_base : string list -> Absdom.t; e_over : (string list * Absdom.t) list }

val lookup : env -> string list -> Absdom.t
val set : env -> string list -> Absdom.t -> env

val base_env :
  consts:P4.Eval.env ->
  ctx:(P4.Typecheck.cparam * P4.Typecheck.header_def) option ->
  params:P4.Typecheck.cparam list ->
  unit ->
  string list -> Absdom.t
(** The walk's initial abstractions: context fields get their
    enumerated domains (widthless, mirroring the concrete context
    environment), every other reachable header/bit field its declared
    width range, global constants their exact values, everything else
    [Top]. *)

val eval : env -> P4.Ast.expr -> Absdom.t
(** Abstract mirror of [P4.Eval.eval]: same width retention, wrapping,
    unsigned comparisons and short-circuit rules; over-approximates
    whenever precision is lost. *)

val assume : env -> P4.Ast.expr -> bool -> env option
(** [assume env cond polarity] narrows the environment under the
    assumption that [cond] evaluates to [polarity]. [None] means the
    assumption is contradictory (the branch side is infeasible). *)

type leaf = {
  lf_emit_ids : int list;  (** emit sites reached, in order *)
  lf_total_bits : int;
  lf_decisions : (int * bool) list;  (** (branch site, side taken) *)
  lf_feasible : bool;  (** path condition not proved unsatisfiable *)
}

type result = {
  sx_leaves : leaf list;  (** every syntactic completion path *)
  sx_verdicts : (int * Absdom.abool list) list;
      (** per branch site: the predicate's abstract verdict at each
          occurrence reached along a feasible prefix *)
  sx_pruned : int;  (** leaves proved infeasible *)
}

val exec : base:(string list -> Absdom.t) -> Dep_ir.t -> result
