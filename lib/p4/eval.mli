(** Expression evaluation over a partial environment.

    Serves two masters: the typechecker evaluates width expressions and
    enum member values (environment = global constants), and the OpenDesc
    path enumerator executes deparser conditions under a concrete context
    assignment (environment = context fields + constants, everything else
    unknown).

    Unknown-ness propagates: any operation on [VUnknown] is [VUnknown],
    except short-circuit cases whose result is forced by the known
    operand ([false && x], [true || x]). *)

type value = VInt of { v : int64; width : int option } | VBool of bool | VUnknown

val vint : ?width:int -> int64 -> value

val equal_value : value -> value -> bool
(** Structural; [VUnknown] only equals [VUnknown]. Integer equality
    ignores width. *)

type env = string list -> value option
(** Lookup by access path: [["ctx"; "use_rss"]] for [ctx.use_rss].
    [None] means unknown. *)

val empty_env : env

val path_of_expr : Ast.expr -> string list option
(** The access path of an lvalue-shaped expression ([a.b.c]), if it is
    one. *)

val arith_value : Ast.binop -> value -> value -> value
(** The evaluator's own binary arithmetic on already-evaluated operands
    (width retention, wrap-at-width, unsigned comparisons). Exposed so
    abstract interpreters can defer to the concrete semantics on
    singleton operands instead of re-implementing them. *)

val eval : env -> Ast.expr -> value
(** Never raises on well-typed input; ill-typed operations (e.g. adding
    booleans) yield [VUnknown]. Division by zero is [VUnknown]. *)

val eval_bool : env -> Ast.expr -> bool option
(** [eval] narrowed to booleans; integers are truth-tested against 0 (P4
    conditions are bool, but [bit<1>] flags compared implicitly appear in
    vendor code). *)

val const_int : env -> Ast.expr -> int64 option
(** [eval] narrowed to integers. *)

val truncate : width:int -> int64 -> int64
(** Keep the low [width] bits (unsigned semantics). *)
