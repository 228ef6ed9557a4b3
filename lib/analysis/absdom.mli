(** Product abstract domain: unsigned integer intervals x known-bits,
    plus tristate booleans.

    The domain abstracts the values of {!P4.Eval}: a numeric abstraction
    tracks an unsigned range [[lo, hi]] {e and} a bit-level mask of
    known bits, together with the value's declared [bit<w>] width (or
    [None] for infinite-precision integer literals — the same width
    discipline the concrete evaluator applies when deciding whether
    arithmetic wraps).

    Soundness invariant (checked by a QCheck property over the whole
    NIC catalog): if every concrete input is contained in its abstract
    counterpart ({!mem_value}), the concrete result of any operation is
    contained in the abstract result. [VUnknown] is contained in every
    abstraction. *)

type abool = BTrue | BFalse | BMaybe

type num = private {
  lo : int64;  (** unsigned lower bound *)
  hi : int64;  (** unsigned upper bound; [lo <=u hi] *)
  kmask : int64;  (** bit set -> that bit's value is known *)
  kval : int64;  (** known bit values; [kval land (lnot kmask) = 0] *)
  width : int option;  (** [bit<w>] width; [None] for literals *)
}

type t = Num of num | Bool of abool | Top | Bot

(** {2 Constructors} *)

val const : ?width:int -> int64 -> t
(** Singleton (truncated to [width] when given). *)

val of_width : int -> t
(** Any value of [bit<w>]: [[0, 2^w-1]], upper bits known zero. *)

val of_values : ?width:int -> int64 list -> t
(** Tightest abstraction of a finite value set (a context field's
    [@values] domain): interval hull plus all bits the values agree
    on. [Bot] for the empty list. *)

val of_range : ?width:int -> lo:int64 -> hi:int64 -> unit -> t
(** Unsigned interval with no bit knowledge beyond normalisation. *)

val of_bool : bool -> t

(** {2 Observations} *)

val singleton : t -> int64 option
val range : t -> (int64 * int64) option
(** Unsigned [lo, hi] of a numeric abstraction. *)

val mem_value : P4.Eval.value -> t -> bool
(** The soundness relation: is this concrete value contained?
    [VUnknown] is contained in everything. *)

val truth : t -> abool
(** Abstract truth test, mirroring [P4.Eval.as_bool]: numerics are
    tested against zero. *)

(** {2 Lattice} *)

val join : t -> t -> t
val meet : t -> t -> t

val exclude : int64 -> t -> t
(** Remove one value (refining the negative side of an equality test);
    exact only at interval endpoints, identity elsewhere. *)

(** {2 Transfer functions (mirror [P4.Eval])} *)

val binop : P4.Ast.binop -> t -> t -> t
(** Abstract binary operation. Singleton operands defer to the concrete
    evaluator's own arithmetic ({!P4.Eval.arith_value}), so the mirror
    cannot drift on the exact cases. [LAnd]/[LOr] must be handled by
    the caller (short-circuit over {!truth}). *)

val unop : P4.Ast.unop -> t -> t

val cast_bit : int -> t -> t
(** Cast to [bit<w>]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
