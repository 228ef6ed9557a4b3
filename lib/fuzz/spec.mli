(** The fuzzer's spec IR: an abstract deparser description.

    The generator draws values of {!t}, the renderer turns them into
    vendor P4 source, and the shrinker edits them structurally — all
    three work on this small tree instead of raw source text, so every
    rendered spec is well-formed by construction (byte-aligned headers,
    enumerable context domains, decidable branch predicates). *)

type cmp = Ceq | Cne | Clt | Cle

(** Branch predicates are restricted to the context — the subset the
    path enumerator can decide and the accessor certifier (OD020)
    accepts. *)
type cond =
  | Cfield of string * cmp * int64  (** [ctx.f OP lit] *)
  | Cmask of string * int64 * int64  (** [(ctx.f & mask) == v] *)
  | Cpair of string * string  (** [ctx.a == ctx.b], same width *)

type tree =
  | Leaf of string list  (** meta-struct members to emit, in order *)
  | Branch of cond * tree * tree

type field = {
  f_name : string;
  f_bits : int;
  f_semantic : string option;
}

type header = { h_name : string; h_fields : field list }
(** One completion header; the renderer appends a pad field when the
    declared fields do not total a byte multiple, so any emit sequence
    is DMA-able (OD003 can never fire). *)

type ctx_field = {
  c_name : string;
  c_bits : int;
  c_values : int64 list option;
      (** explicit [@values] domain; required when [c_bits] exceeds
          {!Opendesc_analysis.Context.max_enum_bits} *)
}

type t = {
  sp_name : string;
  sp_ctx : ctx_field list;
  sp_headers : header list;
  sp_tree : tree;
  sp_slot : int option;  (** [@cmpt_slot] bytes; None omits the pragma *)
}

val header_bytes : header -> int
(** Rendered size: declared bits padded up to the next byte. *)

val leaves : tree -> string list list
val conds : tree -> cond list

val max_path_bytes : t -> int
(** Largest leaf's emit total — the lower bound for [sp_slot]. *)

val ctx_configs : t -> int
(** Size of the context configuration product. *)

val domain : ctx_field -> int64 list
(** The values enumeration will try for one context field. *)

val normalize : t -> t
(** Drop headers no leaf emits and context fields no condition reads —
    run after every shrink edit so counterexamples carry no dead
    weight. Never drops the last header. *)

val render : t -> string
(** Vendor P4 source: context header, completion headers (byte-padded),
    meta struct, a fixed TX descriptor + parser, and the deparser
    control with the decision tree as nested conditionals. *)
