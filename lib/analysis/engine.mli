(** The descriptor-contract verifier: a multi-pass static analysis over
    a typechecked P4 NIC description, producing structured, located
    {!Diagnostic.t} values instead of strings.

    Passes (each diagnostic code is documented in docs/LINTS.md):
    - {b layout safety} — abstract interpretation of the completion
      deparser computes per-path emit offsets and bounds (OD003–OD006);
    - {b path feasibility} — branch predicates are decided over the
      context-field domains to find dead emits, constant predicates and
      inert context fields (OD007–OD009);
    - {b contract consistency} — the TX parser, RX deparser and the
      semantic registry are cross-checked (OD010–OD015);
    - {b codegen verification} — every accessor the C and eBPF emitters
      would synthesize is checked to read strictly inside [Size(p)] in
      constant time (OD016–OD017).

    The engine reads the program ([p4]) and the semantic registry
    ({!Softnic.Semantic.t}). *)

(** One field of a concrete completion layout as the codegen pass sees
    it: absolute bit offset within the completion record. *)
type afield = {
  af_name : string;
  af_header : string;
  af_semantic : string option;
  af_bit_off : int;
  af_bits : int;
  af_span : P4.Loc.span;
}

val fields_of_run : Dep_ir.run -> afield list
(** Flatten one concrete deparser run into absolute-offset fields — the
    layout view the codegen pass checks and {!Certify} re-proves
    compiled plans against. *)

val locate_deparser :
  P4.Typecheck.t -> (P4.Typecheck.control_def, string) result
(** The completion deparser of a program: the one control taking a
    [cmpt_out], or the one tagged [@cmpt_deparser] among several. *)

(** {2 The completion-path catalogue}

    The deparser's completion paths, built once per loaded spec
    ([Opendesc.Nic_spec.load] keeps it): the {!Dep_ir} run under every
    context assignment, grouped by emit site, with one {!Symexec} walk
    deciding which groups are feasible. The analysis passes, the
    compiler's paths ([Opendesc.Path.of_catalogue]), {!Certify} and
    {!Costbound} all read this one result. *)

(** One distinct sequence of emit sites. The analysis passes report per
    emit site, so they read these; the compiler's paths are
    [cat_feasible]. *)
type group = {
  g_index : int;
      (** encounter order over the assignments; renumbered in
          [cat_feasible] *)
  g_key : int list;  (** emit site ids, in order *)
  g_run : Dep_ir.run;  (** the first run with this emit sequence *)
  g_assigns : Context.assignment list;
      (** every configuration with a run in this group, enumeration order *)
  g_feasible : bool;  (** not proved unreachable by the symbolic walk *)
}

type catalogue = {
  cat_ctrl : P4.Typecheck.control_def;
  cat_ir : Dep_ir.t;
  cat_ctx : (P4.Typecheck.cparam * P4.Typecheck.header_def) option;
  cat_ctx_error : string option;
      (** why the context space could not be enumerated; the runs then
          cover only the empty assignment *)
  cat_assignments : Context.assignment list;
  cat_runs : (Context.assignment * Dep_ir.run * group) list;
      (** every run, with the configuration that produced it and its
          group — several per configuration when undecidable branches
          fork *)
  cat_sym : Symexec.result;
  cat_groups : group list;  (** in encounter order *)
  cat_feasible : group list;
      (** The compiler's completion paths: the feasible runs of
          [cat_runs], regrouped by emitted expression sequence, numbered
          from 0 in first-encounter order, with assignments in
          enumeration order. A merged group keeps its first member's
          [g_key] and [g_run]. OD013, {!Certify} and {!Costbound} number
          paths by this. *)
}

val catalogue :
  P4.Typecheck.t -> P4.Typecheck.control_def -> (catalogue, string) result
(** [Error] when the deparser IR cannot be built (no [cmpt_out]
    parameter, an emit of a non-header, even in a dead branch). *)

type input = {
  in_tenv : P4.Typecheck.t;
  in_catalogue : catalogue option;
      (** the loaded spec's catalogue, or [None] to locate the deparser
          and build it (an unlocatable deparser yields OD002 unless the
          program declares an intent header, which has none by design) *)
  in_desc_parser : P4.Typecheck.parser_def option;
  in_tx_formats : Tx_ir.fmt list option;
      (** the loaded spec's TX formats, or [None] to walk
          [in_desc_parser] (a walk error yields OD002) *)
  in_registry : Softnic.Semantic.t;
  in_intent : (string * int) list option;
      (** requested [(semantic, width)] pairs to cross-check (OD015) *)
  in_line_offset : int;
      (** prelude lines to subtract from every span; diagnostics landing
          inside the prelude lose their location *)
}

val analyze : input -> Diagnostic.t list
(** Run all passes. The result is deduplicated, relocated by
    [in_line_offset] and sorted by source position. *)

val analyze_program :
  registry:Softnic.Semantic.t ->
  ?intent:(string * int) list ->
  ?line_offset:int ->
  P4.Typecheck.t ->
  Diagnostic.t list
(** [analyze] with the deparser and TX descriptor parser located and
    walked. *)

val analyze_source :
  registry:Softnic.Semantic.t ->
  ?intent:(string * int) list ->
  ?prelude:P4.Ast.program * P4.Loc.pos ->
  string ->
  Diagnostic.t list
(** Parse [src] and typecheck it after a prelude, then analyze. The
    prelude is given parsed, with the position just past its text, where
    [src] is lexed from, so spans are those of [prelude ^ src]. A
    lexical, syntax or type error becomes a single OD001 diagnostic
    rather than an exception, located in [src]'s own lines when its
    position is known and outside the prelude. *)

val check_accessor_bounds :
  ?path_desc:string -> size_bytes:int -> afield list -> Diagnostic.t list
(** The codegen verification step in isolation: flag accessors that read
    bytes outside [size_bytes] (OD016) and semantic fields wider than
    64 bits, whose accessors degenerate to a constant 0 (OD017).
    Exposed for unit testing against hand-built layouts. *)

val failing : werror:bool -> Diagnostic.t list -> bool
(** [true] if the list contains an error, or — with [~werror:true] — a
    warning. Info diagnostics never fail. *)

val is_intent_header : P4.Typecheck.header_def -> bool
(** A header tagged [@intent] or whose name contains ["intent"]. *)
