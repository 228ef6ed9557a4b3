(** Name resolution, header layout computation, and light type checking.

    The checker resolves every type down to widths (evaluating width
    expressions against global constants), computes bit-level layouts for
    headers, records @semantic annotations per field, and walks parser and
    control bodies to verify that member accesses, assignments, calls, and
    conditions are well-formed. It is deliberately not a full P4₁₆ front
    end — it covers what descriptor-interface descriptions need, which is
    the corpus the OpenDesc compiler consumes. *)

exception Type_error of string * Loc.span

(** A header field with its computed layout. *)
type field = {
  f_name : string;
  f_bits : int;  (** width *)
  f_bit_off : int;  (** offset of the MSB from the start of the header *)
  f_semantic : string option;  (** @semantic("...") tag *)
  f_annots : Ast.annotation list;
  f_span : Loc.span;  (** declaration site (field name) *)
}

type header_def = {
  h_name : string;
  h_fields : field list;
  h_bits : int;  (** total width; emitted headers must be a byte multiple *)
  h_annots : Ast.annotation list;
  h_span : Loc.span;  (** declaration site (header name) *)
}

type rtyp =
  | RBit of int
  | RSigned of int
  | RVarbit of int
  | RBool
  | RError
  | RString
  | RVoid
  | RHeader of header_def
  | RStruct of struct_def
  | REnum of string
  | RSerEnum of { se_name : string; se_width : int }
  | RExtern of string
  | RTypeVar of string

and struct_def = { s_name : string; s_fields : (string * rtyp) list }

val rtyp_name : rtyp -> string
(** Short printable name ("bit<32>", header name, ...). *)

val header_bytes : header_def -> int
(** Size in bytes. @raise Type_error if [h_bits] is not a byte multiple. *)

type cparam = {
  c_name : string;
  c_dir : Ast.direction;
  c_typ : rtyp;
  c_annots : Ast.annotation list;
}

type control_def = {
  ct_name : string;
  ct_params : cparam list;
  ct_locals : Ast.decl list;
  ct_body : Ast.block;
  ct_annots : Ast.annotation list;
  ct_span : Loc.span;  (** declaration site (control name) *)
}

type parser_def = {
  pr_name : string;
  pr_params : cparam list;
  pr_locals : Ast.decl list;
  pr_states : Ast.parser_state list;
  pr_annots : Ast.annotation list;
  pr_span : Loc.span;  (** declaration site (parser name) *)
}

type t
(** Checked program environment. *)

val check : Ast.program -> t
(** @raise Type_error on the first error. *)

val check_string : string -> t
(** Parse then check. @raise Parser.Error / Lexer.Error / Type_error. *)

val check_result : Ast.program -> (t, string) result

val program : t -> Ast.program

val resolve : t -> Ast.typ -> rtyp
(** @raise Type_error on unknown type names. *)

val find_header : t -> string -> header_def option

val headers : t -> header_def list
(** In declaration order. *)

val find_control : t -> string -> control_def option

val controls : t -> control_def list

val find_parser : t -> string -> parser_def option

val parsers : t -> parser_def list

val const_env : t -> Eval.env
(** Global constants plus serializable-enum members (path
    [[enum; member]]). *)

(** {1 Expression typing inside a body} *)

type scope

val scope_of_params : t -> cparam list -> scope

val scope_add : scope -> string -> rtyp -> scope

val scope_of_control : t -> control_def -> scope
(** Parameters plus control-local variable/constant declarations. *)

val type_of_expr : t -> scope -> Ast.expr -> rtyp
(** @raise Type_error for unknown names/fields or ill-formed accesses.
    Calls are typed by their callee's return type; [isValid()] is bool. *)
