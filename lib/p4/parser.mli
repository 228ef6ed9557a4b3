(** Recursive-descent parser for the P4 subset. *)

exception Error of string * Loc.span
(** Syntax error with the offending span. *)

val parse_program : ?start:Loc.pos -> string -> Ast.program
(** Parse a whole translation unit. [?start] is the position of its first
    byte, as for {!Lexer.tokenize}: a NIC source parsed from the
    prelude's end has the spans it has in [prelude ^ source], and its
    declarations follow the prelude's.
    @raise Error on syntax errors, [Lexer.Error] on lexical errors. *)

val parse_expr : string -> Ast.expr
(** Parse a single expression (for tests and tools). *)

val parse_type : string -> Ast.typ

val error_to_string : string -> exn -> string option
(** [error_to_string src exn] renders a [Parser.Error] or [Lexer.Error]
    against its source with a caret line; [None] for other exceptions. *)
