(** Recursive-descent parser for the P4 subset. *)

exception Error of string * Loc.span
(** Syntax error with the offending span. *)

(** Each entry point pulls tokens from one {!Lexer.t} cursor and builds
    no token list. A lexical error anywhere in the input wins over a
    syntax error, as if the input were lexed whole before parsing: a
    syntax error first lexes the rest of the input, and raises the
    first lexical error there is instead. *)

val parse_program : ?start:Loc.pos -> string -> Ast.program
(** Parse a whole translation unit. [?start] is the position of its first
    byte, as for {!Lexer.make}: a NIC source parsed from the
    prelude's end has the spans it has in [prelude ^ source], and its
    declarations follow the prelude's.
    @raise Error on syntax errors, [Lexer.Error] on lexical errors. *)

val parse_expr : string -> Ast.expr
(** Parse a single expression (for tests and tools); raises as
    {!parse_program}. *)

val parse_type : string -> Ast.typ
(** Parse a single type; raises as {!parse_program}. *)

val error_to_string : string -> exn -> string option
(** [error_to_string src exn] renders a [Parser.Error] or [Lexer.Error]
    against its source with a caret line; [None] for other exceptions. *)
