(** Hand-written lexer for the P4 subset. *)

exception Error of string * Loc.pos
(** Lexical error with position. *)

val tokenize : ?start:Loc.pos -> string -> Token.t list
(** Whole-input tokenization; the result always ends with an [Eof] token.
    Skips [//] and [/* */] comments and whitespace.

    [?start] (default line 1, column 0, offset 0) is the position of the
    input's first byte: every span and error position counts from it, as
    if the input followed text ending there. The prelude's end lets a
    NIC source be lexed alone with the spans of [prelude ^ source].
    @raise Error on malformed input (unterminated comment/string,
    bad character, malformed number). *)
