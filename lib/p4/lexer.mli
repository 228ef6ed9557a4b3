(** Hand-written lexer for the P4 subset: a cursor over the source that
    the parser pulls tokens from, one at a time. *)

exception Error of string * Loc.pos
(** Lexical error with position. *)

(** The cursor: the current token's kind and both of its ends, as an
    offset into [src], a line and that line's start. The parser reads
    [kind] directly; a {!Loc.span} is built only by {!span}. *)
type t = private {
  src : string;
  base : int;  (** offset of [src]'s first byte in the text positions count in *)
  mutable kind : Token.kind;  (** the current token *)
  mutable tok_off : int;  (** its left end *)
  mutable tok_line : int;
  mutable tok_bol : int;  (** index just past the last newline before the left end *)
  mutable off : int;  (** its right end, where the scan resumes *)
  mutable line : int;
  mutable bol : int;
}

val check_width : int64 -> string option
(** The one width rule: [None] when [w] lies in 1 to 8192, the widths a
    [bit<N>], [int<N>] or [varbit<N>] may have and a literal's width
    prefix may carry; otherwise [Some "invalid width w"]. The lexer
    checks a literal's prefix with it, {!Typecheck} a type's width. *)

val make : ?start:Loc.pos -> string -> t
(** A cursor on the first token of the input. Skips [//] and [/* */]
    comments and whitespace.

    [?start] (default line 1, column 0, offset 0) is the position of the
    input's first byte: every span and error position counts from it, as
    if the input followed text ending there. The prelude's end lets a
    NIC source be lexed alone with the spans of [prelude ^ source].
    @raise Error on malformed input (unterminated comment/string, bad
    character, malformed number, a width prefix {!check_width} refuses,
    as in [0w1], at the literal), here and in {!advance}, {!peek} and
    {!drain}. *)

val advance : t -> unit
(** Lex the next token. At [Eof] the cursor stays there. *)

val peek : t -> Token.kind
(** The kind of the token after the current one; the cursor does not
    move. *)

val at_shr : t -> bool
(** The current token is ['>'] and the next one is another ['>'] that
    starts where it ends: a right shift, not two closing brackets. *)

val span : t -> Loc.span
(** The current token's span. *)

val text : t -> string
(** The current token's source text. *)

val is_keyword : t -> bool
(** The current token is a keyword. *)

type mark

val mark : t -> mark
(** The cursor as it is, for {!reset} to return to. *)

val reset : t -> mark -> unit

val drain : t -> unit
(** Lex the rest of the input, which raises the first lexical error in
    it if there is one. *)

val tokenize : string -> Token.t list
(** Every token of the input, from a cursor at line 1, column 0: the
    result always ends with an [Eof] token. @raise Error as {!make}. *)
