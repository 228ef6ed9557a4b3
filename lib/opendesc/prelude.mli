(** The standard OpenDesc P4 prelude.

    Declares the extern object types of the paper's interface templates
    (Figures 3 and 4): [desc_in], the byte stream a descriptor parser
    consumes, and [cmpt_out], the completion stream a deparser emits to.
    Every NIC description and intent is checked against this prelude. *)

val source : string
(** P4 source of the prelude. *)

val line_offset : int
(** Number of lines the prelude prepends to a NIC source; subtract from a
    span's line to recover the position in the user's own file. *)

val decls : P4.Ast.program
(** The prelude's declarations, parsed once at start-up. *)

val end_pos : P4.Loc.pos
(** The position just past {!source}: where a NIC source's first byte
    sits in [source ^ nic_source]. *)

val check : string -> P4.Typecheck.t
(** [check nic_source] typechecks [prelude ^ nic_source]: {!decls},
    then [nic_source] lexed and parsed from {!end_pos}, so every span and
    offset is the one the concatenated text would give.
    @raise P4.Typecheck.Type_error, [P4.Parser.Error], [P4.Lexer.Error]. *)

val check_result : string -> (P4.Typecheck.t, string) result
(** Same, with rendered error messages. *)
