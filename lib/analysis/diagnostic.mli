(** Structured analysis diagnostics.

    Every finding of the descriptor-contract verifier is a stable code
    (["OD012"]), a severity, an optional source span, a message, and
    related notes — never a bare string, so CLI rendering, [--json]
    output, and tests that assert on exact codes all consume the same
    value. The code space is documented in [docs/LINTS.md]. *)

type severity = Error | Warning | Info

type note = { n_loc : P4.Loc.span option; n_msg : string }

type t = {
  d_code : string;  (** stable machine code, e.g. ["OD012"] *)
  d_severity : severity;
  d_loc : P4.Loc.span option;  (** position in the user's source *)
  d_msg : string;
  d_notes : note list;
}

val severity_to_string : severity -> string

val note : ?span:P4.Loc.span -> string -> note
(** Dummy spans are dropped. *)

val make :
  ?span:P4.Loc.span ->
  ?notes:note list ->
  code:string ->
  severity:severity ->
  ('a, unit, string, t) format4 ->
  'a
(** [make ~code ~severity fmt ...] builds a diagnostic; a [?span] that
    is [Loc.dummy] is treated as no position. *)

val relocate : lines:int -> t -> t
(** Shift positions up by [lines] (the prelude offset); positions at or
    before that line are dropped. *)

val compare : t -> t -> int
(** Position, then severity, then code: the presentation order. *)

val to_string : t -> string
(** ["12:3: warning[OD010]: ..."] with notes appended in parentheses. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val to_json : t -> string
(** One JSON object; [line]/[col] keys are present only when located. *)
