(** A concrete interpreter for the P4 subset.

    Executes parser state machines over real packet bytes ([extract],
    [advance], [select]) and control bodies over the resulting header
    instances (assignments, conditionals, [isValid]). This is the
    "P4-to-software" path of the paper: a feature's reference P4
    implementation can be {e run} on the host to synthesize a SoftNIC
    shim, instead of hand-writing the shim natively.

    The machine state is a flat store from access paths to values plus a
    header-validity set — rich enough for straight-line reference
    implementations, deliberately not a full PSA/PNA target. *)

type store
(** Mutable interpreter state. *)

exception Runtime_error of string

val create : Typecheck.t -> store

val set_int : store -> string list -> ?width:int -> int64 -> unit
(** Bind a scalar input (e.g. an intrinsic metadata field). *)

val get_int : store -> string list -> int64 option

val is_valid : store -> string list -> bool
(** Whether the header instance at a path was extracted/set valid. *)

val run_parser :
  store -> Typecheck.parser_def -> packet:bytes -> len:int -> param:string -> unit
(** Execute the parser from its [start] state over [packet]: [extract]
    calls on the [packet_in]/[desc_in]-typed parameter fill header fields
    (MSB-first per the checked layout) into the store under the
    destination paths; [select] matches concrete values; [accept]/
    [reject]/running past the end of data stops execution. [param] names
    the parser parameter bound to [packet] (usually ["pkt"]).
    @raise Runtime_error on unknown states or non-concrete selects. *)

val run_control : store -> Typecheck.control_def -> Ast.expr list
(** Execute a control's apply body: assignments, conditionals,
    header [setValid]/[setInvalid], local variables. Conditions must
    evaluate concretely. Returns the argument of every one-argument
    [emit] call executed, in order; other calls are ignored.
    @raise Runtime_error when a condition cannot be decided. *)
