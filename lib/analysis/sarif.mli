(** SARIF 2.1.0 export of analysis diagnostics.

    The static-analysis interchange format consumed by code-review UIs
    (GitHub code scanning, VS Code SARIF viewer). One run per export,
    one result per diagnostic, one reporting rule per distinct OD code.
    Output is deterministic — same diagnostics, same bytes — so it can
    be golden-tested and diffed across CI runs. *)

val of_results : tool_name:string -> (string * Diagnostic.t list) list -> string
(** [of_results ~tool_name artifacts] renders one SARIF 2.1.0 log (as a
    pretty-printed JSON document, trailing newline included). Each
    [(uri, diagnostics)] pair contributes results whose location points
    at [uri]; diagnostics without a span get no region. Rules are the
    distinct diagnostic codes, sorted. *)
