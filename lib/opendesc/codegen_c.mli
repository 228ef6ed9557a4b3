(** C host-stub synthesis (§4 step 4).

    Emits a self-contained header with one constant-time accessor per
    provided field of the selected completion path — direct shifted loads
    for byte-aligned fields, a generic bit extractor otherwise — plus
    declarations for the SoftNIC shims the user must link for missing
    semantics, and the context configuration words to program over the
    control channel. *)

val sanitize : string -> string
(** Replace non-identifier characters with underscores. *)

val generate :
  nic:string ->
  path:Path.t ->
  missing:(string * float) list ->
  config:Opendesc_analysis.Context.assignment ->
  string
(** The full generated header. [missing] pairs each software semantic
    with its w(s) cost (documented in the output). *)

val datapath :
  nic:string ->
  path:Path.t ->
  requested:string list ->
  missing:(string * float) list ->
  config:Opendesc_analysis.Context.assignment ->
  tx_format:Descparser.t option ->
  string
(** A complete minimalist driver datapath in C — the "generated
    minimalist driver datapath" the paper's abstract aims at: the
    accessor header ({!generate}) plus ring structures, an
    [opendesc_<nic>_rx_burst] loop that consumes completions, fills a
    per-packet metadata struct (hardware reads inline, software shims
    called where needed), and an [opendesc_<nic>_tx_prepare] that builds
    TX descriptors in the selected format. *)
