(** Translation validation of compiled artifacts (certified compilation).

    The analysis passes OD001–OD020 check the {e source} contract; this
    module checks what the compiler {e emitted}. Each compiled artifact —
    the per-path accessor plans (offset/mask/shift chains, including
    multi-word reads) and the SoftNIC shim schedule chosen by the Eq. 1
    optimizer — is lifted into a small codegen IR ({!step}) and
    symbolically executed with the existing {!Absdom}/{!Symexec}
    machinery against the deparser IR on every {e feasible} completion
    path, proving byte-level agreement:

    - every [@semantic] field the plan claims hardware-provided is read
      from exactly the bytes the deparser emits on that path (footprint
      equality plus value-range and known-bits inclusion both
      directions);
    - every required-but-unprovided semantic has a scheduled shim;
    - no accessor reads past [Size(p)] or into another path's layout.

    Violations become located lints OD021–OD024; a successful run
    produces a per-path {!certificate} keyed by the contract hash, which
    [Opendesc.Cache] stores so [Evolution.check]'s Recompile class can
    demand a fresh certificate before an accessor hot-swap. *)

(** One instruction of the accessor codegen IR. [Opendesc.Compile]
    builds each plan's chain from the field shape the runtime reads with
    ([Softnic.Codec.shape]): an aligned 8-, 16-, 32- or 64-bit field is
    one [SLoad]; any other field of at most 7 bytes loads the bytes it
    spans, then [SShr] and [SAnd]; a field over 8 or 9 bytes is an
    [SBitwalk]; a field over 64 bits is [SConst 0]. A plan's step list
    is executed left to right over the completion record. *)
type step =
  | SConst of int64  (** degenerate read (fields wider than 64 bits) *)
  | SLoad of { byte : int; bytes : int }  (** big-endian load at [byte] *)
  | SShr of int  (** logical shift right *)
  | SAnd of int64  (** bit mask *)
  | SBitwalk of { bit : int; bits : int }
      (** generic MSB-first bit walk (the non-fast-path reader) *)

val footprint : step list -> (int * int) option
(** Completion bits [\[lo, hi)] the chain's result depends on, [None]
    for a constant. MSB-first: after a load of bits [\[l, h)], [SShr k]
    discards the trailing [k] bits and [SAnd m] keeps the sub-window
    selected by [m]'s set bits. *)

type accessor_plan = {
  ap_name : string;  (** field name *)
  ap_header : string;
  ap_semantic : string option;
  ap_bits : int;  (** claimed field width *)
  ap_steps : step list;
  ap_range : int64 * int64;
      (** the range the compiler certified (registry-clamped) *)
}

type shim_plan = { sh_semantic : string; sh_width : int; sh_cost : float }

(** Everything the compiler claims about one compilation, decoupled from
    [Opendesc.Compile.t] so the validator lives in the analysis layer
    ([Opendesc.Compile.to_plan] bridges the two). *)
type plan = {
  pl_nic : string;
  pl_contract : string;  (** contract hash (hex digest of the fingerprint) *)
  pl_intent : (string * int) list;  (** requested (semantic, width) *)
  pl_path_index : int;  (** chosen completion path p* *)
  pl_size_bytes : int;  (** claimed Size of the chosen path *)
  pl_config : (string * int64) list;
      (** context assignment the driver programs to select p* *)
  pl_hw : (string * accessor_plan) list;
      (** per hardware-bound semantic, the accessor the driver will run *)
  pl_shims : shim_plan list;  (** scheduled SoftNIC shims *)
  pl_fields : accessor_plan list;
      (** every field accessor of the chosen path, layout order *)
}

(** The deparser contract a plan is validated against. *)
type contract = {
  cf_catalogue : Engine.catalogue;
      (** the loaded spec's catalogue; its feasible groups
          ([cat_feasible]) are the paths plans are numbered by *)
  cf_registry : Softnic.Semantic.t;
  cf_line_offset : int;  (** prelude lines to subtract from spans *)
}

type certificate = {
  c_nic : string;
  c_contract : string;  (** contract hash the proof holds for *)
  c_intent : (string * int) list;
  c_path_index : int;
  c_size_bytes : int;
  c_reads : (string * (int64 * int64)) list;
      (** per field accessor ("header.field", layout order): the
          symbolically certified unsigned range of the read — unclamped,
          so it contains every concrete value the accessor can return *)
  c_shims : string list;
  c_obligations : int;  (** proof obligations discharged *)
}

val check : contract -> plan -> (certificate, Diagnostic.t list) result
(** Validate a plan against the contract on every feasible completion
    run its configuration selects. [Error] carries OD021 (plan/deparser
    value mismatch), OD022 (uncovered required semantic) and OD023
    (cross-path accessor confusion / out-of-layout read) diagnostics,
    relocated and sorted. *)

val validate : certificate -> contract_hash:string -> Diagnostic.t list
(** Staleness check before an accessor swap: [] when the certificate was
    proved against [contract_hash], a single OD024 otherwise. *)

val to_text : certificate -> string
(** Serialize (format ["opendesc-cert-1"], line-oriented, stable). *)

val of_text : string -> (certificate, string) result

val certificate_json : certificate -> string
(** One JSON object (used by [opendesc_cc certify --json]). *)

(** {2 Seeded miscompilation mutations}

    Each mutation corrupts a plan the way a real codegen bug would; the
    validator must reject every one of them ([opendesc_cc certify
    --inject], and the seeded mutation tests). *)

type mutation = Wrong_shift | Swapped_mask | Dropped_shim | Off_by_one

val mutations : mutation list
val mutation_name : mutation -> string
val mutation_of_string : string -> mutation option

val expected_codes : mutation -> string list
(** Codes at least one of which must fire when the mutation is injected. *)

val inject : mutation -> plan -> plan
(** Apply the miscompilation. Deterministic: targets the first hardware
    accessor (falling back to the first field accessor / first shim). *)
