(** Static worst-case decode cost certification.

    {!Certify} proves a compiled plan computes the right {e values};
    this module proves what it {e costs}. Every accessor plan and Eq. 1
    shim schedule is priced over the feasible groups of
    {!Engine.catalogue}, the catalogue the validator walks, against a
    serializable cost {!table} whose defaults the driver cost model
    [Driver.Cost.K] is built from — so the bound is in the exact units
    the runtime ledger charges, and the dynamic side
    (the [cost_bound] bench, the fuzz cost stage, the QCheck containment
    property) can assert measured cycles/pkt never exceed it.

    Findings:
    - {b OD025} (Error): the provable worst case exceeds a declared
      [@budget(<cycles>)] on the intent or a [--budget] CLI bound.
    - {b OD026} (Warning): cost regression across revisions — the bound
      rose relative to a baseline (fed by [opendesc_cc diff], which can
      thus flag a Transparent-but-slower firmware bump).
    - {b OD027} (Info): dominated configuration — another feasible
      completion path serves the same intent strictly cheaper.
    - {b OD028} (Error): unbounded cost — a bitwalk whose length
      escapes the slot width, so no per-packet cycle bound exists. *)

(** Cycle costs of the host datapath's per-packet operations. *)
type table = {
  tb_cache_line_load : float;
  tb_accessor_read : float;
  tb_ring_advance : float;
  tb_refill : float;
  tb_doorbell : float;
  tb_sw_parse : float;
  tb_clock_ghz : float;
}

val default_table : table
(** The one copy of the datapath cost constants: [Driver.Cost.K], the
    host stacks' software-parse cost and [Opendesc.Placement] are
    defined from it. *)

val table_of_json : string -> (table, string) result
(** Tolerant reader for [--cost-table <json>]: known keys override the
    defaults, unknown keys are ignored; [Error] when no key parses. *)

val bound_of :
  ?table:table ->
  ?burst:int ->
  size_bytes:int ->
  hw_reads:int ->
  shims:float list ->
  unit ->
  float
(** Provable worst-case cycles/pkt for a completion of [size_bytes]
    decoded with [hw_reads] accessor chains and the given shim costs,
    with ring/refill/doorbell and the record's cache-line loads
    amortized over a burst of [burst] (default 1: the absolute
    per-packet worst case, which dominates every stack the driver
    ships). *)

val plan_bound : ?table:table -> ?burst:int -> Certify.plan -> float
(** {!bound_of} applied to a compiled plan's size, hardware bindings and
    shim schedule. *)

val distinct_lines : Certify.step list list -> int
(** Distinct 64B lines the chains' footprints touch — the decomposition
    the report carries alongside the streamed-record line count. *)

(** Idealized cost of serving the intent from one feasible completion
    layout, every missing semantic priced at its RX shim cost
    ({!Softnic.Semantic.rx_cost}: a TX semantic has none, so a path
    missing one does not serve the intent) —
    the per-path ranking behind OD027 (and ROADMAP item 2's
    specializer). *)
type path_cost = {
  pc_index : int;
  pc_size_bytes : int;
  pc_lines : int;
  pc_hw : string list;
  pc_shimmed : string list;
  pc_serves : bool;
  pc_bound : float;
}

(** The deployment's own certified worst case. *)
type cost = {
  co_nic : string;
  co_path_index : int;
  co_size_bytes : int;
  co_lines : int;
  co_distinct_lines : int;
  co_hw_reads : int;
  co_shim_cycles : float;
  co_bound : float;
  co_budget : float option;
  co_baseline : float option;
}

type report = {
  r_cost : cost;
  r_paths : path_cost list;
  r_diags : Diagnostic.t list;
}

val analyze :
  ?table:table ->
  ?budget:float ->
  ?baseline:float ->
  Certify.contract ->
  Certify.plan ->
  report
(** Price the plan against the contract. Diagnostics are relocated and
    sorted like {!Certify.check}'s; an empty [r_diags] means the bound
    is certified within budget with no cheaper serving path. *)

(** {2 Seeded cost regressions}

    Each drill corrupts the deployment the way a real cost bug would;
    the analysis must flag every one with the expected code
    ([opendesc_cc cost --inject], and the seeded mutation tests).
    [Over_budget]/[Cost_regression] are parameter injections — the plan
    is already its own provable floor — so a drill carries budget and
    baseline overrides alongside the mutated plan. *)

type mutation = Over_budget | Cost_regression | Dominated_config | Unbounded_walk

val mutations : mutation list
val mutation_name : mutation -> string

val expected_codes : mutation -> string list
(** Codes at least one of which must fire when the drill is injected. *)

type drill = {
  dr_plan : Certify.plan;
  dr_budget : float option;
  dr_baseline : float option;
}

val inject : ?table:table -> mutation -> Certify.plan -> drill
(** Deterministic: targets the hardware bindings first, field accessors
    as fallback. [Dominated_config] requires a multi-path NIC to fire
    (it demotes every hardware read to an overpriced shim, so some
    other feasible path must exist to dominate). *)
