(** Hitless contract evolution: live hot-swap of a running datapath.

    The paper's end state (§6): a NIC's metadata contract is versioned
    data, so a firmware bump becomes a {e classified, certified,
    packet-accounted} transition instead of a driver rebuild and a
    maintenance window. This module is the control plane over
    {!Parallel.hot_swap}'s epoch protocol: given a running
    {!Mq.t}/{!Parallel} datapath on revision A and the P4 source of
    revision B, it

    - classifies the diff with the symbolic evolution checker
      ({!Opendesc.Nic_diff.check}), then narrows the verdict to the
      {e deployment}: an entry only matters here if it touches the
      active completion path and a semantic this deployment's intent
      actually serves (a globally-Breaking removal on a path we never
      selected is locally Transparent);
    - executes the protocol the class demands — [Transparent] applies
      at the next quiescent point with no proof obligation,
      [Recompile] recompiles revision B in the background, demands a
      translation-validation certificate {e fresh against the new
      contract hash} ({!Opendesc.Cache.certificate_status}) and
      refuses the swap (datapath keeps serving rev A) on a stale or
      missing certificate, [Breaking] drains every in-flight
      completion and quarantines the transition — the remainder of the
      stream is withheld, every packet accounted;
    - reconciles {!Fault.counters} exactly across the epoch:
      [delivered + quarantined = rx_accepted + duplicates] and
      [lost = 0].

    Certificate identity follows deployment identity: the new revision
    is {e branded} with the running device's NIC name before any cache
    query, so the certificate held for the deployment (proved against
    rev A's contract) is correctly judged stale for rev B's hash.

    One engine, {!Parallel.hot_swap}, runs the datapath at every
    domain count. At [domains = 1] it runs on the calling domain and
    sweeps after every [batch]-th injection, so [inflight] and
    [pre_delivered] (which the CLI golden pins) and the whole outcome
    are a pure function of (seed, plan, at); the [upgrade_chaos]
    benchmark times that run. At [domains > 1] worker domains drain
    while the verdict computes, and where their harvests fall depends
    on scheduling. *)

(** Certificate-gate failure drills (the [certify --inject] lineage):
    force the Recompile protocol into each refusal mode without needing
    a genuinely broken toolchain. *)
type drill =
  | Drill_stale
      (** the deployment holds rev A's certificate only — rev B is
          never certified, so the gate sees [held ≠ current] *)
  | Drill_missing
      (** no certificate was ever minted for this deployment *)
  | Drill_inject of Opendesc_analysis.Certify.mutation
      (** rev B's accessor plan is mutated before validation, so
          certification itself fails (OD021–OD023) *)

val drill_of_string : string -> drill option
(** ["stale" | "missing" | "inject:<mutation>"]. *)

(** What the certificate gate concluded. Hashes are hex contract
    digests ({!Opendesc.Cache.contract_hash_of} — stable across runs). *)
type cert_verdict =
  | Cv_not_required  (** no effective Recompile-class entry *)
  | Cv_fresh of string  (** certificate proved against this hash *)
  | Cv_stale of { held : string; current : string }
  | Cv_missing of string  (** no certificate for [current] *)
  | Cv_failed of string list
      (** certification ran and failed — diagnostic codes *)

val cert_verdict_name : cert_verdict -> string
(** Stable slug:
    ["not_required" | "fresh" | "stale" | "missing" | "failed"]. *)

type action =
  | Applied  (** the datapath now serves revision B *)
  | Refused of string  (** still serving revision A; the reason *)
  | Quarantined
      (** drained, stopped, remainder withheld (Breaking class) *)

val action_name : action -> string

type outcome = {
  o_nic : string;  (** the running deployment's NIC name *)
  o_from : string;  (** old revision name *)
  o_to : string;  (** new revision name (pre-branding) *)
  o_intent : string list;  (** served semantics, sorted *)
  o_full_class : Opendesc_analysis.Evolution.klass;
      (** the global classification over the whole interface *)
  o_class : Opendesc_analysis.Evolution.klass;
      (** the deployment-effective class: the max over the entries whose
          old path is absent or the active one and whose semantic is
          absent or served ([Transparent] when none are) *)
  o_entries : int;  (** total report entries *)
  o_effective : int;  (** entries surviving the deployment filter *)
  o_active_path : int;  (** rev A completion path index in service *)
  o_cert : cert_verdict;
  o_action : action;
  o_dry : bool;
  o_epoch : int;  (** 1 after a successful swap, else 0 *)
  o_domains : int;
  o_queues : int;
  o_pkts : int;  (** packets offered (workload length) *)
  o_at : int;  (** packets offered before the swap point *)
  o_inflight : int;  (** completions pending at the quiesce point *)
  o_pre_delivered : int;  (** delivered under epoch 0 *)
  o_post_delivered : int;  (** delivered under epoch 1 *)
  o_delivered : int;
  o_quarantined : int;  (** contract violators withheld from the stack *)
  o_accepted : int;  (** injections the devices accepted *)
  o_duplicates : int;
  o_withheld : int;  (** never offered ([Quarantined] only) *)
  o_drops : int;  (** device-side ring-full drops *)
  o_lost : int;
      (** [accepted + duplicates - delivered - quarantined] — the
          zero-packet-loss acceptance number, must be 0 *)
  o_reconciled : bool;  (** {!Fault.reconciles} on the summed counters *)
  o_torn : int;  (** torn-plan oracle violations — must be 0 *)
  o_upgrade_errors : int;  (** per-device {!Device.upgrade} refusals *)
  o_wall_s : float;  (** whole run (not in the JSON: nondeterministic) *)
  o_latency_s : float;  (** quiesce request → every worker on epoch 1 *)
  o_pause_s : float;
      (** producer quiesce pause: injection halted from the quiesce
          request until the post-swap stream resumed (for a quarantine,
          until the verdict withheld the remainder). In the JSON as
          [pause_s]; the live_upgrade bench bounds it below 100 ms at
          4 domains. 0 on a dry run. *)
  o_faults : Fault.counters;  (** summed per-queue counters *)
  o_post_pairs : (bytes * bytes) list array option;
      (** with [~collect_post:true]: per queue, epoch-1
          (packet, completion) pairs in delivery order — re-decoded by
          the rev-B reference reader in the acceptance test *)
  o_compiled_new : Opendesc.Compile.t option;
      (** rev B's compilation when one was produced (tests re-decode
          [o_post_pairs] against it) *)
}

val run :
  ?queues:int ->
  ?domains:int ->
  ?batch:int ->
  ?pkts:int ->
  ?at:int ->
  ?seed:int64 ->
  ?plan:Fault.plan ->
  ?alpha:float ->
  ?drill:drill ->
  ?collect_post:bool ->
  intent:Opendesc.Intent.t ->
  old_spec:Opendesc.Nic_spec.t ->
  new_spec:Opendesc.Nic_spec.t ->
  unit ->
  (outcome, string) result
(** Stand up a [queues]-queue datapath on [old_spec] under [intent],
    stream a seeded Imix workload through the fault layer ([plan]
    defaults to {!Fault.zero_plan}[ seed] — wrapped either way, so the
    counters always reconcile), raise the swap at packet [at] (default
    [pkts / 2]) and drive the protocol above through
    {!Parallel.hot_swap} at [domains]; [domains = 1] (default) is
    reproducible from the seed. Defaults: [queues = 4], [batch = 32],
    [pkts = 4096], [seed = 42]. Errors are pre-flight only (rev A
    fails to compile, device creation fails); every post-flight
    condition is an {!outcome}.

    @raise Invalid_argument on [domains < 1], [batch < 1] or [pkts < 0]
    ({!Parallel.check_sizes}), before the engine starts.
    @raise e what {!Parallel.hot_swap} raises when a worker or the
    verdict fails. *)

val dry_run :
  ?alpha:float ->
  ?drill:drill ->
  intent:Opendesc.Intent.t ->
  old_spec:Opendesc.Nic_spec.t ->
  new_spec:Opendesc.Nic_spec.t ->
  unit ->
  (outcome, string) result
(** Classification and certificate gate only — no datapath, no
    packets. [o_action] is what {!run} {e would} do; datapath counters
    are zero and [o_dry] is [true]. *)

val to_json : outcome -> string
(** One-line JSON document, schema ["opendesc-upgrade-2"]. Only
    deterministic fields (no wall-clock or latency times), plus the
    producer quiesce pause [pause_s] — the one timing the interface
    promises (the golden rules filter it; dry runs report 0). *)

val pp : Format.formatter -> outcome -> unit
(** Human-readable multi-line report. *)
