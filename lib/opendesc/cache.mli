(** Memoized compilation.

    {!Compile.run} re-enumerates nothing — the paths are already on the
    spec — but it does re-solve Eq. 1, re-synthesise accessor closures
    and rebuild both default registries on every call. Callers that
    compile the same (NIC, intent, alpha) repeatedly — one compilation
    per queue of a multi-queue device, the portability example walking a
    NIC catalog, the CLI, benches — hit this process-wide memo table
    instead: a hash lookup keyed by the spec's {!Nic_spec.fingerprint},
    the intent's canonical form, alpha and the TX intent's canonical
    form, with physical-identity front caches so a warm lookup
    recomputes neither fingerprint nor canonical form. Two {!Compile.run}
    calls with equal keys and default registries produce interchangeable
    results.

    The cache deliberately does {e not} accept the [?registry]/[?softnic]
    overrides of {!Compile.run}: a custom registry can change the chosen
    path or the shim set without changing the key, so such calls must go
    to {!Compile.run} directly. Cached results are shared — treat a
    {!Compile.t} obtained here as immutable (in particular, don't
    [Semantic.register] into its [registry] field).

    Errors are cached too: a NIC that cannot satisfy an intent fails in
    constant time on every retry. *)

val run :
  ?alpha:float ->
  ?tx_intent:Intent.t ->
  intent:Intent.t ->
  Nic_spec.t ->
  (Compile.t, string) result
(** Like {!Compile.run} with default registries, memoized. *)

val run_exn :
  ?alpha:float -> ?tx_intent:Intent.t -> intent:Intent.t -> Nic_spec.t -> Compile.t

(** {2 Certificates}

    Translation-validation results ({!Compile.certify}) are memoized
    alongside compilations, keyed by contract hash × intent key, and the
    latest certificate granted per (NIC name, intent) is retained so the
    evolution checker can detect a stale proof after a firmware bump
    (docs/CERTIFICATION.md). *)

type cert_error =
  | Cert_compile_error of string  (** Eq. 1 / binding failure *)
  | Cert_failed of Opendesc_analysis.Diagnostic.t list
      (** the plan failed translation validation (OD021–OD023) *)

type cert_status =
  | Cert_fresh of Opendesc_analysis.Certify.certificate
      (** held certificate matches the spec's current contract hash *)
  | Cert_stale of Opendesc_analysis.Certify.certificate
      (** a certificate is held for this NIC name + intent, but it was
          proved against a different contract (OD024 territory) *)
  | Cert_missing

val certify :
  ?alpha:float ->
  ?tx_intent:Intent.t ->
  intent:Intent.t ->
  Nic_spec.t ->
  (Opendesc_analysis.Certify.certificate, cert_error) result
(** Compile (through the memo table) and translation-validate, memoized
    by contract hash × intent key. A success is recorded as the held
    certificate for {!certificate_status}. *)

val certificate_status :
  ?alpha:float ->
  ?tx_intent:Intent.t ->
  intent:Intent.t ->
  Nic_spec.t ->
  cert_status
(** What the cache currently holds for this NIC name + intent, judged
    against the spec's current contract hash — the Recompile-before-swap
    question {!Nic_diff.check_certified} asks. *)

val contract_hash_of : Nic_spec.t -> string
(** {!Compile.contract_hash} through the cache's memoized fingerprint. *)

val clear : unit -> unit
(** Drop every entry and zero the counters. *)

type stats = { hits : int; misses : int; entries : int }

val stats : unit -> stats

val stats_line : unit -> string
(** One human-readable line, e.g. ["compile cache: 7 hit(s), 1 miss(es),
    1 entry"] — printed by the CLI after compilation. *)
