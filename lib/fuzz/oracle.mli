(** The differential property every generated spec must satisfy.

    One spec is pushed through the whole stack, stage by stage:

    + [load] — parse + typecheck + path enumeration ({!Opendesc.Nic_spec.load});
    + [pretty] — pretty-print/reparse fixpoint: the AST round-trips
      through {!P4.Pretty} unchanged and the printed source typechecks;
    + [lint] — {!Opendesc.Nic_spec.analyze} reports no Error-severity
      diagnostic (warnings are legitimate on random specs);
    + [symexec] — abstract interpretation over-approximates the
      concrete deparser: every branch predicate's concrete value is
      contained in its abstraction, and every concretely-taken path
      lands on a feasible symbolic leaf;
    + [compile] — Eq. 1 solves against an intent derived from the
      spec's own semantics;
    + [certify] — the compiled plan translation-validates against the
      spec's deparser contract ({!Opendesc.Compile.certify}): accessor
      chains agree with the deparser byte-for-byte, shims cover every
      software-bound semantic, no read escapes the layout;
    + [differential] — on random descriptor bytes, three independent
      decoders (P4 interpreter, synthesized accessors, a bit-by-bit
      reference reader) agree on every field of every path;
    + [device] — a simulated device programmed to each path emits
      completions whose bytes all three decoders again agree on;
    + [cost] — the static worst-case decode bound
      ({!Opendesc_analysis.Costbound.plan_bound}) contains the cost the
      driver ledger actually charges when the per-packet generated
      runtime decodes real completions.

    The first failing stage aborts the check; its name and message make
    up the {!failure} the shrinker minimizes against. *)

type stats = {
  st_paths : int;
  st_configs : int;  (** context assignments across all paths *)
  st_max_bytes : int;  (** largest completion layout *)
  st_sw_bound : int;  (** intent semantics the compile bound in software *)
  st_obligations : int;  (** proof obligations the certify stage discharged *)
  st_cost_obligations : int;
      (** measured-cost-within-bound checks the cost stage discharged *)
}

type failure = { fl_stage : string; fl_message : string }

val intent_of : Opendesc.Nic_spec.t -> Opendesc.Intent.t
(** The compile stage's intent: up to three of the spec's own
    software-implementable semantics (sorted, so deterministic), or
    [pkt_len] when the spec carries none. *)

val check_source :
  ?seed:int64 -> name:string -> string -> (stats, failure) result
(** Run the property over vendor P4 source. [seed] drives the random
    descriptor bytes, symexec value vectors and device traffic — equal
    seeds make the whole check (including any failure message)
    reproducible. *)

val check : ?seed:int64 -> Spec.t -> (stats, failure) result
(** {!check_source} over {!Spec.render}. *)
