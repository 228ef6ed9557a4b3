(** The compiler's optimization problem (§4 step 3, Eq. 1).

    Choose the completion path p* minimising

    {v  Σ_{s ∈ Req \ Prov(p)} w(s)   +   α · Size(p)  v}

    where the first term is the SoftNIC cost of emulating missing
    semantics and the second the DMA completion footprint. A missing
    semantic with w(s) = ∞, or a TX semantic (which no received packet
    determines), makes a path infeasible; if every path is infeasible
    the program is rejected as unsatisfiable. *)

type scored = {
  s_path : Path.t;
  s_missing : string list;  (** Req \ Prov(p), in intent order *)
  s_softnic_cost : float;  (** Σ w(s), possibly [infinity] *)
  s_dma_cost : float;  (** α · Size(p) *)
  s_total : float;
}

type outcome = {
  chosen : scored;
  ranked : scored list;  (** every path, best first (chosen is the head) *)
  alpha : float;
}

type error =
  | No_paths
  | Unsatisfiable of string list
      (** semantics with no hardware path and no software implementation *)

val error_to_string : error -> string

val default_alpha : float
(** 2.0 cycles per completion byte — the nominal PCIe/cache cost the DMA
    footprint term charges. *)

val score : Semantic.t -> alpha:float -> Intent.t -> Path.t -> scored

val choose :
  ?alpha:float -> Semantic.t -> Intent.t -> Path.t list -> (outcome, error) result
(** Deterministic: ties break towards smaller completions, then lower
    path index. *)
