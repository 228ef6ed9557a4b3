(** Reference software implementations of metadata semantics.

    The paper proposes that "each offload feature come[s] with a reference
    P4 implementation" so missing hardware capability "can delegate to
    software (e.g., a SoftNIC-like augmentation)". This module is that
    software side: one executable implementation per semantic name, with a
    nominal cycle cost used both by the compiler's cost function w(s) and
    by the driver simulator's cost model.

    Values are folded to [int64] (metadata fields are at most 64 bits in
    every descriptor we model); see each semantic's documented encoding. *)

(** Shared state software features may need across packets — including
    the state behind {e stateful} offloads (the paper's §5: stateful
    features "could be described using P4 primitives such as registers";
    here the register file is this environment). *)
type env = {
  clock : Tstamp.t;
  flow_marks : (Packet.Fivetuple.t, int32) Hashtbl.t;
      (** marks installed by the application (rte_flow MARK-style) *)
  flow_counters : (Packet.Fivetuple.t, int) Hashtbl.t;
      (** per-flow packet counters (a stateful offload register) *)
  rss_key : Toeplitz.key;
}

val make_env : ?rss_key:Toeplitz.key -> unit -> env

type t = {
  semantic : string;  (** the @semantic name this implements *)
  width_bits : int;  (** natural width of the produced value *)
  cost_cycles : float;  (** nominal per-packet software cost, for w(s) *)
  compute : env -> Packet.Pkt.t -> Packet.Pkt.view -> int64;
      (** The value on one packet. The view may be its caller's scratch
          ({!Packet.Pkt.parse_into}), valid during the call only: an
          implementation must not keep it. *)
}

val apply : t -> env -> Packet.Pkt.t -> int64
(** Parse the packet and compute. Convenience for one-off use; batch code
    should parse once and call [compute]. *)
