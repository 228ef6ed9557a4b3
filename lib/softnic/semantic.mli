(** The semantic universe Σ: one row per built-in semantic, and the
    software-cost function w.

    Every metadata field a NIC can emit or an application can request is
    tagged with a semantic name ([@semantic("rss")], ...). {!rows} is the
    one table of what is known about each built-in name: its width, the
    cost w(s) of recomputing it in software, its implementation and the
    flags the checkers and host stacks read. Everything else is derived
    from it: {!Registry.builtin} and {!Registry.device_only}, {!default},
    the checkers' skip rules and the host-stack sets. Adding a semantic
    means adding one row.

    w(s) = [infinity] is the one mark of a {e hardware-only} semantic:
    its implementation, if any, is the device's (a NIC model's
    stand-in) and Eq. 1 has no software fallback for it. *)

type info = {
  name : string;
  width_bits : int;
  sw_cost : float;  (** w(s), cycles; [infinity] = not software-implementable *)
  descr : string;
}

type direction =
  | Rx  (** the NIC writes it into a completion *)
  | Tx  (** the host writes it into a TX descriptor; no received packet
            determines it, so Eq. 1 gives it no RX fallback *)

type impl =
  | Core of Codec.sem  (** an int core; the feature boxes its value *)
  | Compute of (Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64)
      (** a boxed value, for a semantic with no int core *)

type flag =
  | Nondeterministic
      (** not a pure function of the packet (a clock reading): no
          reference to check a completion against *)
  | Stateful
      (** recomputing it advances a register of the environment *)
  | Mbuf_field  (** has a dedicated DPDK rte_mbuf field *)
  | Xdp_hint  (** read by one of the kernel's XDP metadata accessors *)

type row = {
  info : info;
  dir : direction;
  impl : impl option;
      (** the reference implementation (on the device only when w(s) is
          [infinity]); [None] for a TX semantic *)
  flags : flag list;
}

val rows : row list
(** Every built-in semantic: the 17 {!Codec} cores and [kvs_key], then
    the hardware-only semantics, then the TX semantics. *)

val row : string -> row option

val has : flag -> string -> bool
(** [has flag s]: [s] has a row with [flag]. A name with no row (a
    custom semantic) has no flag. *)

(** {1 Registries over Σ}

    A registry maps names to {!info}. Applications register new
    semantics into it (the paper's evolvability mechanism). *)

type t

val default : unit -> t
(** A fresh registry holding every row's {!info}: a copy of one table
    built at start-up, so callers may register into it. *)

val empty : unit -> t

val register : t -> info -> unit
(** Add or replace. *)

val find : t -> string -> info option

val mem : t -> string -> bool

val cost : t -> string -> float
(** w(s); [infinity] for unknown semantics (nothing to synthesize from). *)

val rx_cost : t -> string -> float
(** The price of recomputing [s] for a received packet: {!cost}, but
    [infinity] for a TX semantic, which no received packet determines.
    Eq. 1 and the cost bound's per-path pricing both read it. *)

val width : t -> string -> int option

val names : t -> string list
(** Sorted. *)
