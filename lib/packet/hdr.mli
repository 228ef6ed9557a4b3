(** Protocol constants and shared header helpers. *)

(** EtherTypes (host int). *)
module Ethertype : sig
  val ipv4 : int

  val ipv6 : int

  (** 802.1Q *)
  val vlan : int
end

(** IP protocol numbers. *)
module Proto : sig
  val tcp : int

  val udp : int

  val icmp : int
end

(** Bytes in an un-tagged Ethernet header. *)
val eth_len : int

(** Bytes in one 802.1Q tag. *)
val vlan_len : int

val ipv4_min_len : int

val ipv6_len : int

val tcp_min_len : int

val udp_len : int
