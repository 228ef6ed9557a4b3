type info = { name : string; width_bits : int; sw_cost : float; descr : string }
type direction = Rx | Tx

type impl =
  | Core of Codec.sem
  | Compute of (Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64)

type flag = Nondeterministic | Stateful | Mbuf_field | Xdp_hint
type row = { info : info; dir : direction; impl : impl option; flags : flag list }

(* Device-side stand-ins for accelerators the host cannot reproduce. *)

(* Inline crypto: a keyed digest of the payload the host-side shims have
   no key material to compute. *)
let crypto_tag _ pkt _ =
  let lo = Int64.logand (Int64.of_int32 (Crc32.of_pkt pkt)) 0xFFFFFFFFL in
  Int64.logor (Int64.shift_left lo 32) (Int64.logxor lo 0x5A5A5A5AL)

(* Whether [needle] occurs in [buf] between [i] and [stop], compared in
   place: top-level recursion so a search allocates nothing. *)
let rec matches_at buf i needle j =
  j = String.length needle
  || (Bytes.get buf (i + j) = String.get needle j && matches_at buf i needle (j + 1))

let rec occurs buf i ~stop needle =
  i + String.length needle <= stop
  && (matches_at buf i needle 0 || occurs buf (i + 1) ~stop needle)

(* RegEx accelerator: rule 1 fires on payloads containing "GET", rule 2
   on "POST", else 0. *)
let regex_match _ (pkt : Packet.Pkt.t) (v : Packet.Pkt.view) =
  let off = v.payload_off and stop = pkt.len in
  if off < 0 || off >= stop then 0L
  else if occurs pkt.buf off ~stop "get " || occurs pkt.buf off ~stop "GET " then 1L
  else if occurs pkt.buf off ~stop "POST " then 2L
  else 0L

let rx ?(flags = []) name width_bits sw_cost impl descr =
  { info = { name; width_bits; sw_cost; descr }; dir = Rx; impl = Some impl; flags }

(* Written by the host, so nothing is recomputed and w(s) = 0; Eq. 1
   reads the direction and gives a TX row no RX fallback. The rows give
   widths and drive TX descriptor-format selection. *)
let tx name width_bits descr =
  { info = { name; width_bits; sw_cost = 0.0; descr }; dir = Tx; impl = None; flags = [] }

(* Widths are the natural width of the value; costs are nominal
   single-core x86 cycles, whose relative order is what the compiler
   and the simulator read (recomputing a checksum costs more than
   re-hashing a 12-byte tuple: Figure 6's preference). *)
let rows =
  [
    (* Toeplitz 4-tuple hash *)
    rx "rss" 32 120.0 (Core Rss) "receive-side-scaling flow hash"
      ~flags:[ Mbuf_field; Xdp_hint ];
    (* 0 none, 1 ipv4, 2 tcp4, 3 udp4 *)
    rx "rss_type" 8 20.0 (Core Rss_type) "RSS input tuple class";
    rx "ip_checksum" 16 180.0 (Core Ip_checksum) "computed IPv4 header checksum";
    (* 1 when the IPv4 header checksum verifies, and the L4 one when present *)
    rx "csum_ok" 1 200.0 (Core Csum_ok) "checksum verification status" ~flags:[ Mbuf_field ];
    (* over the pseudo-header and the whole payload *)
    rx "l4_checksum" 16 450.0 (Core L4_checksum) "computed TCP/UDP checksum";
    (* outermost TCI, 0 if untagged *)
    rx "vlan" 16 15.0 (Core Vlan) "stripped 802.1Q TCI" ~flags:[ Mbuf_field; Xdp_hint ];
    (* software clock, ns: cheap, but less precise than a NIC's PHC *)
    rx "timestamp" 64 25.0 (Core Timestamp) "packet arrival timestamp"
      ~flags:[ Nondeterministic; Xdp_hint ];
    (* structural 5-tuple hash *)
    rx "flow_id" 32 60.0 (Core Flow_id) "stable per-connection identifier" ~flags:[ Mbuf_field ];
    (* 0 when no mark is installed for the flow *)
    rx "mark" 32 70.0 (Core Mark) "application-installed flow mark" ~flags:[ Mbuf_field ];
    rx "pkt_len" 16 5.0 (Core Pkt_len) "frame length" ~flags:[ Mbuf_field ];
    (* 0 none, 1 ipv4, 2 ipv6 *)
    rx "l3_type" 4 15.0 (Core L3_type) "network-layer protocol class";
    (* 0 none, 1 tcp, 2 udp, 3 other *)
    rx "l4_type" 4 18.0 (Core L4_type) "transport-layer protocol class";
    rx "ip_id" 16 12.0 (Core Ip_id) "IPv4 identification field";
    (* software cannot coalesce: 1 for every valid packet *)
    rx "lro_num_seg" 8 5.0 (Core Lro_num_seg) "LRO coalesced segment count";
    (* Kvs.fold_key of a memcached-style GET: all 64 bits, so no int core *)
    rx "kvs_key" 64 80.0
      (Compute (fun _ pkt v -> Kvs.key64_of_pkt pkt v))
      "key of a key-value-store GET request";
    (* about 8 cycles a byte, folded into one constant *)
    rx "crc" 32 900.0 (Core Crc) "Ethernet FCS CRC-32";
    (* of UDP/4789 with the I flag set, else 0 *)
    rx "tunnel_vni" 24 90.0 (Core Tunnel_vni)
      "VXLAN network identifier of the outer encapsulation";
    (* packets seen so far on this 5-tuple, the current one included, from
       the environment's register file: §5's stateful offload *)
    rx "flow_pkts" 16 70.0 (Core Flow_pkts)
      "stateful per-flow packet counter (register-backed)" ~flags:[ Stateful ];
    (* Hardware only. A PHC reading is the clock the software timestamp
       reads, so the device's encoder ticks it as the same int core. *)
    rx "wire_timestamp" 64 infinity (Core Timestamp)
      "PHC wire-accurate arrival time; hardware only" ~flags:[ Nondeterministic; Xdp_hint ];
    rx "inline_crypto_tag" 64 infinity (Compute crypto_tag)
      "authentication tag of NIC-resident inline crypto; hardware only";
    rx "regex_match_id" 32 infinity (Compute regex_match)
      "rule id from the NIC RegEx accelerator; hardware only";
    tx "buf_addr" 64 "TX: DMA address of the packet buffer";
    tx "tx_len" 16 "TX: buffer length";
    tx "tx_flags" 32 "TX: offload request flags";
    tx "tx_l4_csum" 1 "TX: request L4 checksum insertion";
    tx "tso_mss" 16 "TX: TCP segmentation offload segment size";
  ]

let by_name = Hashtbl.create 32
let () = List.iter (fun r -> Hashtbl.replace by_name r.info.name r) rows
let row name = Hashtbl.find_opt by_name name

(* Allocation-free: the host stacks ask it per field per packet. *)
let has flag name =
  match Hashtbl.find by_name name with
  | r -> List.mem flag r.flags
  | exception Not_found -> false

type t = (string, info) Hashtbl.t

let empty () : t = Hashtbl.create 32
let register t (i : info) = Hashtbl.replace t i.name i
let prebuilt = empty ()
let () = List.iter (fun r -> register prebuilt r.info) rows
let default () = Hashtbl.copy prebuilt
let find t name = Hashtbl.find_opt t name
let mem t name = Hashtbl.mem t name

(* Allocation-free: Eq. 1 and the analysis ask it per semantic per path. *)
let cost t name =
  match Hashtbl.find t name with i -> i.sw_cost | exception Not_found -> infinity

(* A TX semantic, which the host writes, has no RX fallback. *)
let rx_cost t name =
  match Hashtbl.find by_name name with
  | { dir = Tx; _ } -> infinity
  | _ | (exception Not_found) -> cost t name

let width t name = match find t name with Some i -> Some i.width_bits | None -> None
let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare
