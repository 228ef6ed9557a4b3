type info = { name : string; width_bits : int; sw_cost : float; descr : string }

type t = (string, info) Hashtbl.t

let empty () : t = Hashtbl.create 32
let register t (i : info) = Hashtbl.replace t i.name i

let register_feature t ?(descr = "") (f : Softnic.Feature.t) =
  register t
    { name = f.semantic; width_bits = f.width_bits; sw_cost = f.cost_cycles; descr }

let find t name = Hashtbl.find_opt t name
let mem t name = Hashtbl.mem t name

(* Allocation-free: Eq. 1 and the analysis ask it per semantic per path. *)
let cost t name =
  match Hashtbl.find t name with i -> i.sw_cost | exception Not_found -> infinity

let width t name = match find t name with Some i -> Some i.width_bits | None -> None

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let hardware_only = [ "wire_timestamp"; "inline_crypto_tag"; "regex_match_id" ]

let descriptions =
  [
    ("rss", "receive-side-scaling flow hash");
    ("rss_type", "RSS input tuple class");
    ("ip_checksum", "computed IPv4 header checksum");
    ("csum_ok", "checksum verification status");
    ("l4_checksum", "computed TCP/UDP checksum");
    ("vlan", "stripped 802.1Q TCI");
    ("timestamp", "packet arrival timestamp");
    ("flow_id", "stable per-connection identifier");
    ("mark", "application-installed flow mark");
    ("pkt_len", "frame length");
    ("l3_type", "network-layer protocol class");
    ("l4_type", "transport-layer protocol class");
    ("ip_id", "IPv4 identification field");
    ("lro_num_seg", "LRO coalesced segment count");
    ("kvs_key", "key of a key-value-store GET request");
    ("crc", "Ethernet FCS CRC-32");
    ("tunnel_vni", "VXLAN network identifier of the outer encapsulation");
    ("flow_pkts", "stateful per-flow packet counter (register-backed)");
  ]

let default () =
  let t = empty () in
  List.iter
    (fun (f : Softnic.Feature.t) ->
      let descr =
        match List.assoc_opt f.semantic descriptions with Some d -> d | None -> ""
      in
      register_feature t ~descr f)
    Softnic.Registry.all;
  register t
    {
      name = "wire_timestamp";
      width_bits = 64;
      sw_cost = infinity;
      descr = "PHC wire-accurate arrival time; hardware only";
    };
  register t
    {
      name = "inline_crypto_tag";
      width_bits = 64;
      sw_cost = infinity;
      descr = "authentication tag of NIC-resident inline crypto; hardware only";
    };
  register t
    {
      name = "regex_match_id";
      width_bits = 32;
      sw_cost = infinity;
      descr = "rule id from the NIC RegEx accelerator; hardware only";
    };
  (* TX-direction semantics: produced by the host, so their "software
     cost" is 0 — Eq. 1 only prices RX fallbacks. They are registered for
     widths and for TX descriptor-format selection. *)
  List.iter (register t)
    [
      { name = "buf_addr"; width_bits = 64; sw_cost = 0.0;
        descr = "TX: DMA address of the packet buffer" };
      { name = "tx_len"; width_bits = 16; sw_cost = 0.0;
        descr = "TX: buffer length" };
      { name = "tx_flags"; width_bits = 32; sw_cost = 0.0;
        descr = "TX: offload request flags" };
      { name = "tx_l4_csum"; width_bits = 1; sw_cost = 0.0;
        descr = "TX: request L4 checksum insertion" };
      { name = "tso_mss"; width_bits = 16; sw_cost = 0.0;
        descr = "TX: TCP segmentation offload segment size" };
    ];
  t
