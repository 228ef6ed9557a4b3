type t = (string, Feature.t) Hashtbl.t

let empty () : t = Hashtbl.create 32
let register t (f : Feature.t) = Hashtbl.replace t f.semantic f
let find t name = Hashtbl.find_opt t name
let mem t name = Hashtbl.mem t name

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let feature semantic width_bits cost_cycles compute =
  { Feature.semantic; width_bits; cost_cycles; compute }

(* A builtin with an int core: [compute] boxes the core's value. *)
let cored sem semantic width_bits cost_cycles =
  ( feature semantic width_bits cost_cycles (fun env (pkt : Packet.Pkt.t) v ->
        Int64.of_int (Codec.eval sem env pkt.buf ~len:pkt.len v)),
    sem )

let cores =
  [
    cored Codec.Rss "rss" 32 120.0;
    cored Codec.Rss_type "rss_type" 8 20.0;
    cored Codec.Ip_checksum "ip_checksum" 16 180.0;
    cored Codec.Csum_ok "csum_ok" 1 200.0;
    cored Codec.L4_checksum "l4_checksum" 16 450.0;
    cored Codec.Vlan "vlan" 16 15.0;
    cored Codec.Timestamp "timestamp" 64 25.0;
    cored Codec.Flow_id "flow_id" 32 60.0;
    cored Codec.Mark "mark" 32 70.0;
    cored Codec.Pkt_len "pkt_len" 16 5.0;
    cored Codec.L3_type "l3_type" 4 15.0;
    cored Codec.L4_type "l4_type" 4 18.0;
    cored Codec.Ip_id "ip_id" 16 12.0;
    cored Codec.Lro_num_seg "lro_num_seg" 8 5.0;
    cored Codec.Crc "crc" 32 900.0;
    cored Codec.Tunnel_vni "tunnel_vni" 24 90.0;
    cored Codec.Flow_pkts "flow_pkts" 16 70.0;
  ]

let core_of compute =
  List.find_map
    (fun ((f : Feature.t), sem) -> if f.compute == compute then Some sem else None)
    cores

let get sem = fst (List.find (fun (_, s) -> s = sem) cores)
let rss = get Codec.Rss
let rss_type = get Codec.Rss_type
let ip_checksum = get Codec.Ip_checksum
let csum_ok = get Codec.Csum_ok
let l4_checksum = get Codec.L4_checksum
let vlan = get Codec.Vlan
let timestamp = get Codec.Timestamp
let flow_id = get Codec.Flow_id
let mark = get Codec.Mark
let pkt_len = get Codec.Pkt_len
let l3_type = get Codec.L3_type
let l4_type = get Codec.L4_type
let ip_id = get Codec.Ip_id
let lro_num_seg = get Codec.Lro_num_seg
let kvs_key = feature "kvs_key" 64 80.0 (fun _ pkt v -> Kvs.key64_of_pkt pkt v)
let crc = get Codec.Crc
let tunnel_vni = get Codec.Tunnel_vni
let flow_pkts = get Codec.Flow_pkts

let all =
  [
    rss; rss_type; ip_checksum; csum_ok; l4_checksum; vlan; timestamp; flow_id; mark;
    pkt_len; l3_type; l4_type; ip_id; lro_num_seg; kvs_key; crc; tunnel_vni;
    flow_pkts;
  ]

let builtin () =
  let t = empty () in
  List.iter (register t) all;
  t
