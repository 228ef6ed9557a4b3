(* Reference P4 feature implementations, executed by P4.Interp.

   Conventions: feature controls take the standard parsed headers as a
   parameter named [hdrs], intrinsic metadata as [meta], and write their
   value to an out parameter named [result]. The standard parser's
   out-parameter is also named [hdrs], so parser and controls share the
   same store paths. *)

let source =
  {|
/* Standard wire headers for reference implementations. */
header std_eth_t {
  bit<48> dst;
  bit<48> src;
  bit<16> ethertype;
}
header std_vlan_t {
  bit<3>  pcp;
  bit<1>  dei;
  bit<12> vid;
  bit<16> ethertype;
}
header std_ipv4_t {
  bit<4>  version;
  bit<4>  ihl;
  bit<8>  tos;
  bit<16> total_len;
  bit<16> identification;
  bit<3>  flags;
  bit<13> frag_off;
  bit<8>  ttl;
  bit<8>  protocol;
  bit<16> hdr_checksum;
  bit<32> src;
  bit<32> dst;
}
header std_ipv6_t {
  bit<4>   version;
  bit<8>   traffic_class;
  bit<20>  flow_label;
  bit<16>  payload_len;
  bit<8>   next_header;
  bit<8>   hop_limit;
  bit<64>  src_hi;
  bit<64>  src_lo;
  bit<64>  dst_hi;
  bit<64>  dst_lo;
}
header std_tcp_t {
  bit<16> sport;
  bit<16> dport;
  bit<32> seq;
  bit<32> ack;
  bit<4>  doff;
  bit<4>  rsvd;
  bit<8>  tcp_flags;
  bit<16> window;
  bit<16> checksum;
  bit<16> urgent;
}
header std_udp_t {
  bit<16> sport;
  bit<16> dport;
  bit<16> length;
  bit<16> checksum;
}
struct std_headers_t {
  std_eth_t  eth;
  std_vlan_t vlan;
  std_ipv4_t ipv4;
  std_ipv6_t ipv6;
  std_tcp_t  tcp;
  std_udp_t  udp;
}
struct std_meta_t { bit<16> pkt_len; }

/* The standard wire parser (single VLAN tag; IPv4 options skipped via
   advance; reference features assume well-formed packets). */
parser StdParser(packet_in pkt, out std_headers_t hdrs) {
  state start {
    pkt.extract(hdrs.eth);
    transition select(hdrs.eth.ethertype) {
      0x8100: parse_vlan;
      0x0800: parse_ipv4;
      0x86dd: parse_ipv6;
      default: accept;
    }
  }
  state parse_vlan {
    pkt.extract(hdrs.vlan);
    transition select(hdrs.vlan.ethertype) {
      0x0800: parse_ipv4;
      0x86dd: parse_ipv6;
      default: accept;
    }
  }
  state parse_ipv4 {
    pkt.extract(hdrs.ipv4);
    pkt.advance(((bit<32>)(hdrs.ipv4.ihl)) * 32 - 160);
    transition select(hdrs.ipv4.protocol) {
      6: parse_tcp;
      17: parse_udp;
      default: accept;
    }
  }
  state parse_ipv6 {
    pkt.extract(hdrs.ipv6);
    transition select(hdrs.ipv6.next_header) {
      6: parse_tcp;
      17: parse_udp;
      default: accept;
    }
  }
  state parse_tcp { pkt.extract(hdrs.tcp); transition accept; }
  state parse_udp { pkt.extract(hdrs.udp); transition accept; }
}

/* --- reference feature implementations ---------------------------- */

@feature("vlan")
control RefVlan(in std_headers_t hdrs, out bit<16> result) {
  apply {
    if (hdrs.vlan.isValid()) {
      result = hdrs.vlan.pcp ++ hdrs.vlan.dei ++ hdrs.vlan.vid;
    } else {
      result = 0;
    }
  }
}

@feature("ip_id")
control RefIpId(in std_headers_t hdrs, out bit<16> result) {
  apply {
    if (hdrs.ipv4.isValid()) {
      result = hdrs.ipv4.identification;
    } else {
      result = 0;
    }
  }
}

@feature("pkt_len")
control RefPktLen(in std_meta_t meta, out bit<16> result) {
  apply { result = meta.pkt_len; }
}

@feature("l3_type")
control RefL3Type(in std_headers_t hdrs, out bit<4> result) {
  apply {
    if (hdrs.ipv4.isValid()) {
      result = 1;
    } else {
      if (hdrs.ipv6.isValid()) {
        result = 2;
      } else {
        result = 0;
      }
    }
  }
}

@feature("l4_type")
control RefL4Type(in std_headers_t hdrs, out bit<4> result) {
  apply {
    if (hdrs.tcp.isValid()) {
      result = 1;
    } else {
      if (hdrs.udp.isValid()) {
        result = 2;
      } else {
        if (hdrs.ipv4.isValid() || hdrs.ipv6.isValid()) {
          result = 3;
        } else {
          result = 0;
        }
      }
    }
  }
}

@feature("rss_type")
control RefRssType(in std_headers_t hdrs, out bit<8> result) {
  apply {
    if (hdrs.ipv4.isValid()) {
      if (hdrs.tcp.isValid()) {
        result = 2;
      } else {
        if (hdrs.udp.isValid()) {
          result = 3;
        } else {
          result = 1;
        }
      }
    } else {
      result = 0;
    }
  }
}
|}

let p4_semantics = [ "vlan"; "ip_id"; "pkt_len"; "l3_type"; "l4_type"; "rss_type" ]

let interp_overhead = 3.0

let tenv_memo = lazy (Prelude.check source)

let tenv () = Lazy.force tenv_memo

let feature_annotation (c : P4.Typecheck.control_def) =
  match P4.Ast.find_annotation "feature" c.ct_annots with
  | Some a -> P4.Ast.annotation_string a
  | None -> None

let feature_controls () =
  List.filter_map
    (fun (c : P4.Typecheck.control_def) ->
      match feature_annotation c with Some sem -> Some (sem, c) | None -> None)
    (P4.Typecheck.controls (tenv ()))

let std_parser () =
  match P4.Typecheck.find_parser (tenv ()) "StdParser" with
  | Some p -> p
  | None -> failwith "refimpl: StdParser missing"

let interpret sem =
  match List.assoc_opt sem (feature_controls ()) with
  | None -> Error (Printf.sprintf "no reference P4 implementation for %s" sem)
  | Some control ->
      let tenv = tenv () in
      let parser = std_parser () in
      Ok
        (fun (pkt : Packet.Pkt.t) ->
          let store = P4.Interp.create tenv in
          P4.Interp.set_int store [ "meta"; "pkt_len" ] ~width:16
            (Int64.of_int (min pkt.len 0xffff));
          (try
             P4.Interp.run_parser store parser ~packet:pkt.buf ~len:pkt.len
               ~param:"pkt"
           with P4.Interp.Runtime_error _ -> ());
          (try ignore (P4.Interp.run_control store control)
           with P4.Interp.Runtime_error _ -> ());
          match P4.Interp.get_int store [ "result" ] with
          | Some v -> v
          | None -> 0L)

let feature ?cost_cycles sem =
  match interpret sem with
  | Error _ as e -> e
  | Ok run ->
      let base = Semantic.default () in
      let cost =
        match cost_cycles with
        | Some c -> c
        | None ->
            let w = Semantic.cost base sem in
            if Float.is_finite w then w *. interp_overhead else 100.0
      in
      let width = match Semantic.width base sem with Some w -> w | None -> 64 in
      Ok
        {
          Softnic.Feature.semantic = sem;
          width_bits = width;
          cost_cycles = cost;
          compute = (fun _env pkt _view -> run pkt);
        }

let registry () =
  let r = Softnic.Registry.builtin () in
  List.iter
    (fun sem ->
      match feature sem with
      | Ok f -> Softnic.Registry.register r f
      | Error _ -> ())
    p4_semantics;
  r
