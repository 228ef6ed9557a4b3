type t = { buf : bytes; len : int }

let create buf = { buf; len = Bytes.length buf }

let sub buf ~len =
  assert (len <= Bytes.length buf);
  { buf; len }

let len t = t.len

type view = {
  l2_off : int;
  vlan_off : int;
  vlan_tci : int;
  ethertype : int;
  l3_off : int;
  is_ipv4 : bool;
  is_ipv6 : bool;
  l4_proto : int;
  l4_off : int;
  payload_off : int;
  src_port : int;
  dst_port : int;
}

let no_view =
  {
    l2_off = 0;
    vlan_off = -1;
    vlan_tci = 0;
    ethertype = -1;
    l3_off = -1;
    is_ipv4 = false;
    is_ipv6 = false;
    l4_proto = -1;
    l4_off = -1;
    payload_off = -1;
    src_port = 0;
    dst_port = 0;
  }

(* Parsing runs once per packet on the datapath, so it builds exactly one
   [view] record: every field is computed into a local mutable (ocamlopt
   unboxes non-escaping refs) and the record is constructed once at the
   end. Header reads are Stdlib [Bytes] calls, which inline here; the
   [Bitops] aliases would be calls across a module boundary. The staged [{ v with ... }] style read more naturally but cost
   four or five 13-field minor-heap records per packet. *)
let parse t =
  let b = t.buf in
  if t.len < Hdr.eth_len then no_view
  else begin
    let ethertype = ref (Bytes.get_uint16_be b 12) in
    let off = ref Hdr.eth_len in
    let vlan_off = ref (-1) in
    let vlan_tci = ref 0 in
    (* Skip up to two stacked 802.1Q tags, remembering the outermost TCI. *)
    let tags = ref 0 in
    while !ethertype = Hdr.Ethertype.vlan && !tags < 2 && !off + Hdr.vlan_len <= t.len do
      if !vlan_off = -1 then begin
        vlan_off := !off;
        vlan_tci := Bytes.get_uint16_be b !off
      end;
      ethertype := Bytes.get_uint16_be b (!off + 2);
      off := !off + Hdr.vlan_len;
      incr tags
    done;
    let l3_off = ref (-1) in
    let is_ipv4 = ref false in
    let is_ipv6 = ref false in
    let l4_proto = ref (-1) in
    let l4_off = ref (-1) in
    let payload_off = ref (-1) in
    let src_port = ref 0 in
    let dst_port = ref 0 in
    (* No helper closures here: a closure capturing the refs would box
       them and allocate per call. The L4 block is spelled out twice. *)
    if !ethertype = Hdr.Ethertype.ipv4 && !off + Hdr.ipv4_min_len <= t.len then begin
      let l3 = !off in
      let ihl = (Bytes.get_uint8 b l3 land 0x0f) * 4 in
      l3_off := l3;
      is_ipv4 := true;
      if ihl >= Hdr.ipv4_min_len && l3 + ihl <= t.len then begin
        let proto = Bytes.get_uint8 b (l3 + 9) in
        let l4 = l3 + ihl in
        l4_proto := proto;
        if proto = Hdr.Proto.tcp && l4 + Hdr.tcp_min_len <= t.len then begin
          let doff = (Bytes.get_uint8 b (l4 + 12) lsr 4) * 4 in
          l4_off := l4;
          payload_off := min (l4 + doff) t.len;
          src_port := Bytes.get_uint16_be b l4;
          dst_port := Bytes.get_uint16_be b (l4 + 2)
        end
        else if proto = Hdr.Proto.udp && l4 + Hdr.udp_len <= t.len then begin
          l4_off := l4;
          payload_off := l4 + Hdr.udp_len;
          src_port := Bytes.get_uint16_be b l4;
          dst_port := Bytes.get_uint16_be b (l4 + 2)
        end
      end
    end
    else if !ethertype = Hdr.Ethertype.ipv6 && !off + Hdr.ipv6_len <= t.len then begin
      let l3 = !off in
      let proto = Bytes.get_uint8 b (l3 + 6) in
      let l4 = l3 + Hdr.ipv6_len in
      l3_off := l3;
      is_ipv6 := true;
      l4_proto := proto;
      if proto = Hdr.Proto.tcp && l4 + Hdr.tcp_min_len <= t.len then begin
        let doff = (Bytes.get_uint8 b (l4 + 12) lsr 4) * 4 in
        l4_off := l4;
        payload_off := min (l4 + doff) t.len;
        src_port := Bytes.get_uint16_be b l4;
        dst_port := Bytes.get_uint16_be b (l4 + 2)
      end
      else if proto = Hdr.Proto.udp && l4 + Hdr.udp_len <= t.len then begin
        l4_off := l4;
        payload_off := l4 + Hdr.udp_len;
        src_port := Bytes.get_uint16_be b l4;
        dst_port := Bytes.get_uint16_be b (l4 + 2)
      end
    end;
    {
      l2_off = 0;
      vlan_off = !vlan_off;
      vlan_tci = !vlan_tci;
      ethertype = !ethertype;
      l3_off = !l3_off;
      is_ipv4 = !is_ipv4;
      is_ipv6 = !is_ipv6;
      l4_proto = !l4_proto;
      l4_off = !l4_off;
      payload_off = !payload_off;
      src_port = !src_port;
      dst_port = !dst_port;
    }
  end

let ipv4_src t v = Bytes.get_int32_be t.buf (v.l3_off + 12)
let ipv4_dst t v = Bytes.get_int32_be t.buf (v.l3_off + 16)
let ipv4_ihl t v = (Bytes.get_uint8 t.buf v.l3_off land 0x0f) * 4
let ipv4_total_len t v = Bytes.get_uint16_be t.buf (v.l3_off + 2)
let ipv4_id t v = Bytes.get_uint16_be t.buf (v.l3_off + 4)
let ipv4_ttl t v = Bytes.get_uint8 t.buf (v.l3_off + 8)
let ipv4_hdr_checksum t v = Bytes.get_uint16_be t.buf (v.l3_off + 10)
let ipv6_src t v = Bytes.sub t.buf (v.l3_off + 8) 16
let ipv6_dst t v = Bytes.sub t.buf (v.l3_off + 24) 16

let equal a b =
  a.len = b.len && Bytes.equal (Bytes.sub a.buf 0 a.len) (Bytes.sub b.buf 0 b.len)

let pp ppf t =
  let v = parse t in
  let layer =
    if v.is_ipv4 then "ipv4"
    else if v.is_ipv6 then "ipv6"
    else Printf.sprintf "eth:0x%04x" v.ethertype
  in
  let l4 =
    if v.l4_proto = Hdr.Proto.tcp then Printf.sprintf "/tcp %d>%d" v.src_port v.dst_port
    else if v.l4_proto = Hdr.Proto.udp then Printf.sprintf "/udp %d>%d" v.src_port v.dst_port
    else ""
  in
  Format.fprintf ppf "pkt[%dB %s%s%s]" t.len layer l4
    (if v.vlan_off >= 0 then Printf.sprintf " vlan:%d" (v.vlan_tci land 0xfff) else "")
