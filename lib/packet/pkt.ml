type t = { buf : bytes; len : int }

let create buf = { buf; len = Bytes.length buf }

let sub buf ~len =
  assert (len <= Bytes.length buf);
  { buf; len }

let len t = t.len

type view = {
  mutable l2_off : int;
  mutable vlan_off : int;
  mutable vlan_tci : int;
  mutable ethertype : int;
  mutable l3_off : int;
  mutable is_ipv4 : bool;
  mutable is_ipv6 : bool;
  mutable l4_proto : int;
  mutable l4_off : int;
  mutable payload_off : int;
  mutable src_port : int;
  mutable dst_port : int;
}

let view () =
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

(* The L4 fields of a TCP or UDP header at [l4], when it fits the frame;
   otherwise they keep the "missing" values [parse_into] reset them to. *)
let parse_l4 v b ~len ~proto ~l4 =
  if proto = Hdr.Proto.tcp && l4 + Hdr.tcp_min_len <= len then begin
    let doff = (Bytes.get_uint8 b (l4 + 12) lsr 4) * 4 in
    v.l4_off <- l4;
    v.payload_off <- min (l4 + doff) len;
    v.src_port <- Bytes.get_uint16_be b l4;
    v.dst_port <- Bytes.get_uint16_be b (l4 + 2)
  end
  else if proto = Hdr.Proto.udp && l4 + Hdr.udp_len <= len then begin
    v.l4_off <- l4;
    v.payload_off <- l4 + Hdr.udp_len;
    v.src_port <- Bytes.get_uint16_be b l4;
    v.dst_port <- Bytes.get_uint16_be b (l4 + 2)
  end

(* Parsing runs once per packet on the datapath and writes into a view
   its caller owns, so it allocates nothing. Every field is reset first,
   so no path (short frame, non-IP ethertype, bad IHL, truncated L4)
   leaves a value from the frame the view last held. Header reads are
   Stdlib [Bytes] calls, which inline here; the [Bitops] aliases would be
   calls across a module boundary. *)
let parse_into v b ~len =
  v.l2_off <- 0;
  v.vlan_off <- -1;
  v.vlan_tci <- 0;
  v.ethertype <- -1;
  v.l3_off <- -1;
  v.is_ipv4 <- false;
  v.is_ipv6 <- false;
  v.l4_proto <- -1;
  v.l4_off <- -1;
  v.payload_off <- -1;
  v.src_port <- 0;
  v.dst_port <- 0;
  if len >= Hdr.eth_len then begin
    let ethertype = ref (Bytes.get_uint16_be b 12) in
    let off = ref Hdr.eth_len in
    (* Skip up to two stacked 802.1Q tags, remembering the outermost TCI. *)
    let tags = ref 0 in
    while !ethertype = Hdr.Ethertype.vlan && !tags < 2 && !off + Hdr.vlan_len <= len do
      if v.vlan_off = -1 then begin
        v.vlan_off <- !off;
        v.vlan_tci <- Bytes.get_uint16_be b !off
      end;
      ethertype := Bytes.get_uint16_be b (!off + 2);
      off := !off + Hdr.vlan_len;
      incr tags
    done;
    v.ethertype <- !ethertype;
    let l3 = !off in
    if !ethertype = Hdr.Ethertype.ipv4 && l3 + Hdr.ipv4_min_len <= len then begin
      let ihl = (Bytes.get_uint8 b l3 land 0x0f) * 4 in
      v.l3_off <- l3;
      v.is_ipv4 <- true;
      if ihl >= Hdr.ipv4_min_len && l3 + ihl <= len then begin
        let proto = Bytes.get_uint8 b (l3 + 9) in
        v.l4_proto <- proto;
        parse_l4 v b ~len ~proto ~l4:(l3 + ihl)
      end
    end
    else if !ethertype = Hdr.Ethertype.ipv6 && l3 + Hdr.ipv6_len <= len then begin
      let proto = Bytes.get_uint8 b (l3 + 6) in
      v.l3_off <- l3;
      v.is_ipv6 <- true;
      v.l4_proto <- proto;
      parse_l4 v b ~len ~proto ~l4:(l3 + Hdr.ipv6_len)
    end
  end

let parse t =
  let v = view () in
  parse_into v t.buf ~len:t.len;
  v

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
