type l4 = Tcp of { seq : int32; flags : int } | Udp

(* Destination then source MAC, written with one blit. *)
let macs = "\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01"

let l4_header_len ~udp = if udp then Hdr.udp_len else Hdr.tcp_min_len

let ipv4_len ~vlan ~udp ~payload_len =
  Hdr.eth_len + (if vlan >= 0 then Hdr.vlan_len else 0) + Hdr.ipv4_min_len
  + l4_header_len ~udp + payload_len

let ipv6_len ~udp ~payload_len = Hdr.eth_len + Hdr.ipv6_len + l4_header_len ~udp + payload_len

(* The writers below store every header byte themselves, zero fields
   included, so a reused buffer keeps nothing of the frame it held
   before. They store through Stdlib [Bytes], which inlines where the
   [Bitops] aliases or a [Bytes.fill] would be calls, and take the L4
   header as plain ints, so a generator calling them boxes nothing. *)

(* Ethernet and, when [vlan >= 0], one 802.1Q tag; returns the L3
   offset. *)
let write_eth b ~vlan ~ethertype =
  Bytes.blit_string macs 0 b 0 12;
  if vlan >= 0 then begin
    Bytes.set_uint16_be b 12 Hdr.Ethertype.vlan;
    (* TCI: priority 0, DEI 0, 12-bit VID. *)
    Bytes.set_uint16_be b 14 (vlan land 0xfff);
    Bytes.set_uint16_be b 16 ethertype;
    Hdr.eth_len + Hdr.vlan_len
  end
  else begin
    Bytes.set_uint16_be b 12 ethertype;
    Hdr.eth_len
  end

(* A TCP header (no ack, data offset 5 words, window 0xffff, no urgent
   pointer) or a UDP header at [off], its checksum zero. *)
let write_l4 b ~off ~src_port ~dst_port ~udp ~seq ~flags ~l4_len =
  Bytes.set_uint16_be b off src_port;
  Bytes.set_uint16_be b (off + 2) dst_port;
  if udp then begin
    Bytes.set_uint16_be b (off + 4) l4_len;
    Bytes.set_uint16_be b (off + 6) 0
  end
  else begin
    Bytes.set_uint16_be b (off + 4) ((seq lsr 16) land 0xffff);
    Bytes.set_uint16_be b (off + 6) (seq land 0xffff);
    Bytes.set_uint16_be b (off + 8) 0;
    Bytes.set_uint16_be b (off + 10) 0;
    Bytes.set_uint16_be b (off + 12) (0x5000 lor (flags land 0xff));
    Bytes.set_uint16_be b (off + 14) 0xffff;
    Bytes.set_uint16_be b (off + 16) 0;
    Bytes.set_uint16_be b (off + 18) 0
  end

let write_ipv4 b ~vlan ~ttl ~ip_id ~(flow : Fivetuple.t) ~udp ~seq ~flags ~l4_csum ~payload_len
    ~payload_sum =
  let l3 = write_eth b ~vlan ~ethertype:Hdr.Ethertype.ipv4 in
  let hdr_len = l4_header_len ~udp in
  let l4_len = hdr_len + payload_len in
  (* Version 4, IHL 5 words, TOS 0; no flags, offset 0; checksum 0
     until it is summed. *)
  Bytes.set_uint16_be b l3 0x4500;
  Bytes.set_uint16_be b (l3 + 2) (Hdr.ipv4_min_len + l4_len);
  Bytes.set_uint16_be b (l3 + 4) ip_id;
  Bytes.set_uint16_be b (l3 + 6) 0;
  Bytes.set_uint8 b (l3 + 8) (ttl land 0xff);
  Bytes.set_uint8 b (l3 + 9) (flow.proto land 0xff);
  Bytes.set_uint16_be b (l3 + 10) 0;
  Bytes.set_int32_be b (l3 + 12) flow.src_ip;
  Bytes.set_int32_be b (l3 + 16) flow.dst_ip;
  Bytes.set_uint16_be b (l3 + 10) (Cksum.ipv4_header b ~off:l3);
  let l4 = l3 + Hdr.ipv4_min_len in
  write_l4 b ~off:l4 ~src_port:flow.src_port ~dst_port:flow.dst_port ~udp ~seq ~flags ~l4_len;
  if l4_csum then begin
    let field = l4 + (if udp then 6 else 16) in
    Bytes.set_uint16_be b field
      (Cksum.l4_of_header b ~l3_off:l3 ~l4_off:l4 ~hdr_len ~field ~proto:flow.proto ~l4_len
         ~payload_sum)
  end;
  l4 + hdr_len

let write_ipv6 b ~hop_limit ~src ~dst ~src_port ~dst_port ~udp ~seq ~flags ~payload_len =
  assert (Bytes.length src = 16 && Bytes.length dst = 16);
  let l3 = write_eth b ~vlan:(-1) ~ethertype:Hdr.Ethertype.ipv6 in
  let l4_len = l4_header_len ~udp + payload_len in
  (* Version 6, traffic class 0, flow label 0. *)
  Bytes.set_uint16_be b l3 0x6000;
  Bytes.set_uint16_be b (l3 + 2) 0;
  Bytes.set_uint16_be b (l3 + 4) l4_len;
  Bytes.set_uint8 b (l3 + 6) (if udp then Hdr.Proto.udp else Hdr.Proto.tcp);
  Bytes.set_uint8 b (l3 + 7) (hop_limit land 0xff);
  Bytes.blit src 0 b (l3 + 8) 16;
  Bytes.blit dst 0 b (l3 + 24) 16;
  let l4 = l3 + Hdr.ipv6_len in
  write_l4 b ~off:l4 ~src_port ~dst_port ~udp ~seq ~flags ~l4_len;
  l4 + l4_header_len ~udp

let write_raw b ~len ~fill =
  assert (len >= Hdr.eth_len);
  Bytes.fill b 0 len fill;
  Bytes.fill b 0 12 '\xff';
  Bytes.set_uint16_be b 12 0x88b5

let kvs_get_len ~key_len = ipv4_len ~vlan:(-1) ~udp:true ~payload_len:(key_len + 6)

let write_kvs_get b ~flow ~key_len =
  let off =
    write_ipv4 b ~vlan:(-1) ~ttl:64 ~ip_id:0 ~flow ~udp:true ~seq:0 ~flags:0 ~l4_csum:false
      ~payload_len:(key_len + 6) ~payload_sum:0
  in
  Bytes.blit_string "get " 0 b off 4;
  Bytes.blit_string "\r\n" 0 b (off + 4 + key_len) 2;
  off + 4

let l4_fields = function
  | Tcp { seq; flags } -> (false, Int32.to_int seq, flags)
  | Udp -> (true, 0, 0)

let ipv4 ?vlan ?(ttl = 64) ?(ip_id = 0) ?(l4_csum = false) ?(payload = Bytes.empty)
    ~(flow : Fivetuple.t) l4 =
  let vlan = match vlan with Some vid -> vid land 0xfff | None -> -1 in
  let udp, seq, flags = l4_fields l4 in
  let payload_len = Bytes.length payload in
  let b = Bytes.create (ipv4_len ~vlan ~udp ~payload_len) in
  let off =
    write_ipv4 b ~vlan ~ttl ~ip_id ~flow ~udp ~seq ~flags ~l4_csum ~payload_len
      ~payload_sum:(if l4_csum then Cksum.ones_sum payload ~pos:0 ~len:payload_len else 0)
  in
  Bytes.blit payload 0 b off payload_len;
  Pkt.create b

let ipv6 ?(hop_limit = 64) ?(payload = Bytes.empty) ~src ~dst ~src_port ~dst_port l4 =
  let udp, seq, flags = l4_fields l4 in
  let payload_len = Bytes.length payload in
  let b = Bytes.create (ipv6_len ~udp ~payload_len) in
  let off =
    write_ipv6 b ~hop_limit ~src ~dst ~src_port ~dst_port ~udp ~seq ~flags ~payload_len
  in
  Bytes.blit payload 0 b off payload_len;
  Pkt.create b

let raw ~len ~fill =
  let b = Bytes.create (max len 0) in
  write_raw b ~len ~fill;
  Pkt.create b

let vxlan ~vni ~outer_flow ~inner =
  (* VXLAN header: flags (I bit set), 24b reserved, 24b VNI, 8b reserved. *)
  let vxlan_hdr = Bytes.make 8 '\x00' in
  Bitops.set_u8 vxlan_hdr 0 0x08;
  Bitops.set_bits vxlan_hdr ~bit_off:32 ~width:24 (Int64.of_int (vni land 0xFFFFFF));
  let payload = Bytes.create (8 + inner.Pkt.len) in
  Bytes.blit vxlan_hdr 0 payload 0 8;
  Bytes.blit inner.Pkt.buf 0 payload 8 inner.Pkt.len;
  let flow = { outer_flow with Fivetuple.proto = Hdr.Proto.udp; dst_port = 4789 } in
  ipv4 ~payload ~flow Udp

let kvs_get ~flow ~key =
  let key_len = String.length key in
  let b = Bytes.create (kvs_get_len ~key_len) in
  let off = write_kvs_get b ~flow ~key_len in
  Bytes.blit_string key 0 b off key_len;
  Pkt.create b

let corrupt_ipv4_checksum pkt =
  let b = Bytes.copy pkt.Pkt.buf in
  let p = Pkt.sub b ~len:pkt.Pkt.len in
  let v = Pkt.parse p in
  if v.l3_off >= 0 && v.is_ipv4 then begin
    let c = Bitops.get_u16_be b (v.l3_off + 10) in
    Bitops.set_u16_be b (v.l3_off + 10) (c lxor 0xffff)
  end;
  p
