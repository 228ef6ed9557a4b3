module Pkt = Packet.Pkt

type sem =
  | Rss
  | Rss_type
  | Ip_checksum
  | Csum_ok
  | L4_checksum
  | Vlan
  | Timestamp
  | Flow_id
  | Mark
  | Pkt_len
  | L3_type
  | L4_type
  | Ip_id
  | Lro_num_seg
  | Crc
  | Tunnel_vni
  | Flow_pkts

let tcp = Packet.Hdr.Proto.tcp
let udp = Packet.Hdr.Proto.udp

(* ------------------------------------------------------------------ *)
(* Shared facts. Each is an int, -1 when it does not apply, so the
   encoder passes them to every core without boxing. *)

let ipv4_sum buf ~len (v : Pkt.view) =
  if v.l3_off < 0 || not v.is_ipv4 then -1
  else Packet.Cksum.ipv4_header_within buf ~off:v.l3_off ~len

let l4_sum buf ~len v = Packet.Cksum.l4_sum buf ~v ~total_len:len

let needs_ipsum = function Ip_checksum | Csum_ok -> true | _ -> false
let needs_l4sum = function Csum_ok | L4_checksum -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Flow hash: [Packet.Fivetuple.hash_fold] on the key as ints. That is
   [Hashtbl.hash] of a pair of int32 addresses, then of a 4-tuple of
   ints; the runtime hashes a block by mixing its header (size << 10 |
   tag), an int32 by its 32 bits and an int by its tagged word (2n+1),
   with MurmurHash3's 32-bit mix and final avalanche, keeping 30 bits. *)

let m32 = 0xFFFFFFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let mix h d =
  let d = d * 0xcc9e2d51 land m32 in
  let d = rotl32 d 15 * 0x1b873593 land m32 in
  let h = rotl32 (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land m32

let final_mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land m32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land m32 in
  (h lxor (h lsr 16)) land 0x3FFFFFFF

(* [n]'s tagged word [2n+1] as the runtime folds a 64-bit word to 32
   bits: [(d asr 32) lxor (d asr 63) lxor d]. *)
let mix_int h n = mix h ((n asr 31) lxor (n asr 62) lxor ((2 * n) + 1) land m32)

(* The two blocks' headers, mixed into the seed 0. *)
let pair_seed = mix 0 (2 lsl 10)
let quad_seed = mix 0 (4 lsl 10)

let flow_hash ~src_ip ~dst_ip ~src_port ~dst_port ~proto =
  let addrs = final_mix (mix (mix pair_seed (src_ip land m32)) (dst_ip land m32)) in
  final_mix (mix_int (mix_int (mix_int (mix_int quad_seed addrs) src_port) dst_port) proto)

(* ------------------------------------------------------------------ *)
(* The cores: one per builtin semantic, each an int (unsigned, at most 32
   bits, or a clock reading). [Registry] boxes them into [compute]. *)

let u32 b off = Int32.to_int (Bytes.get_int32_be b off) land m32

let is_flow (v : Pkt.view) =
  v.is_ipv4 && (v.l4_proto = tcp || v.l4_proto = udp) && v.l4_off >= 0

let rss (env : Feature.env) buf v = Toeplitz.hash_pkt_int env.rss_key buf v

let rss_type (v : Pkt.view) =
  if not v.is_ipv4 then 0
  else if v.l4_proto = tcp && v.l4_off >= 0 then 2
  else if v.l4_proto = udp && v.l4_off >= 0 then 3
  else 1

let ip_checksum ~ipsum = max ipsum 0

(* An IPv4 header that does not verify, or does not fit the frame, is
   not ok. L4 verifies when absent, when equal to its sum, or when its
   stored checksum is 0 ("not computed" in UDP). *)
let csum_ok buf (v : Pkt.view) ~ipsum ~l4sum =
  if ipsum < 0 || ipsum <> Bytes.get_uint16_be buf (v.l3_off + 10) then 0
  else if l4sum < 0 then 1
  else
    let stored =
      Bytes.get_uint16_be buf (if v.l4_proto = tcp then v.l4_off + 16 else v.l4_off + 6)
    in
    if stored = 0 || stored = l4sum then 1 else 0

let l4_checksum ~l4sum = max l4sum 0
let vlan (v : Pkt.view) = v.vlan_tci land 0xffff
let timestamp (env : Feature.env) = Tstamp.tick env.clock

let flow_id buf v =
  if not (is_flow v) then 0
  else
    flow_hash ~src_ip:(u32 buf (v.l3_off + 12)) ~dst_ip:(u32 buf (v.l3_off + 16))
      ~src_port:v.src_port ~dst_port:v.dst_port ~proto:v.l4_proto

(* The mark table is keyed by [Fivetuple.t], so a lookup builds the key;
   with no mark installed there is nothing to look up. *)
let mark (env : Feature.env) buf ~len v =
  if Hashtbl.length env.flow_marks = 0 then 0
  else
    match Packet.Fivetuple.of_pkt { Pkt.buf; len } v with
    | None -> 0
    | Some f -> (
        match Hashtbl.find_opt env.flow_marks f with
        | None -> 0
        | Some m -> Int32.to_int m land m32)

let l3_type (v : Pkt.view) = if v.is_ipv4 then 1 else if v.is_ipv6 then 2 else 0

let l4_type (v : Pkt.view) =
  if v.l4_off < 0 then if v.l4_proto >= 0 then 3 else 0
  else if v.l4_proto = tcp then 1
  else if v.l4_proto = udp then 2
  else 3

let ip_id buf (v : Pkt.view) =
  if v.is_ipv4 && v.l3_off >= 0 then Bytes.get_uint16_be buf (v.l3_off + 4) else 0

let lro_num_seg ~len = if len > 0 then 1 else 0
let crc buf ~len = Crc32.digest_int 0 buf ~pos:0 ~len

(* VXLAN: UDP destination 4789, 8-byte header after the UDP header with
   the I flag set, VNI in bytes 4..6. *)
let tunnel_vni buf ~len (v : Pkt.view) =
  let p = v.payload_off in
  if
    v.l4_proto = udp && v.dst_port = 4789 && p >= 0
    && p + 8 <= len
    && Bytes.get_uint8 buf p land 0x08 <> 0
  then (Bytes.get_uint16_be buf (p + 4) lsl 8) lor Bytes.get_uint8 buf (p + 6)
  else 0

let flow_pkts (env : Feature.env) buf ~len v =
  match Packet.Fivetuple.of_pkt { Pkt.buf; len } v with
  | None -> 0
  | Some f ->
      let n =
        (match Hashtbl.find_opt env.flow_counters f with Some n -> n | None -> 0) + 1
      in
      Hashtbl.replace env.flow_counters f n;
      n land 0xFFFF

let value sem env buf ~len v ~ipsum ~l4sum =
  match sem with
  | Rss -> rss env buf v
  | Rss_type -> rss_type v
  | Ip_checksum -> ip_checksum ~ipsum
  | Csum_ok -> csum_ok buf v ~ipsum ~l4sum
  | L4_checksum -> l4_checksum ~l4sum
  | Vlan -> vlan v
  | Timestamp -> timestamp env
  | Flow_id -> flow_id buf v
  | Mark -> mark env buf ~len v
  | Pkt_len -> len
  | L3_type -> l3_type v
  | L4_type -> l4_type v
  | Ip_id -> ip_id buf v
  | Lro_num_seg -> lro_num_seg ~len
  | Crc -> crc buf ~len
  | Tunnel_vni -> tunnel_vni buf ~len v
  | Flow_pkts -> flow_pkts env buf ~len v

let eval sem env buf ~len v =
  value sem env buf ~len v
    ~ipsum:(if needs_ipsum sem then ipv4_sum buf ~len v else -1)
    ~l4sum:(if needs_l4sum sem then l4_sum buf ~len v else -1)

(* ------------------------------------------------------------------ *)
(* A field's shape: the one rule for reading and writing a field.
   Fields are MSB-first: bit 0 of a record is the top bit of byte 0, as
   a P4 header reads left to right. A field within 7 bytes is an int
   over the bytes it spans; only fields spread over 8 or 9 bytes take
   the bit walk. No shape touches a byte outside its field. *)

type shape =
  | Skip
  | U8 of int
  | U16 of int
  | U32 of int
  | U64 of int
  | Bits of { first : int; nbytes : int; shift : int; mask : int }
  | Wide of { bit_off : int; bits : int }

let shape ~bit_off ~bits =
  let first = bit_off / 8 in
  let nbytes = ((bit_off + bits - 1) / 8) - first + 1 in
  if bits > 64 then Skip
  else if bit_off mod 8 = 0 && bits = 8 then U8 first
  else if bit_off mod 8 = 0 && bits = 16 then U16 first
  else if bit_off mod 8 = 0 && bits = 32 then U32 first
  else if bit_off mod 8 = 0 && bits = 64 then U64 first
  else if nbytes <= 7 then
    Bits
      {
        first;
        nbytes;
        shift = (8 * (first + nbytes)) - (bit_off + bits);
        mask = (1 lsl bits) - 1;
      }
  else Wide { bit_off; bits }

let read_bits b ~first ~nbytes ~shift ~mask =
  let w = ref 0 in
  for i = first to first + nbytes - 1 do
    w := (!w lsl 8) lor Bytes.get_uint8 b i
  done;
  (!w lsr shift) land mask

(* The first byte's low bits, the middle bytes, then the last byte's
   high bits. Past 62 bits the int wraps. *)
let read_walk b ~bit_off ~bits =
  let first = bit_off / 8 and last = (bit_off + bits - 1) / 8 in
  let tail = ((bit_off + bits - 1) mod 8) + 1 in
  let w = ref (Bytes.get_uint8 b first land (0xff lsr (bit_off mod 8))) in
  for i = first + 1 to last - 1 do
    w := (!w lsl 8) lor Bytes.get_uint8 b i
  done;
  (!w lsl tail) lor (Bytes.get_uint8 b last lsr (8 - tail))

let read_int b = function
  | Skip -> 0
  | U8 off -> Bytes.get_uint8 b off
  | U16 off -> Bytes.get_uint16_be b off
  | U32 off -> Int32.to_int (Bytes.get_int32_be b off) land m32
  | U64 off -> Int64.to_int (Bytes.get_int64_be b off)
  | Bits { first; nbytes; shift; mask } -> read_bits b ~first ~nbytes ~shift ~mask
  | Wide { bit_off; bits } -> read_walk b ~bit_off ~bits

let read_int64 b shape =
  match shape with
  | U64 off -> Bytes.get_int64_be b off
  | Wide { bit_off; bits } -> Packet.Bitops.get_bits b ~bit_off ~width:bits
  | Skip | U8 _ | U16 _ | U32 _ | Bits _ -> Int64.of_int (read_int b shape)

let write_bits b ~first ~nbytes ~shift ~mask v =
  if nbytes = 1 then
    Bytes.set_uint8 b first
      (Bytes.get_uint8 b first land lnot (mask lsl shift) lor ((v land mask) lsl shift))
  else begin
    let w = ref 0 in
    for i = first to first + nbytes - 1 do
      w := (!w lsl 8) lor Bytes.get_uint8 b i
    done;
    let w = !w land lnot (mask lsl shift) lor ((v land mask) lsl shift) in
    for i = 0 to nbytes - 1 do
      Bytes.set_uint8 b (first + i) ((w lsr (8 * (nbytes - 1 - i))) land 0xff)
    done
  end

let write_int b shape v =
  match shape with
  | Skip -> ()
  | U8 off -> Bytes.set_uint8 b off (v land 0xff)
  | U16 off -> Bytes.set_uint16_be b off (v land 0xffff)
  | U32 off -> Bytes.set_int32_be b off (Int32.of_int v)
  | U64 off -> Bytes.set_int64_be b off (Int64.of_int v)
  | Bits { first; nbytes; shift; mask } -> write_bits b ~first ~nbytes ~shift ~mask v
  | Wide { bit_off; bits } ->
      Packet.Bitops.set_bits b ~bit_off ~width:bits (Int64.of_int v)

let write_int64 b shape v =
  match shape with
  | U64 off -> Bytes.set_int64_be b off v
  | Wide { bit_off; bits } -> Packet.Bitops.set_bits b ~bit_off ~width:bits v
  | Skip | U8 _ | U16 _ | U32 _ | Bits _ -> write_int b shape (Int64.to_int v)

(* ------------------------------------------------------------------ *)
(* The encoder. *)

type producer = Feature.env -> Pkt.t -> Pkt.view -> int64
type source = Const of int64 | Core of sem | Boxed of producer
type op = Op_core of sem * shape | Op_boxed of producer * shape

type encoder = {
  template : bytes;  (** zeros and the constant fields *)
  ops : op array;  (** every other field, in layout order *)
  need_ipsum : bool;
  need_l4sum : bool;
  need_pkt : bool;  (** some op is [Op_boxed]: its producer takes a [Pkt.t] *)
}

let encoder ~size_bytes fields =
  let template = Bytes.make size_bytes '\000' in
  let ops =
    List.filter_map
      (fun (bit_off, bits, source) ->
        let shape = shape ~bit_off ~bits in
        match source with
        | Const v ->
            write_int64 template shape v;
            None
        | Core sem -> Some (Op_core (sem, shape))
        | Boxed p -> Some (Op_boxed (p, shape)))
      fields
  in
  let needs f = List.exists (function Op_core (s, _) -> f s | Op_boxed _ -> false) ops in
  {
    template;
    ops = Array.of_list ops;
    need_ipsum = needs needs_ipsum;
    need_l4sum = needs needs_l4sum;
    need_pkt = List.exists (function Op_boxed _ -> true | Op_core _ -> false) ops;
  }

let size_bytes e = Bytes.length e.template

(* Stands in for the packet when no producer will read it. *)
let no_pkt = Pkt.create Bytes.empty

let encode e env buf ~len v cmpt =
  Bytes.blit e.template 0 cmpt 0 (Bytes.length e.template);
  let ipsum = if e.need_ipsum then ipv4_sum buf ~len v else -1 in
  let l4sum = if e.need_l4sum then l4_sum buf ~len v else -1 in
  let pkt = if e.need_pkt then { Pkt.buf; len } else no_pkt in
  let ops = e.ops in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Op_core (sem, shape) -> write_int cmpt shape (value sem env buf ~len v ~ipsum ~l4sum)
    | Op_boxed (produce, shape) -> write_int64 cmpt shape (produce env pkt v)
  done
