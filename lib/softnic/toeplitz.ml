(* A key carries its Toeplitz contributions precomputed per input byte:
   [table.((j lsl 8) lor b)] is the XOR of the 32-bit key windows at bits
   [8j+k] for every set bit [k] (MSB-first) of byte value [b] at input
   position [j]. Hashing is then one lookup and one XOR per input byte
   instead of a bit walk with a window extraction per set bit. [positions]
   is the longest input the key covers (negative for keys under 4 bytes,
   which cover not even the empty input). *)
type key = { bytes : bytes; positions : int; table : int array }

(* Input position [j] needs key bytes [j..j+4]: its eight windows start
   at bits [8j..8j+7] and run 32 bits each. *)
let key_of_bytes b =
  let bytes = Bytes.copy b in
  let positions = Bytes.length bytes - 4 in
  let table = Array.make (max 0 positions * 256) 0 in
  for j = 0 to positions - 1 do
    let w40 = ref 0 in
    for i = 0 to 4 do
      w40 := (!w40 lsl 8) lor Char.code (Bytes.get bytes (j + i))
    done;
    for v = 1 to 255 do
      let acc = ref 0 in
      for k = 0 to 7 do
        if v land (0x80 lsr k) <> 0 then
          acc := !acc lxor ((!w40 lsr (8 - k)) land 0xFFFFFFFF)
      done;
      table.((j lsl 8) lor v) <- !acc
    done
  done;
  { bytes; positions; table }

(* Microsoft RSS verification suite key (40 bytes). *)
let default_key =
  key_of_bytes @@ Bytes.of_string
    "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

let symmetric_key =
  key_of_bytes (Bytes.init 40 (fun i -> if i mod 2 = 0 then '\x6d' else '\x5a'))

let check_len key n =
  if n > key.positions then
    invalid_arg
      (Printf.sprintf "Toeplitz: a %d-byte input needs a key of at least %d bytes, got %d"
         n (n + 4) (Bytes.length key.bytes))

(* Fold [len] bytes of [buf] from [off] into [acc] as input positions
   [pos..pos+len-1]. Callers have checked [pos + len <= key.positions]. *)
let rec fold_bytes key acc ~pos buf off len =
  if len = 0 then acc
  else
    fold_bytes key
      (acc lxor Array.unsafe_get key.table ((pos lsl 8) lor Char.code (Bytes.get buf off)))
      ~pos:(pos + 1) buf (off + 1) (len - 1)

(* The low 16 bits of [v], big-endian, as input positions [pos], [pos+1]. *)
let fold_u16 key acc ~pos v =
  acc
  lxor Array.unsafe_get key.table ((pos lsl 8) lor ((v lsr 8) land 0xff))
  lxor Array.unsafe_get key.table (((pos + 1) lsl 8) lor (v land 0xff))

let fold_u32 key acc ~pos v =
  let v = Int32.to_int v in
  fold_u16 key (fold_u16 key acc ~pos (v lsr 16)) ~pos:(pos + 2) v

let fold_ports key acc ~pos src dst =
  fold_u16 key (fold_u16 key acc ~pos src) ~pos:(pos + 2) dst

let hash ?(key = default_key) input =
  let n = Bytes.length input in
  check_len key n;
  Int32.of_int (fold_bytes key 0 ~pos:0 input 0 n)

let hash_ipv4_2tuple ?(key = default_key) src dst =
  check_len key 8;
  Int32.of_int (fold_u32 key (fold_u32 key 0 ~pos:0 src) ~pos:4 dst)

let hash_flow ?(key = default_key) (f : Packet.Fivetuple.t) =
  check_len key 12;
  let acc = fold_u32 key (fold_u32 key 0 ~pos:0 f.src_ip) ~pos:4 f.dst_ip in
  Int32.of_int (fold_ports key acc ~pos:8 f.src_port f.dst_port)

let hash_ipv6_flow ?(key = default_key) ~src ~dst ~src_port ~dst_port () =
  if Bytes.length src <> 16 || Bytes.length dst <> 16 then
    invalid_arg "Toeplitz.hash_ipv6_flow: addresses must be 16 bytes";
  check_len key 36;
  let acc = fold_bytes key (fold_bytes key 0 ~pos:0 src 0 16) ~pos:16 dst 0 16 in
  Int32.of_int (fold_ports key acc ~pos:32 src_port dst_port)

(* The RSS input is read in place: the IPv4 source and destination are
   the 8 contiguous bytes at [l3+12], the IPv6 ones the 32 at [l3+8], and
   the ports come from the view. The parser sets [is_ipv4] / [is_ipv6]
   only when the whole fixed header lies inside the packet. *)
let hash_pkt_int key buf (v : Packet.Pkt.view) =
  let l4_hashed =
    v.l4_off >= 0
    && (v.l4_proto = Packet.Hdr.Proto.tcp || v.l4_proto = Packet.Hdr.Proto.udp)
  in
  if v.is_ipv4 && l4_hashed then begin
    check_len key 12;
    let acc = fold_bytes key 0 ~pos:0 buf (v.l3_off + 12) 8 in
    fold_ports key acc ~pos:8 v.src_port v.dst_port
  end
  else if v.is_ipv4 then begin
    check_len key 8;
    fold_bytes key 0 ~pos:0 buf (v.l3_off + 12) 8
  end
  else if v.is_ipv6 && l4_hashed then begin
    check_len key 36;
    let acc = fold_bytes key 0 ~pos:0 buf (v.l3_off + 8) 32 in
    fold_ports key acc ~pos:32 v.src_port v.dst_port
  end
  else 0

let hash_pkt ?(key = default_key) (pkt : Packet.Pkt.t) v =
  Int32.of_int (hash_pkt_int key pkt.buf v)
