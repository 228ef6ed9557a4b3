(* Tests for the software feature substrate: Toeplitz RSS against the
   Microsoft verification suite, CRC-32, KVS parsing, timestamps, each
   built-in feature's semantics, and the augmentation pipeline. *)

open Softnic

let check = Alcotest.check

let ai32 = Alcotest.int32
let ai64 = Alcotest.int64
let ab = Alcotest.bool

(* A builtin feature, by name. *)
let builtin name = Option.get (Registry.find (Registry.builtin ()) name)

let flow4 ~src ~dst ~sp ~dp proto =
  Packet.Fivetuple.make ~src_ip:src ~dst_ip:dst ~src_port:sp ~dst_port:dp ~proto

(* ------------------------------------------------------------------ *)
(* Toeplitz: the Microsoft RSS verification suite vectors. *)

(* Vectors from the Microsoft RSS hash verification suite:
   row 1: 66.9.149.187:2794 -> 161.142.100.80:1766
   row 2: 199.92.111.2:14230 -> 65.69.140.83:4739 *)
let test_toeplitz_ms_vector_1 () =
  let f = flow4 ~src:0x420995bbl ~dst:0xa18e6450l ~sp:2794 ~dp:1766 Packet.Hdr.Proto.tcp in
  check ai32 "tcp 4-tuple" 0x51ccc178l (Toeplitz.hash_flow f)

let test_toeplitz_ms_vector_2 () =
  let f = flow4 ~src:0xc75c6f02l ~dst:0x41458c53l ~sp:14230 ~dp:4739 Packet.Hdr.Proto.tcp in
  check ai32 "tcp 4-tuple #2" 0xc626b0eal (Toeplitz.hash_flow f)

let test_toeplitz_2tuple_vectors () =
  check ai32 "ip-only #1" 0x323e8fc2l (Toeplitz.hash_ipv4_2tuple 0x420995bbl 0xa18e6450l);
  check ai32 "ip-only #2" 0xd718262al (Toeplitz.hash_ipv4_2tuple 0xc75c6f02l 0x41458c53l)

let test_toeplitz_symmetric_key () =
  (* With the 0x6d5a-repeated key, swapping src/dst (and ports) must give
     the same hash — the property RSS++-style systems rely on. *)
  let key = Toeplitz.symmetric_key in
  let a = flow4 ~src:0x0a000001l ~dst:0x0a000002l ~sp:1111 ~dp:2222 6 in
  let b = flow4 ~src:0x0a000002l ~dst:0x0a000001l ~sp:2222 ~dp:1111 6 in
  check ai32 "symmetric" (Toeplitz.hash_flow ~key a) (Toeplitz.hash_flow ~key b)

let test_toeplitz_pkt_consistency () =
  (* hash_pkt on a built TCP packet equals hash_flow of its tuple. *)
  let f = flow4 ~src:0x0a010203l ~dst:0xc0a80105l ~sp:4321 ~dp:443 Packet.Hdr.Proto.tcp in
  let pkt = Packet.Builder.ipv4 ~flow:f (Packet.Builder.Tcp { seq = 0l; flags = 0x10 }) in
  let v = Packet.Pkt.parse pkt in
  check ai32 "pkt == flow" (Toeplitz.hash_flow f) (Toeplitz.hash_pkt pkt v)

let test_toeplitz_ipv6 () =
  (* Microsoft verification suite row 1 for IPv6 with ports:
     3ffe:2501:200:1fff::7 : 2794 -> 3ffe:2501:200:3::1 : 1766
     -> hash 0x40207d3d *)
  let of_hex s =
    Bytes.init 16 (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  in
  let src = of_hex "3ffe250102001fff0000000000000007" in
  let dst = of_hex "3ffe2501020000030000000000000001" in
  check ai32 "ms ipv6 4-tuple" 0x40207d3dl
    (Toeplitz.hash_ipv6_flow ~src ~dst ~src_port:2794 ~dst_port:1766 ());
  (* hash_pkt routes ipv6 packets to the 36-byte input *)
  let pkt =
    Packet.Builder.ipv6 ~src ~dst ~src_port:2794 ~dst_port:1766
      (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  check ai32 "pkt == flow (v6)" 0x40207d3dl
    (Toeplitz.hash_pkt pkt (Packet.Pkt.parse pkt))

let test_toeplitz_nonip_is_zero () =
  let pkt = Packet.Builder.raw ~len:64 ~fill:'a' in
  check ai32 "non-ip" 0l (Toeplitz.hash_pkt pkt (Packet.Pkt.parse pkt))

(* The reference the per-key tables are checked against: the Microsoft
   spec's loop, which XORs in the 32-bit key window at bit [i] for every
   set input bit [i] (MSB-first). *)
let bitwise_toeplitz key input =
  let result = ref 0l in
  for i = 0 to (8 * Bytes.length input) - 1 do
    let byte = Char.code (Bytes.get input (i / 8)) in
    if byte land (1 lsl (7 - (i mod 8))) <> 0 then begin
      let window = Packet.Bitops.get_bits key ~bit_off:i ~width:32 in
      result := Int32.logxor !result (Int64.to_int32 window)
    end
  done;
  !result

let prop_toeplitz_table_equals_bitwise =
  let n_bytes n = QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (return n))) in
  QCheck.Test.make ~name:"table hash = bitwise loop (random keys, 0-36 B inputs)"
    ~count:500
    QCheck.(
      make
        Gen.(pair (n_bytes 40) (int_bound 36 >>= n_bytes))
        ~print:(fun (k, i) ->
          Printf.sprintf "key=%S input=%S" (Bytes.to_string k) (Bytes.to_string i)))
    (fun (key, input) ->
      Int32.equal (bitwise_toeplitz key input)
        (Toeplitz.hash ~key:(Toeplitz.key_of_bytes key) input))

(* [hash_pkt] reads the RSS input out of the packet; it must agree with
   the tuple-level entry points on every packet kind it distinguishes. *)
let test_toeplitz_pkt_kinds () =
  let tcp4 = flow4 ~src:0x0a000001l ~dst:0xc0a80001l ~sp:5555 ~dp:80 Packet.Hdr.Proto.tcp in
  let udp4 = flow4 ~src:0x0b000001l ~dst:0x0b000002l ~sp:53 ~dp:4000 Packet.Hdr.Proto.udp in
  let hash_of pkt = Toeplitz.hash_pkt pkt (Packet.Pkt.parse pkt) in
  let tcp l4 = Packet.Builder.Tcp { seq = 1l; flags = l4 } in
  check ai32 "ipv4 tcp" (Toeplitz.hash_flow tcp4) (hash_of (Packet.Builder.ipv4 ~flow:tcp4 (tcp 0)));
  check ai32 "ipv4 udp" (Toeplitz.hash_flow udp4)
    (hash_of (Packet.Builder.ipv4 ~flow:udp4 Packet.Builder.Udp));
  check ai32 "vlan-tagged" (Toeplitz.hash_flow tcp4)
    (hash_of (Packet.Builder.ipv4 ~vlan:42 ~flow:tcp4 (tcp 0x10)));
  (* Other IPv4 (here ICMP): the address-only input. *)
  let icmp = Packet.Builder.ipv4 ~flow:tcp4 (tcp 0) in
  let v = Packet.Pkt.parse icmp in
  Bytes.set icmp.buf (v.l3_off + 9) '\x01';
  check ai32 "other ipv4" (Toeplitz.hash_ipv4_2tuple tcp4.src_ip tcp4.dst_ip) (hash_of icmp);
  let src = Bytes.init 16 (fun i -> Char.chr (0x20 + i)) in
  let dst = Bytes.init 16 (fun i -> Char.chr (0xf0 - i)) in
  List.iter
    (fun (name, l4) ->
      check ai32 name
        (Toeplitz.hash_ipv6_flow ~src ~dst ~src_port:1234 ~dst_port:443 ())
        (hash_of (Packet.Builder.ipv6 ~src ~dst ~src_port:1234 ~dst_port:443 l4)))
    [ ("ipv6 tcp", tcp 0); ("ipv6 udp", Packet.Builder.Udp) ];
  check ai32 "non-ip" 0l (hash_of (Packet.Builder.raw ~len:80 ~fill:'z'))

let test_toeplitz_rejects_short_keys () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "37-byte input" (fun () -> Toeplitz.hash (Bytes.make 37 'x'));
  let short = Toeplitz.key_of_bytes (Bytes.make 12 'k') in
  raises "4-tuple under a 12-byte key" (fun () ->
      Toeplitz.hash_flow ~key:short (flow4 ~src:1l ~dst:2l ~sp:3 ~dp:4 6));
  raises "3-byte key" (fun () -> Toeplitz.hash ~key:(Toeplitz.key_of_bytes (Bytes.make 3 'k')) Bytes.empty);
  raises "15-byte ipv6 address" (fun () ->
      Toeplitz.hash_ipv6_flow ~src:(Bytes.make 15 'a') ~dst:(Bytes.make 16 'b') ~src_port:1
        ~dst_port:2 ());
  check ai32 "an 8-byte input fits a 12-byte key"
    (bitwise_toeplitz (Bytes.make 12 'k') (Bytes.make 8 'i'))
    (Toeplitz.hash ~key:short (Bytes.make 8 'i'))

let prop_toeplitz_flow_stable =
  QCheck.Test.make ~name:"toeplitz is per-flow stable" ~count:200
    QCheck.(quad int32 int32 (int_bound 65535) (int_bound 65535))
    (fun (src, dst, sp, dp) ->
      let f = flow4 ~src ~dst ~sp ~dp 6 in
      Int32.equal (Toeplitz.hash_flow f) (Toeplitz.hash_flow f))

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc32_check_vector () =
  (* The canonical CRC-32 check value. *)
  let b = Bytes.of_string "123456789" in
  check ai32 "check vector" 0xCBF43926l (Crc32.digest b ~pos:0 ~len:9)

let test_crc32_empty () =
  check ai32 "empty" 0l (Crc32.digest Bytes.empty ~pos:0 ~len:0)

let test_crc32_differs_on_change () =
  let a = Bytes.of_string "hello world" in
  let b = Bytes.of_string "hello worle" in
  if Crc32.digest a ~pos:0 ~len:11 = Crc32.digest b ~pos:0 ~len:11 then
    Alcotest.fail "collision on single-byte change"

(* ------------------------------------------------------------------ *)
(* KVS *)

let udp_flow = flow4 ~src:1l ~dst:2l ~sp:1000 ~dp:11211 Packet.Hdr.Proto.udp

let test_kvs_extracts_key () =
  let pkt = Packet.Builder.kvs_get ~flow:udp_flow ~key:"session:42" in
  check (Alcotest.option Alcotest.string) "key" (Some "session:42")
    (Kvs.key_of_pkt pkt (Packet.Pkt.parse pkt))

let test_kvs_rejects_non_get () =
  let payload = Bytes.of_string "set foo 0 0 3\r\nbar\r\n" in
  let pkt = Packet.Builder.ipv4 ~payload ~flow:udp_flow Packet.Builder.Udp in
  check ab "set is not a get" true
    (Kvs.key_of_pkt pkt (Packet.Pkt.parse pkt) = None)

let test_kvs_rejects_tcp () =
  let flow = { udp_flow with Packet.Fivetuple.proto = Packet.Hdr.Proto.tcp } in
  let payload = Bytes.of_string "get x\r\n" in
  let pkt =
    Packet.Builder.ipv4 ~payload ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  check ab "kvs is udp-only here" true
    (Kvs.key_of_pkt pkt (Packet.Pkt.parse pkt) = None)

let test_kvs_empty_key () =
  check ab "empty key rejected" true
    (Kvs.key_of_payload (Bytes.of_string "get \r\n") ~pos:0 ~len:6 = None)

let test_kvs_fold_key () =
  check ai64 "short key left-aligned" 0x6162000000000000L (Kvs.fold_key "ab");
  check ai64 "8-byte key" 0x6161616161616161L (Kvs.fold_key "aaaaaaaa");
  check ai64 "long key truncated" (Kvs.fold_key "aaaaaaaa") (Kvs.fold_key "aaaaaaaabcd");
  check ai64 "empty" 0L (Kvs.fold_key "")

(* ------------------------------------------------------------------ *)
(* Tstamp *)

let test_tstamp_monotonic () =
  let c = Tstamp.create () in
  let a = Tstamp.now c in
  let b = Tstamp.now c in
  check ab "strictly increasing" true (Int64.compare b a > 0)

let test_tstamp_peek_does_not_advance () =
  let c = Tstamp.create () in
  let _ = Tstamp.now c in
  check ai64 "peek stable" (Tstamp.peek c) (Tstamp.peek c)

(* ------------------------------------------------------------------ *)
(* Features *)

let env () = Feature.make_env ()

let tcp_pkt =
  Packet.Builder.ipv4 ~vlan:77 ~ip_id:0x4242 ~l4_csum:true
    ~payload:(Bytes.make 16 'd')
    ~flow:(flow4 ~src:0x0a000001l ~dst:0xc0a80001l ~sp:5555 ~dp:80 Packet.Hdr.Proto.tcp)
    (Packet.Builder.Tcp { seq = 9l; flags = 0x18 })

let run feature pkt = Feature.apply feature (env ()) pkt

let test_feature_rss () =
  let expected =
    Toeplitz.hash_flow
      (flow4 ~src:0x0a000001l ~dst:0xc0a80001l ~sp:5555 ~dp:80 Packet.Hdr.Proto.tcp)
  in
  check ai64 "rss == toeplitz" (Int64.logand (Int64.of_int32 expected) 0xFFFFFFFFL)
    (run (builtin "rss") tcp_pkt)

let test_feature_vlan () = check ai64 "vlan tci" 77L (run (builtin "vlan") tcp_pkt)

let test_feature_pkt_len () =
  check ai64 "pkt_len" (Int64.of_int (Packet.Pkt.len tcp_pkt))
    (run (builtin "pkt_len") tcp_pkt)

let test_feature_ip_id () = check ai64 "ip_id" 0x4242L (run (builtin "ip_id") tcp_pkt)

let test_feature_l3_l4_types () =
  check ai64 "l3 ipv4" 1L (run (builtin "l3_type") tcp_pkt);
  check ai64 "l4 tcp" 1L (run (builtin "l4_type") tcp_pkt);
  let raw = Packet.Builder.raw ~len:60 ~fill:'x' in
  check ai64 "l3 none" 0L (run (builtin "l3_type") raw);
  check ai64 "l4 none" 0L (run (builtin "l4_type") raw)

let test_feature_rss_type () =
  check ai64 "tcp4" 2L (run (builtin "rss_type") tcp_pkt);
  let udp = Packet.Builder.ipv4 ~flow:udp_flow Packet.Builder.Udp in
  check ai64 "udp4" 3L (run (builtin "rss_type") udp)

let test_feature_csum_ok_good_and_bad () =
  check ai64 "valid packet" 1L (run (builtin "csum_ok") tcp_pkt);
  let bad = Packet.Builder.corrupt_ipv4_checksum tcp_pkt in
  check ai64 "corrupted packet" 0L (run (builtin "csum_ok") bad)

let test_feature_ip_checksum_matches_stored () =
  (* For a well-formed packet the computed value equals the stored one. *)
  let v = Packet.Pkt.parse tcp_pkt in
  check ai64 "computed == stored"
    (Int64.of_int (Packet.Pkt.ipv4_hdr_checksum tcp_pkt v))
    (run (builtin "ip_checksum") tcp_pkt)

let test_feature_kvs_key () =
  let pkt = Packet.Builder.kvs_get ~flow:udp_flow ~key:"k1" in
  check ai64 "kvs key folded" (Kvs.fold_key "k1") (run (builtin "kvs_key") pkt)

let test_feature_mark_uses_table () =
  let e = env () in
  let f = flow4 ~src:9l ~dst:10l ~sp:1 ~dp:2 Packet.Hdr.Proto.udp in
  let pkt = Packet.Builder.ipv4 ~flow:f Packet.Builder.Udp in
  check ai64 "no mark" 0L (Feature.apply (builtin "mark") e pkt);
  Hashtbl.replace e.flow_marks f 0xFEEDl;
  check ai64 "mark installed" 0xFEEDL (Feature.apply (builtin "mark") e pkt)

let test_feature_lro_num_seg () =
  check ai64 "single segment" 1L (run (builtin "lro_num_seg") tcp_pkt)

let test_feature_tunnel_vni () =
  let inner =
    Packet.Builder.ipv4
      ~flow:(flow4 ~src:1l ~dst:2l ~sp:10 ~dp:20 Packet.Hdr.Proto.tcp)
      (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  let outer = flow4 ~src:3l ~dst:4l ~sp:40000 ~dp:4789 Packet.Hdr.Proto.udp in
  let pkt = Packet.Builder.vxlan ~vni:0xABCDE ~outer_flow:outer ~inner in
  check ai64 "vni extracted" 0xABCDEL (run (builtin "tunnel_vni") pkt);
  (* non-vxlan traffic reads 0 *)
  check ai64 "plain tcp is 0" 0L (run (builtin "tunnel_vni") tcp_pkt)

let test_feature_flow_pkts_stateful () =
  let e = env () in
  let f1 = flow4 ~src:1l ~dst:2l ~sp:10 ~dp:20 Packet.Hdr.Proto.tcp in
  let f2 = { f1 with Packet.Fivetuple.src_port = 11 } in
  let p1 = Packet.Builder.ipv4 ~flow:f1 (Packet.Builder.Tcp { seq = 0l; flags = 0 }) in
  let p2 = Packet.Builder.ipv4 ~flow:f2 (Packet.Builder.Tcp { seq = 0l; flags = 0 }) in
  check ai64 "first of flow1" 1L (Feature.apply (builtin "flow_pkts") e p1);
  check ai64 "second of flow1" 2L (Feature.apply (builtin "flow_pkts") e p1);
  check ai64 "first of flow2" 1L (Feature.apply (builtin "flow_pkts") e p2);
  check ai64 "third of flow1" 3L (Feature.apply (builtin "flow_pkts") e p1);
  (* non-flow traffic does not count *)
  check ai64 "raw frame" 0L
    (Feature.apply (builtin "flow_pkts") e (Packet.Builder.raw ~len:64 ~fill:'n'))

let test_feature_crc_matches_crc32 () =
  check ai64 "crc == crc32 of frame"
    (Int64.logand (Int64.of_int32 (Crc32.of_pkt tcp_pkt)) 0xFFFFFFFFL)
    (run (builtin "crc") tcp_pkt)

let test_feature_timestamp_monotonic () =
  let e = env () in
  let a = Feature.apply (builtin "timestamp") e tcp_pkt in
  let b = Feature.apply (builtin "timestamp") e tcp_pkt in
  check ab "monotonic" true (Int64.compare b a > 0)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_builtin_complete () =
  let r = Registry.builtin () in
  List.iter
    (fun (f : Feature.t) ->
      if not (Registry.mem r f.semantic) then
        Alcotest.failf "builtin registry missing %s" f.semantic)
    Registry.all

let test_registry_register_replaces () =
  let r = Registry.empty () in
  Registry.register r (builtin "rss");
  let custom = { (builtin "rss") with cost_cycles = 1.0 } in
  Registry.register r custom;
  match Registry.find r "rss" with
  | Some f -> check (Alcotest.float 0.01) "replaced" 1.0 f.cost_cycles
  | None -> Alcotest.fail "missing after register"

let test_registry_names_sorted () =
  let r = Registry.builtin () in
  let names = Registry.names r in
  check ab "sorted" true (List.sort String.compare names = names)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let test_pipeline_runs_in_order () =
  let p = Pipeline.create [ builtin "vlan"; builtin "pkt_len" ] in
  match Pipeline.run p tcp_pkt with
  | [ ("vlan", v); ("pkt_len", l) ] ->
      check ai64 "vlan" 77L v;
      check ai64 "len" (Int64.of_int (Packet.Pkt.len tcp_pkt)) l
  | other -> Alcotest.failf "unexpected results (%d entries)" (List.length other)

let test_pipeline_of_semantics_ok () =
  let r = Registry.builtin () in
  match Pipeline.of_semantics r [ "rss"; "vlan" ] with
  | Ok p ->
      check (Alcotest.list Alcotest.string) "semantics" [ "rss"; "vlan" ]
        (Pipeline.semantics p)
  | Error e -> Alcotest.failf "unexpected error %s" e

let test_pipeline_of_semantics_missing () =
  let r = Registry.builtin () in
  match Pipeline.of_semantics r [ "rss"; "wire_timestamp" ] with
  | Ok _ -> Alcotest.fail "wire_timestamp should have no software implementation"
  | Error s -> check Alcotest.string "names the culprit" "wire_timestamp" s

let test_pipeline_cost_is_sum () =
  let p = Pipeline.create [ builtin "rss"; builtin "vlan" ] in
  check (Alcotest.float 0.01) "cost"
    ((builtin "rss").cost_cycles +. (builtin "vlan").cost_cycles)
    (Pipeline.cost_cycles p)

(* ------------------------------------------------------------------ *)

(* The codec's flow hash is [Fivetuple.hash_fold] computed on ints; the
   boxed hash stays the reference. Addresses cover the whole int32 range
   (the top bit set included), ports and protocols their field widths,
   plus arbitrary ints for the tagged-word fold. *)
let prop_flow_hash_equals_hash_fold =
  let tuple =
    QCheck.Gen.(
      map
        (fun ((src_ip, dst_ip), (src_port, dst_port, proto)) ->
          Packet.Fivetuple.make ~src_ip ~dst_ip ~src_port ~dst_port ~proto)
        (pair (pair ui32 ui32)
           (triple
              (oneof [ int_bound 65535; int ])
              (oneof [ int_bound 65535; int ])
              (oneof [ int_bound 255; int ]))))
  in
  QCheck.Test.make ~name:"codec flow hash = Fivetuple.hash_fold" ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" Packet.Fivetuple.pp) tuple)
    (fun (f : Packet.Fivetuple.t) ->
      Codec.flow_hash ~src_ip:(Int32.to_int f.src_ip) ~dst_ip:(Int32.to_int f.dst_ip)
        ~src_port:f.src_port ~dst_port:f.dst_port ~proto:f.proto
      = Packet.Fivetuple.hash_fold f)

(* ------------------------------------------------------------------ *)
(* The field shape against a bit-at-a-time reference that shares no code
   with [Codec] or [Packet.Bitops]: record bit [k] is bit [7 - k mod 8]
   of byte [k / 8], and a field's first bit is its value's top bit. *)

let ref_bit b k = (Char.code (Bytes.get b (k / 8)) lsr (7 - (k mod 8))) land 1

let ref_read b ~bit_off ~bits =
  if bits > 64 then 0L
  else begin
    let v = ref 0L in
    for k = bit_off to bit_off + bits - 1 do
      v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int (ref_bit b k))
    done;
    !v
  end

let ref_write b ~bit_off ~bits v =
  if bits <= 64 then
    for k = bit_off to bit_off + bits - 1 do
      let bit = Int64.to_int (Int64.shift_right_logical v (bit_off + bits - 1 - k)) land 1 in
      let m = 0x80 lsr (k mod 8) in
      let c = Char.code (Bytes.get b (k / 8)) in
      Bytes.set b (k / 8) (Char.chr (if bit = 1 then c lor m else c land lnot m))
    done

(* Every [bit_off] in 0..511 and [bits] in 1..160, on a buffer that ends
   at the field's last byte and on one 8 bytes longer, both pre-filled
   with random bytes: a write of a random value leaves exactly the bytes
   the reference writer leaves (the value under the field's mask, no
   other bit moved), and every read returns what the reference reads.
   [write_int] and [read_int] are checked up to 62 bits and past 64,
   where a field is never written and reads as 0. *)
let test_shape_exhaustive () =
  let rng = Random.State.make [| 23 |] in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.ksprintf (fun msg -> if !failures <= 5 then prerr_endline msg) fmt
  in
  for bit_off = 0 to 511 do
    for bits = 1 to 160 do
      let shape = Codec.shape ~bit_off ~bits in
      let last = (bit_off + bits - 1) / 8 and ints = bits <= 62 || bits > 64 in
      List.iter
        (fun len ->
          let orig = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
          let v = Random.State.bits64 rng in
          let expected = Bytes.copy orig in
          ref_write expected ~bit_off ~bits v;
          let check_write what write =
            let b = Bytes.copy orig in
            write b;
            if not (Bytes.equal b expected) then
              fail "%s bit_off=%d bits=%d len=%d: wrote %s, reference %s" what bit_off
                bits len (Bytes.to_string b |> String.escaped)
                (Bytes.to_string expected |> String.escaped)
          in
          check_write "write_int64" (fun b -> Codec.write_int64 b shape v);
          if ints then
            check_write "write_int" (fun b -> Codec.write_int b shape (Int64.to_int v));
          let want = ref_read orig ~bit_off ~bits in
          let got = Codec.read_int64 orig shape in
          if not (Int64.equal got want) then
            fail "read_int64 bit_off=%d bits=%d len=%d: %Lx, reference %Lx" bit_off bits len
              got want;
          if ints && Codec.read_int orig shape <> Int64.to_int want then
            fail "read_int bit_off=%d bits=%d len=%d: %x, reference %Lx" bit_off bits len
              (Codec.read_int orig shape) want)
        [ last + 1; last + 9 ]
    done
  done;
  check Alcotest.int "cases that disagree with the reference" 0 !failures

(* [core_of] is an identity test: the builtins map to their cores, and a
   wrapper around a builtin's [compute], or a builtin without a core,
   does not. *)
let test_registry_core_of () =
  List.iter
    (fun (f : Feature.t) ->
      check ab (f.semantic ^ " has a core") (f.semantic <> "kvs_key")
        (Registry.core_of f.compute <> None))
    Registry.all;
  check ab "rss core" true (Registry.core_of (builtin "rss").compute = Some Codec.Rss);
  let wrapped env pkt v = (builtin "rss").compute env pkt v in
  check ab "a wrapper has no core" true (Registry.core_of wrapped = None)

(* ------------------------------------------------------------------ *)
(* The semantic table. The literals below are the hand-written lists the
   table replaced (Semantic.hardware_only, Validate.nondeterministic and
   stateful, Hoststacks.dpdk_standard_set and xdp_exposed_set), as they
   read before it existed. *)

let names_where p =
  List.filter_map
    (fun (r : Semantic.row) -> if p r then Some r.info.name else None)
    Semantic.rows

let flagged flag = names_where (fun r -> List.mem flag r.flags)
let sorted = List.sort String.compare
let strings = Alcotest.(list string)

let test_table_rows () =
  check Alcotest.int "rows" 26 (List.length Semantic.rows);
  check Alcotest.int "one row per name" 26
    (List.length (List.sort_uniq String.compare (names_where (fun _ -> true))));
  check strings "TX rows, in order"
    [ "buf_addr"; "tx_len"; "tx_flags"; "tx_l4_csum"; "tso_mss" ]
    (names_where (fun r -> r.dir = Tx));
  List.iter
    (fun (r : Semantic.row) ->
      check ab (r.info.name ^ ": a TX row has w = 0 and no implementation")
        (r.dir = Tx)
        (r.info.sw_cost = 0.0 && r.impl = None))
    Semantic.rows

let test_table_hardware_only () =
  check strings "w = infinity, in row order"
    [ "wire_timestamp"; "inline_crypto_tag"; "regex_match_id" ]
    (names_where (fun r -> r.info.sw_cost = infinity))

let test_table_checker_flags () =
  check strings "not deterministic" [ "timestamp"; "wire_timestamp" ]
    (flagged Nondeterministic);
  check strings "stateful" [ "flow_pkts" ] (flagged Stateful);
  check ab "a name with no row has no flag" false
    (Semantic.has Nondeterministic "no_such_semantic"
    || Semantic.has Stateful "no_such_semantic")

let test_table_host_stack_flags () =
  check strings "DPDK mbuf fields"
    (sorted [ "rss"; "vlan"; "pkt_len"; "csum_ok"; "mark"; "flow_id" ])
    (sorted (flagged Mbuf_field));
  check strings "XDP hints" [ "rss"; "vlan"; "timestamp"; "wire_timestamp" ]
    (flagged Xdp_hint);
  List.iter
    (fun s -> check ab s true (Semantic.has Xdp_hint s))
    [ "rss"; "vlan"; "timestamp"; "wire_timestamp" ];
  check ab "pkt_len has no XDP hint" false (Semantic.has Xdp_hint "pkt_len")

(* Every core is the implementation of exactly one host row; the only
   other row that names a core is wire_timestamp, hardware only, whose
   device implementation is the timestamp clock. *)
let test_table_cores () =
  let cores =
    Codec.
      [
        Rss; Rss_type; Ip_checksum; Csum_ok; L4_checksum; Vlan; Timestamp; Flow_id; Mark;
        Pkt_len; L3_type; L4_type; Ip_id; Lro_num_seg; Crc; Tunnel_vni; Flow_pkts;
      ]
  in
  let rows_of sem ~host =
    names_where (fun r ->
        r.impl = Some (Core sem) && Float.is_finite r.info.sw_cost = host)
  in
  List.iter
    (fun sem ->
      check Alcotest.int "host rows with this core" 1 (List.length (rows_of sem ~host:true));
      check strings "hardware-only rows with this core"
        (if sem = Codec.Timestamp then [ "wire_timestamp" ] else [])
        (rows_of sem ~host:false))
    cores;
  check ab "kvs_key is a boxed compute" true
    (match Semantic.row "kvs_key" with
    | Some { impl = Some (Compute _); _ } -> true
    | _ -> false)

let test_table_registries () =
  let r = Registry.builtin () in
  List.iter
    (fun (row : Semantic.row) ->
      let name = row.info.name in
      match (row.impl, Registry.find r name) with
      | Some _, Some f when Float.is_finite row.info.sw_cost ->
          check Alcotest.int (name ^ " width") row.info.width_bits f.width_bits;
          check (Alcotest.float 0.0) (name ^ " cost") row.info.sw_cost f.cost_cycles
      | Some _, None when row.info.sw_cost = infinity ->
          check ab (name ^ " is device-only") true
            (List.exists (fun (f : Feature.t) -> f.semantic = name) Registry.device_only)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: registry membership disagrees with its row" name)
    Semantic.rows;
  check strings "builtin names"
    (sorted (names_where (fun r -> r.impl <> None && Float.is_finite r.info.sw_cost)))
    (Registry.names r);
  check strings "device-only, in row order"
    [ "wire_timestamp"; "inline_crypto_tag"; "regex_match_id" ]
    (List.map (fun (f : Feature.t) -> f.semantic) Registry.device_only);
  let wire = List.hd Registry.device_only in
  check ab "wire_timestamp shares the timestamp core's compute" true
    (wire.compute == (builtin "timestamp").compute
    && Registry.core_of wire.compute = Some Codec.Timestamp)

let test_table_default_is_fresh () =
  let a = Semantic.default () and b = Semantic.default () in
  Semantic.register a { name = "custom"; width_bits = 8; sw_cost = 1.0; descr = "" };
  check ab "registered" true (Semantic.mem a "custom");
  check ab "another default does not see it" false (Semantic.mem b "custom");
  check Alcotest.int "every row" 26 (List.length (Semantic.names b));
  List.iter
    (fun (row : Semantic.row) ->
      check ab row.info.name true (Semantic.find b row.info.name = Some row.info))
    Semantic.rows

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =

  Alcotest.run "softnic"
    [
      ( "toeplitz",
        [
          Alcotest.test_case "MS vector 1" `Quick test_toeplitz_ms_vector_1;
          Alcotest.test_case "MS vector 2" `Quick test_toeplitz_ms_vector_2;
          Alcotest.test_case "MS 2-tuple vectors" `Quick test_toeplitz_2tuple_vectors;
          Alcotest.test_case "symmetric key" `Quick test_toeplitz_symmetric_key;
          Alcotest.test_case "pkt == flow" `Quick test_toeplitz_pkt_consistency;
          Alcotest.test_case "ipv6 MS vector" `Quick test_toeplitz_ipv6;
          Alcotest.test_case "non-ip is 0" `Quick test_toeplitz_nonip_is_zero;
          Alcotest.test_case "hash_pkt per packet kind" `Quick test_toeplitz_pkt_kinds;
          Alcotest.test_case "short keys rejected" `Quick test_toeplitz_rejects_short_keys;
        ]
        @ qsuite [ prop_toeplitz_flow_stable; prop_toeplitz_table_equals_bitwise ] );
      ( "codec",
          Alcotest.test_case "field shape = bit-at-a-time reference" `Quick
            test_shape_exhaustive
          :: qsuite [ prop_flow_hash_equals_hash_fold ] );
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_check_vector;
          Alcotest.test_case "empty" `Quick test_crc32_empty;
          Alcotest.test_case "sensitivity" `Quick test_crc32_differs_on_change;
        ] );
      ( "kvs",
        [
          Alcotest.test_case "extracts key" `Quick test_kvs_extracts_key;
          Alcotest.test_case "rejects non-get" `Quick test_kvs_rejects_non_get;
          Alcotest.test_case "rejects tcp" `Quick test_kvs_rejects_tcp;
          Alcotest.test_case "empty key" `Quick test_kvs_empty_key;
          Alcotest.test_case "fold_key" `Quick test_kvs_fold_key;
        ] );
      ( "tstamp",
        [
          Alcotest.test_case "monotonic" `Quick test_tstamp_monotonic;
          Alcotest.test_case "peek" `Quick test_tstamp_peek_does_not_advance;
        ] );
      ( "features",
        [
          Alcotest.test_case "rss" `Quick test_feature_rss;
          Alcotest.test_case "vlan" `Quick test_feature_vlan;
          Alcotest.test_case "pkt_len" `Quick test_feature_pkt_len;
          Alcotest.test_case "ip_id" `Quick test_feature_ip_id;
          Alcotest.test_case "l3/l4 types" `Quick test_feature_l3_l4_types;
          Alcotest.test_case "rss_type" `Quick test_feature_rss_type;
          Alcotest.test_case "csum_ok" `Quick test_feature_csum_ok_good_and_bad;
          Alcotest.test_case "ip_checksum" `Quick test_feature_ip_checksum_matches_stored;
          Alcotest.test_case "kvs_key" `Quick test_feature_kvs_key;
          Alcotest.test_case "mark table" `Quick test_feature_mark_uses_table;
          Alcotest.test_case "lro_num_seg" `Quick test_feature_lro_num_seg;
          Alcotest.test_case "tunnel_vni" `Quick test_feature_tunnel_vni;
          Alcotest.test_case "flow_pkts stateful" `Quick test_feature_flow_pkts_stateful;
          Alcotest.test_case "crc" `Quick test_feature_crc_matches_crc32;
          Alcotest.test_case "timestamp" `Quick test_feature_timestamp_monotonic;
        ] );
      ( "registry",
        [
          Alcotest.test_case "builtin complete" `Quick test_registry_builtin_complete;
          Alcotest.test_case "register replaces" `Quick test_registry_register_replaces;
          Alcotest.test_case "names sorted" `Quick test_registry_names_sorted;
          Alcotest.test_case "core_of by identity" `Quick test_registry_core_of;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "rows and TX rows" `Quick test_table_rows;
          Alcotest.test_case "hardware-only is w = infinity" `Quick test_table_hardware_only;
          Alcotest.test_case "checker flags" `Quick test_table_checker_flags;
          Alcotest.test_case "host-stack flags" `Quick test_table_host_stack_flags;
          Alcotest.test_case "one host row per core" `Quick test_table_cores;
          Alcotest.test_case "registries are the rows'" `Quick test_table_registries;
          Alcotest.test_case "default is a fresh copy" `Quick test_table_default_is_fresh;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "runs in order" `Quick test_pipeline_runs_in_order;
          Alcotest.test_case "of_semantics ok" `Quick test_pipeline_of_semantics_ok;
          Alcotest.test_case "of_semantics missing" `Quick
            test_pipeline_of_semantics_missing;
          Alcotest.test_case "cost is sum" `Quick test_pipeline_cost_is_sum;
        ] );
    ]
