(* Tests for the packet substrate: bit operations, RNG, checksums,
   parsing, building, and workload generation. *)

open Packet

let check = Alcotest.check
let ai = Alcotest.int
let ai64 = Alcotest.int64
let ab = Alcotest.bool
let astr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Bitops *)

let test_bitops_aligned_u16 () =
  let b = Bytes.make 8 '\x00' in
  Bitops.set_u16_be b 2 0xBEEF;
  check ai "u16 be roundtrip" 0xBEEF (Bitops.get_u16_be b 2);
  Bitops.set_u16_le b 4 0xBEEF;
  check ai "u16 le roundtrip" 0xBEEF (Bitops.get_u16_le b 4);
  check ai "le byte order" 0xEF (Bitops.get_u8 b 4)

let test_bitops_aligned_u32_u64 () =
  let b = Bytes.make 16 '\x00' in
  Bitops.set_u32_be b 0 0xDEADBEEFl;
  check Alcotest.int32 "u32 be" 0xDEADBEEFl (Bitops.get_u32_be b 0);
  Bitops.set_u64_le b 8 0x0123456789ABCDEFL;
  check ai64 "u64 le" 0x0123456789ABCDEFL (Bitops.get_u64_le b 8)

let test_bits_matches_aligned_getters () =
  let b = Bytes.make 8 '\x00' in
  Bitops.set_u32_be b 2 0xCAFEBABEl;
  check ai64 "get_bits == get_u32_be" 0xCAFEBABEL
    (Bitops.get_bits b ~bit_off:16 ~width:32)

let test_bits_sub_byte () =
  let b = Bytes.make 2 '\x00' in
  (* Set bits 4..7 (low nibble of byte 0). *)
  Bitops.set_bits b ~bit_off:4 ~width:4 0xAL;
  check ai "low nibble" 0x0A (Bitops.get_u8 b 0);
  check ai64 "read back" 0xAL (Bitops.get_bits b ~bit_off:4 ~width:4);
  (* High nibble untouched, then set. *)
  Bitops.set_bits b ~bit_off:0 ~width:4 0x5L;
  check ai "both nibbles" 0x5A (Bitops.get_u8 b 0)

let test_bits_cross_byte () =
  let b = Bytes.make 3 '\x00' in
  Bitops.set_bits b ~bit_off:4 ~width:16 0xABCDL;
  check ai64 "crossing read" 0xABCDL (Bitops.get_bits b ~bit_off:4 ~width:16);
  (* Neighbours preserved. *)
  check ai64 "bits 0-3 zero" 0L (Bitops.get_bits b ~bit_off:0 ~width:4);
  check ai64 "bits 20-23 zero" 0L (Bitops.get_bits b ~bit_off:20 ~width:4)

let test_bits_width_64 () =
  let b = Bytes.make 9 '\x00' in
  Bitops.set_bits b ~bit_off:4 ~width:64 (-1L);
  check ai64 "full width" (-1L) (Bitops.get_bits b ~bit_off:4 ~width:64);
  check ai64 "top nibble clear" 0L (Bitops.get_bits b ~bit_off:0 ~width:4)

let test_mask () =
  check ai64 "mask 0" 0L (Bitops.mask 0);
  check ai64 "mask 1" 1L (Bitops.mask 1);
  check ai64 "mask 16" 0xFFFFL (Bitops.mask 16);
  check ai64 "mask 64" (-1L) (Bitops.mask 64)

let test_hex () =
  check astr "hex" "00ff10" (Bitops.hex (Bytes.of_string "\x00\xff\x10"));
  check astr "hex sub" "ff" (Bitops.hex_sub (Bytes.of_string "\x00\xff\x10") ~pos:1 ~len:1)

let test_bytes_for_bits () =
  check ai "0 bits" 0 (Bitops.bytes_for_bits 0);
  check ai "1 bit" 1 (Bitops.bytes_for_bits 1);
  check ai "8 bits" 1 (Bitops.bytes_for_bits 8);
  check ai "9 bits" 2 (Bitops.bytes_for_bits 9)

(* Property: set_bits then get_bits returns the truncated value and
   preserves all other bits. *)
let prop_bits_roundtrip =
  QCheck.Test.make ~name:"set_bits/get_bits roundtrip preserves neighbours"
    ~count:500
    QCheck.(triple (int_bound 40) (int_range 1 64) int64)
    (fun (bit_off, width, v) ->
      let size = 16 in
      QCheck.assume (bit_off + width <= 8 * size);
      let b = Bytes.init size (fun i -> Char.chr (i * 17 mod 256)) in
      let before = Bytes.copy b in
      Bitops.set_bits b ~bit_off ~width v;
      let read = Bitops.get_bits b ~bit_off ~width in
      let expected = Int64.logand v (Bitops.mask width) in
      let neighbours_ok = ref true in
      for bit = 0 to (8 * size) - 1 do
        if bit < bit_off || bit >= bit_off + width then begin
          let old_bit = Bitops.get_bits before ~bit_off:bit ~width:1 in
          let new_bit = Bitops.get_bits b ~bit_off:bit ~width:1 in
          if old_bit <> new_bit then neighbours_ok := false
        end
      done;
      Int64.equal read expected && !neighbours_ok)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    check ai64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 7L in
  let _ = Rng.next64 a in
  let b = Rng.copy a in
  check ai64 "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let test_rng_bounds () =
  let r = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds";
    let w = Rng.int_in r 5 9 in
    if w < 5 || w > 9 then Alcotest.fail "int_in out of bounds";
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done

let test_rng_weighted () =
  let r = Rng.create 3L in
  (* Zero-weight choices are never picked. *)
  for _ = 1 to 200 do
    match Rng.weighted r [ (0, `Never); (5, `Always) ] with
    | `Never -> Alcotest.fail "picked zero-weight choice"
    | `Always -> ()
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 4L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array ai) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_bytes () =
  let r = Rng.create 5L in
  check ai "requested length" 32 (Bytes.length (Rng.bytes r 32))

(* Regression: the unboxed state keeps every stream. A few draws of
   every kind from one generator, at two seeds, captured from the boxed
   [int64] implementation. *)
type rng_pins = {
  next64 : int64 list;
  ints : int list;  (** bounds 12, 1000, 2^40, 7 *)
  int_ins : int list;  (** [1024, 65535] *)
  bools : bool list;
  floats : float list;
  bytes_ : char list;
  bytes_6 : string;
  choices : int list;  (** of 80; 443; 11211; 53; 8080 *)
  weighted : int list;  (** 7:4:1 over 64; 594; 1518 *)
  shuffled : int array;  (** 0..7 *)
}

let rng_pins =
  [
    ( 7L,
      {
        next64 = [ 7191089600892374487L; 309689372594955804L; -1830642326893942270L ];
        ints = [ 6; 918; 694491785860; 6 ];
        int_ins = [ 28607; 1496; 24794 ];
        bools = [ true; false; false; false ];
        floats = [ 0x1.ba5f365a16be2p-1; 0x1.18b920d635d7p-1; 0x1.c25cba00d9a7ap-1 ];
        bytes_ = [ '\177'; '\141'; '\190' ];
        bytes_6 = "\011\179\231?\140z";
        choices = [ 443; 8080; 53 ];
        weighted = [ 594; 594; 1518; 64 ];
        shuffled = [| 7; 6; 3; 1; 2; 0; 5; 4 |];
      } );
    ( 42L,
      {
        next64 = [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ];
        ints = [ 9; 812; 543567132353; 2 ];
        int_ins = [ 8169; 44917; 36331 ];
        bools = [ true; false; false; true ];
        floats = [ 0x1.548fc63805cf1p-1; 0x1.a0a2962a6be18p-3; 0x1.a83d752f35eb8p-4 ];
        bytes_ = [ '\135'; '\129'; '\024' ];
        bytes_6 = "\250\166u$TD";
        choices = [ 8080; 11211; 80 ];
        weighted = [ 64; 594; 1518; 594 ];
        shuffled = [| 5; 2; 1; 0; 6; 4; 3; 7 |];
      } );
  ]

let test_rng_pinned_draws () =
  List.iter
    (fun (seed, pin) ->
      let r = Rng.create seed in
      let name what = Printf.sprintf "seed %Ld: %s" seed what in
      let draws n f = List.init n (fun _ -> f ()) in
      check (Alcotest.list ai64) (name "next64") pin.next64 (draws 3 (fun () -> Rng.next64 r));
      check (Alcotest.list ai) (name "int") pin.ints
        (List.map (Rng.int r) [ 12; 1000; 1 lsl 40; 7 ]);
      check (Alcotest.list ai) (name "int_in") pin.int_ins
        (draws 3 (fun () -> Rng.int_in r 1024 65535));
      check (Alcotest.list ab) (name "bool") pin.bools (draws 4 (fun () -> Rng.bool r));
      check
        (Alcotest.list (Alcotest.float 0.0))
        (name "float") pin.floats
        (draws 3 (fun () -> Rng.float r));
      check (Alcotest.list Alcotest.char) (name "byte") pin.bytes_ (draws 3 (fun () -> Rng.byte r));
      check astr (name "bytes") pin.bytes_6 (Bytes.to_string (Rng.bytes r 6));
      check (Alcotest.list ai) (name "choice") pin.choices
        (draws 3 (fun () -> Rng.choice r [| 80; 443; 11211; 53; 8080 |]));
      check (Alcotest.list ai) (name "weighted") pin.weighted
        (draws 4 (fun () -> Rng.weighted r [ (7, 64); (4, 594); (1, 1518) ]));
      let arr = Array.init 8 Fun.id in
      Rng.shuffle r arr;
      check (Alcotest.array ai) (name "shuffle") pin.shuffled arr)
    rng_pins

(* [float] is [bits53] scaled by 2^-53, exactly, so a threshold compare
   on the int draw decides as the float compare would. *)
let test_rng_float_is_scaled_bits53 () =
  let a = Rng.create 13L and b = Rng.create 13L in
  for _ = 1 to 1000 do
    let f = Rng.float a and v = Rng.bits53 b in
    check (Alcotest.float 0.0) "same draw" f (float_of_int v *. 0x1p-53);
    List.iter
      (fun th ->
        check ab "same decision" (f < th)
          (v < int_of_float (Float.ceil (th *. 0x1p53))))
      [ 0.02; 0.085; 0.5; 1.0 /. 3.0 ]
  done

(* Minor words per call of [f], over [n] calls after as many warm-up
   calls: [Gc.minor_words] returns an unboxed float, so the measurement
   itself allocates nothing. *)
let words_per_call n f =
  for _ = 1 to n do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Regression: the draws the generator and the fault roll make per
   packet allocate nothing. The boxed state cost [int] 6 words and
   [float] 8. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 21L in
  let flows = [| "a"; "b"; "c" |] in
  List.iter
    (fun (name, f) ->
      check (Alcotest.float 0.0) (name ^ ": words/draw") 0.0 (words_per_call 4096 f))
    [
      ("int", fun () -> ignore (Rng.int r 12));
      ("int_in", fun () -> ignore (Rng.int_in r 1024 65535));
      ("bits53 (the fault roll)", fun () -> ignore (Rng.bits53 r));
      ("bool", fun () -> ignore (Rng.bool r));
      ("byte", fun () -> ignore (Rng.byte r));
      ("choice", fun () -> ignore (Rng.choice r flows));
    ]

(* ------------------------------------------------------------------ *)
(* Cksum *)

let test_cksum_rfc1071_example () =
  (* Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let sum = Cksum.ones_sum b ~pos:0 ~len:8 in
  check ai "rfc1071 example" 0x220d (Cksum.finish sum)

let test_cksum_odd_length () =
  (* Odd trailing byte is padded with zero on the right. *)
  let b = Bytes.of_string "\x01\x02\x03" in
  let sum = Cksum.ones_sum b ~pos:0 ~len:3 in
  let expected = Cksum.finish (0x0102 + 0x0300) in
  check ai "odd padding" expected (Cksum.finish sum)

(* The generator sums its one-byte payloads by formula: the formula is
   the sum of the bytes, odd lengths included (no generated payload has
   one). *)
let test_cksum_fill_sum () =
  List.iter
    (fun c ->
      for len = 0 to 33 do
        check ai
          (Printf.sprintf "%C x %d" c len)
          (Cksum.ones_sum (Bytes.make len c) ~pos:0 ~len)
          (Cksum.fill_sum c ~len)
      done)
    [ '\x00'; 'x'; '\xff' ]

let flow =
  Fivetuple.make ~src_ip:0x0a000001l ~dst_ip:0xc0a80001l ~src_port:1234
    ~dst_port:80 ~proto:Hdr.Proto.tcp

let test_built_packet_ipv4_checksum_valid () =
  let pkt = Builder.ipv4 ~flow (Builder.Tcp { seq = 1l; flags = 0x10 }) in
  let v = Pkt.parse pkt in
  let computed = Cksum.ipv4_header pkt.Pkt.buf ~off:v.l3_off in
  check ai "header checksum matches stored" (Pkt.ipv4_hdr_checksum pkt v) computed

let test_built_packet_l4_checksum_valid () =
  let pkt =
    Builder.ipv4 ~l4_csum:true ~payload:(Bytes.of_string "hello")
      ~flow (Builder.Tcp { seq = 42l; flags = 0x18 })
  in
  let v = Pkt.parse pkt in
  match Cksum.l4 pkt.Pkt.buf ~v ~total_len:pkt.Pkt.len with
  | None -> Alcotest.fail "expected l4 checksum"
  | Some c ->
      let stored = Bitops.get_u16_be pkt.Pkt.buf (v.l4_off + 16) in
      check ai "tcp checksum valid" stored c

let test_corrupt_checksum_detected () =
  let pkt = Builder.ipv4 ~flow Builder.Udp in
  let bad = Builder.corrupt_ipv4_checksum pkt in
  let v = Pkt.parse bad in
  let computed = Cksum.ipv4_header bad.Pkt.buf ~off:v.l3_off in
  if computed = Pkt.ipv4_hdr_checksum bad v then
    Alcotest.fail "corruption not detected"

(* ------------------------------------------------------------------ *)
(* Pkt parsing *)

let test_parse_tcp () =
  let pkt =
    Builder.ipv4 ~payload:(Bytes.make 10 'x') ~flow
      (Builder.Tcp { seq = 7l; flags = 0x02 })
  in
  let v = Pkt.parse pkt in
  check ab "ipv4" true v.is_ipv4;
  check ai "l4 proto" Hdr.Proto.tcp v.l4_proto;
  check ai "src port" 1234 v.src_port;
  check ai "dst port" 80 v.dst_port;
  check ai "l3 off" 14 v.l3_off;
  check ai "l4 off" 34 v.l4_off;
  check ai "payload off" 54 v.payload_off;
  check ai "total len" (54 + 10) pkt.Pkt.len

let test_parse_udp () =
  let flow = { flow with Fivetuple.proto = Hdr.Proto.udp } in
  let pkt = Builder.ipv4 ~flow Builder.Udp in
  let v = Pkt.parse pkt in
  check ai "l4 proto" Hdr.Proto.udp v.l4_proto;
  check ai "payload off" (14 + 20 + 8) v.payload_off

let test_parse_vlan () =
  let pkt = Builder.ipv4 ~vlan:42 ~flow (Builder.Tcp { seq = 0l; flags = 0 }) in
  let v = Pkt.parse pkt in
  check ai "vlan off" 14 v.vlan_off;
  check ai "vid" 42 (v.vlan_tci land 0xfff);
  check ab "still parses ipv4" true v.is_ipv4;
  check ai "l3 shifted" 18 v.l3_off

let test_parse_untagged_has_no_vlan () =
  let pkt = Builder.ipv4 ~flow Builder.Udp in
  let v = Pkt.parse pkt in
  check ai "no vlan" (-1) v.vlan_off;
  check ai "tci zero" 0 v.vlan_tci

let test_parse_ipv6 () =
  let src = Bytes.make 16 '\x11' and dst = Bytes.make 16 '\x22' in
  let pkt =
    Builder.ipv6 ~src ~dst ~src_port:555 ~dst_port:8080
      ~payload:(Bytes.make 4 'z')
      (Builder.Tcp { seq = 3l; flags = 0x02 })
  in
  let v = Pkt.parse pkt in
  check ab "ipv6" true v.is_ipv6;
  check ab "not ipv4" false v.is_ipv4;
  check ai "l4 proto" Hdr.Proto.tcp v.l4_proto;
  check ai "src port" 555 v.src_port;
  check ai "dst port" 8080 v.dst_port;
  check ab "src addr" true (Bytes.equal src (Pkt.ipv6_src pkt v));
  check ab "dst addr" true (Bytes.equal dst (Pkt.ipv6_dst pkt v));
  check ai "payload off" (14 + 40 + 20) v.payload_off

let test_parse_raw_frame () =
  let pkt = Builder.raw ~len:64 ~fill:'z' in
  let v = Pkt.parse pkt in
  check ab "not ip" false (v.is_ipv4 || v.is_ipv6);
  check ai "no l3" (-1) v.l3_off;
  check ai "ethertype" 0x88b5 v.ethertype

let test_parse_truncated_is_safe () =
  (* A packet claiming TCP but cut before the TCP header. *)
  let pkt = Builder.ipv4 ~flow (Builder.Tcp { seq = 0l; flags = 0 }) in
  let cut = Pkt.sub pkt.Pkt.buf ~len:40 in
  let v = Pkt.parse cut in
  check ab "ip recognised" true v.is_ipv4;
  check ai "l4 not parsed" (-1) v.l4_off

let test_field_reads () =
  let pkt = Builder.ipv4 ~ttl:17 ~ip_id:0x1234 ~flow Builder.Udp in
  let v = Pkt.parse pkt in
  check Alcotest.int32 "src ip" 0x0a000001l (Pkt.ipv4_src pkt v);
  check Alcotest.int32 "dst ip" 0xc0a80001l (Pkt.ipv4_dst pkt v);
  check ai "ttl" 17 (Pkt.ipv4_ttl pkt v);
  check ai "ip id" 0x1234 (Pkt.ipv4_id pkt v);
  check ai "ihl" 20 (Pkt.ipv4_ihl pkt v);
  check ai "total len" (pkt.Pkt.len - 14) (Pkt.ipv4_total_len pkt v)

(* A view reused across frames keeps nothing of the frame it held
   before: every frame of every workload profile, cut at every length,
   plus IPv4 frames with a bad IHL, parses into a view that last held a
   VLAN-tagged IPv4/TCP frame or an IPv6/UDP one (between them they set
   every field away from its default) exactly as [Pkt.parse] of a copy
   of the cut frame does. *)
let test_parse_into_reused_view () =
  let primers =
    [
      Builder.ipv4 ~vlan:7 ~flow (Builder.Tcp { seq = 0l; flags = 0 });
      Builder.ipv6 ~src:(Bytes.make 16 '\001') ~dst:(Bytes.make 16 '\002') ~src_port:5
        ~dst_port:6 Builder.Udp;
    ]
  in
  let profiles =
    Workload.
      [
        Min_size; Imix; Large; Kvs { key_len = 9 }; Raw_stream { size = 96 }; Vlan_tagged;
        Ipv6_mix; Zipf { alpha = 1.1 };
      ]
  in
  let frames =
    List.concat_map
      (fun p -> Array.to_list (Workload.batch (Workload.make ~seed:3L p) 6))
      profiles
  in
  let bad_ihl ihl =
    let p = Builder.ipv4 ~flow Builder.Udp in
    Bytes.set_uint8 p.Pkt.buf 14 (0x40 lor ihl);
    p
  in
  let frames = frames @ [ bad_ihl 2; bad_ihl 15 ] in
  let v = Pkt.view () in
  let cases = ref 0 in
  List.iteri
    (fun i (f : Pkt.t) ->
      for len = 0 to f.len do
        let expected = Pkt.parse (Pkt.create (Bytes.sub f.buf 0 len)) in
        List.iter
          (fun (primer : Pkt.t) ->
            Pkt.parse_into v primer.buf ~len:primer.len;
            Pkt.parse_into v f.buf ~len;
            incr cases;
            if v <> expected then
              Alcotest.failf "frame %d cut at %d of %d bytes: reused view differs" i len
                f.len)
          primers
      done)
    frames;
  check ab "cases" true (!cases > 10_000)

let prop_parse_never_crashes =
  QCheck.Test.make ~name:"parse is total on random bytes" ~count:1000
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      let pkt = Pkt.create (Bytes.of_string s) in
      let v = Pkt.parse pkt in
      (* offsets, when set, stay in bounds *)
      (v.l3_off = -1 || v.l3_off <= pkt.Pkt.len)
      && (v.l4_off = -1 || v.l4_off <= pkt.Pkt.len)
      && (v.payload_off = -1 || v.payload_off <= pkt.Pkt.len))

(* ------------------------------------------------------------------ *)
(* Fivetuple *)

let test_fivetuple_of_pkt () =
  let pkt = Builder.ipv4 ~flow (Builder.Tcp { seq = 0l; flags = 0 }) in
  match Fivetuple.of_pkt pkt (Pkt.parse pkt) with
  | None -> Alcotest.fail "expected a flow"
  | Some f -> check ab "roundtrip" true (Fivetuple.equal f flow)

let test_fivetuple_none_for_raw () =
  let pkt = Builder.raw ~len:60 ~fill:'q' in
  check ab "no flow for raw" true (Fivetuple.of_pkt pkt (Pkt.parse pkt) = None)

(* ------------------------------------------------------------------ *)
(* Builder specifics *)

let test_kvs_get_payload () =
  let pkt = Builder.kvs_get ~flow:{ flow with Fivetuple.proto = Hdr.Proto.udp } ~key:"user42" in
  let v = Pkt.parse pkt in
  let payload =
    Bytes.sub_string pkt.Pkt.buf v.payload_off (pkt.Pkt.len - v.payload_off)
  in
  check astr "memcached get" "get user42\r\n" payload

let test_builder_udp_length_field () =
  let flow = { flow with Fivetuple.proto = Hdr.Proto.udp } in
  let pkt = Builder.ipv4 ~payload:(Bytes.make 5 'p') ~flow Builder.Udp in
  let v = Pkt.parse pkt in
  check ai "udp length" (8 + 5) (Bitops.get_u16_be pkt.Pkt.buf (v.l4_off + 4))

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_deterministic () =
  let a = Workload.make ~seed:11L Workload.Imix in
  let b = Workload.make ~seed:11L Workload.Imix in
  for _ = 1 to 50 do
    let pa = Workload.next a and pb = Workload.next b in
    check ab "identical packets" true (Pkt.equal pa pb)
  done

let test_workload_min_size () =
  let w = Workload.make Workload.Min_size in
  for _ = 1 to 20 do
    check ai "64B frames" 64 (Pkt.len (Workload.next w))
  done

let test_workload_imix_sizes () =
  let w = Workload.make ~seed:2L Workload.Imix in
  for _ = 1 to 100 do
    let l = Pkt.len (Workload.next w) in
    if l <> 64 && l <> 594 && l <> 1518 then
      Alcotest.failf "unexpected imix size %d" l
  done

let test_workload_flows_bounded () =
  let w = Workload.make ~flows:4 Workload.Min_size in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 200 do
    let p = Workload.next w in
    match Fivetuple.of_pkt p (Pkt.parse p) with
    | Some f -> Hashtbl.replace seen f ()
    | None -> Alcotest.fail "min-size packets should have flows"
  done;
  if Hashtbl.length seen > 4 then
    Alcotest.failf "%d flows from a 4-flow generator" (Hashtbl.length seen)

let test_workload_kvs_parses () =
  let w = Workload.make Workload.(Kvs { key_len = 8 }) in
  let p = Workload.next w in
  let v = Pkt.parse p in
  check ai "udp" Hdr.Proto.udp v.l4_proto

let test_workload_vlan_tagged () =
  let w = Workload.make Workload.Vlan_tagged in
  let p = Workload.next w in
  let v = Pkt.parse p in
  check ab "tagged" true (v.vlan_off >= 0)

let test_workload_ipv6_mix () =
  let w = Workload.make ~seed:8L Workload.Ipv6_mix in
  let v4 = ref 0 and v6 = ref 0 in
  for _ = 1 to 100 do
    let v = Pkt.parse (Workload.next w) in
    if v.is_ipv4 then incr v4 else if v.is_ipv6 then incr v6
  done;
  check ai "half v4" 50 !v4;
  check ai "half v6" 50 !v6

let test_workload_zipf_heavy_hitter () =
  (* With alpha=1.5 the most popular flow must dominate clearly. *)
  let w = Workload.make ~seed:12L ~flows:16 Workload.(Zipf { alpha = 1.5 }) in
  let counts = Hashtbl.create 16 in
  for _ = 1 to 1000 do
    let p = Workload.next w in
    match Fivetuple.of_pkt p (Pkt.parse p) with
    | Some f ->
        Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
    | None -> Alcotest.fail "zipf packets are flows"
  done;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  check ab "heavy hitter > 30%" true (top > 300);
  check ab "several flows seen" true (Hashtbl.length counts >= 5)

let test_workload_batch () =
  let w = Workload.make Workload.Large in
  check ai "batch size" 16 (Array.length (Workload.batch w 16))

let all_profiles =
  Workload.
    [
      Min_size; Imix; Large; Kvs { key_len = 9 }; Raw_stream { size = 96 }; Vlan_tagged;
      Ipv6_mix; Zipf { alpha = 1.1 };
    ]

(* MD5 of the first [n] frames, each as its 4-byte big-endian length
   and its bytes. *)
let stream_md5 ~seed ~flows profile n =
  let w = Workload.make ~seed ~flows profile in
  let b = Buffer.create (n * 400) in
  for _ = 1 to n do
    let pkt = Workload.next w in
    Buffer.add_int32_be b (Int32.of_int pkt.Pkt.len);
    Buffer.add_subbytes b pkt.Pkt.buf 0 pkt.Pkt.len
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Regression: writing frames in place, summing the repeated payload by
   formula and searching the Zipf sums keep every generated stream. The
   first 4,096 frames of every profile at two seeds and two flow counts
   (Zipf at 64 and 4,096 flows), captured from the Builder-based
   generator that summed every payload byte and rebuilt the Zipf
   weights per frame. *)
let stream_pins =
  [
    ("min-size-64B", 7L, 64, "c7bf41105b235663023d9636d61dbff0");
    ("min-size-64B", 7L, 65536, "3212d75722c564b22ce7cd083a5953e8");
    ("min-size-64B", 42L, 64, "18e4d89750be4a7b640f651fb0a31139");
    ("min-size-64B", 42L, 65536, "d26bf91474e566762812c0e4d1746d33");
    ("imix", 7L, 64, "4b9d885da662de0c74d26904ff288efa");
    ("imix", 7L, 65536, "283e2988d08454028c7d8180c012d593");
    ("imix", 42L, 64, "81bee915da540e937c72a772e6bb8750");
    ("imix", 42L, 65536, "dec9522d53b9e7e576849a4d07671916");
    ("large-1518B", 7L, 64, "109551ba51b66920e6086fd7c295b581");
    ("large-1518B", 7L, 65536, "c2d6d7ee8b9f1b978a2558f9637fda53");
    ("large-1518B", 42L, 64, "c66f456630843cfd3f8a0cd3f52a4c09");
    ("large-1518B", 42L, 65536, "098d9da25b49a473a9327d17ed41e573");
    ("kvs-get-key9", 7L, 64, "c5aea4f4fb8c58f68434f8c7912bbe09");
    ("kvs-get-key9", 7L, 65536, "aad3021aba2fa3beae9584eeab0a8f25");
    ("kvs-get-key9", 42L, 64, "d2760b30a434dcc8f2b676513cb09f0e");
    ("kvs-get-key9", 42L, 65536, "65e189c0fab76ee257eb07ff2278f133");
    ("raw-stream-96B", 7L, 64, "3dca8569570e0a18a8d96bc90d56b949");
    ("raw-stream-96B", 7L, 65536, "3dca8569570e0a18a8d96bc90d56b949");
    ("raw-stream-96B", 42L, 64, "3dca8569570e0a18a8d96bc90d56b949");
    ("raw-stream-96B", 42L, 65536, "3dca8569570e0a18a8d96bc90d56b949");
    ("vlan-tagged", 7L, 64, "1243ca03a11039ba7a5855e324261525");
    ("vlan-tagged", 7L, 65536, "0d65f48389ba68a1b968ae856b69ad9a");
    ("vlan-tagged", 42L, 64, "b41772b32962f96f9ac601f39bed4dda");
    ("vlan-tagged", 42L, 65536, "21e4dba7a5c54c80e2f9fa55941b447b");
    ("ipv6-mix", 7L, 64, "cf3039d25c069de8b219b597045390eb");
    ("ipv6-mix", 7L, 65536, "2114208112ec1bcc973de4ae51392a11");
    ("ipv6-mix", 42L, 64, "a3ef99253cfe70f0f598381bc964fbde");
    ("ipv6-mix", 42L, 65536, "17cef39c82bb2dda9b52e8da6499006b");
    ("zipf-1.1", 7L, 64, "f7ffdbe79036574284a0524c3cd30460");
    ("zipf-1.1", 7L, 4096, "450c54480bfc21a80f34088d8a575ef5");
    ("zipf-1.1", 42L, 64, "86a22f99112ad6d9351fb853e30361fb");
    ("zipf-1.1", 42L, 4096, "ae4e1c896451fc4934bc80bbd57d6a9e");
  ]

let test_workload_stream_pins () =
  List.iter
    (fun (name, seed, flows, md5) ->
      let profile = List.find (fun p -> Workload.profile_name p = name) all_profiles in
      check astr
        (Printf.sprintf "%s seed %Ld, %d flows" name seed flows)
        md5
        (stream_md5 ~seed ~flows profile 4096))
    stream_pins

(* [next_into] into one reused buffer, primed with garbage, writes the
   stream [next] returns. *)
let prop_next_into_matches_next =
  QCheck.Test.make ~name:"next_into into a reused buffer is next" ~count:200
    QCheck.(
      quad int64 (int_range 1 5000) (int_bound (List.length all_profiles - 1)) (int_range 1 64))
    (fun (seed, flows, pi, n) ->
      let profile = List.nth all_profiles pi in
      let a = Workload.make ~seed ~flows profile and b = Workload.make ~seed ~flows profile in
      let buf = Bytes.make (Workload.max_len a + 7) '\xa5' in
      let ok = ref true in
      for _ = 1 to n do
        let len = Workload.next_into a buf in
        let pkt = Workload.next b in
        if not (Pkt.equal (Pkt.sub buf ~len) pkt && Bytes.length pkt.Pkt.buf = pkt.Pkt.len) then
          ok := false
      done;
      !ok)

(* A short buffer is refused before anything is drawn: the generator
   carries on as if the call had not been made. *)
let test_workload_next_into_short_buffer () =
  List.iter
    (fun profile ->
      let a = Workload.make ~seed:5L profile and b = Workload.make ~seed:5L profile in
      let name = Workload.profile_name profile in
      (match Workload.next_into a (Bytes.create (Workload.max_len a - 1)) with
      | _ -> Alcotest.failf "%s: a short buffer was accepted" name
      | exception Invalid_argument _ -> ());
      check ab (name ^ ": stream unmoved") true (Pkt.equal (Workload.next a) (Workload.next b)))
    all_profiles

(* Regression: generating a frame allocates nothing on any profile. At
   the parent [next] cost 47 words per 64 B frame, 132 per IMIX frame
   and, at 64 flows, 511 per Zipf frame. *)
let test_workload_next_into_allocates_nothing () =
  List.iter
    (fun profile ->
      let w = Workload.make ~seed:9L ~flows:4096 profile in
      let buf = Bytes.create (Workload.max_len w) in
      check (Alcotest.float 0.0)
        (Workload.profile_name profile ^ ": words/frame")
        0.0
        (words_per_call 4096 (fun () -> ignore (Workload.next_into w buf))))
    all_profiles

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "packet"
    [
      ( "bitops",
        [
          Alcotest.test_case "aligned u16" `Quick test_bitops_aligned_u16;
          Alcotest.test_case "aligned u32/u64" `Quick test_bitops_aligned_u32_u64;
          Alcotest.test_case "get_bits matches aligned" `Quick
            test_bits_matches_aligned_getters;
          Alcotest.test_case "sub-byte fields" `Quick test_bits_sub_byte;
          Alcotest.test_case "cross-byte fields" `Quick test_bits_cross_byte;
          Alcotest.test_case "64-bit unaligned" `Quick test_bits_width_64;
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "bytes_for_bits" `Quick test_bytes_for_bits;
        ]
        @ qsuite [ prop_bits_roundtrip ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "weighted" `Quick test_rng_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes;
          Alcotest.test_case "pinned draws" `Quick test_rng_pinned_draws;
          Alcotest.test_case "float is scaled bits53" `Quick test_rng_float_is_scaled_bits53;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
      ( "cksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_cksum_rfc1071_example;
          Alcotest.test_case "odd length" `Quick test_cksum_odd_length;
          Alcotest.test_case "fill_sum is the run's sum" `Quick test_cksum_fill_sum;
          Alcotest.test_case "built ipv4 checksum valid" `Quick
            test_built_packet_ipv4_checksum_valid;
          Alcotest.test_case "built l4 checksum valid" `Quick
            test_built_packet_l4_checksum_valid;
          Alcotest.test_case "corruption detected" `Quick test_corrupt_checksum_detected;
        ] );
      ( "parse",
        [
          Alcotest.test_case "tcp" `Quick test_parse_tcp;
          Alcotest.test_case "udp" `Quick test_parse_udp;
          Alcotest.test_case "vlan" `Quick test_parse_vlan;
          Alcotest.test_case "untagged" `Quick test_parse_untagged_has_no_vlan;
          Alcotest.test_case "ipv6" `Quick test_parse_ipv6;
          Alcotest.test_case "raw frame" `Quick test_parse_raw_frame;
          Alcotest.test_case "truncated safe" `Quick test_parse_truncated_is_safe;
          Alcotest.test_case "field reads" `Quick test_field_reads;
          Alcotest.test_case "reused view keeps nothing stale" `Quick
            test_parse_into_reused_view;
        ]
        @ qsuite [ prop_parse_never_crashes ] );
      ( "fivetuple",
        [
          Alcotest.test_case "of_pkt" `Quick test_fivetuple_of_pkt;
          Alcotest.test_case "none for raw" `Quick test_fivetuple_none_for_raw;
        ] );
      ( "builder",
        [
          Alcotest.test_case "kvs payload" `Quick test_kvs_get_payload;
          Alcotest.test_case "udp length" `Quick test_builder_udp_length_field;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "min size" `Quick test_workload_min_size;
          Alcotest.test_case "imix sizes" `Quick test_workload_imix_sizes;
          Alcotest.test_case "flows bounded" `Quick test_workload_flows_bounded;
          Alcotest.test_case "kvs parses" `Quick test_workload_kvs_parses;
          Alcotest.test_case "vlan tagged" `Quick test_workload_vlan_tagged;
          Alcotest.test_case "ipv6 mix" `Quick test_workload_ipv6_mix;
          Alcotest.test_case "zipf heavy hitter" `Quick test_workload_zipf_heavy_hitter;
          Alcotest.test_case "batch" `Quick test_workload_batch;
          Alcotest.test_case "stream pins" `Quick test_workload_stream_pins;
          Alcotest.test_case "next_into refuses a short buffer" `Quick
            test_workload_next_into_short_buffer;
          Alcotest.test_case "next_into allocates nothing" `Quick
            test_workload_next_into_allocates_nothing;
        ]
        @ qsuite [ prop_next_into_matches_next ] );
    ]
