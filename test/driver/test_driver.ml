(* Tests for the driver datapath simulator: DMA accounting, ring
   semantics, the simulated device (including the central property that
   the device's serialised completions and the compiler's generated
   accessors agree), and the host stacks. *)

open Driver

let check = Alcotest.check
let ai = Alcotest.int
let ai64 = Alcotest.int64
let ab = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Dma *)

let test_dma_counters () =
  let d = Dma.create 128 in
  Dma.dev_write d ~off:0 (Bytes.make 16 'x') ~pos:0 ~len:16;
  let _ = Dma.dev_read d ~off:0 ~len:8 in
  check ai "written" 16 (Dma.dev_written_bytes d);
  check ai "read" 8 (Dma.dev_read_bytes d);
  Dma.reset_counters d;
  check ai "reset" 0 (Dma.dev_written_bytes d)

let test_dma_host_access_not_counted () =
  let d = Dma.create 64 in
  Bytes.set (Dma.mem d) 0 'a';
  check ai "no device traffic" 0 (Dma.dev_written_bytes d)

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_fifo_order () =
  let r = Ring.create ~slots:4 ~slot_size:4 in
  check ab "p1" true (Ring.produce_host r (Bytes.of_string "aaaa"));
  check ab "p2" true (Ring.produce_host r (Bytes.of_string "bbbb"));
  check Alcotest.(option bytes) "c1" (Some (Bytes.of_string "aaaa")) (Ring.consume_host r);
  check Alcotest.(option bytes) "c2" (Some (Bytes.of_string "bbbb")) (Ring.consume_host r);
  check ab "empty" true (Ring.is_empty r)

let test_ring_full_rejects () =
  let r = Ring.create ~slots:2 ~slot_size:1 in
  check ab "1" true (Ring.produce_host r (Bytes.of_string "x"));
  check ab "2" true (Ring.produce_host r (Bytes.of_string "y"));
  check ab "full" true (Ring.is_full r);
  check ab "rejected" false (Ring.produce_host r (Bytes.of_string "z"))

let test_ring_wraparound () =
  let r = Ring.create ~slots:2 ~slot_size:1 in
  for i = 0 to 9 do
    let payload = Bytes.make 1 (Char.chr (Char.code 'a' + i)) in
    check ab "produce" true (Ring.produce_host r payload);
    check Alcotest.(option bytes) "consume" (Some payload) (Ring.consume_host r)
  done

let test_ring_dev_ops_counted () =
  let r = Ring.create ~slots:4 ~slot_size:8 in
  ignore (Ring.produce_dev r (Bytes.make 8 'd') ~len:8);
  ignore (Ring.consume_dev r);
  check ai "write counted" 8 (Dma.dev_written_bytes (Ring.dma r));
  check ai "read counted" 8 (Dma.dev_read_bytes (Ring.dma r))

let test_ring_space_available () =
  let r = Ring.create ~slots:8 ~slot_size:1 in
  ignore (Ring.produce_host r (Bytes.of_string "x"));
  ignore (Ring.produce_host r (Bytes.of_string "x"));
  check ai "available" 2 (Ring.available r);
  check ai "space" 6 (Ring.space r)

(* Length-prefixed frames: written once with a 2-byte length, read back
   by that length, never as a whole slot. *)
let frame i = Bytes.init (1 + (i mod 6)) (fun j -> Char.chr (Char.code 'a' + i + j))

let test_ring_frame_wraparound () =
  let r = Ring.create ~slots:2 ~slot_size:8 in
  check ai "capacity" 6 (Ring.frame_capacity r);
  let dst = Bytes.make 6 '.' in
  let counted = ref 0 in
  for i = 0 to 9 do
    let f = frame i in
    check ab "produce" true (Ring.produce_frame r f ~len:(Bytes.length f));
    counted := !counted + Bytes.length f + 2;
    let len = Ring.consume_frame_into r dst in
    check ai "length" (Bytes.length f) len;
    check Alcotest.bytes "data at offset 0" f (Bytes.sub dst 0 len)
  done;
  check ai "len + 2 counted per frame" !counted (Dma.dev_written_bytes (Ring.dma r));
  check ai "empty" (-1) (Ring.consume_frame_into r dst)

let test_ring_frame_full () =
  let r = Ring.create ~slots:2 ~slot_size:8 in
  check ab "1" true (Ring.produce_frame r (frame 0) ~len:1);
  check ab "repeat" true (Ring.repeat_frame r);
  check ab "full" false (Ring.produce_frame r (frame 1) ~len:2);
  check ab "repeat when full" false (Ring.repeat_frame r);
  check ai "two frames counted" 6 (Dma.dev_written_bytes (Ring.dma r));
  check Alcotest.(option bytes) "original" (Some (frame 0)) (Ring.consume_frame r);
  check Alcotest.(option bytes) "repeated" (Some (frame 0)) (Ring.consume_frame r);
  check Alcotest.(option bytes) "empty" None (Ring.consume_frame r)

(* The length prefix comes from device memory: a prefix larger than the
   slot reads as a full slot, never past it. *)
let test_ring_frame_len_clamped () =
  let r = Ring.create ~slots:2 ~slot_size:8 in
  ignore (Ring.produce_frame r (Bytes.of_string "abcdef") ~len:6);
  ignore (Ring.produce_frame r (Bytes.of_string "xy") ~len:2);
  let bad = Bytes.create 2 in
  Bytes.set_uint16_le bad 0 0xFFFF;
  Dma.corrupt (Ring.dma r) ~off:(Ring.slot_offset r 0) bad ~pos:0 ~len:2;
  Dma.corrupt (Ring.dma r) ~off:(Ring.slot_offset r 1) bad ~pos:0 ~len:2;
  let dst = Bytes.make 6 '.' in
  check ai "clamped to the slot" 6 (Ring.consume_frame_into r dst);
  check Alcotest.bytes "slot data" (Bytes.of_string "abcdef") dst;
  match Ring.consume_frame r with
  | Some f -> check ai "allocating read clamps too" 6 (Bytes.length f)
  | None -> Alcotest.fail "frame lost"

let test_ring_frame_scratch_too_small () =
  let r = Ring.create ~slots:2 ~slot_size:8 in
  ignore (Ring.produce_frame r (Bytes.of_string "ab") ~len:2);
  Alcotest.check_raises "frame scratch"
    (Invalid_argument "Ring.consume_frame_into: 5-byte scratch buffer for 6-byte frames")
    (fun () -> ignore (Ring.consume_frame_into r (Bytes.create 5)));
  Alcotest.check_raises "record longer than the buffer"
    (Invalid_argument
       "Ring.consume_host_prefix_into: 4 bytes of a 8-byte slot into a 3-byte scratch \
        buffer")
    (fun () -> ignore (Ring.consume_host_prefix_into r (Bytes.create 3) ~len:4));
  Alcotest.check_raises "record longer than the slot"
    (Invalid_argument
       "Ring.consume_host_prefix_into: 9 bytes of a 8-byte slot into a 16-byte \
        scratch buffer")
    (fun () -> ignore (Ring.consume_host_prefix_into r (Bytes.create 16) ~len:9));
  check ai "entry intact" 2 (Ring.consume_frame_into r (Bytes.create 6))

let test_ring_repeat_and_prefix () =
  let r = Ring.create ~slots:4 ~slot_size:8 in
  ignore (Ring.produce_dev r (Bytes.of_string "rec1XXXX") ~len:4);
  check ab "repeat" true (Ring.repeat_dev r ~len:4);
  check ai "4 + 4 counted" 8 (Dma.dev_written_bytes (Ring.dma r));
  let dst = Bytes.make 8 '.' in
  check ab "first" true (Ring.consume_host_prefix_into r dst ~len:4);
  check Alcotest.bytes "prefix only" (Bytes.of_string "rec1....") dst;
  check ab "second" true (Ring.consume_host_prefix_into r dst ~len:4);
  check Alcotest.bytes "repeated record" (Bytes.of_string "rec1....") dst;
  check ab "empty" false (Ring.consume_host_prefix_into r dst ~len:4)

(* Property: any sequence of produce/consume keeps FIFO semantics
   (modelled against a plain queue). *)
let prop_ring_matches_queue =
  QCheck.Test.make ~name:"ring behaves as bounded FIFO" ~count:200
    QCheck.(list (pair bool (int_bound 255)))
    (fun ops ->
      let r = Ring.create ~slots:4 ~slot_size:1 in
      let q = Queue.create () in
      List.for_all
        (fun (is_produce, v) ->
          if is_produce then begin
            let payload = Bytes.make 1 (Char.chr v) in
            let ok = Ring.produce_host r payload in
            let expect_ok = Queue.length q < 4 in
            if ok then Queue.push payload q;
            ok = expect_ok
          end
          else
            match (Ring.consume_host r, Queue.is_empty q) with
            | None, true -> true
            | Some got, false -> Bytes.equal got (Queue.pop q)
            | _ -> false)
        ops)

(* ------------------------------------------------------------------ *)
(* Device *)

let mlx5_compiled ?alpha requested =
  let model = Nic_models.Mlx5.model () in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) requested) in
  let compiled = Opendesc.Compile.run_exn ?alpha ~intent model.spec in
  (model, compiled)

let test_device_rejects_bad_config () =
  let model = Nic_models.Mlx5.model () in
  match Device.create ~config:[ ("cqe_comp", 9L) ] model with
  | Error e -> check ab "mentions path" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected config rejection"

let test_device_rx_roundtrip_packet_bytes () =
  let model, compiled = mlx5_compiled [ "rss" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let pkt = Packet.Builder.raw ~len:100 ~fill:'p' in
  check ab "injected" true (Device.rx_inject device pkt);
  match Device.rx_consume device with
  | Some (buf, len, _) ->
      check ai "length" 100 len;
      check ab "payload intact" true (Bytes.equal (Bytes.sub buf 0 len) pkt.Packet.Pkt.buf)
  | None -> Alcotest.fail "nothing received"

(* The paper's "semantic alignment" in executable form: for random
   packets, reading the device-written completion through the generated
   accessors gives exactly what the softnic reference computes. *)
let test_device_completion_matches_accessors () =
  (* A low DMA weight makes Eq. 1 pick the full CQE, where all three
     requested semantics are hardware-provided. *)
  let model, compiled = mlx5_compiled ~alpha:0.05 [ "rss"; "vlan"; "pkt_len" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let w = Packet.Workload.make ~seed:3L Packet.Workload.Vlan_tagged in
  for _ = 1 to 50 do
    let pkt = Packet.Workload.next w in
    assert (Device.rx_inject device pkt);
    match Device.rx_consume device with
    | None -> Alcotest.fail "no completion"
    | Some (_, _, cmpt) ->
        let view = Packet.Pkt.parse pkt in
        let get sem =
          match List.assoc sem compiled.bindings with
          | Opendesc.Compile.Hardware a -> a.a_get cmpt
          | Opendesc.Compile.Software _ -> Alcotest.failf "%s should be hardware" sem
        in
        let rss = Softnic.Toeplitz.hash_pkt ~key:(Device.env device).rss_key pkt view in
        check ai64 "rss" (Int64.logand (Int64.of_int32 rss) 0xFFFFFFFFL) (get "rss");
        check ai64 "vlan" (Int64.of_int (view.vlan_tci land 0xffff)) (get "vlan");
        check ai64 "len" (Int64.of_int (Packet.Pkt.len pkt)) (get "pkt_len")
  done

let test_device_reconfigure_switches_layout () =
  let model = Nic_models.Mlx5.model () in
  let full_cfg = [ ("cqe_comp", 0L); ("mini_fmt", 0L) ] in
  let mini_cfg = [ ("cqe_comp", 1L); ("mini_fmt", 0L) ] in
  let device = Device.create_exn ~config:full_cfg model in
  check ai "full layout" 64 (Opendesc.Path.size (Device.active_path device));
  (match Device.configure device mini_cfg with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check ai "mini layout" 8 (Opendesc.Path.size (Device.active_path device));
  let pkt = Packet.Builder.raw ~len:64 ~fill:'m' in
  assert (Device.rx_inject device pkt);
  match Device.rx_consume device with
  | Some (_, _, cmpt) -> check ai "mini completion bytes" 8 (Bytes.length cmpt)
  | None -> Alcotest.fail "no completion"

let test_device_drops_when_full () =
  let model, compiled = mlx5_compiled [ "rss" ] in
  let device = Device.create_exn ~queue_depth:4 ~config:compiled.config model in
  let pkt = Packet.Builder.raw ~len:64 ~fill:'d' in
  for _ = 1 to 4 do
    check ab "fits" true (Device.rx_inject device pkt)
  done;
  check ab "overflow rejected" false (Device.rx_inject device pkt);
  check ai "drop counted" 1 (Device.drops device)

let test_device_dma_accounting () =
  let model, compiled = mlx5_compiled [ "rss" ] in
  (* mini-CQE config: 8-byte completions *)
  let device = Device.create_exn ~config:compiled.config model in
  Device.reset_counters device;
  let pkt = Packet.Builder.raw ~len:100 ~fill:'b' in
  assert (Device.rx_inject device pkt);
  (* 100B packet + 2B length prefix + 8B mini completion *)
  check ai "dma bytes" (102 + 8) (Device.dma_bytes device)

let test_device_tx_path () =
  let model, compiled = mlx5_compiled [ "rss" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let fmt = Option.get (Device.tx_format device) in
  let pkts = Array.init 4 (fun i -> Packet.Builder.raw ~len:(64 + i) ~fill:'t') in
  Array.iteri
    (fun i _ ->
      let desc = Bytes.make (Opendesc.Descparser.size fmt) '\x00' in
      let addr = Option.get (Opendesc.Descparser.field_for fmt "buf_addr") in
      Opendesc.Accessor.writer ~bit_off:addr.l_bit_off ~bits:addr.l_bits desc
        (Int64.of_int i);
      check ab "posted" true (Device.tx_post device desc))
    pkts;
  let sent =
    Device.tx_process device ~fetch:(fun addr ->
        let i = Int64.to_int addr in
        if i >= 0 && i < 4 then Some pkts.(i) else None)
  in
  check ai "all sent" 4 sent;
  check ai "tx count" 4 (Device.tx_count device)

let test_device_ipv6_rss_agreement () =
  (* The device's RSS must match the software Toeplitz for IPv6 flows
     too (the 36-byte input). *)
  let model, compiled = mlx5_compiled [ "rss" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let w = Packet.Workload.make ~seed:6L Packet.Workload.Ipv6_mix in
  for _ = 1 to 40 do
    let pkt = Packet.Workload.next w in
    assert (Device.rx_inject device pkt);
    match Device.rx_consume device with
    | None -> Alcotest.fail "no completion"
    | Some (_, _, cmpt) ->
        let expected =
          Softnic.Toeplitz.hash_pkt ~key:(Device.env device).rss_key pkt
            (Packet.Pkt.parse pkt)
        in
        let got =
          match List.assoc "rss" compiled.bindings with
          | Opendesc.Compile.Hardware a -> a.a_get cmpt
          | Opendesc.Compile.Software _ -> Alcotest.fail "rss should be hardware"
        in
        check ai64 "v4+v6 hash agreement"
          (Int64.logand (Int64.of_int32 expected) 0xFFFFFFFFL)
          got
  done

let test_device_flow_marks () =
  (* rte_flow MARK: install a rule, the matching flow's completions carry
     the mark, others read 0. *)
  let model, compiled = mlx5_compiled ~alpha:0.05 [ "mark"; "rss" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let marked =
    Packet.Fivetuple.make ~src_ip:0x0a000001l ~dst_ip:0xc0a80001l ~src_port:1000
      ~dst_port:80 ~proto:Packet.Hdr.Proto.tcp
  in
  let other = { marked with Packet.Fivetuple.src_port = 2000 } in
  Device.install_mark device marked 0xBEEFl;
  let get_mark flow =
    let pkt = Packet.Builder.ipv4 ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0 }) in
    assert (Device.rx_inject device pkt);
    match Device.rx_consume device with
    | Some (_, _, cmpt) -> (
        match List.assoc "mark" compiled.bindings with
        | Opendesc.Compile.Hardware a -> a.a_get cmpt
        | Opendesc.Compile.Software _ -> Alcotest.fail "mark should be hardware")
    | None -> Alcotest.fail "no completion"
  in
  check ai64 "marked flow" 0xBEEFL (get_mark marked);
  check ai64 "other flow" 0L (get_mark other)

(* Regression: injecting one 64 B TCP packet on the mlx5 full-CQE path
   (17 fields, 12 of them semantics) allocates nothing: the frame is
   parsed into the device's own view and every field's core writes its
   int in place. The budget of 1 word/inject catches a [Pkt.t] (3
   words) or a parsed view (13) per packet, and one boxed value per
   field would cost at least 36. *)
let inject_words_budget = 1.0

let test_device_inject_alloc_budget () =
  let m = Nic_models.Mlx5.model () in
  let full = List.find (fun (p : Opendesc.Path.t) -> Opendesc.Path.size p = 64) m.spec.paths in
  let device = Device.create_exn ~queue_depth:256 ~config:(List.hd full.p_assignments) m in
  let pkt = Packet.Workload.next (Packet.Workload.make ~seed:5L Packet.Workload.Min_size) in
  check ai "64 B packet" 64 pkt.Packet.Pkt.len;
  let n = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Device.rx_inject device pkt)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check ai "all injected" n (Device.rx_available device);
  check ab
    (Printf.sprintf "minor words/inject %.1f within budget %.0f" words inject_words_budget)
    true (words <= inject_words_budget)

(* A frame length the buffer cannot back is refused before either ring
   moves, so the packet and completion rings stay in step: the next
   packet is harvested with its own frame and its own completion. *)
let test_device_inject_raw_bad_length () =
  let m = Nic_models.Mlx5.model () in
  let full =
    List.find (fun (p : Opendesc.Path.t) -> Opendesc.Path.size p = 64) m.spec.paths
  in
  let config = List.hd full.p_assignments in
  let device = Device.create_exn ~config m in
  check ai "buf_size" 2048 (Device.buf_size device);
  let short = Bytes.make 64 '\000' in
  List.iter
    (fun len ->
      (match Device.rx_inject_raw device short ~len with
      | _ -> Alcotest.failf "len %d over a 64-byte buffer accepted" len
      | exception Invalid_argument _ -> ());
      check ai "packet ring empty" 0 (Ring.available (Device.pkt_ring device));
      check ai "completion ring empty" 0 (Ring.available (Device.cmpt_ring device));
      check ai "no DMA" 0 (Device.dma_bytes device);
      check ai "no drop" 0 (Device.drops device))
    [ 100; -1 ];
  let pkt = Packet.Workload.next (Packet.Workload.make ~seed:5L Packet.Workload.Min_size) in
  let harvest dev =
    check ab "injected" true (Device.rx_inject dev pkt);
    let b = Device.burst_create dev in
    check ai "one harvested" 1 (Device.rx_consume_batch dev b);
    ( Bytes.sub b.bs_pkts.(0) 0 b.bs_lens.(0),
      Bytes.sub b.bs_cmpts.(0) 0 b.bs_cmpt_lens.(0) )
  in
  let frame, cmpt = harvest device in
  let _, fresh_cmpt = harvest (Device.create_exn ~config m) in
  check Alcotest.bytes "its own frame" (Bytes.sub pkt.buf 0 pkt.len) frame;
  check Alcotest.bytes "its own completion" fresh_cmpt cmpt

(* A 40 B IPv4 frame whose IHL (15) claims a 60 B header: the checksum
   semantics must not sum past the frame. *)
let ihl_overrun_frame () =
  let flow =
    Packet.Fivetuple.make ~src_ip:0x0a000001l ~dst_ip:0x0a000002l ~src_port:1 ~dst_port:2
      ~proto:Packet.Hdr.Proto.udp
  in
  let p = Packet.Builder.ipv4 ~payload:(Bytes.make 20 'x') ~flow Packet.Builder.Udp in
  let b = Bytes.sub p.buf 0 40 in
  Bytes.set_uint8 b 14 0x4F;
  b

let catalog_paths () =
  List.concat_map
    (fun (m : Nic_models.Model.t) ->
      List.filter_map
        (fun (p : Opendesc.Path.t) ->
          match p.p_assignments with
          | [] -> None
          | config :: _ ->
              Some (Printf.sprintf "%s/p%d" m.spec.nic_name p.p_index, m, p, config))
        m.spec.paths)
    (Nic_models.Catalog.all ())

let read_semantic (p : Opendesc.Path.t) sem cmpt =
  Option.map
    (fun (f : Opendesc.Path.lfield) ->
      Opendesc.Accessor.reader ~bit_off:f.l_bit_off ~bits:f.l_bits cmpt)
    (Opendesc.Path.field_for p sem)

let test_ihl_overrun_exact_buffer () =
  let pkt = Packet.Pkt.create (ihl_overrun_frame ()) in
  let view = Packet.Pkt.parse pkt in
  check ab "parsed as IPv4" true view.is_ipv4;
  let env = Softnic.Feature.make_env () in
  let builtin = Softnic.Registry.builtin () in
  let compute s = (Option.get (Softnic.Registry.find builtin s)).compute env pkt view in
  check ai64 "ip_checksum" 0L (compute "ip_checksum");
  check ai64 "csum_ok" 0L (compute "csum_ok");
  List.iter
    (fun (label, m, p, config) ->
      let device = Device.create_exn ~config m in
      check ab (label ^ " injected") true (Device.rx_inject device pkt);
      match Device.rx_consume device with
      | None -> Alcotest.fail (label ^ ": no completion")
      | Some (_, _, cmpt) ->
          List.iter
            (fun sem ->
              match read_semantic p sem cmpt with
              | Some v -> check ai64 (label ^ " " ^ sem) 0L v
              | None -> ())
            [ "ip_checksum"; "csum_ok" ])
    (catalog_paths ())

(* Pooled buffers: the frame is the first 40 bytes of a larger slot whose
   tail holds a previous occupant's bytes. Two different stale fills must
   give the same completion. *)
let test_ihl_overrun_pooled_slot () =
  let frame = ihl_overrun_frame () in
  List.iter
    (fun (label, m, _, config) ->
      let completion stale =
        let device = Device.create_exn ~config m in
        let slot = Bytes.init (Device.buf_size device) (fun i -> Char.chr (stale i land 0xff)) in
        Bytes.blit frame 0 slot 0 (Bytes.length frame);
        check ab (label ^ " injected") true
          (Device.rx_inject_raw device slot ~len:(Bytes.length frame));
        match Device.rx_consume device with
        | Some (_, _, cmpt) -> cmpt
        | None -> Alcotest.fail (label ^ ": no completion")
      in
      check Alcotest.bytes (label ^ " stale fill does not leak")
        (completion (fun i -> (7 * i) + 3))
        (completion (fun i -> (13 * i) + 101)))
    (catalog_paths ())

(* No truncated or byte-mutated frame raises through [rx_inject] on any
   catalog path. A mutation may rewrite the ethertype to IPv4 and the IHL,
   so every frame kind reaches the IPv4 semantics with any header
   length. *)
let prop_mutated_frames_never_raise =
  let bases =
    let draw profile n =
      let w = Packet.Workload.make ~seed:17L profile in
      List.init n (fun _ -> Packet.Workload.next w)
    in
    let inner =
      Packet.Builder.ipv4
        ~flow:
          (Packet.Fivetuple.make ~src_ip:1l ~dst_ip:2l ~src_port:10 ~dst_port:20
             ~proto:Packet.Hdr.Proto.tcp)
        (Packet.Builder.Tcp { seq = 0l; flags = 0 })
    in
    Array.of_list
      (List.concat_map
         (fun (p, n) -> draw p n)
         Packet.Workload.
           [
             (Min_size, 2); (Imix, 3); (Vlan_tagged, 2); (Ipv6_mix, 2);
             (Kvs { key_len = 9 }, 2); (Raw_stream { size = 96 }, 1);
           ]
      @ [
          Packet.Builder.vxlan ~vni:7
            ~outer_flow:
              (Packet.Fivetuple.make ~src_ip:3l ~dst_ip:4l ~src_port:4000 ~dst_port:4789
                 ~proto:Packet.Hdr.Proto.udp)
            ~inner;
        ])
  in
  let devices =
    lazy
      (List.map
         (fun (label, m, _, config) -> (label, Device.create_exn ~queue_depth:8 ~config m))
         (catalog_paths ()))
  in
  let gen =
    QCheck.Gen.(
      triple (int_bound (Array.length bases - 1)) nat
        (pair (opt (int_bound 15)) (list_size (int_bound 4) (pair nat (int_bound 255)))))
  in
  (* [ihl]: rewrite the ethertype to IPv4 and the IHL to this value. *)
  let frame (i, cut, (ihl, muts)) =
    let base = bases.(i) in
    let len = cut mod (base.Packet.Pkt.len + 1) in
    let b = Bytes.sub base.buf 0 len in
    (match ihl with
    | Some ihl when len > 14 ->
        Bytes.set_uint16_be b 12 0x0800;
        Bytes.set_uint8 b 14 (0x40 lor ihl)
    | _ -> ());
    List.iter (fun (pos, v) -> if len > 0 then Bytes.set_uint8 b (pos mod len) v) muts;
    Packet.Pkt.create b
  in
  QCheck.Test.make ~name:"truncated or mutated frames never raise on any path" ~count:300
    (QCheck.make ~print:(fun g -> Packet.Bitops.hex (frame g).buf) gen)
    (fun g ->
      let pkt = frame g in
      List.for_all
        (fun (_, device) ->
          Device.rx_inject device pkt && Device.rx_consume device <> None)
        (Lazy.force devices))

(* ------------------------------------------------------------------ *)
(* Failure injection *)

let test_corrupted_packets_flagged_end_to_end () =
  (* Wire corruption: the device's csum_ok goes to 0 and the application,
     reading through the compiled accessor, drops exactly the corrupted
     packets. *)
  let model, compiled = mlx5_compiled ~alpha:0.05 [ "csum_ok" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let w = Packet.Workload.make ~seed:44L Packet.Workload.Min_size in
  let dropped = ref 0 and kept = ref 0 in
  for i = 1 to 100 do
    let pkt = Packet.Workload.next w in
    let pkt = if i mod 4 = 0 then Packet.Builder.corrupt_ipv4_checksum pkt else pkt in
    assert (Device.rx_inject device pkt);
    match Device.rx_consume device with
    | None -> Alcotest.fail "no completion"
    | Some (_, _, cmpt) ->
        let ok =
          match List.assoc "csum_ok" compiled.bindings with
          | Opendesc.Compile.Hardware a -> a.a_get cmpt = 1L
          | Opendesc.Compile.Software _ -> Alcotest.fail "csum_ok should be hardware"
        in
        if ok then incr kept else incr dropped
  done;
  check ai "exactly the corrupted quarter dropped" 25 !dropped;
  check ai "the rest kept" 75 !kept

let test_completion_bitflip_changes_reads_only_locally () =
  (* Flipping bits inside one field of a completion must not disturb
     accessor reads of other fields (offsets are correct and disjoint). *)
  let model, compiled = mlx5_compiled ~alpha:0.05 [ "rss"; "vlan"; "pkt_len" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let pkt = Packet.Builder.raw ~len:80 ~fill:'f' in
  assert (Device.rx_inject device pkt);
  match Device.rx_consume device with
  | None -> Alcotest.fail "no completion"
  | Some (_, _, cmpt) ->
      let get sem =
        match List.assoc sem compiled.bindings with
        | Opendesc.Compile.Hardware a -> a.a_get cmpt
        | Opendesc.Compile.Software _ -> Alcotest.fail "expected hardware"
      in
      let vlan_before = get "vlan" and len_before = get "pkt_len" in
      (* Corrupt the rss field in place. *)
      let path = Opendesc.Compile.path compiled in
      let f = Option.get (Opendesc.Path.field_for path "rss") in
      Opendesc.Accessor.writer ~bit_off:f.l_bit_off ~bits:f.l_bits cmpt
        0xFFFFFFFFL;
      check ai64 "rss now corrupted" 0xFFFFFFFFL (get "rss");
      check ai64 "vlan untouched" vlan_before (get "vlan");
      check ai64 "pkt_len untouched" len_before (get "pkt_len")

(* ------------------------------------------------------------------ *)
(* Multi-queue steering *)

let test_mq_flow_affinity () =
  (* Every packet of a connection lands on the same queue; multiple
     queues actually get used. *)
  let model () = Nic_models.Mlx5.model () in
  let mini = [ ("cqe_comp", 1L); ("mini_fmt", 0L) ] in
  let mq =
    Mq.create_exn ~queue_depth:1024
      ~configs:[| mini; mini; mini; mini |]
      model
  in
  let w = Packet.Workload.make ~seed:71L ~flows:16 Packet.Workload.Min_size in
  let flow_queue : (Packet.Fivetuple.t, int) Hashtbl.t = Hashtbl.create 16 in
  for _ = 1 to 512 do
    let pkt = Packet.Workload.next w in
    let q = Mq.steer mq pkt in
    assert (Mq.rx_inject mq pkt);
    match Packet.Fivetuple.of_pkt pkt (Packet.Pkt.parse pkt) with
    | Some f -> (
        match Hashtbl.find_opt flow_queue f with
        | Some q' -> check ai "flow sticks to its queue" q' q
        | None -> Hashtbl.replace flow_queue f q)
    | None -> ()
  done;
  let used = Array.to_list (Mq.rx_counts mq) |> List.filter (fun c -> c > 0) in
  check ab "several queues used" true (List.length used >= 2);
  check ai "all packets delivered" 512
    (Array.fold_left ( + ) 0 (Mq.rx_counts mq))

let test_mq_per_queue_layouts () =
  (* Queue 0 compressed, queue 1 full CQE: each drains with its own
     completion size — two OpenDesc instances on one device type. *)
  let model () = Nic_models.Mlx5.model () in
  let mq =
    Mq.create_exn
      ~configs:[| [ ("cqe_comp", 1L); ("mini_fmt", 0L) ];
                  [ ("cqe_comp", 0L); ("mini_fmt", 0L) ] |]
      model
  in
  check ai "queue0 mini" 8 (Opendesc.Path.size (Device.active_path (Mq.queue mq 0)));
  check ai "queue1 full" 64 (Opendesc.Path.size (Device.active_path (Mq.queue mq 1)));
  let w = Packet.Workload.make ~seed:72L ~flows:32 Packet.Workload.Min_size in
  for _ = 1 to 128 do
    ignore (Mq.rx_inject mq (Packet.Workload.next w))
  done;
  Array.iteri
    (fun i expected_size ->
      let rec drain () =
        match Device.rx_consume (Mq.queue mq i) with
        | Some (_, _, cmpt) ->
            check ai
              (Printf.sprintf "queue %d completion size" i)
              expected_size (Bytes.length cmpt);
            drain ()
        | None -> ()
      in
      drain ())
    [| 8; 64 |]

let test_mq_unhashable_to_queue_zero () =
  let model () = Nic_models.Mlx5.model () in
  let mini = [ ("cqe_comp", 1L); ("mini_fmt", 0L) ] in
  let mq = Mq.create_exn ~configs:[| mini; mini |] model in
  let raw = Packet.Builder.raw ~len:64 ~fill:'u' in
  check ai "raw frames to queue 0" 0 (Mq.steer mq raw)

(* The digests pin each packet's queue (one byte per queue id) over many
   flows (almost every IMIX packet a new flow) and over few. They were
   taken with a flow->queue cache in front of the hash, so they also
   show that hashing every packet picks the same queues. *)
let steer_digest ~steer ~flows ~n profile =
  let model () = Nic_models.Mlx5.model () in
  let mini = [ ("cqe_comp", 1L); ("mini_fmt", 0L) ] in
  let mq = Mq.create_exn ~configs:[| mini; mini; mini; mini |] model in
  let w = Packet.Workload.make ~seed:15L ~flows profile in
  let qs = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set qs i (Char.chr (steer mq (Packet.Workload.next w)))
  done;
  Digest.to_hex (Digest.bytes qs)

let test_mq_steer_pinned () =
  let cached mq =
    let c = Mq.make_steer_cache () in
    Mq.steer_cached mq c
  in
  List.iter
    (fun (name, steer) ->
      check Alcotest.string (name ^ ": 65536 IMIX packets, 65536 flows")
        "a8229458506b1c28e6b8a652f0adba06"
        (steer_digest ~steer ~flows:65536 ~n:65536 Packet.Workload.Imix);
      check Alcotest.string (name ^ ": 4096 Min_size packets, 64 flows")
        "ce8d9fb58c013545a45d1d3b3a69191c"
        (steer_digest ~steer ~flows:64 ~n:4096 Packet.Workload.Min_size))
    [ ("steer", fun mq -> Mq.steer mq); ("steer_cached", cached) ]

let test_mq_steer_cached_is_steer () =
  let model () = Nic_models.Mlx5.model () in
  let mini = [ ("cqe_comp", 1L); ("mini_fmt", 0L) ] in
  let mq = Mq.create_exn ~configs:[| mini; mini; mini |] model in
  let cache = Mq.make_steer_cache () in
  List.iter
    (fun profile ->
      let w = Packet.Workload.make ~seed:5L ~flows:16 profile in
      for _ = 1 to 64 do
        let pkt = Packet.Workload.next w in
        check ai
          (Packet.Workload.profile_name profile)
          (Mq.steer mq pkt) (Mq.steer_cached mq cache pkt)
      done)
    Packet.Workload.[ Ipv6_mix; Vlan_tagged; Raw_stream { size = 96 } ]

(* ------------------------------------------------------------------ *)
(* Stacks *)

let softnic = Softnic.Registry.builtin ()

let run_stack ?(requested = [ "rss"; "vlan"; "pkt_len" ]) stack_of =
  let model, compiled = mlx5_compiled requested in
  let device = Device.create_exn ~config:compiled.config model in
  let workload = Packet.Workload.make ~seed:5L Packet.Workload.Min_size in
  let path = Device.active_path device in
  Stack.run ~pkts:256 ~device ~workload (stack_of ~path ~compiled)

let test_stacks_all_deliver () =
  let mk name stack_of =
    let stats = run_stack stack_of in
    check ai (name ^ " pkts") 256 stats.pkts;
    check ab (name ^ " cycles positive") true (stats.cycles_per_pkt > 0.0)
  in
  mk "skbuff" (fun ~path ~compiled:_ -> Hoststacks.skbuff ~path ~requested:[ "rss" ] ~softnic);
  mk "dpdk" (fun ~path ~compiled:_ -> Hoststacks.dpdk ~path ~requested:[ "rss" ] ~softnic);
  mk "xdp" (fun ~path ~compiled:_ -> Hoststacks.xdp ~path ~requested:[ "rss" ] ~softnic);
  mk "opendesc" (fun ~path:_ ~compiled -> Hoststacks.opendesc ~compiled);
  mk "streaming" (fun ~path:_ ~compiled:_ -> Hoststacks.streaming ~requested:[ "rss" ] ~softnic)

(* The folds [stack] returns, one per burst (by default one per packet:
   bursts of one), under [sink] if given, else under the run's ledger. *)
let burst_folds ?(pkts = 64) ?(batch = 1) ?sink ~device ~workload
    (stack : Stack.burst_t) =
  let values = ref [] in
  let wrapped =
    {
      stack with
      Stack.bt_consume =
        (fun ledger env b ->
          let v = stack.Stack.bt_consume (Option.value sink ~default:ledger) env b in
          values := v :: !values;
          v);
    }
  in
  let _ = Stack.run ~pkts ~batch ~device ~workload wrapped in
  List.rev !values

(* All stacks must agree on the values they deliver to the application —
   they differ in cost, never in answers. *)
let test_stacks_agree_on_values () =
  let requested = [ "rss"; "vlan"; "pkt_len" ] in
  let model, compiled = mlx5_compiled requested in
  let collect stack_of =
    (* fresh device per stack, same seed -> same packets *)
    let device = Device.create_exn ~config:compiled.config model in
    let workload = Packet.Workload.make ~seed:7L Packet.Workload.Vlan_tagged in
    let path = Device.active_path device in
    burst_folds ~device ~workload (stack_of ~path)
  in
  let skbuff = collect (fun ~path -> Hoststacks.skbuff ~path ~requested ~softnic) in
  let dpdk = collect (fun ~path -> Hoststacks.dpdk ~path ~requested ~softnic) in
  let xdp = collect (fun ~path -> Hoststacks.xdp ~path ~requested ~softnic) in
  let opendesc = collect (fun ~path:_ -> Hoststacks.opendesc ~compiled) in
  check ab "skbuff == dpdk" true (skbuff = dpdk);
  check ab "dpdk == xdp" true (dpdk = xdp);
  check ab "xdp == opendesc" true (xdp = opendesc)

let test_xdp_pays_for_unexposed_semantics () =
  (* csum_ok is in the mlx5 CQE but not among the XDP accessors: the XDP
     stack must fall back to software while opendesc reads hardware. *)
  let requested = [ "csum_ok" ] in
  let model, compiled = mlx5_compiled requested in
  let device = Device.create_exn ~config:compiled.config model in
  let path = Device.active_path device in
  let xdp =
    Stack.run ~pkts:128 ~device
      ~workload:(Packet.Workload.make ~seed:1L Packet.Workload.Min_size)
      (Hoststacks.xdp ~path ~requested ~softnic)
  in
  let od =
    Stack.run ~pkts:128 ~device
      ~workload:(Packet.Workload.make ~seed:1L Packet.Workload.Min_size)
      (Hoststacks.opendesc ~compiled)
  in
  check ab "xdp recomputes in software" true
    (List.mem_assoc "soft_csum_ok" xdp.breakdown);
  check ab "opendesc reads hardware" false (List.mem_assoc "soft_csum_ok" od.breakdown);
  check ab "opendesc faster" true (od.cycles_per_pkt < xdp.cycles_per_pkt)

let test_streaming_collapses_on_metadata () =
  (* ENSO-style wins on raw payload but collapses when the app needs a
     hash (the paper's §2 observation). *)
  let model, compiled = mlx5_compiled [ "rss" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let mk seed = Packet.Workload.make ~seed Packet.Workload.(Raw_stream { size = 64 }) in
  let streaming_raw =
    Stack.run ~pkts:128 ~device ~workload:(mk 1L)
      (Hoststacks.streaming ~requested:[] ~softnic)
  in
  let streaming_rss =
    Stack.run ~pkts:128 ~device ~workload:(mk 2L)
      (Hoststacks.streaming ~requested:[ "rss" ] ~softnic)
  in
  let od_rss =
    Stack.run ~pkts:128 ~device ~workload:(mk 3L) (Hoststacks.opendesc ~compiled)
  in
  check ab "raw streaming cheapest" true
    (streaming_raw.cycles_per_pkt < od_rss.cycles_per_pkt);
  check ab "metadata collapses streaming" true
    (streaming_rss.cycles_per_pkt > od_rss.cycles_per_pkt)

let test_aggregator_roundtrip () =
  let rxs =
    List.init 5 (fun i ->
        let len = 60 + (7 * i) in
        (Bytes.make len (Char.chr (Char.code 'a' + i)), len, Bytes.make 8 (Char.chr i)))
  in
  let frame = Aggregator.build ~cmpt_size:8 rxs in
  check ai "count" 5 (Aggregator.count frame);
  let seen = ref 0 in
  Aggregator.iter ~cmpt_size:8 frame ~f:(fun ~pkt_off ~len ~cmpt_off ->
      let i = !seen in
      check ai "len" (60 + (7 * i)) len;
      check ai "cmpt byte" i (Char.code (Bytes.get frame cmpt_off));
      check ai "pkt byte" (Char.code 'a' + i) (Char.code (Bytes.get frame pkt_off));
      incr seen);
  check ai "walked all" 5 !seen

let test_aggregator_truncated_rejected () =
  let frame = Aggregator.build ~cmpt_size:4 [ (Bytes.make 60 'x', 60, Bytes.make 4 'm') ] in
  let cut = Bytes.sub frame 0 (Bytes.length frame - 10) in
  match Aggregator.iter ~cmpt_size:4 cut ~f:(fun ~pkt_off:_ ~len:_ ~cmpt_off:_ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected truncation error"

let test_asni_between_opendesc_and_streaming () =
  (* Real aggregated frames: cheaper than per-packet descriptors, and the
     values read from in-frame metadata match the per-packet path. *)
  let model, compiled = mlx5_compiled [ "rss" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let mk seed = Packet.Workload.make ~seed Packet.Workload.Min_size in
  let od =
    Stack.run ~pkts:256 ~device ~workload:(mk 1L) (Hoststacks.opendesc ~compiled)
  in
  let asni =
    Stack.run ~pkts:256 ~device ~workload:(mk 2L) (Hoststacks.asni ~compiled)
  in
  check ab "asni cheaper than descriptor rings" true
    (asni.cycles_per_pkt < od.cycles_per_pkt);
  (* value agreement with the per-packet stack on identical traffic *)
  let folds stack =
    let device = Device.create_exn ~config:compiled.config model in
    burst_folds ~device ~workload:(mk 3L) stack
  in
  check ab "frame reads == per-packet reads" true
    (folds (Hoststacks.asni ~compiled) = folds (Hoststacks.opendesc ~compiled))

let test_simd_amortizes () =
  let model, compiled = mlx5_compiled [ "rss" ] in
  let device = Device.create_exn ~config:compiled.config model in
  let mk seed = Packet.Workload.make ~seed Packet.Workload.Min_size in
  let scalar =
    Stack.run ~pkts:256 ~device ~workload:(mk 1L) (Hoststacks.opendesc ~compiled)
  in
  let simd =
    Stack.run ~pkts:256 ~device ~workload:(mk 2L) (Hoststacks.opendesc_simd ~compiled)
  in
  check ab "simd cheaper" true (simd.cycles_per_pkt < scalar.cycles_per_pkt)

(* The model's figures, pinned exactly: cycles/pkt and every ledger
   entry (hex floats, entries sorted by name) of each coordination model
   on two fixtures, at batch 1 and at batch 32, over 256 IMIX packets.
   The mlx5 fixture reads all three semantics from the full CQE; the
   e1000 one reads [ip_checksum] and shims the other three, [kvs_key]
   among them through its boxed [compute]. *)
let pin_fixtures () =
  let mlx5, mlx5_c = mlx5_compiled ~alpha:0.05 [ "rss"; "vlan"; "csum_ok" ] in
  let e1000 = Nic_models.E1000.newer () in
  let e1000_c =
    Opendesc.Compile.run_exn ~intent:Nic_models.Catalog.fig1_intent e1000.spec
  in
  [ ("mlx5", mlx5, mlx5_c); ("e1000", e1000, e1000_c) ]

let pin_line name (s : Stats.t) =
  String.concat " "
    (Printf.sprintf "%s %h" name s.cycles_per_pkt
    :: List.map
         (fun (k, v) -> Printf.sprintf "%s=%h" k v)
         (List.sort compare s.breakdown))

let pin_runs () =
  List.concat_map
    (fun (fx, model, (compiled : Opendesc.Compile.t)) ->
      let requested = Opendesc.Intent.required compiled.intent in
      let path = Opendesc.Compile.path compiled in
      List.concat_map
        (fun batch ->
          let device () = Device.create_exn ~config:compiled.config model in
          let workload () = Packet.Workload.make ~seed:41L Packet.Workload.Imix in
          let run name stack =
            pin_line
              (Printf.sprintf "%s/%s/b%d" name fx batch)
              (Stack.run ~pkts:256 ~batch ~device:(device ()) ~workload:(workload ())
                 stack)
          in
          [
            run "skbuff" (Hoststacks.skbuff ~path ~requested ~softnic);
            run "dpdk" (Hoststacks.dpdk ~path ~requested ~softnic);
            run "xdp" (Hoststacks.xdp ~path ~requested ~softnic);
            run "streaming" (Hoststacks.streaming ~requested ~softnic);
            run "opendesc" (Hoststacks.opendesc ~compiled);
            run "opendesc_simd" (Hoststacks.opendesc_simd ~compiled);
            run "opendesc_batched" (Hoststacks.opendesc_batched ~compiled);
            run "asni" (Hoststacks.asni ~compiled);
          ])
        [ 1; 32 ])
    (pin_fixtures ())

let pinned_ledgers =
  [
    "skbuff/mlx5/b1 0x1.ccp+7 alloc=0x1.b8p+6 app_read=0x1.8p+1 desc_load=0x1.2p+4 \
     extract=0x1.54p+6 refill=0x1p+3 ring=0x1.8p+2";
    "dpdk/mlx5/b1 0x1.bcp+6 alloc=0x1.8p+4 app_read=0x1.8p+1 desc_load=0x1.2p+4 \
     extract=0x1.ap+5 refill=0x1p+3 ring=0x1.8p+2";
    "xdp/mlx5/b1 0x1.0fp+8 accessor=0x1.4p+2 desc_load=0x1.2p+4 refill=0x1p+3 \
     ring=0x1.8p+2 soft_csum_ok=0x1.9p+7 sw_parse=0x1.6p+4 xdp_prologue=0x1.8p+3";
    "streaming/mlx5/b1 0x1.bc800a3d70a42p+8 refill=0x1p+0 ring=0x1.8p-1 \
     soft_csum_ok=0x1.9p+7 soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 \
     stream=0x1.570028f5c2907p+6 sw_parse=0x1.6p+4";
    "opendesc/mlx5/b1 0x1.3cp+5 accessor=0x1.ep+2 desc_load=0x1.2p+4 refill=0x1p+3 \
     ring=0x1.8p+2";
    "opendesc_simd/mlx5/b1 0x1.1p+4 accessor=0x1.ep+2 desc_load=0x1.2p+2 refill=0x1p+1 \
     ring=0x1.8p+0 simd_swizzle=0x1.8p+0";
    "opendesc_batched/mlx5/b1 0x1.3ep+6 accessor=0x1.ep+2 desc_load=0x1.2p+4 \
     doorbell=0x1.4p+5 refill=0x1p+3 ring=0x1.8p+2";
    "asni/mlx5/b1 0x1.be6666666666dp+4 accessor=0x1.ep+2 \
     inline_md=0x1.99999999999b4p+2 refill=0x1p+3 ring=0x1.8p+2";
    "skbuff/mlx5/b32 0x1.ccp+7 alloc=0x1.b8p+6 app_read=0x1.8p+1 desc_load=0x1.2p+4 \
     extract=0x1.54p+6 refill=0x1p+3 ring=0x1.8p+2";
    "dpdk/mlx5/b32 0x1.bcp+6 alloc=0x1.8p+4 app_read=0x1.8p+1 desc_load=0x1.2p+4 \
     extract=0x1.ap+5 refill=0x1p+3 ring=0x1.8p+2";
    "xdp/mlx5/b32 0x1.0fp+8 accessor=0x1.4p+2 desc_load=0x1.2p+4 refill=0x1p+3 \
     ring=0x1.8p+2 soft_csum_ok=0x1.9p+7 sw_parse=0x1.6p+4 xdp_prologue=0x1.8p+3";
    "streaming/mlx5/b32 0x1.bc800a3d70a42p+8 refill=0x1p+0 ring=0x1.8p-1 \
     soft_csum_ok=0x1.9p+7 soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 \
     stream=0x1.570028f5c2907p+6 sw_parse=0x1.6p+4";
    "opendesc/mlx5/b32 0x1.3cp+5 accessor=0x1.ep+2 desc_load=0x1.2p+4 refill=0x1p+3 \
     ring=0x1.8p+2";
    "opendesc_simd/mlx5/b32 0x1.1p+4 accessor=0x1.ep+2 desc_load=0x1.2p+2 \
     refill=0x1p+1 ring=0x1.8p+0 simd_swizzle=0x1.8p+0";
    "opendesc_batched/mlx5/b32 0x1.b3p+4 accessor=0x1.ep+2 desc_load=0x1.2p+4 \
     doorbell=0x1.4p+0 refill=0x1p-2 ring=0x1.8p-3";
    "asni/mlx5/b32 0x1.cacccccccccdap+3 accessor=0x1.ep+2 \
     inline_md=0x1.99999999999b4p+2 refill=0x1p-2 ring=0x1.8p-3";
    "skbuff/e1000/b1 0x1.95p+8 alloc=0x1.b8p+6 app_read=0x1p+0 desc_load=0x1.2p+4 \
     extract=0x1.9p+4 refill=0x1p+3 ring=0x1.8p+2 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "dpdk/e1000/b1 0x1.4fp+8 alloc=0x1.8p+4 app_read_dyn=0x1.cp+3 desc_load=0x1.2p+4 \
     dyn_extract=0x1.1p+4 extract=0x1.6p+3 refill=0x1p+3 ring=0x1.8p+2 \
     soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "xdp/e1000/b1 0x1.cdp+8 desc_load=0x1.2p+4 refill=0x1p+3 ring=0x1.8p+2 \
     soft_ip_checksum=0x1.68p+7 soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 \
     soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4 xdp_prologue=0x1.8p+3";
    "streaming/e1000/b1 0x1.f8800a3d70a42p+8 refill=0x1p+0 ring=0x1.8p-1 \
     soft_ip_checksum=0x1.68p+7 soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 \
     soft_vlan=0x1.ep+3 stream=0x1.570028f5c2907p+6 sw_parse=0x1.6p+4";
    "opendesc/e1000/b1 0x1.0f8p+8 accessor=0x1.4p+1 desc_load=0x1.2p+4 refill=0x1p+3 \
     ring=0x1.8p+2 soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 \
     sw_parse=0x1.6p+4";
    "opendesc_simd/e1000/b1 0x1.f2p+7 accessor=0x1.4p+1 desc_load=0x1.2p+2 \
     refill=0x1p+1 ring=0x1.8p+0 simd_swizzle=0x1.8p+0 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "opendesc_batched/e1000/b1 0x1.378p+8 accessor=0x1.4p+1 desc_load=0x1.2p+4 \
     doorbell=0x1.4p+5 refill=0x1p+3 ring=0x1.8p+2 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "asni/e1000/b1 0x1.fc9999999999ap+7 accessor=0x1.4p+1 \
     inline_md=0x1.99999999999b4p-1 refill=0x1p+3 ring=0x1.8p+2 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "skbuff/e1000/b32 0x1.95p+8 alloc=0x1.b8p+6 app_read=0x1p+0 desc_load=0x1.2p+4 \
     extract=0x1.9p+4 refill=0x1p+3 ring=0x1.8p+2 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "dpdk/e1000/b32 0x1.4fp+8 alloc=0x1.8p+4 app_read_dyn=0x1.cp+3 desc_load=0x1.2p+4 \
     dyn_extract=0x1.1p+4 extract=0x1.6p+3 refill=0x1p+3 ring=0x1.8p+2 \
     soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "xdp/e1000/b32 0x1.cdp+8 desc_load=0x1.2p+4 refill=0x1p+3 ring=0x1.8p+2 \
     soft_ip_checksum=0x1.68p+7 soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 \
     soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4 xdp_prologue=0x1.8p+3";
    "streaming/e1000/b32 0x1.f8800a3d70a42p+8 refill=0x1p+0 ring=0x1.8p-1 \
     soft_ip_checksum=0x1.68p+7 soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 \
     soft_vlan=0x1.ep+3 stream=0x1.570028f5c2907p+6 sw_parse=0x1.6p+4";
    "opendesc/e1000/b32 0x1.0f8p+8 accessor=0x1.4p+1 desc_load=0x1.2p+4 refill=0x1p+3 \
     ring=0x1.8p+2 soft_kvs_key=0x1.4p+6 soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 \
     sw_parse=0x1.6p+4";
    "opendesc_simd/e1000/b32 0x1.f2p+7 accessor=0x1.4p+1 desc_load=0x1.2p+2 \
     refill=0x1p+1 ring=0x1.8p+0 simd_swizzle=0x1.8p+0 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "opendesc_batched/e1000/b32 0x1.e6ep+7 accessor=0x1.4p+1 desc_load=0x1.2p+1 \
     doorbell=0x1.4p+0 refill=0x1p-2 ring=0x1.8p-3 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
    "asni/e1000/b32 0x1.e17999999999ap+7 accessor=0x1.4p+1 \
     inline_md=0x1.99999999999b4p-1 refill=0x1p-2 ring=0x1.8p-3 soft_kvs_key=0x1.4p+6 \
     soft_rss=0x1.ep+6 soft_vlan=0x1.ep+3 sw_parse=0x1.6p+4";
  ]

let test_ledgers_pinned () =
  check (Alcotest.list Alcotest.string) "ledgers" pinned_ledgers (pin_runs ())

(* Every stack decodes the same folds with a ledger as without one, and
   the generated runtime folds the same values one packet at a time
   (reading through each accessor's [a_get] and each shim's [compute]),
   in lanes, burst at a time (by field shape and int core) and from an
   aggregated frame. Each side gets a fresh device and env, so stateful
   shims start from the same registers. *)
let test_null_decodes_as_ledger () =
  List.iter
    (fun (fx, model, (compiled : Opendesc.Compile.t)) ->
      let requested = Opendesc.Intent.required compiled.intent in
      let path = Opendesc.Compile.path compiled in
      let fold ?sink stack =
        burst_folds ~pkts:256 ~batch:32 ?sink
          ~device:(Device.create_exn ~config:compiled.config model)
          ~workload:(Packet.Workload.make ~seed:43L Packet.Workload.Imix)
          stack
      in
      let folds name stack =
        let null = fold ~sink:Cost.null stack in
        check (Alcotest.list ai64) (Printf.sprintf "%s/%s: Null = Ledger" name fx)
          (fold stack) null;
        null
      in
      List.iter
        (fun (name, stack) -> ignore (folds name stack))
        [
          ("skbuff", Hoststacks.skbuff ~path ~requested ~softnic);
          ("dpdk", Hoststacks.dpdk ~path ~requested ~softnic);
          ("xdp", Hoststacks.xdp ~path ~requested ~softnic);
          ("streaming", Hoststacks.streaming ~requested ~softnic);
        ];
      let od = folds "opendesc" (Hoststacks.opendesc ~compiled) in
      List.iter
        (fun (name, stack) ->
          check (Alcotest.list ai64)
            (Printf.sprintf "%s/%s folds as opendesc" name fx)
            od (folds name stack))
        [
          ("opendesc_simd", Hoststacks.opendesc_simd ~compiled);
          ("opendesc_batched", Hoststacks.opendesc_batched ~compiled);
          ("asni", Hoststacks.asni ~compiled);
        ])
    (pin_fixtures ())

(* DMA accounting property: device traffic is exactly
   Σ (len + 2-byte prefix + completion size) over accepted packets —
   injected directly, and through a fault wrapper that duplicates every
   completion, where a duplicate re-delivers the frame and the
   completion and so costs what the original did. *)
let prop_dma_accounting =
  QCheck.Test.make ~name:"device DMA bytes = packets + completions" ~count:50
    QCheck.(pair (int_bound 6) (int_range 1 64))
    (fun (nic_idx, n) ->
      let models = Nic_models.Catalog.all () in
      let model = List.nth models (nic_idx mod List.length models) in
      let compiled =
        Opendesc.Compile.run_exn ~intent:(Opendesc.Intent.make [ ("pkt_len", 16) ])
          model.spec
      in
      (* [inject device] returns the per-packet injection, which answers
         how many copies of the packet the device delivered. *)
      let accounts inject =
        match Device.create ~config:compiled.config model with
        | Error _ -> false
        | Ok device ->
            let cmpt = Opendesc.Path.size (Device.active_path device) in
            let inject = inject device in
            let w = Packet.Workload.make ~seed:(Int64.of_int n) Packet.Workload.Imix in
            let expected = ref 0 in
            for _ = 1 to n do
              let pkt = Packet.Workload.next w in
              expected := !expected + (inject pkt * (Packet.Pkt.len pkt + 2 + cmpt))
            done;
            Device.dma_bytes device = !expected
      in
      let plain device pkt = if Device.rx_inject device pkt then 1 else 0 in
      let duplicating device =
        let fq =
          Fault.wrap { (Fault.zero_plan 23L) with Fault.duplicate_rate = 1.0 } device
        in
        fun pkt ->
          let c = Fault.counters fq in
          let before = c.Fault.rx_accepted + c.Fault.duplicates in
          ignore (Fault.rx_inject fq pkt);
          c.Fault.rx_accepted + c.Fault.duplicates - before
      in
      accounts plain && accounts duplicating)

(* ------------------------------------------------------------------ *)
(* Cost / Stats *)

let test_cost_ledger () =
  let l = Cost.create () in
  let sink = Cost.ledger l in
  Cost.charge sink "a" 1.0;
  Cost.charge sink "a" 2.0;
  Cost.charge sink "b" 5.0;
  Cost.charge Cost.null "b" 7.0;
  check (Alcotest.float 0.001) "total" 8.0 (Cost.total l);
  check ab "sorted breakdown" true (Cost.breakdown l = [ ("b", 5.0); ("a", 3.0) ]);
  Cost.reset l;
  check (Alcotest.float 0.001) "reset" 0.0 (Cost.total l)

let test_stats_ratio () =
  let mk cycles =
    let l = Cost.create () in
    Cost.charge (Cost.ledger l) "x" (cycles *. 100.0);
    Stats.make ~name:"s" ~pkts:100 ~ledger:l ~dma_bytes:0 ~drops:0
  in
  check (Alcotest.float 0.001) "2x" 2.0 (Stats.ratio (mk 50.0) (mk 100.0))

let test_pps_latency_conversions () =
  check ab "pps positive" true (Cost.pps_of_cycles 100.0 > 0.0);
  check ab "latency includes fixed" true
    (Cost.latency_ns_of_cycles 0.0 > 0.0)

(* ------------------------------------------------------------------ *)
(* Dma/Ring zero-copy reads *)

let test_dma_dev_read_into () =
  let d = Dma.create 64 in
  Dma.dev_write d ~off:8 (Bytes.of_string "metadata") ~pos:0 ~len:8;
  let buf = Bytes.make 12 '.' in
  Dma.dev_read_into d ~off:8 ~buf ~pos:2 ~len:8;
  check Alcotest.bytes "copied in place" (Bytes.of_string "..metadata..") buf;
  check ai "read counted" 8 (Dma.dev_read_bytes d)

let test_ring_consume_dev_into () =
  let r = Ring.create ~slots:4 ~slot_size:4 in
  ignore (Ring.produce_host r (Bytes.of_string "desc"));
  let dst = Bytes.make 4 '\x00' in
  check ab "consumed" true (Ring.consume_dev_into r dst);
  check Alcotest.bytes "slot copied" (Bytes.of_string "desc") dst;
  check ai "read counted" 4 (Dma.dev_read_bytes (Ring.dma r));
  check ab "empty rejects" false (Ring.consume_dev_into r dst)

(* ------------------------------------------------------------------ *)
(* Mq drain_batched arity check *)

let test_mq_drain_batched_arity () =
  let model () = Nic_models.Mlx5.model () in
  let mini = [ ("cqe_comp", 1L); ("mini_fmt", 0L) ] in
  let mq = Mq.create_exn ~configs:[| mini; mini |] model in
  let bursts = Mq.bursts mq in
  Alcotest.check_raises "short burst array rejected"
    (Invalid_argument "Mq.drain_batched: 1 bursts for 2 queues") (fun () ->
      ignore (Mq.drain_batched mq (Array.sub bursts 0 1) ~f:(fun _ _ -> ())))

(* ------------------------------------------------------------------ *)
(* Parallel: sharded-stats merge, differential equivalence *)

let test_stats_merge () =
  let shard name pkts cycles comp =
    let l = Cost.create () in
    Cost.charge (Cost.ledger l) comp (cycles *. float_of_int pkts);
    Stats.make ~name ~pkts ~ledger:l ~dma_bytes:(10 * pkts) ~drops:1
    |> Stats.with_bursts ~bursts:2 ~burst_hist:[ (32, 2) ]
  in
  let m = Stats.merge ~name:"m" [ shard "a" 100 10.0 "x"; shard "b" 300 20.0 "y" ] in
  check ai "pkts sum" 400 m.Stats.pkts;
  (* packet-weighted: (100*10 + 300*20) / 400 = 17.5 *)
  check (Alcotest.float 0.001) "weighted cycles" 17.5 m.Stats.cycles_per_pkt;
  check (Alcotest.float 0.001) "weighted dma" 10.0 m.Stats.dma_bytes_per_pkt;
  check ai "drops sum" 2 m.Stats.drops;
  check ai "bursts sum" 4 m.Stats.bursts;
  check ab "hist merged" true (m.Stats.burst_hist = [ (32, 4) ]);
  (* y carries 300*20=6000 of the 7000 total cycles, so it leads. *)
  check ab "breakdown sorted by weighted cost" true
    (List.map fst m.Stats.breakdown = [ "y"; "x" ])

(* The sequential oracle: same workload through Mq.rx_inject +
   drain_batched on one domain, collecting per-queue delivery order and
   the summed consumer digest (which is per-packet, so partitioning into
   different bursts cannot change it). *)
let sequential_reference ~stack ~mq ~pkts ~workload =
  let nq = Mq.queues mq in
  let bursts = Mq.bursts ~capacity:64 mq in
  let delivered = Array.make nq [] in
  let env = Softnic.Feature.make_env () in
  let ledger = Cost.create () in
  let sink = ref 0L in
  let total = ref 0 in
  let f q (b : Device.burst) =
    sink := Int64.add !sink (stack.Stack.bt_consume (Cost.ledger ledger) env b);
    for i = 0 to b.Device.bs_count - 1 do
      delivered.(q) <-
        Bytes.sub b.Device.bs_pkts.(i) 0 b.Device.bs_lens.(i) :: delivered.(q)
    done
  in
  for i = 1 to pkts do
    ignore (Mq.rx_inject mq (Packet.Workload.next workload));
    if i mod 32 = 0 then total := !total + Mq.drain_batched mq bursts ~f
  done;
  let rec drain () =
    let n = Mq.drain_batched mq bursts ~f in
    if n > 0 then begin
      total := !total + n;
      drain ()
    end
  in
  drain ();
  (Array.map List.rev delivered, !total, !sink)

let parallel_fixture () =
  let model () = Nic_models.Mlx5.model () in
  let _, compiled = mlx5_compiled ~alpha:0.05 [ "rss"; "pkt_len" ] in
  let mq () =
    Mq.create_exn ~queue_depth:1024 ~configs:(Array.make 4 compiled.config) model
  in
  let workload () =
    Packet.Workload.make ~seed:91L ~flows:32 Packet.Workload.Min_size
  in
  (compiled, mq, workload)

let test_parallel_matches_sequential () =
  let compiled, mq, workload = parallel_fixture () in
  let pkts = 512 in
  let stack = Hoststacks.opendesc_batched ~compiled in
  let seq_delivered, seq_total, seq_sink =
    sequential_reference ~stack ~mq:(mq ()) ~pkts ~workload:(workload ())
  in
  check ai "sequential delivers all" pkts seq_total;
  List.iter
    (fun domains ->
      let r =
        Parallel.run ~domains ~batch:32 ~collect:true ~mq:(mq ())
          ~stack:(fun _ -> stack)
          ~pkts ~workload:(workload ()) ()
      in
      let tag fmt = Printf.sprintf "%s (domains=%d)" fmt domains in
      check ai (tag "all delivered") pkts r.Parallel.pkts;
      check ai (tag "nothing stranded") 0 r.Parallel.stranded;
      check ai (tag "no drops") 0 r.Parallel.drops;
      check ai64 (tag "digest matches sequential") seq_sink r.Parallel.sink;
      check ai (tag "merged stats pkts") pkts r.Parallel.stats.Stats.pkts;
      let delivered = Option.get r.Parallel.delivered in
      Array.iteri
        (fun q seq_q ->
          check ai
            (tag (Printf.sprintf "queue %d count" q))
            (List.length seq_q)
            r.Parallel.per_queue.(q);
          check ab
            (tag (Printf.sprintf "queue %d bytes identical in order" q))
            true
            (List.equal Bytes.equal seq_q delivered.(q)))
        seq_delivered)
    [ 1; 2; 4 ]

let test_parallel_shutdown_clean () =
  (* A handoff ring far smaller than the stream forces backpressure; the
     run must still join every domain with nothing stranded or dropped. *)
  let compiled, mq, workload = parallel_fixture () in
  let pkts = 300 in
  let r =
    Parallel.run ~domains:2 ~batch:16 ~ring_capacity:64 ~mq:(mq ())
      ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled)
      ~pkts ~workload:(workload ()) ()
  in
  check ai "all delivered" pkts r.Parallel.pkts;
  check ai "nothing stranded" 0 r.Parallel.stranded;
  check ai "no drops" 0 r.Parallel.drops;
  check ai "per-queue sums to total" pkts
    (Array.fold_left ( + ) 0 r.Parallel.per_queue);
  check ai "one shard per worker" 2 (Array.length r.Parallel.domain_stats)

(* ------------------------------------------------------------------ *)
(* Pktring: the zero-allocation byte handoff ring *)

let test_pktring_basic () =
  let r = Parallel.Pktring.create ~capacity:5 ~slot_size:8 in
  check ai "capacity rounds to pow2" 8 (Parallel.Pktring.capacity r);
  check ai "slot size" 8 (Parallel.Pktring.slot_size r);
  check ai "peek empty" (-1) (Parallel.Pktring.peek r);
  for i = 0 to 7 do
    let b = Bytes.make 8 (Char.chr (Char.code 'a' + i)) in
    check ab "push" true (Parallel.Pktring.try_push r b ~len:(i + 1) ~qid:i)
  done;
  (* The failing push on a full ring force-publishes the staged slots,
     so the consumer sees all eight even though the publication batch
     (16) was never reached. *)
  check ab "full rejects" false
    (Parallel.Pktring.try_push r (Bytes.make 8 'z') ~len:8 ~qid:0);
  for i = 0 to 7 do
    let s = Parallel.Pktring.peek r in
    check ab "peek nonempty" true (s >= 0);
    check ai "len" (i + 1) (Parallel.Pktring.len r s);
    check ai "qid" i (Parallel.Pktring.qid r s);
    check Alcotest.char "payload"
      (Char.chr (Char.code 'a' + i))
      (Bytes.get (Parallel.Pktring.buf r s) 0);
    Parallel.Pktring.advance r
  done;
  check ai "drained" (-1) (Parallel.Pktring.peek r)

let test_pktring_oversize_truncated () =
  (* A packet longer than the slot is staged truncated but keeps its true
     length, so the consumer's inject can reject it on the length check
     before ever reading the payload. *)
  let r = Parallel.Pktring.create ~capacity:4 ~slot_size:4 in
  let big = Bytes.init 10 (fun i -> Char.chr (Char.code '0' + i)) in
  check ab "push oversize" true (Parallel.Pktring.try_push r big ~len:10 ~qid:3);
  Parallel.Pktring.flush r;
  let s = Parallel.Pktring.peek r in
  check ab "staged" true (s >= 0);
  check ai "true length survives" 10 (Parallel.Pktring.len r s);
  check ab "payload truncated to slot" true
    (Bytes.equal
       (Bytes.sub (Parallel.Pktring.buf r s) 0 4)
       (Bytes.of_string "0123"));
  Parallel.Pktring.advance r;
  check ai "drained" (-1) (Parallel.Pktring.peek r)

let test_pktring_cross_domain () =
  (* Producer domain blitting varied-length payloads through a ring much
     smaller than the stream; the consumer checks content, length and
     qid in order across many wraparounds and batched publications. *)
  let slot = 16 and n = 10_000 in
  let r = Parallel.Pktring.create ~capacity:32 ~slot_size:slot in
  let payload i = Bytes.make (1 + (i mod slot)) (Char.chr (i land 0xff)) in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          let p = payload i in
          while
            not
              (Parallel.Pktring.try_push r p ~len:(Bytes.length p)
                 ~qid:(i mod 7))
          do
            Domain.cpu_relax ()
          done
        done;
        Parallel.Pktring.flush r)
  in
  let got = ref 0 and i = ref 1 and ok = ref true in
  while !got < n do
    let s = Parallel.Pktring.peek r in
    if s < 0 then Domain.cpu_relax ()
    else begin
      let expect = payload !i in
      let l = Parallel.Pktring.len r s in
      ok :=
        !ok && l = Bytes.length expect
        && Parallel.Pktring.qid r s = !i mod 7
        && Bytes.equal (Bytes.sub (Parallel.Pktring.buf r s) 0 l) expect;
      Parallel.Pktring.advance r;
      incr i;
      incr got
    end
  done;
  Domain.join producer;
  check ab "all slots arrived intact, in order" true !ok;
  check ai "drained" (-1) (Parallel.Pktring.peek r)

let test_stats_merge_idle () =
  let shard name spins parks wakes =
    Stats.make ~name ~pkts:1 ~ledger:(Cost.create ()) ~dma_bytes:0 ~drops:0
    |> Stats.with_idle ~spins ~parks ~wakes
  in
  let m = Stats.merge ~name:"m" [ shard "a" 10 2 1; shard "b" 5 3 2 ] in
  check ai "spins sum" 15 m.Stats.spins;
  check ai "parks sum" 5 m.Stats.parks;
  check ai "wakes sum" 3 m.Stats.wakes

(* The rx_min64_hw benchmark workload's datapath: mlx5 full 64-byte
   CQE serving rss, pkt_len, vlan and csum_ok in hardware, 64 B packets
   over 4 queues. *)
let rx_min64_hw_fixture () =
  let model () = Nic_models.Mlx5.model () in
  let _, compiled = mlx5_compiled ~alpha:0.05 [ "rss"; "pkt_len"; "vlan"; "csum_ok" ] in
  check ai "full CQE" 64 (Opendesc.Path.size (Opendesc.Compile.path compiled));
  check ab "all hardware" true (Opendesc.Compile.missing compiled = []);
  let mq () =
    Mq.create_exn ~queue_depth:1024 ~configs:(Array.make 4 compiled.config) model
  in
  let workload () =
    Packet.Workload.make ~seed:91L ~flows:64 Packet.Workload.Min_size
  in
  (compiled, mq, workload)

(* Regression: inject + harvest + decode allocate nothing per packet,
   and neither does the live producer. Both fixtures measure about 0.4
   words/pkt pregenerated, all of it per burst or per run (timing
   samples, the burst's boxed int64 result), and about as much live: the
   producer generates every frame into one buffer and steers it in
   place. A [Pkt.t] or a parsed view per packet (3 or 13 words), a
   per-packet closure, a boxed option on the handoff, a boxed field
   value, a Bytes.create in the drain loop, a whole-slot copy through a
   fresh buffer, or a generator that allocates its frames ([next] costs
   47 words per 64 B frame) trips the budget. *)
let minor_words_budget = 2.0

let test_parallel_gc_budget () =
  List.iter
    (fun ((name, (compiled, mq, workload)), pregen) ->
      let name = Printf.sprintf "%s, %s" name (if pregen then "pregenerated" else "live") in
      let pkts = 4096 in
      let r =
        Parallel.run ~domains:1 ~batch:32 ~account:false ~pregen ~mq:(mq ())
          ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled)
          ~pkts ~workload:(workload ()) ()
      in
      check ai (name ^ ": all delivered") pkts r.Parallel.pkts;
      check ab
        (Printf.sprintf "%s: minor words/pkt %.2f within budget %.0f" name
           r.Parallel.minor_words_per_pkt minor_words_budget)
        true
        (r.Parallel.minor_words_per_pkt <= minor_words_budget);
      check ab (name ^ ": hot path skips the cost model") true
        (Array.for_all (fun c -> c = 0.0) r.Parallel.domain_cycles))
    (List.concat_map
       (fun fixture -> [ (fixture, true); (fixture, false) ])
       [
         ("mini-CQE rss,pkt_len", parallel_fixture ());
         ("rx_min64_hw", rx_min64_hw_fixture ());
       ])

(* One batched decoder with software shims, shared by every queue, as
   a benchmark datapath shares it: each call parses into its own view,
   so 4 worker domains decoding at once sum exactly what 1 domain
   does. *)
let test_parallel_shared_decoder () =
  let model () = Nic_models.E1000.newer () in
  let compiled =
    Opendesc.Compile.run_exn ~intent:Nic_models.Catalog.fig1_intent (model ()).spec
  in
  check ab "software shims" true (Opendesc.Compile.missing compiled <> []);
  let stack = Hoststacks.opendesc_batched ~compiled in
  let pkts = 8192 in
  let run domains =
    let mq = Mq.create_exn ~configs:(Array.make 4 compiled.config) model in
    Parallel.run ~domains ~batch:32 ~account:false ~pregen:true ~mq
      ~stack:(fun _ -> stack)
      ~pkts
      ~workload:(Packet.Workload.make ~seed:17L ~flows:256 Packet.Workload.Imix)
      ()
  in
  let one = run 1 and four = run 4 in
  check ai "1 domain delivers all" pkts one.Parallel.pkts;
  check ai "4 domains deliver all" pkts four.Parallel.pkts;
  check ai64 "4-domain sink = 1-domain sink" one.Parallel.sink four.Parallel.sink

let test_parallel_sizes_validated () =
  let compiled, mq, workload = parallel_fixture () in
  Alcotest.check_raises "negative pkts"
    (Invalid_argument "Parallel.run: pkts must be >= 0") (fun () ->
      ignore
        (Parallel.run ~mq:(mq ())
           ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled)
           ~pkts:(-1) ~workload:(workload ()) ()))

(* ------------------------------------------------------------------ *)
(* Failure containment: a worker or verdict that raises ends the run
   with its exception, at every domain count, instead of leaving the
   producer waiting on a dead worker. *)

exception Injected of string

(* A regression back to the hang must fail the test, not stall the
   suite: [f] runs on its own domain and must end within [watchdog_s];
   the result is the exception it raised, if any. *)
let watchdog_s = 30.0

let within name f =
  let outcome = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set outcome
          (Some (match f () with () -> None | exception e -> Some e)))
  in
  let deadline = Unix.gettimeofday () +. watchdog_s in
  let rec await () =
    match Atomic.get outcome with
    | Some raised ->
        Domain.join d;
        raised
    | None when Unix.gettimeofday () > deadline ->
        Alcotest.failf "%s: no return within %.0f s" name watchdog_s
    | None ->
        Unix.sleepf 0.01;
        await ()
  in
  await ()

let raises_within name expect f =
  match within name f with
  | Some e when e = expect -> ()
  | Some e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  | None -> Alcotest.failf "%s: returned without raising" name

let returns_within name f =
  match within name f with
  | Some e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  | None -> ()

(* A frame longer than the device's 2,048-byte buffers is a counted
   drop: a run of nothing but such frames offers each one once and
   returns. *)
let test_run_every_frame_dropped () =
  let model, compiled = mlx5_compiled [ "rss" ] in
  let stats = ref None in
  returns_within "every frame dropped" (fun () ->
      let device = Device.create_exn ~config:compiled.config model in
      stats :=
        Some
          (Stack.run ~pkts:64 ~device
             ~workload:
               (Packet.Workload.make ~seed:3L
                  Packet.Workload.(Raw_stream { size = 4000 }))
             (Hoststacks.opendesc_batched ~compiled)));
  let stats = Option.get !stats in
  check ai "nothing consumed" 0 stats.pkts;
  check ai "every frame dropped" 64 stats.drops

(* The batched consumer, except that queue 1's raises on its fifth
   burst. *)
let consumer_failing_on_q1 ~compiled q =
  let base = Hoststacks.opendesc_batched ~compiled in
  if q <> 1 then base
  else
    let bursts = ref 0 in
    {
      base with
      Stack.bt_consume =
        (fun sink env b ->
          incr bursts;
          if !bursts > 4 then raise (Injected "consumer");
          base.Stack.bt_consume sink env b);
    }

(* Small handoff rings, so the producer blocks on the failed worker's
   ring well before the end of the stream. *)
let failing_runs ~label expect run =
  List.iter
    (fun domains ->
      raises_within (Printf.sprintf "%s at %d domains" label domains) expect
        (fun () -> run ~domains ~ring_capacity:64))
    [ 1; 2; 4 ]

let test_failure_consumer_run () =
  let compiled, mq, workload = parallel_fixture () in
  failing_runs ~label:"run" (Injected "consumer")
    (fun ~domains ~ring_capacity ->
      ignore
        (Parallel.run ~domains ~ring_capacity ~mq:(mq ())
           ~stack:(consumer_failing_on_q1 ~compiled)
           ~pkts:4096 ~workload:(workload ()) ()))

(* The re-raised failure keeps the worker's backtrace: it starts at the
   consumer's raise, not at the engine's re-raise. *)
let test_failure_keeps_backtrace () =
  let compiled, mq, workload = parallel_fixture () in
  raises_within "run at 2 domains" (Injected "consumer") (fun () ->
      Printexc.record_backtrace true;
      try
        ignore
          (Parallel.run ~domains:2 ~ring_capacity:64 ~mq:(mq ())
             ~stack:(consumer_failing_on_q1 ~compiled)
             ~pkts:4096 ~workload:(workload ()) ())
      with Injected _ as e ->
        let raised_in =
          match Printexc.backtrace_slots (Printexc.get_raw_backtrace ()) with
          | Some slots ->
              Option.map
                (fun l -> l.Printexc.filename)
                (Printexc.Slot.location slots.(0))
          | None -> None
        in
        check
          Alcotest.(option string)
          "raised in the consumer" (Some "test/driver/test_driver.ml")
          raised_in;
        raise e)

let hot_swap_failing ~mq ~workload ~stack ~swap expect label =
  failing_runs ~label expect (fun ~domains ~ring_capacity ->
      ignore
        (Parallel.hot_swap ~domains ~ring_capacity ~mq:(mq ()) ~stack
           ~pkts:4096 ~at:3000 ~swap ~workload:(workload ()) ()))

let test_failure_consumer_hot_swap () =
  let compiled, mq, workload = parallel_fixture () in
  hot_swap_failing ~mq ~workload
    ~stack:(consumer_failing_on_q1 ~compiled)
    ~swap:(fun () -> Parallel.Swap_refuse)
    (Injected "consumer") "hot_swap before the swap point"

let test_failure_install_hot_swap () =
  let compiled, mq, workload = parallel_fixture () in
  let swap () =
    Parallel.Swap_apply
      {
        sc_config = compiled.Opendesc.Compile.config;
        sc_model = (fun () -> raise (Injected "install"));
        sc_stack = (fun _ -> Hoststacks.opendesc_batched ~compiled);
      }
  in
  hot_swap_failing ~mq ~workload
    ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled)
    ~swap (Injected "install") "hot_swap install"

let test_failure_verdict_hot_swap () =
  let compiled, mq, workload = parallel_fixture () in
  hot_swap_failing ~mq ~workload
    ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled)
    ~swap:(fun () -> raise (Injected "verdict"))
    (Injected "verdict") "hot_swap verdict"

(* A device whose staged rss producer raises: the failure starts inside
   the device model, on the worker that injects. *)
let test_failure_device_model_run () =
  let honest = Nic_models.Mlx5.model () in
  let raising =
    {
      honest with
      Nic_models.Model.stage =
        (fun f ->
          let produce = honest.stage f in
          if f.Opendesc.Path.l_semantic = Some "rss" then fun _ _ _ ->
            raise (Injected "device model")
          else produce);
    }
  in
  let compiled, _, workload = parallel_fixture () in
  failing_runs ~label:"run" (Injected "device model")
    (fun ~domains ~ring_capacity ->
      let mq =
        Mq.create_exn ~queue_depth:1024
          ~configs:(Array.make 4 compiled.config) (fun () -> raising)
      in
      ignore
        (Parallel.run ~domains ~ring_capacity ~mq
           ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled)
           ~pkts:4096 ~workload:(workload ()) ()))

(* ------------------------------------------------------------------ *)
(* The worker pool: runs hand their workers' jobs to parked domains *)

(* [stack], with each queue's consumer recording the domain that built
   it (its worker) in [ids]. *)
let recording ids stack q =
  ids.(q) <- (Domain.self () :> int);
  stack q

let worker_ids ids = List.sort_uniq compare (Array.to_list ids)

let test_pool_reuses_domains () =
  let compiled, mq, workload = parallel_fixture () in
  let stack _ = Hoststacks.opendesc_batched ~compiled in
  returns_within "two runs at 2 domains" (fun () ->
      let run () =
        let ids = Array.make 4 (-1) in
        let r =
          Parallel.run ~domains:2 ~mq:(mq ()) ~stack:(recording ids stack)
            ~pkts:512 ~workload:(workload ()) ()
        in
        check ai "all delivered" 512 r.Parallel.pkts;
        worker_ids ids
      in
      let first = run () in
      check ai "two workers" 2 (List.length first);
      check (Alcotest.list ai) "the second run's workers are the first's" first
        (run ()))

let test_pool_serves_after_failure () =
  let compiled, mq, workload = parallel_fixture () in
  let pkts = 512 in
  let stack _ = Hoststacks.opendesc_batched ~compiled in
  let _, _, seq_sink =
    sequential_reference ~stack:(stack 0) ~mq:(mq ()) ~pkts ~workload:(workload ())
  in
  let failed = Array.make 4 (-1) in
  raises_within "raising run at 2 domains" (Injected "consumer") (fun () ->
      ignore
        (Parallel.run ~domains:2 ~ring_capacity:64 ~mq:(mq ())
           ~stack:(recording failed (consumer_failing_on_q1 ~compiled))
           ~pkts:4096 ~workload:(workload ()) ()));
  returns_within "clean run at 2 domains" (fun () ->
      let ids = Array.make 4 (-1) in
      let r =
        Parallel.run ~domains:2 ~mq:(mq ()) ~stack:(recording ids stack) ~pkts
          ~workload:(workload ()) ()
      in
      check ai64 "digest matches sequential" seq_sink r.Parallel.sink;
      check ai "nothing stranded" 0 r.Parallel.stranded;
      check (Alcotest.list ai) "no new worker domain" (worker_ids failed)
        (worker_ids ids));
  (* A run refused for its ring capacity is refused before it takes a
     worker: it asks for 6, more than the pool holds here, and no domain
     is spawned (ids count up by one per spawn) nor any job started. *)
  let jobs = Atomic.make 0 in
  let counting q =
    Atomic.incr jobs;
    stack q
  in
  let mq6 =
    Mq.create_exn ~queue_depth:1024
      ~configs:(Array.make 6 compiled.config)
      (fun () -> Nic_models.Mlx5.model ())
  in
  returns_within "zero ring capacity at 6 domains" (fun () ->
      let probe () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
      let before = probe () in
      Alcotest.check_raises "refused"
        (Invalid_argument "Pktring.create: capacity must be >= 1") (fun () ->
          ignore
            (Parallel.run ~domains:6 ~ring_capacity:0 ~mq:mq6 ~stack:counting ~pkts
               ~workload:(workload ()) ()));
      check ai "no domain spawned" (before + 1) (probe ());
      check ai "no job started" 0 (Atomic.get jobs))

let test_pool_concurrent_runs () =
  let compiled, mq, _ = parallel_fixture () in
  let pkts = 2048 in
  let stack _ = Hoststacks.opendesc_batched ~compiled in
  let workload seed = Packet.Workload.make ~seed ~flows:32 Packet.Workload.Min_size in
  let seeds = [| 91L; 92L |] in
  let seq_sinks =
    Array.map
      (fun seed ->
        let _, _, sink =
          sequential_reference ~stack:(stack 0) ~mq:(mq ()) ~pkts
            ~workload:(workload seed)
        in
        sink)
      seeds
  in
  returns_within "two runs at once" (fun () ->
      let ready = Atomic.make 0 in
      let runs =
        Array.map
          (fun seed ->
            let mq = mq () in
            Domain.spawn (fun () ->
                Atomic.incr ready;
                while Atomic.get ready < 2 do
                  Domain.cpu_relax ()
                done;
                Parallel.run ~domains:2 ~mq ~stack ~pkts ~workload:(workload seed) ()))
          seeds
      in
      Array.iteri
        (fun i d ->
          let r = Domain.join d in
          let tag = Printf.sprintf "run %d: %s" i in
          check ai64 (tag "digest matches sequential") seq_sinks.(i) r.Parallel.sink;
          check ai (tag "all delivered") pkts r.Parallel.pkts;
          check ai (tag "nothing stranded") 0 r.Parallel.stranded)
        runs)

(* ------------------------------------------------------------------ *)
(* Fault injection: the chaos layer and its recovery path *)

(* Regression: a scratch buffer shorter than the slot stride must be
   rejected loudly — a silent truncation would read as a torn descriptor
   and poison every downstream comparison. *)
let test_ring_scratch_too_small () =
  let r = Ring.create ~slots:4 ~slot_size:8 in
  ignore (Ring.produce_host r (Bytes.make 8 'd'));
  let short = Bytes.make 4 '\x00' in
  Alcotest.check_raises "dev side"
    (Invalid_argument
       "Ring.consume_dev_into: 4-byte scratch buffer for 8-byte slots")
    (fun () -> ignore (Ring.consume_dev_into r short));
  Alcotest.check_raises "host side"
    (Invalid_argument
       "Ring.consume_host_into: 4-byte scratch buffer for 8-byte slots")
    (fun () -> ignore (Ring.consume_host_into r short));
  (* A full-size scratch still works: the entry was not consumed by the
     failed attempts. *)
  let ok = Bytes.make 8 '\x00' in
  check ab "entry intact" true (Ring.consume_host_into r ok);
  check Alcotest.bytes "slot copied" (Bytes.make 8 'd') ok

let fault_device ?(queue_depth = 1024) ?(semantics = [ "rss"; "pkt_len" ]) () =
  let model, compiled = mlx5_compiled semantics in
  Device.create_exn ~queue_depth ~config:compiled.config model

(* Drain one fault-wrapped queue dry: flush deferred reorders, then keep
   sweeping — a sweep can deliver nothing while work remains (stuck
   queues burn bounded kicks; fully-quarantined bursts count 0). *)
let chaos_drain fq burst ~f =
  Fault.flush fq;
  let total = ref 0 in
  let again = ref true in
  while !again do
    let n = Fault.harvest fq burst in
    if n > 0 then begin
      total := !total + n;
      f burst
    end;
    again := n > 0 || Fault.rx_available fq > 0
  done;
  !total

let test_fault_stuck_queue_recovers () =
  let device = fault_device () in
  let plan =
    { (Fault.zero_plan 9L) with Fault.stuck_rate = 1.0; Fault.stuck_kicks = 3 }
  in
  let fq = Fault.wrap plan device in
  check ab "injected" true (Fault.rx_inject fq (Packet.Builder.raw ~len:64 ~fill:'s'));
  let burst = Device.burst_create ~capacity:8 device in
  check ai "stuck: limited kicks give up" 0 (Fault.harvest ~max_kicks:2 fq burst);
  check ai "two retries burned" 2 (Fault.counters fq).Fault.retries;
  check ab "still pending" true (Fault.rx_available fq > 0);
  check ai "third kick unsticks" 1 (Fault.harvest fq burst);
  check ai "three retries total" 3 (Fault.counters fq).Fault.retries;
  let c = Fault.counters fq in
  check ai "stuck counted as injected" 1 c.Fault.injected;
  check ai "stuck is benign" 0 c.Fault.contract_violating;
  check ab "reconciles" true (Fault.reconciles c)

let test_fault_doorbell_loss_recovers () =
  let device = fault_device () in
  let plan = { (Fault.zero_plan 21L) with Fault.doorbell_loss_rate = 1.0 } in
  let fq = Fault.wrap plan device in
  let fmt = Option.get (Device.tx_format device) in
  let addr = Option.get (Opendesc.Descparser.field_for fmt "buf_addr") in
  let pkts = Array.init 4 (fun i -> Packet.Builder.raw ~len:(64 + i) ~fill:'t') in
  let descs =
    List.init 4 (fun i ->
        let desc = Bytes.make (Opendesc.Descparser.size fmt) '\x00' in
        Opendesc.Accessor.writer ~bit_off:addr.l_bit_off ~bits:addr.l_bits desc
          (Int64.of_int i);
        desc)
  in
  let fetch a =
    let i = Int64.to_int a in
    if i >= 0 && i < 4 then Some pkts.(i) else None
  in
  check ai "posted" 4 (Fault.tx_post_batch fq descs);
  check ai "doorbell lost: nothing processes" 0 (Fault.tx_process fq ~fetch);
  Fault.tx_kick fq;
  check ai "kick recovers the burst" 4 (Fault.tx_process fq ~fetch);
  let c = Fault.counters fq in
  check ai "loss counted" 1 c.Fault.doorbells_lost;
  check ai "retry counted" 1 c.Fault.retries;
  check ai "posted counter" 4 c.Fault.tx_posted;
  check ai "sent counter" 4 c.Fault.tx_sent;
  (* tx_drain bundles the kick loop: a second lost burst still lands. *)
  check ai "reposted" 4 (Fault.tx_post_batch fq descs);
  check ai "drain re-kicks" 4 (Fault.tx_drain fq ~fetch);
  check ai "all sent" 8 (Fault.counters fq).Fault.tx_sent

let test_fault_semantic_all_quarantined () =
  let device = fault_device () in
  let plan = { (Fault.zero_plan 11L) with Fault.semantic_rate = 1.0 } in
  let fq = Fault.wrap plan device in
  let w = Packet.Workload.make ~seed:3L ~flows:16 Packet.Workload.Imix in
  let n = 200 in
  for _ = 1 to n do
    ignore (Fault.rx_inject fq (Packet.Workload.next w))
  done;
  let burst = Device.burst_create ~capacity:32 device in
  let delivered = chaos_drain fq burst ~f:(fun _ -> ()) in
  let c = Fault.counters fq in
  check ai "every injection faulted" n c.Fault.injected;
  check ai "every fault violates the contract" n c.Fault.contract_violating;
  check ai "all detected" c.Fault.contract_violating c.Fault.detected;
  check ai "all quarantined" c.Fault.detected c.Fault.quarantined;
  check ai "no quarantine overflow" 0 c.Fault.quarantine_drops;
  check ai "delivered + quarantined = accepted"
    (c.Fault.rx_accepted + c.Fault.duplicates)
    (delivered + c.Fault.quarantined);
  check ab "reconciles" true (Fault.reconciles c);
  check ai "quarantine ring holds them" c.Fault.quarantined (Fault.quarantined fq);
  (match Fault.quarantine_consume fq with
  | Some r -> check ab "record non-empty" true (Bytes.length r > 0)
  | None -> Alcotest.fail "expected a quarantined record")

(* A spec with no context and one completion path, whose record holds
   [fields]. *)
let inline_spec ~name fields =
  Opendesc.Nic_spec.load_exn ~name ~kind:Opendesc.Nic_spec.Fixed_function
    (Printf.sprintf
       {|
header k_ctx_t { }
header k_tx_t { @semantic("buf_addr") bit<64> addr; bit<16> length; bit<16> flags; }
header k_cmpt_t {%s}
struct k_meta_t { k_cmpt_t c; }
parser KDP(desc_in d, in k_ctx_t h2c_ctx, out k_tx_t desc_hdr) {
  state start { d.extract(desc_hdr); transition accept; }
}
@cmpt_deparser
control KCD(cmpt_out o, in k_ctx_t ctx, in k_tx_t d, in k_meta_t m) {
  apply { o.emit(m.c); }
}
|}
       fields)

let only_config (spec : Opendesc.Nic_spec.t) =
  List.hd (List.hd spec.paths).Opendesc.Path.p_assignments

(* A record quarantined under a 16-byte layout comes back at 16 bytes
   after an upgrade to an 8-byte layout, not trimmed to the new one. *)
let test_fault_quarantine_keeps_length () =
  let rss_len_pad ~name pad =
    inline_spec ~name
      (Printf.sprintf
         {| @semantic("rss") bit<32> hash; @semantic("pkt_len") bit<16> length; bit<%d> pad; |}
         pad)
  in
  let wide = rss_len_pad ~name:"q16" 80 in
  let narrow = rss_len_pad ~name:"q8" 16 in
  let device =
    Device.create_exn ~queue_depth:8 ~config:(only_config wide) (Nic_models.Model.make wide)
  in
  check ai "16-byte layout" 16 (Opendesc.Path.size (Device.active_path device));
  let fq = Fault.wrap { (Fault.zero_plan 5L) with Fault.semantic_rate = 1.0 } device in
  let w = Packet.Workload.make ~seed:5L Packet.Workload.Min_size in
  check ab "injected" true (Fault.rx_inject fq (Packet.Workload.next w));
  let burst = Device.burst_create ~capacity:4 device in
  check ai "nothing delivered" 0 (Fault.harvest fq burst);
  check ai "one quarantined" 1 (Fault.quarantined fq);
  let harvested = Bytes.sub burst.Device.bs_cmpts.(0) 0 burst.Device.bs_cmpt_lens.(0) in
  check ai "harvested at 16 bytes" 16 (Bytes.length harvested);
  (match Device.upgrade device ~config:(only_config narrow) (Nic_models.Model.make narrow) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fault.rebind fq;
  check ai "8-byte layout active" 8 (Opendesc.Path.size (Device.active_path device));
  match Fault.quarantine_consume fq with
  | Some r -> check ab "the 16 harvested bytes" true (Bytes.equal harvested r)
  | None -> Alcotest.fail "expected a quarantined record"

let test_fault_duplicate_counts () =
  let device = fault_device () in
  let plan = { (Fault.zero_plan 17L) with Fault.duplicate_rate = 1.0 } in
  let fq = Fault.wrap plan device in
  let w = Packet.Workload.make ~seed:19L ~flows:8 Packet.Workload.Min_size in
  let n = 50 in
  for _ = 1 to n do
    ignore (Fault.rx_inject fq (Packet.Workload.next w))
  done;
  let burst = Device.burst_create ~capacity:16 device in
  let total = chaos_drain fq burst ~f:(fun _ -> ()) in
  let c = Fault.counters fq in
  check ai "every injection duplicated" n c.Fault.injected;
  check ai "one extra completion each" n c.Fault.duplicates;
  check ai "delivered = accepted + duplicates"
    (c.Fault.rx_accepted + c.Fault.duplicates)
    total;
  check ai "duplicates are contract-clean" 0 c.Fault.contract_violating;
  check ai "none quarantined" 0 c.Fault.quarantined;
  check ab "reconciles" true (Fault.reconciles c)

(* Every packet is injected from its own buffer, or from one buffer
   that is scribbled over after each call. The fault layer keeps nothing
   of a caller's frame, so in both cases a deferred frame is delivered
   as it was injected; one that aliased the reused buffer would arrive
   as the scribble or as its successor's bytes. *)
let test_fault_reorder_preserves_multiset () =
  List.iter
    (fun reused ->
      let name what =
        Printf.sprintf "%s (%s)" what (if reused then "one reused buffer" else "own buffers")
      in
      let device = fault_device () in
      let plan = { (Fault.zero_plan 13L) with Fault.reorder_rate = 1.0 } in
      let fq = Fault.wrap plan device in
      let n = 32 in
      let injected =
        List.init n (fun i -> Packet.Builder.raw ~len:(64 + i) ~fill:(Char.chr (65 + i)))
      in
      let frame = Bytes.create (64 + n) in
      List.iter
        (fun (p : Packet.Pkt.t) ->
          if reused then begin
            Bytes.blit p.buf 0 frame 0 p.len;
            ignore (Fault.rx_inject_raw fq frame ~len:p.len);
            Bytes.fill frame 0 (Bytes.length frame) '\xee'
          end
          else ignore (Fault.rx_inject fq p))
        injected;
      let burst = Device.burst_create ~capacity:8 device in
      let got = ref [] in
      let total =
        chaos_drain fq burst ~f:(fun (b : Device.burst) ->
            for i = 0 to b.Device.bs_count - 1 do
              got := Bytes.sub b.Device.bs_pkts.(i) 0 b.Device.bs_lens.(i) :: !got
            done)
      in
      let got = List.rev !got in
      let inj_bytes = List.map (fun p -> p.Packet.Pkt.buf) injected in
      check ai (name "all delivered") n total;
      check ab (name "order perturbed") true (not (List.equal Bytes.equal inj_bytes got));
      check ab (name "multiset preserved") true
        (List.equal Bytes.equal
           (List.sort Bytes.compare inj_bytes)
           (List.sort Bytes.compare got));
      let c = Fault.counters fq in
      check ai (name "reorders are benign") 0 c.Fault.contract_violating;
      check ab (name "reconciles") true (Fault.reconciles c))
    [ false; true ]

(* A deferred frame keeps its full length: one staged truncated (longer
   than the device's buffer, as a handoff ring stages it) stays a
   counted drop when the stash emits it, and a length the buffer cannot
   back is refused as the device refuses it. *)
let test_fault_reorder_keeps_truncated_length () =
  let device = fault_device () in
  let fq = Fault.wrap { (Fault.zero_plan 3L) with Fault.reorder_rate = 1.0 } device in
  let staged = Bytes.make 64 's' in
  check ab "deferred" true (Fault.rx_inject_raw fq staged ~len:(Device.buf_size device + 1));
  Fault.flush fq;
  check ai "a counted drop" 1 (Device.drops device);
  check ai "nothing accepted" 0 (Fault.counters fq).Fault.rx_accepted;
  Alcotest.check_raises "unbacked length"
    (Invalid_argument "Fault.rx_inject_raw: frame length 65 outside the 64-byte buffer")
    (fun () -> ignore (Fault.rx_inject_raw fq staged ~len:65))

(* The contract checker as it was before it was staged: fields filtered
   per path, then per packet a list walk that builds each field's reader
   and mask as it goes. Kept as the reference for the staged checker. *)
let list_walk_fields softnic (path : Opendesc.Path.t) =
  List.filter_map
    (fun (f : Opendesc.Path.lfield) ->
      match f.l_semantic with
      | Some sem
        when f.l_bits <= 64
             && not (List.mem sem [ "timestamp"; "wire_timestamp"; "flow_pkts" ]) ->
          Option.map (fun feature -> (f, feature)) (Softnic.Registry.find softnic sem)
      | _ -> None)
    path.p_layout.fields

let list_walk_check env fields ~pkt ~cmpt =
  let view = Packet.Pkt.parse pkt in
  let rec go = function
    | [] -> None
    | ((f : Opendesc.Path.lfield), (feature : Softnic.Feature.t)) :: rest ->
        let expected =
          Int64.logand (feature.compute env pkt view) (Packet.Bitops.mask f.l_bits)
        in
        let got = Opendesc.Accessor.reader ~bit_off:f.l_bit_off ~bits:f.l_bits cmpt in
        if Int64.equal expected got then go rest else Some (Option.get f.l_semantic)
  in
  go fields

(* Checked fields the catalog has no path for, one spec each. The first
   checks ip_checksum, csum_ok and l4_checksum together (they share two
   sums). The second has 63- and 64-bit fields of both shapes such a
   field can take, with int cores and kvs_key: aligned 64-bit loads
   ([U64]) at bytes 0 and 8, and bit walks ([Wide]) for the 63-bit field
   at bit 129 and the 64-bit one at bit 196; its last field, 16 bits at
   bit 260, is an int over the 3 bytes it spans ([Bits]), 12 bits short
   of the end of the 36-byte record. *)
let checker_specs =
  [
    ( "csum3",
      {|
  @semantic("ip_checksum") bit<16> ipc;
  @semantic("csum_ok") bit<1> ok;
  bit<15> pad;
  @semantic("l4_checksum") bit<16> l4c;
  @semantic("pkt_len") bit<16> length;
|} );
    ( "wide",
      {|
  @semantic("kvs_key") bit<64> key;
  @semantic("rss") bit<64> hash;
  bit<1> pad0;
  @semantic("flow_id") bit<63> fid;
  bit<4> pad1;
  @semantic("ip_id") bit<64> id;
  @semantic("pkt_len") bit<16> length;
  bit<12> pad2;
|} );
  ]

(* The builtins behind wrappers: [Registry.core_of] finds no core, so
   every field is checked through its boxed [compute]. *)
let wrapped_registry () =
  let r = Softnic.Registry.empty () in
  List.iter
    (fun (f : Softnic.Feature.t) ->
      Softnic.Registry.register r { f with compute = (fun env pkt v -> f.compute env pkt v) })
    Softnic.Registry.all;
  r

(* Every catalog path and the specs above, every packet kind, the
   builtin registry or its wrapped copy, and every corruption the fault
   layer makes (bit flip, one checked field, torn tail) plus a flip of
   bit 63 of a 64-bit checked field: the staged checker gives the list
   walk's verdict, on the trimmed completion and on the full-size burst
   buffer whose tail past the layout is junk. *)
let prop_checker_matches_list_walk =
  let profiles =
    Packet.Workload.
      [| Min_size; Imix; Vlan_tagged; Ipv6_mix; Kvs { key_len = 9 }; Raw_stream { size = 96 } |]
  in
  let paths =
    lazy
      (List.concat_map
         (fun (m : Nic_models.Model.t) ->
           List.filter_map
             (fun (p : Opendesc.Path.t) ->
               match p.p_assignments with c :: _ -> Some (m, c) | [] -> None)
             m.spec.paths)
         (Nic_models.Catalog.all ()
         @ List.map
             (fun (name, fields) -> Nic_models.Model.make (inline_spec ~name fields))
             checker_specs))
  in
  QCheck.Test.make ~name:"staged contract checker = list walk" ~count:300
    QCheck.(pair (quad small_nat (int_bound 5) (int_bound 4) int) bool)
    (fun ((sel, kind, corruption, seed), wrapped) ->
      let paths = Lazy.force paths in
      let model, config = List.nth paths (sel mod List.length paths) in
      let device = Device.create_exn ~queue_depth:4 ~config model in
      let softnic = if wrapped then wrapped_registry () else Softnic.Registry.builtin () in
      let rng = Random.State.make [| seed |] in
      let pkt =
        Packet.Workload.next
          (Packet.Workload.make ~seed:(Int64.of_int seed) profiles.(kind))
      in
      let b = Device.burst_create ~capacity:1 device in
      let full = b.Device.bs_cmpts.(0) in
      Bytes.iteri (fun i _ -> Bytes.set full i (Char.chr (Random.State.int rng 256))) full;
      assert (Device.rx_inject device pkt);
      assert (Device.rx_consume_batch device b = 1);
      let size = b.Device.bs_cmpt_lens.(0) in
      let fields = list_walk_fields softnic (Device.active_path device) in
      let flip bit =
        let c = Char.code (Bytes.get full (bit / 8)) in
        Bytes.set full (bit / 8) (Char.chr (c lxor (1 lsl (bit mod 8))))
      in
      (match corruption with
      | 0 -> ()
      | 1 -> flip (Random.State.int rng (size * 8))
      | 2 when fields <> [] ->
          let (f : Opendesc.Path.lfield), _ =
            List.nth fields (Random.State.int rng (List.length fields))
          in
          let mask = 1 + Random.State.int rng ((1 lsl min f.l_bits 30) - 1) in
          let old = Opendesc.Accessor.reader ~bit_off:f.l_bit_off ~bits:f.l_bits full in
          Opendesc.Accessor.writer ~bit_off:f.l_bit_off ~bits:f.l_bits full
            (Int64.logxor old (Int64.of_int mask))
      | 4 -> (
          match List.filter (fun ((f : Opendesc.Path.lfield), _) -> f.l_bits = 64) fields with
          | [] -> ()
          | wide ->
              (* bit 63 is the field's first bit: fields are MSB-first *)
              let (f : Opendesc.Path.lfield), _ =
                List.nth wide (Random.State.int rng (List.length wide))
              in
              let c = Char.code (Bytes.get full (f.l_bit_off / 8)) in
              Bytes.set full (f.l_bit_off / 8)
                (Char.chr (c lxor (0x80 lsr (f.l_bit_off mod 8)))))
      | _ ->
          for i = Random.State.int rng size to size - 1 do
            Bytes.set full i (Char.chr (Random.State.int rng 256))
          done);
      let trimmed = Bytes.sub full 0 size in
      let ck =
        Validate.checker_of_path ~env:(Device.env device) ~softnic (Device.active_path device)
      in
      let expected = list_walk_check (Device.env device) fields ~pkt ~cmpt:trimmed in
      List.map fst fields = Validate.checker_fields ck
      && Validate.check_desc ck pkt.buf ~len:pkt.len ~cmpt:trimmed = expected
      && Validate.check_desc ck pkt.buf ~len:pkt.len ~cmpt:full = expected)

let test_stats_merge_fault_counters () =
  let shard name injected =
    let l = Cost.create () in
    Cost.charge (Cost.ledger l) "x" 100.0;
    Stats.make ~name ~pkts:10 ~ledger:l ~dma_bytes:0 ~drops:0
    |> Stats.with_faults ~injected ~detected:(injected / 2)
         ~quarantined:(injected / 2) ~retries:1
  in
  let m = Stats.merge ~name:"m" [ shard "a" 4; shard "b" 6 ] in
  check ai "injected sums" 10 m.Stats.faults_injected;
  check ai "detected sums" 5 m.Stats.faults_detected;
  check ai "quarantined sums" 5 m.Stats.descs_quarantined;
  check ai "retries sums" 2 m.Stats.retries

(* The chaos twin of [sequential_reference]: inject through the fault
   wrappers and drain through the recovery path on one domain. *)
let chaos_sequential ~stack ~mq ~plan ~pkts ~workload =
  let nq = Mq.queues mq in
  let fqs = Mq.wrap_chaos ~plan mq in
  let bursts = Mq.bursts ~capacity:64 mq in
  let delivered = Array.make nq [] in
  let env = Softnic.Feature.make_env () in
  let ledger = Cost.create () in
  let sink = ref 0L in
  let total = ref 0 in
  let f q (b : Device.burst) =
    sink := Int64.add !sink (stack.Stack.bt_consume (Cost.ledger ledger) env b);
    for i = 0 to b.Device.bs_count - 1 do
      delivered.(q) <-
        Bytes.sub b.Device.bs_pkts.(i) 0 b.Device.bs_lens.(i) :: delivered.(q)
    done
  in
  for i = 1 to pkts do
    ignore (Mq.rx_inject_chaos mq fqs (Packet.Workload.next workload));
    if i mod 32 = 0 then total := !total + Mq.drain_chaos mq fqs bursts ~f
  done;
  total := !total + Mq.drain_chaos_all mq fqs bursts ~f;
  let counters =
    Fault.counters_sum (Array.to_list (Array.map Fault.counters fqs))
  in
  (Array.map List.rev delivered, !total, !sink, counters)

let delivered_equal a b =
  Array.length a = Array.length b && Array.for_all2 (List.equal Bytes.equal) a b

(* Tentpole property: the pooled allocation-free drain (account=false,
   with and without pregeneration) is byte-identical to the sequential
   batched path at 1, 2 and 4 domains — and under a chaos plan the hot
   configuration delivers exactly what the fully-accounted one does,
   fault counters included. The accounting sink and the scratch pools
   are observers; they must never change what reaches the consumer. *)
let prop_hot_path_byte_identical =
  QCheck.Test.make ~name:"pooled hot path is byte-identical" ~count:4
    QCheck.(int_bound 100_000)
    (fun seed ->
      let compiled, mq, workload = parallel_fixture () in
      let pkts = 384 in
      let stack = Hoststacks.opendesc_batched ~compiled in
      let seq_delivered, seq_total, seq_sink =
        sequential_reference ~stack ~mq:(mq ()) ~pkts ~workload:(workload ())
      in
      let hot_ok =
        List.for_all
          (fun domains ->
            List.for_all
              (fun pregen ->
                let r =
                  Parallel.run ~domains ~batch:32 ~collect:true ~account:false
                    ~pregen ~mq:(mq ())
                    ~stack:(fun _ -> stack)
                    ~pkts ~workload:(workload ()) ()
                in
                r.Parallel.pkts = seq_total
                && r.Parallel.stranded = 0
                && Int64.equal r.Parallel.sink seq_sink
                && delivered_equal seq_delivered
                     (Option.get r.Parallel.delivered))
              [ false; true ])
          [ 1; 2; 4 ]
      in
      let plan = Fault.default_plan (Int64.of_int seed) in
      let chaos ~account ~pregen =
        let r =
          Parallel.run ~domains:2 ~batch:32 ~collect:true ~account ~pregen
            ~plan ~mq:(mq ())
            ~stack:(fun _ -> stack)
            ~pkts ~workload:(workload ()) ()
        in
        let c =
          Fault.counters_sum (Array.to_list (Option.get r.Parallel.faults))
        in
        ( r.Parallel.sink,
          Option.get r.Parallel.delivered,
          (c.Fault.injected, c.Fault.quarantined, c.Fault.delivered) )
      in
      let s_acc, d_acc, c_acc = chaos ~account:true ~pregen:false in
      let s_hot, d_hot, c_hot = chaos ~account:false ~pregen:true in
      hot_ok
      && Int64.equal s_acc s_hot
      && delivered_equal d_acc d_hot
      && c_acc = c_hot)

(* The batched decoder's byte path sums what the per-packet runtime's
   accessor reads (each accessor's [a_get]) sum, on every field shape:
   [wide]'s 63- and 64-bit fields, one load or the bit walk, and
   [csum3]'s sub-byte and unaligned ones, each read from hardware. Device-written values are small, so each burst is
   summed again after its records are overwritten with random bytes,
   which sets every field's top bits. *)
let test_decoder_paths_agree_on_every_shape () =
  let registry = Opendesc.Semantic.default () in
  List.iter
    (fun (name, fields) ->
      let model = Nic_models.Model.make (inline_spec ~name fields) in
      let layout = (List.hd model.spec.paths).Opendesc.Path.p_layout in
      let intent =
        Opendesc.Intent.make
          (List.filter_map
             (fun (f : Opendesc.Path.lfield) ->
               Option.map
                 (fun s -> (s, Option.get (Opendesc.Semantic.width registry s)))
                 f.l_semantic)
             layout.fields)
      in
      let compiled = Opendesc.Compile.run_exn ~intent model.spec in
      check ab (name ^ ": every field read from hardware") true
        (List.for_all
           (function _, Opendesc.Compile.Hardware _ -> true | _ -> false)
           compiled.bindings);
      let device = Device.create_exn ~queue_depth:64 ~config:compiled.config model in
      let stack = Hoststacks.opendesc_batched ~compiled in
      let reads = Hoststacks.opendesc ~compiled in
      let env = Softnic.Feature.make_env () in
      let b = Device.burst_create ~capacity:32 device in
      let workload = Packet.Workload.make ~seed:29L Packet.Workload.Imix in
      let rng = Random.State.make [| 29 |] in
      let agree what =
        check ai64
          (Printf.sprintf "%s: byte path = accessor reads (%s)" name what)
          (reads.Stack.bt_consume Cost.null env b)
          (stack.Stack.bt_consume Cost.null env b)
      in
      for _ = 1 to 10 do
        for _ = 1 to 32 do
          assert (Device.rx_inject device (Packet.Workload.next workload))
        done;
        check ai (name ^ ": a full burst") 32 (Device.rx_consume_batch device b);
        agree "device values";
        for i = 0 to b.Device.bs_count - 1 do
          for k = 0 to b.Device.bs_cmpt_lens.(i) - 1 do
            Bytes.set b.Device.bs_cmpts.(i) k (Char.chr (Random.State.int rng 256))
          done
        done;
        agree "random records"
      done)
    checker_specs

(* Satellite property: with every rate at 0.0 the chaos datapath — for
   any seed, sequential or parallel — is byte-identical to the bare one,
   and every fault counter stays zero. *)
let prop_zero_plan_is_identity =
  QCheck.Test.make ~name:"zero-rate chaos datapath is byte-identical" ~count:6
    QCheck.(int_bound 100_000)
    (fun seed ->
      let compiled, mq, workload = parallel_fixture () in
      let pkts = 256 in
      let stack = Hoststacks.opendesc_batched ~compiled in
      let plan = Fault.zero_plan (Int64.of_int seed) in
      let seq_delivered, seq_total, seq_sink =
        sequential_reference ~stack ~mq:(mq ()) ~pkts ~workload:(workload ())
      in
      let ch_delivered, ch_total, ch_sink, c =
        chaos_sequential ~stack ~mq:(mq ()) ~plan ~pkts ~workload:(workload ())
      in
      let r =
        Parallel.run ~domains:2 ~batch:32 ~collect:true ~plan ~mq:(mq ())
          ~stack:(fun _ -> stack)
          ~pkts ~workload:(workload ()) ()
      in
      let pc =
        Fault.counters_sum (Array.to_list (Option.get r.Parallel.faults))
      in
      seq_total = ch_total && Int64.equal seq_sink ch_sink
      && delivered_equal seq_delivered ch_delivered
      && c.Fault.injected = 0 && c.Fault.detected = 0
      && c.Fault.quarantined = 0 && c.Fault.retries = 0
      && c.Fault.rx_accepted = pkts
      && r.Parallel.pkts = pkts && r.Parallel.stranded = 0
      && Int64.equal r.Parallel.sink seq_sink
      && delivered_equal seq_delivered (Option.get r.Parallel.delivered)
      && pc.Fault.injected = 0 && pc.Fault.quarantined = 0
      && r.Parallel.stats.Stats.faults_injected = 0
      && r.Parallel.stats.Stats.descs_quarantined = 0)

(* Satellite property: under the default plan the counters reconcile
   exactly after Stats.merge for 1, 2 and 4 domains, and the whole
   deterministic summary replays bit-for-bit across domain counts and
   across same-seed runs. *)
let prop_chaos_reconciles_and_replays =
  QCheck.Test.make
    ~name:"fault counters reconcile and replay across domains" ~count:4
    QCheck.(int_bound 100_000)
    (fun seed ->
      let compiled, mq, workload = parallel_fixture () in
      let pkts = 384 in
      let plan = Fault.default_plan (Int64.of_int seed) in
      let run domains =
        Parallel.run ~domains ~batch:32 ~plan ~mq:(mq ())
          ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled)
          ~pkts ~workload:(workload ()) ()
      in
      let summary r =
        let c =
          Fault.counters_sum (Array.to_list (Option.get r.Parallel.faults))
        in
        Printf.sprintf
          "inj=%d kinds=%s viol=%d acc=%d dup=%d det=%d quar=%d qdrop=%d \
           del=%d retr=%d pkts=%d per_queue=%s"
          c.Fault.injected
          (String.concat ","
             (Array.to_list (Array.map string_of_int c.Fault.by_kind)))
          c.Fault.contract_violating c.Fault.rx_accepted c.Fault.duplicates
          c.Fault.detected c.Fault.quarantined c.Fault.quarantine_drops
          c.Fault.delivered c.Fault.retries r.Parallel.pkts
          (String.concat ","
             (Array.to_list (Array.map string_of_int r.Parallel.per_queue)))
      in
      let reconciled r =
        let c =
          Fault.counters_sum (Array.to_list (Option.get r.Parallel.faults))
        in
        Fault.reconciles c && r.Parallel.stranded = 0
        && r.Parallel.stats.Stats.faults_injected = c.Fault.injected
        && r.Parallel.stats.Stats.faults_detected = c.Fault.detected
        && r.Parallel.stats.Stats.descs_quarantined = c.Fault.quarantined
        && r.Parallel.stats.Stats.retries = c.Fault.retries
        && r.Parallel.pkts = c.Fault.delivered
        && r.Parallel.stats.Stats.pkts = c.Fault.delivered
      in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      let r2' = run 2 in
      reconciled r1 && reconciled r2 && reconciled r4
      && String.equal (summary r1) (summary r2)
      && String.equal (summary r2) (summary r4)
      && String.equal (summary r2) (summary r2'))

(* ------------------------------------------------------------------ *)
(* Upgrade: live contract hot-swap *)

(* The firmware fixtures from the nearest ancestor of the working
   directory that holds [examples/firmware]: the copy dune places beside
   the test under [dune runtest], or the source tree when the test runs
   from the repository root. *)
let firmware_fixture name =
  let rel = Filename.concat "examples/firmware" name in
  let rec find dir =
    let path = Filename.concat dir rel in
    if Sys.file_exists path then path
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.failf "%s: in no ancestor of the working directory" rel
      else find parent
  in
  In_channel.with_open_bin (find (Sys.getcwd ())) In_channel.input_all

let load_rev name =
  Opendesc.Nic_spec.load_exn
    ~name:(Filename.remove_extension name)
    ~kind:Opendesc.Nic_spec.Fixed_function (firmware_fixture name)

let rev_a () = load_rev "e1000_rev_a.p4"
let rev_b () = load_rev "e1000_rev_b.p4"
let rev_broken () = load_rev "e1000_rev_broken.p4"
let upgrade_intent = Opendesc.Intent.make [ ("rss", 32); ("pkt_len", 16) ]

(* Regression: the chaos injection and recovery path allocates nothing
   per packet. e1000 rev A under rss,pkt_len on 4 queues, 4,096 IMIX
   packets under the default plan in 32-packet bursts: [Fault.rx_inject]
   + [Fault.harvest] measure 0.0 minor words/pkt. The device, the
   injection-time classification and the harvest-time checker each
   parse into a view they own, the roll compares an int draw from the
   unboxed generator state, and a reordered frame is copied into the
   wrapper's own stash. A boxed draw (the generator's int64 state and a
   float: 8 words per packet before), a [Pkt.t] or a view per parse, a
   copy of each deferred frame or a list and a closure per roll each
   trip the budget. *)
let chaos_words_budget = 1.0

let test_fault_chaos_alloc_budget () =
  let spec = rev_a () in
  let compiled = Opendesc.Cache.run_exn ~intent:upgrade_intent spec in
  let mq =
    Mq.create_exn
      ~configs:(Array.make 4 compiled.Opendesc.Compile.config)
      (fun () -> Nic_models.Model.make spec)
  in
  let fqs = Mq.wrap_chaos ~plan:(Fault.default_plan 7L) mq in
  let bursts = Mq.bursts ~capacity:32 mq in
  let n = 4096 and warm = 1024 and burst = 32 in
  let pkts = Packet.Workload.batch (Packet.Workload.make ~seed:7L Packet.Workload.Imix) n in
  let qs = Array.map (Mq.steer mq) pkts in
  let run lo hi =
    for b = 0 to ((hi - lo) / burst) - 1 do
      for i = lo + (b * burst) to lo + (b * burst) + burst - 1 do
        ignore (Fault.rx_inject fqs.(qs.(i)) pkts.(i))
      done;
      for q = 0 to Array.length fqs - 1 do
        ignore (Fault.harvest fqs.(q) bursts.(q))
      done
    done
  in
  run 0 warm;
  let before = Gc.minor_words () in
  run warm n;
  let words = (Gc.minor_words () -. before) /. float_of_int (n - warm) in
  Array.iteri (fun q fq -> ignore (chaos_drain fq bursts.(q) ~f:(fun _ -> ()))) fqs;
  let c = Fault.counters_sum (Array.to_list (Array.map Fault.counters fqs)) in
  check ab "faults injected" true (c.Fault.injected > 0);
  check ab "reconciles" true (Fault.reconciles c);
  check ab
    (Printf.sprintf "minor words/pkt %.1f within budget %.0f" words chaos_words_budget)
    true (words <= chaos_words_budget)

(* Regression: a live upgrade run allocates next to nothing per packet.
   e1000 rev A -> B on 4 queues, 8,192 IMIX packets generated as the run
   goes under the default plan, one domain, with the swap's cold compile
   and certify counted in: about 3 minor words per delivered packet. The
   generator writes every frame into one buffer, and steering and the
   fault layer read it there. Allocating each frame ([next]: 132 words
   per IMIX frame) or boxing each fault roll (8 words) trips the
   budget. *)
let upgrade_words_budget = 10.0

let test_upgrade_alloc_budget () =
  let old_spec = rev_a () and new_spec = rev_b () in
  let seed = 41L in
  Opendesc.Cache.clear ();
  let before = Gc.minor_words () in
  let o =
    Upgrade.run ~queues:4 ~domains:1 ~pkts:8192 ~seed ~plan:(Fault.default_plan seed)
      ~intent:upgrade_intent ~old_spec ~new_spec ()
  in
  let words = Gc.minor_words () -. before in
  match o with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check ab "applied" true (o.Upgrade.o_action = Upgrade.Applied);
      check ab "reconciled" true o.Upgrade.o_reconciled;
      check ai "lost" 0 o.Upgrade.o_lost;
      let per_pkt = words /. float_of_int o.Upgrade.o_delivered in
      check ab
        (Printf.sprintf "minor words per delivered packet %.2f within budget %.0f" per_pkt
           upgrade_words_budget)
        true (per_pkt <= upgrade_words_budget)

(* The zero-packet-loss acceptance harness: e1000 A -> B under seeded
   chaos at 1, 2 and 4 domains. Every accepted packet is either
   delivered or quarantined, nothing is lost, no plan is torn, and the
   whole outcome is deterministic from the seed (same accounting at
   every domain count: faults are a per-queue function of the seed). *)
let test_upgrade_zero_loss_all_domain_counts () =
  let old_spec = rev_a () and new_spec = rev_b () in
  let seed = 23L in
  let plan = Fault.default_plan seed in
  let runs =
    List.map
      (fun domains ->
        match
          Upgrade.run ~queues:4 ~domains ~pkts:4096 ~seed ~plan
            ~collect_post:true ~intent:upgrade_intent ~old_spec ~new_spec ()
        with
        | Error e -> Alcotest.fail e
        | Ok o ->
            check ab "applied" true (o.Upgrade.o_action = Upgrade.Applied);
            check ai "epoch" 1 o.Upgrade.o_epoch;
            check ai "lost" 0 o.Upgrade.o_lost;
            check ab "reconciled" true o.Upgrade.o_reconciled;
            check ai "torn" 0 o.Upgrade.o_torn;
            check ai "upgrade errors" 0 o.Upgrade.o_upgrade_errors;
            check ai "accounted"
              (o.Upgrade.o_accepted + o.Upgrade.o_duplicates)
              (o.Upgrade.o_delivered + o.Upgrade.o_quarantined);
            check ai "epochs partition the stream" o.Upgrade.o_delivered
              (o.Upgrade.o_pre_delivered + o.Upgrade.o_post_delivered);
            check ab "post-swap evidence" true
              (o.Upgrade.o_post_delivered > 0);
            o)
      [ 1; 2; 4 ]
  in
  (* deterministic accounting across domain counts and re-runs *)
  match runs with
  | o1 :: rest ->
      List.iter
        (fun o ->
          check ai "delivered agrees" o1.Upgrade.o_delivered
            o.Upgrade.o_delivered;
          check ai "quarantined agrees" o1.Upgrade.o_quarantined
            o.Upgrade.o_quarantined;
          check ai "duplicates agree" o1.Upgrade.o_duplicates
            o.Upgrade.o_duplicates)
        rest
  | [] -> assert false

(* The post-swap stream must decode byte-identically under revision B's
   reference reader: every (packet, completion) pair delivered after
   the epoch flip passes a checker built fresh from the upgraded
   device, and the retired rev-A plan demonstrably misreads the same
   evidence (the oracle has teeth — the layouts really moved). *)
let test_upgrade_post_swap_decodes_as_rev_b () =
  let old_spec = rev_a () and new_spec = rev_b () in
  let intent = upgrade_intent in
  let compiled_old = Opendesc.Cache.run_exn ~intent old_spec in
  let branded = { new_spec with Opendesc.Nic_spec.nic_name = old_spec.nic_name } in
  let compiled_new = Opendesc.Cache.run_exn ~intent branded in
  let mq =
    Mq.create_exn ~queue_depth:1024
      ~configs:(Array.make 4 compiled_old.Opendesc.Compile.config)
      (fun () -> Nic_models.Model.make old_spec)
  in
  let old_path = Opendesc.Compile.path compiled_old in
  let swap () =
    Parallel.Swap_apply
      {
        sc_config = compiled_new.Opendesc.Compile.config;
        sc_model = (fun () -> Nic_models.Model.make branded);
        sc_stack = (fun _ -> Hoststacks.opendesc_batched ~compiled:compiled_new);
      }
  in
  let _res, sw =
    Parallel.hot_swap ~domains:4 ~collect_post:true
      ~plan:(Fault.default_plan 5L) ~mq
      ~stack:(fun _ -> Hoststacks.opendesc_batched ~compiled:compiled_old)
      ~pkts:4096 ~at:1777 ~swap
      ~workload:(Packet.Workload.make ~seed:5L Packet.Workload.Imix)
      ()
  in
  check ab "applied" true (sw.Parallel.sw_action = Parallel.Sw_applied);
  check ai "torn" 0 sw.Parallel.sw_torn;
  check ai "upgrade errors" 0 sw.Parallel.sw_upgrade_errors;
  let pairs =
    match sw.Parallel.sw_post_pairs with Some p -> p | None -> assert false
  in
  let total = ref 0 in
  let rev_a_misreads = ref 0 in
  Array.iteri
    (fun q lst ->
      let dev = Mq.queue mq q in
      (* the upgraded device's active path IS rev B's *)
      let ck_b = Validate.checker_of_device dev in
      let ck_a =
        Validate.checker_of_path ~env:(Device.env dev)
          ~softnic:(Softnic.Registry.builtin ())
          old_path
      in
      List.iter
        (fun (pktb, cmpt) ->
          incr total;
          let len = Bytes.length pktb in
          (match Validate.check_desc ck_b pktb ~len ~cmpt with
          | None -> ()
          | Some sem ->
              Alcotest.failf
                "post-swap completion fails the rev-B reference on %S" sem);
          if Validate.check_desc ck_a pktb ~len ~cmpt <> None then
            incr rev_a_misreads)
        lst)
    pairs;
  check ab "post-swap evidence collected" true (!total > 0);
  check ab "retired plan misreads the new stream" true (!rev_a_misreads > 0)

(* Torn-swap property: under randomized swap timing, domain count and
   seed, across the whole catalog's self-upgrade (Transparent) path,
   the epoch flip always lands on a quiescent datapath and the
   accounting reconciles exactly. *)
let prop_upgrade_random_timing_never_tears =
  QCheck.Test.make ~count:20
    ~name:"hot swap: randomized timing never tears a plan (catalog)"
    QCheck.(
      quad (int_bound 1200) (int_range 1 3) (int_bound 1000) small_nat)
    (fun (at, domains, seed, idx) ->
      let intent = Nic_models.Catalog.fig1_intent in
      let models = Nic_models.Catalog.all ~intent () in
      let model = List.nth models (idx mod List.length models) in
      let spec = model.Nic_models.Model.spec in
      let seed64 = Int64.of_int (seed + 1) in
      match
        Upgrade.run ~queues:2 ~domains ~pkts:1200 ~at ~seed:seed64
          ~plan:(Fault.default_plan seed64) ~intent ~old_spec:spec
          ~new_spec:spec ()
      with
      | Error e -> QCheck.Test.fail_report e
      | Ok o ->
          o.Upgrade.o_class = Opendesc_analysis.Evolution.Transparent
          && o.Upgrade.o_action = Upgrade.Applied
          && o.Upgrade.o_torn = 0
          && o.Upgrade.o_upgrade_errors = 0
          && o.Upgrade.o_lost = 0 && o.Upgrade.o_reconciled
          && o.Upgrade.o_delivered
             = o.Upgrade.o_pre_delivered + o.Upgrade.o_post_delivered)

(* The certificate gate: a Recompile-class swap without a certificate
   fresh against the NEW contract hash is refused, and the datapath
   keeps serving revision A (epoch never advances, deliveries continue
   past the refused swap point). *)
let test_upgrade_cert_gate_refuses () =
  let old_spec = rev_a () and new_spec = rev_b () in
  let seed = 9L in
  let run drill =
    match
      Upgrade.run ~queues:2 ~pkts:2048 ~seed ~plan:(Fault.default_plan seed)
        ~collect_post:true ~drill ~intent:upgrade_intent ~old_spec ~new_spec
        ()
    with
    | Error e -> Alcotest.fail e
    | Ok o ->
        (match o.Upgrade.o_action with
        | Upgrade.Refused _ -> ()
        | a -> Alcotest.failf "expected refusal, got %s" (Upgrade.action_name a));
        check ai "epoch stays 0" 0 o.Upgrade.o_epoch;
        check ab "still serving rev A after the refusal" true
          (o.Upgrade.o_post_delivered > 0);
        (match o.Upgrade.o_post_pairs with
        | Some arr ->
            Array.iter
              (fun l -> check ai "no epoch-1 deliveries" 0 (List.length l))
              arr
        | None -> Alcotest.fail "collect_post requested");
        check ai "lost" 0 o.Upgrade.o_lost;
        check ab "reconciled" true o.Upgrade.o_reconciled;
        o
  in
  let stale = run Upgrade.Drill_stale in
  (match stale.Upgrade.o_cert with
  | Upgrade.Cv_stale { held; current } ->
      check ab "held proved against a different contract" true (held <> current)
  | v -> Alcotest.failf "expected stale verdict, got %s" (Upgrade.cert_verdict_name v));
  let missing = run Upgrade.Drill_missing in
  (match missing.Upgrade.o_cert with
  | Upgrade.Cv_missing _ -> ()
  | v -> Alcotest.failf "expected missing verdict, got %s" (Upgrade.cert_verdict_name v));
  (* every injected codegen bug is caught by certification and refuses
     the swap with the documented diagnostic codes *)
  List.iter
    (fun m ->
      let o = run (Upgrade.Drill_inject m) in
      match o.Upgrade.o_cert with
      | Upgrade.Cv_failed codes ->
          let expected = Opendesc_analysis.Certify.expected_codes m in
          check ab
            (Printf.sprintf "mutation %S raises one of its codes"
               (Opendesc_analysis.Certify.mutation_name m))
            true
            (List.exists (fun c -> List.mem c expected) codes)
      | v ->
          Alcotest.failf "expected failed certification, got %s"
            (Upgrade.cert_verdict_name v))
    Opendesc_analysis.Certify.mutations

(* A Breaking-class swap drains in-flight completions, withholds the
   remainder of the stream, and reconciles the counters exactly. *)
let test_upgrade_breaking_quarantines () =
  let old_spec = rev_a () and new_spec = rev_broken () in
  let seed = 31L in
  List.iter
    (fun domains ->
      match
        Upgrade.run ~queues:4 ~domains ~pkts:4096 ~at:1500 ~seed
          ~plan:(Fault.default_plan seed) ~intent:upgrade_intent ~old_spec
          ~new_spec ()
      with
      | Error e -> Alcotest.fail e
      | Ok o ->
          check ab "quarantined" true (o.Upgrade.o_action = Upgrade.Quarantined);
          check ai "epoch stays 0" 0 o.Upgrade.o_epoch;
          check ai "remainder withheld" (4096 - 1500) o.Upgrade.o_withheld;
          check ai "nothing delivered post-swap" 0 o.Upgrade.o_post_delivered;
          check ai "accounted"
            (o.Upgrade.o_accepted + o.Upgrade.o_duplicates)
            (o.Upgrade.o_delivered + o.Upgrade.o_quarantined);
          check ai "lost" 0 o.Upgrade.o_lost;
          check ab "reconciled" true o.Upgrade.o_reconciled)
    [ 1; 2 ]

(* One-domain outcomes, pinned: [Upgrade.to_json] with [pause_s]
   filtered, as MD5 digests, for an applied, a refused and a quarantined
   swap at four swap points: both ends of the stream, a batch boundary
   and 2,050, off it. The seed, plan and sizes are the CLI's, so
   "applied at 2050" is the line [upgrade_e1000.expected] pins. At one
   domain the stream interleaves injection and harvest on the calling
   domain, so each outcome is a pure function of (seed, plan, at). *)
let upgrade_pins =
  [
    ("applied at 0", "59c1f71aebef32e2800d647b01d56ddf");
    ("applied at 32", "6fa13c20a00f28f4ee33a9d064997f30");
    ("applied at 2050", "8b4dbaf4bf0b5d9e936abba5666482f0");
    ("applied at 4096", "da0761645a2d312b026787a052af7e88");
    ("refused at 0", "a7e4a23bc71cca873020d82075e5d6ab");
    ("refused at 32", "a89196513030a5bebc5699e7041eab4b");
    ("refused at 2050", "64e1a6fa524004447bb61a71db5d3117");
    ("refused at 4096", "27d98933ef9a664b019347bca8218945");
    ("quarantined at 0", "acdd25312756d7b8b412339dc0f34796");
    ("quarantined at 32", "51bfebc803f8e026013198f622642834");
    ("quarantined at 2050", "4c5641dc12b3ce5626de432a1f62a606");
    ("quarantined at 4096", "f8c26f3df733a9f4803993600944b3b5");
  ]

let pause_filtered json =
  let cut = String.rindex json ':' + 1 in
  check Alcotest.string "pause_s is the last field" "\"pause_s\":"
    (String.sub json (cut - 10) 10);
  String.sub json 0 cut ^ "FILTERED}"

let test_upgrade_outcome_pins () =
  let old_spec = rev_a () in
  let outcomes =
    List.concat_map
      (fun (label, new_spec, drill) ->
        List.map
          (fun at ->
            match
              Upgrade.run ~queues:4 ~domains:1 ~pkts:4096 ~at ~seed:42L
                ~plan:(Fault.default_plan 42L) ?drill ~intent:upgrade_intent
                ~old_spec ~new_spec ()
            with
            | Error e -> Alcotest.fail e
            | Ok o ->
                (Printf.sprintf "%s at %d" label at, pause_filtered (Upgrade.to_json o)))
          [ 0; 32; 2050; 4096 ])
      [
        ("applied", rev_b (), None);
        ("refused", rev_b (), Some Upgrade.Drill_stale);
        ("quarantined", rev_broken (), None);
      ]
  in
  List.iter2
    (fun (name, json) (pinned, digest) ->
      check Alcotest.string "case" pinned name;
      check Alcotest.string (name ^ ": " ^ json) digest (Digest.to_hex (Digest.string json)))
    outcomes upgrade_pins

let test_upgrade_sizes_validated () =
  let old_spec = rev_a () and new_spec = rev_b () in
  let run ?batch ?domains () =
    ignore
      (Upgrade.run ?batch ?domains ~intent:upgrade_intent ~old_spec ~new_spec
         ())
  in
  Alcotest.check_raises "zero batch"
    (Invalid_argument "Upgrade.run: batch must be >= 1") (fun () ->
      run ~batch:0 ());
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Upgrade.run: domains must be >= 1") (fun () ->
      run ~domains:0 ())

(* The deployment filter: the same A -> B bump is globally Breaking
   (ip_checksum vanishes from the legacy path) yet Recompile for an RSS
   consumer on path 1 — and Breaking again for a deployment that
   actually served ip_checksum. *)
let test_upgrade_effective_class_scoping () =
  let old_spec = rev_a () and new_spec = rev_b () in
  (match
     Upgrade.dry_run ~intent:upgrade_intent ~old_spec ~new_spec ()
   with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check ab "globally breaking" true
        (o.Upgrade.o_full_class = Opendesc_analysis.Evolution.Breaking);
      check ab "effectively recompile" true
        (o.Upgrade.o_class = Opendesc_analysis.Evolution.Recompile);
      check ab "would apply" true (o.Upgrade.o_action = Upgrade.Applied);
      check ab "dry" true o.Upgrade.o_dry);
  let csum_intent = Opendesc.Intent.make [ ("ip_checksum", 16); ("pkt_len", 16) ] in
  match Upgrade.dry_run ~intent:csum_intent ~old_spec ~new_spec () with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check ab "breaking for a checksum consumer" true
        (o.Upgrade.o_class = Opendesc_analysis.Evolution.Breaking);
      check ab "would quarantine" true
        (o.Upgrade.o_action = Upgrade.Quarantined)

(* ------------------------------------------------------------------ *)
(* Static cost-bound certification (docs/COSTMODEL.md) *)

module Cb = Opendesc_analysis.Costbound

(* The containment property the whole cost-bound story rests on: across
   the catalog, random intents drawn from each NIC's own
   software-feasible semantics, and random traffic, the ledger charge
   for any single packet decoded by the generated per-packet runtime
   never exceeds the static worst-case bound proved for the deployed
   plan. *)
let prop_costbound_contains_ledger =
  QCheck.Test.make ~count:1000
    ~name:"static cost bound contains the measured ledger cost (catalog)"
    QCheck.(triple small_nat small_nat (int_bound 1_000_000))
    (fun (idx, pick, seed) ->
      let models = Nic_models.Catalog.all () in
      let model = List.nth models (idx mod List.length models) in
      let spec = model.Nic_models.Model.spec in
      let reg = Opendesc.Semantic.default () in
      let sems =
        List.concat_map
          (fun (p : Opendesc.Path.t) -> p.p_prov)
          spec.Opendesc.Nic_spec.paths
        |> List.sort_uniq compare
        |> List.filter (fun s ->
               Opendesc.Semantic.cost reg s < infinity && Softnic.Registry.mem softnic s)
      in
      let chosen =
        match sems with
        | [] -> [ "pkt_len" ]
        | _ ->
            let n = List.length sems in
            let mask = 1 + (pick mod ((1 lsl min n 6) - 1)) in
            let picked =
              List.filteri (fun i _ -> i < 6 && mask land (1 lsl i) <> 0) sems
            in
            if picked = [] then [ List.hd sems ] else picked
      in
      let intent =
        Opendesc.Intent.make
          (List.map
             (fun s ->
               ( s,
                 match Opendesc.Semantic.width reg s with
                 | Some w -> w
                 | None -> 16 ))
             chosen)
      in
      match Opendesc.Compile.run ~intent spec with
      | Error e -> QCheck.Test.fail_report e
      | Ok compiled -> (
          let bound = Cb.plan_bound (Opendesc.Compile.to_plan compiled) in
          match
            Device.create ~queue_depth:64
              ~config:compiled.Opendesc.Compile.config model
          with
          | Error e -> QCheck.Test.fail_report e
          | Ok dev ->
              let stack = Hoststacks.opendesc ~compiled in
              let env = Softnic.Feature.make_env () in
              let wl =
                Packet.Workload.make
                  ~seed:(Int64.of_int (seed + 1))
                  Packet.Workload.Imix
              in
              let burst = Device.burst_create ~capacity:1 dev in
              let ledger = Cost.create () in
              let ok = ref true in
              for _ = 1 to 8 do
                let pkt = Packet.Workload.next wl in
                if Device.rx_inject dev pkt && Device.rx_consume_batch dev burst = 1
                then begin
                  Cost.reset ledger;
                  ignore (stack.Stack.bt_consume (Cost.ledger ledger) env burst);
                  if Cost.total ledger > bound *. 1.0000001 then ok := false
                end
                else ok := false
              done;
              !ok))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "driver"
    [
      ( "dma",
        [
          Alcotest.test_case "counters" `Quick test_dma_counters;
          Alcotest.test_case "host not counted" `Quick test_dma_host_access_not_counted;
          Alcotest.test_case "dev_read_into" `Quick test_dma_dev_read_into;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo order" `Quick test_ring_fifo_order;
          Alcotest.test_case "full rejects" `Quick test_ring_full_rejects;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "dev ops counted" `Quick test_ring_dev_ops_counted;
          Alcotest.test_case "space/available" `Quick test_ring_space_available;
          Alcotest.test_case "consume_dev_into" `Quick test_ring_consume_dev_into;
          Alcotest.test_case "scratch too small" `Quick test_ring_scratch_too_small;
          Alcotest.test_case "frame wraparound" `Quick test_ring_frame_wraparound;
          Alcotest.test_case "frame full" `Quick test_ring_frame_full;
          Alcotest.test_case "frame length clamped" `Quick test_ring_frame_len_clamped;
          Alcotest.test_case "frame scratch too small" `Quick
            test_ring_frame_scratch_too_small;
          Alcotest.test_case "repeat and prefix" `Quick test_ring_repeat_and_prefix;
        ]
        @ qsuite [ prop_ring_matches_queue ] );
      ( "device",
        [
          Alcotest.test_case "rejects bad config" `Quick test_device_rejects_bad_config;
          Alcotest.test_case "rx roundtrip bytes" `Quick
            test_device_rx_roundtrip_packet_bytes;
          Alcotest.test_case "completion matches accessors" `Quick
            test_device_completion_matches_accessors;
          Alcotest.test_case "reconfigure layout" `Quick
            test_device_reconfigure_switches_layout;
          Alcotest.test_case "drops when full" `Quick test_device_drops_when_full;
          Alcotest.test_case "dma accounting" `Quick test_device_dma_accounting;
          Alcotest.test_case "tx path" `Quick test_device_tx_path;
          Alcotest.test_case "ipv6 rss agreement" `Quick test_device_ipv6_rss_agreement;
          Alcotest.test_case "flow marks" `Quick test_device_flow_marks;
          Alcotest.test_case "inject allocation budget" `Quick
            test_device_inject_alloc_budget;
          Alcotest.test_case "raw inject refuses a bad length" `Quick
            test_device_inject_raw_bad_length;
          Alcotest.test_case "IHL overrun, exact buffer" `Quick
            test_ihl_overrun_exact_buffer;
          Alcotest.test_case "IHL overrun, pooled slot" `Quick
            test_ihl_overrun_pooled_slot;
          Alcotest.test_case "corruption flagged e2e" `Quick
            test_corrupted_packets_flagged_end_to_end;
          Alcotest.test_case "bitflip locality" `Quick
            test_completion_bitflip_changes_reads_only_locally;
        ]
        @ qsuite [ prop_mutated_frames_never_raise ] );
      ( "mq",
        [
          Alcotest.test_case "flow affinity" `Quick test_mq_flow_affinity;
          Alcotest.test_case "per-queue layouts" `Quick test_mq_per_queue_layouts;
          Alcotest.test_case "unhashable to queue 0" `Quick
            test_mq_unhashable_to_queue_zero;
          Alcotest.test_case "drain_batched arity" `Quick test_mq_drain_batched_arity;
          Alcotest.test_case "steering pinned" `Quick test_mq_steer_pinned;
          Alcotest.test_case "steer_cached is steer" `Quick test_mq_steer_cached_is_steer;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "all deliver" `Quick test_stacks_all_deliver;
          Alcotest.test_case "agree on values" `Quick test_stacks_agree_on_values;
          Alcotest.test_case "xdp pays for unexposed" `Quick
            test_xdp_pays_for_unexposed_semantics;
          Alcotest.test_case "streaming collapses" `Quick
            test_streaming_collapses_on_metadata;
          Alcotest.test_case "aggregator roundtrip" `Quick test_aggregator_roundtrip;
          Alcotest.test_case "aggregator truncation" `Quick
            test_aggregator_truncated_rejected;
          Alcotest.test_case "asni aggregation" `Quick
            test_asni_between_opendesc_and_streaming;
          Alcotest.test_case "simd amortizes" `Quick test_simd_amortizes;
          Alcotest.test_case "ledgers pinned" `Quick test_ledgers_pinned;
          Alcotest.test_case "null decodes as ledger" `Quick
            test_null_decodes_as_ledger;
          Alcotest.test_case "every frame dropped" `Quick
            test_run_every_frame_dropped;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "stats merge" `Quick test_stats_merge;
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "clean shutdown" `Quick test_parallel_shutdown_clean;
          Alcotest.test_case "pktring basic" `Quick test_pktring_basic;
          Alcotest.test_case "pktring oversize" `Quick
            test_pktring_oversize_truncated;
          Alcotest.test_case "pktring cross-domain" `Quick
            test_pktring_cross_domain;
          Alcotest.test_case "stats merge idle" `Quick test_stats_merge_idle;
          Alcotest.test_case "gc budget" `Quick test_parallel_gc_budget;
          Alcotest.test_case "shared decoder is domain-safe" `Quick
            test_parallel_shared_decoder;
          Alcotest.test_case "sizes validated" `Quick
            test_parallel_sizes_validated;
          Alcotest.test_case "raising consumer: run" `Quick
            test_failure_consumer_run;
          Alcotest.test_case "failure keeps backtrace" `Quick
            test_failure_keeps_backtrace;
          Alcotest.test_case "raising consumer: hot_swap" `Quick
            test_failure_consumer_hot_swap;
          Alcotest.test_case "raising install: hot_swap" `Quick
            test_failure_install_hot_swap;
          Alcotest.test_case "raising verdict: hot_swap" `Quick
            test_failure_verdict_hot_swap;
          Alcotest.test_case "raising device model: run" `Quick
            test_failure_device_model_run;
          Alcotest.test_case "runs reuse their worker domains" `Quick
            test_pool_reuses_domains;
          Alcotest.test_case "a failed run leaves the pool serving" `Quick
            test_pool_serves_after_failure;
          Alcotest.test_case "concurrent runs" `Quick test_pool_concurrent_runs;
          Alcotest.test_case "decoder paths agree on every shape" `Quick
            test_decoder_paths_agree_on_every_shape;
        ]
        @ qsuite [ prop_hot_path_byte_identical ] );
      ( "fault",
        [
          Alcotest.test_case "stuck queue recovers" `Quick
            test_fault_stuck_queue_recovers;
          Alcotest.test_case "doorbell loss recovers" `Quick
            test_fault_doorbell_loss_recovers;
          Alcotest.test_case "semantic corruption quarantined" `Quick
            test_fault_semantic_all_quarantined;
          Alcotest.test_case "duplicate delivery" `Quick test_fault_duplicate_counts;
          Alcotest.test_case "reorder multiset" `Quick
            test_fault_reorder_preserves_multiset;
          Alcotest.test_case "reorder keeps a truncated frame's length" `Quick
            test_fault_reorder_keeps_truncated_length;
          Alcotest.test_case "stats merge fault counters" `Quick
            test_stats_merge_fault_counters;
          Alcotest.test_case "quarantine keeps record length" `Quick
            test_fault_quarantine_keeps_length;
          Alcotest.test_case "chaos allocation budget" `Quick
            test_fault_chaos_alloc_budget;
        ]
        @ qsuite
            [
              prop_zero_plan_is_identity;
              prop_chaos_reconciles_and_replays;
              prop_checker_matches_list_walk;
            ] );
      ( "upgrade",
        [
          Alcotest.test_case "zero loss at 1/2/4 domains" `Quick
            test_upgrade_zero_loss_all_domain_counts;
          Alcotest.test_case "post-swap decodes as rev B" `Quick
            test_upgrade_post_swap_decodes_as_rev_b;
          Alcotest.test_case "certificate gate refuses" `Quick
            test_upgrade_cert_gate_refuses;
          Alcotest.test_case "breaking quarantines" `Quick
            test_upgrade_breaking_quarantines;
          Alcotest.test_case "effective class scoping" `Quick
            test_upgrade_effective_class_scoping;
          Alcotest.test_case "outcomes pinned at 1 domain" `Quick
            test_upgrade_outcome_pins;
          Alcotest.test_case "sizes validated" `Quick
            test_upgrade_sizes_validated;
          Alcotest.test_case "allocation budget" `Quick test_upgrade_alloc_budget;
        ]
        @ qsuite [ prop_upgrade_random_timing_never_tears ] );
      ("properties", qsuite [ prop_dma_accounting ]);
      ( "cost",
        [
          Alcotest.test_case "ledger" `Quick test_cost_ledger;
          Alcotest.test_case "stats ratio" `Quick test_stats_ratio;
          Alcotest.test_case "conversions" `Quick test_pps_latency_conversions;
        ] );
      ("costbound", qsuite [ prop_costbound_contains_ledger ]);
    ]
