(* Tests for the NIC model catalogue: every model's description loads and
   analyses into the layouts the datasheets (as summarised by the paper)
   prescribe, and the device-side resolvers produce correct values. *)

open Nic_models

let check = Alcotest.check
let ai = Alcotest.int
let ai64 = Alcotest.int64
let ab = Alcotest.bool
let asl = Alcotest.(list string)

let sizes_of (m : Model.t) =
  List.sort compare (List.map Opendesc.Path.size m.spec.paths)

(* ------------------------------------------------------------------ *)
(* e1000 *)

let test_e1000_legacy_single_path () =
  let m = E1000.legacy () in
  check ai "one path" 1 (List.length m.spec.paths);
  let p = List.hd m.spec.paths in
  check ab "gives ip checksum" true (Opendesc.Path.provides p "ip_checksum");
  check ab "no rss anywhere" true
    (not (List.exists (fun p -> Opendesc.Path.provides p "rss") m.spec.paths))

let test_e1000_newer_two_paths () =
  let m = E1000.newer () in
  check ai "two paths" 2 (List.length m.spec.paths);
  check ab "rss xor csum" true
    (List.for_all
       (fun p ->
         Opendesc.Path.provides p "rss" <> Opendesc.Path.provides p "ip_checksum")
       m.spec.paths)

let test_e1000_tx_descriptor () =
  let m = E1000.legacy () in
  match m.spec.tx_formats with
  | [ f ] ->
      check ai "16-byte tx desc" 16 (Opendesc.Descparser.size f);
      check ab "vlan insertion field" true
        (Opendesc.Descparser.field_for f "vlan" <> None)
  | _ -> Alcotest.fail "expected one tx format"

(* ------------------------------------------------------------------ *)
(* ixgbe *)

let test_ixgbe_three_paths () =
  let m = Ixgbe.model () in
  check ai "three layouts" 3 (List.length m.spec.paths)

let test_ixgbe_legacy_reachable_from_two_configs () =
  (* desctype=0 ignores pcsd, so the legacy layout groups two context
     assignments. *)
  let m = Ixgbe.model () in
  let legacy =
    List.find
      (fun (p : Opendesc.Path.t) ->
        List.exists (fun ((_, h) : string * P4.Typecheck.header_def) ->
            h.h_name = "ixgbe_legacy_cmpt_t") p.p_emits)
      m.spec.paths
  in
  check ai "two configs" 2 (List.length legacy.p_assignments)

let test_ixgbe_rss_csum_exclusive () =
  let m = Ixgbe.model () in
  check ab "advanced paths exclusive" true
    (List.for_all
       (fun (p : Opendesc.Path.t) ->
         not (Opendesc.Path.provides p "rss" && Opendesc.Path.provides p "ip_checksum"))
       m.spec.paths)

(* ------------------------------------------------------------------ *)
(* mlx5 *)

let test_mlx5_full_cqe_is_64_bytes () =
  let m = Mlx5.model () in
  let full =
    List.find
      (fun (p : Opendesc.Path.t) -> Opendesc.Path.provides p "wire_timestamp")
      m.spec.paths
  in
  check ai "64B CQE" 64 (Opendesc.Path.size full);
  check ai "12 metadata semantics" 12 (List.length full.p_prov);
  check asl "the paper's twelve"
    (List.sort compare Mlx5.full_cqe_semantics)
    full.p_prov

let test_mlx5_mini_cqes_are_8_bytes () =
  let m = Mlx5.model () in
  check (Alcotest.list ai) "8/8/64" [ 8; 8; 64 ] (sizes_of m)

let test_mlx5_xdp_covers_3_of_12 () =
  (* The paper: "the BPF accessors only cover 3 of the 12 metadata
     information available in NVIDIA Mellanox ConnectX descriptors". *)
  let covered =
    List.filter (fun s -> List.mem s Mlx5.xdp_exposed) Mlx5.full_cqe_semantics
  in
  check ai "3 of 12" 3 (List.length covered);
  check ai "12 total" 12 (List.length Mlx5.full_cqe_semantics);
  (* the hand-written list the XDP column replaced *)
  check asl "hash, timestamp, VLAN"
    (List.sort compare [ "rss"; "wire_timestamp"; "vlan" ])
    (List.sort compare Mlx5.xdp_exposed)

(* Every semantic field of the full CQE, wire_timestamp included, is
   staged as its core: a boxed producer would allocate per packet. *)
let test_mlx5_full_cqe_staged_as_cores () =
  let m = Mlx5.model () in
  let full =
    List.find
      (fun (p : Opendesc.Path.t) -> Opendesc.Path.provides p "wire_timestamp")
      m.spec.paths
  in
  let wire = Option.get (Opendesc.Path.field_for full "wire_timestamp") in
  check ab "wire_timestamp is Core Timestamp" true
    (Nic_models.Model.source m wire = Softnic.Codec.Core Softnic.Codec.Timestamp);
  List.iter
    (fun (f : Opendesc.Path.lfield) ->
      match f.l_semantic with
      | Some s ->
          check ab (s ^ " is a core") true
            (match Nic_models.Model.source m f with Softnic.Codec.Core _ -> true | _ -> false)
      | None -> ())
    full.p_layout.fields

(* ------------------------------------------------------------------ *)
(* bluefield *)

let test_bluefield_slot_paths () =
  let m = Bluefield.model () in
  check ai "mini, base, base+slot" 3 (List.length m.spec.paths);
  let slotted =
    List.find (fun p -> Opendesc.Path.provides p "kvs_key") m.spec.paths
  in
  check ai "base 24B + slot 8B" 32 (Opendesc.Path.size slotted)

let test_bluefield_tunnel_slot_end_to_end () =
  (* Install a tunnel-termination pipeline in the programmable slot and
     verify the VNI reaches the host through the completion. *)
  let m = Bluefield.model ~slot:("tunnel_vni", 32) () in
  let intent = Opendesc.Intent.make [ ("tunnel_vni", 24) ] in
  let compiled = Opendesc.Compile.run_exn ~intent m.spec in
  check ab "vni from hardware" true
    (List.mem "tunnel_vni" (Opendesc.Compile.hardware compiled))

let test_bluefield_stateful_slot_counts_on_device () =
  (* §5 stateful offloads: a per-flow counter in the programmable slot.
     The device keeps the register state; the host reads successive
     counts through the same accessor. *)
  let m = Bluefield.model ~slot:("flow_pkts", 16) () in
  let intent = Opendesc.Intent.make [ ("flow_pkts", 16) ] in
  let compiled = Opendesc.Compile.run_exn ~intent m.spec in
  check ab "counter from hardware" true
    (List.mem "flow_pkts" (Opendesc.Compile.hardware compiled));
  let device = Driver.Device.create_exn ~config:compiled.config m in
  let flow =
    Packet.Fivetuple.make ~src_ip:1l ~dst_ip:2l ~src_port:3 ~dst_port:4
      ~proto:Packet.Hdr.Proto.tcp
  in
  let read_count () =
    let pkt = Packet.Builder.ipv4 ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0 }) in
    assert (Driver.Device.rx_inject device pkt);
    match Driver.Device.rx_consume device with
    | Some (_, _, cmpt) -> (
        match List.assoc "flow_pkts" compiled.bindings with
        | Opendesc.Compile.Hardware a -> a.a_get cmpt
        | Opendesc.Compile.Software _ -> Alcotest.fail "should be hardware")
    | None -> Alcotest.fail "no completion"
  in
  check ai64 "count 1" 1L (read_count ());
  check ai64 "count 2" 2L (read_count ());
  check ai64 "count 3" 3L (read_count ())

let test_bluefield_reprogrammed_slot () =
  (* Installing a different pipeline regenerates the description. *)
  let m = Bluefield.model ~slot:("regex_match_id", 32) () in
  check ab "regex slot available" true
    (List.exists (fun p -> Opendesc.Path.provides p "regex_match_id") m.spec.paths);
  check ab "kvs gone" true
    (not (List.exists (fun p -> Opendesc.Path.provides p "kvs_key") m.spec.paths))

(* ------------------------------------------------------------------ *)
(* qdma *)

let fig1 = Catalog.fig1_intent

let test_qdma_four_formats () =
  let m = Qdma.model ~intent:fig1 () in
  check (Alcotest.list ai) "8/16/32/64" [ 8; 16; 32; 64 ] (sizes_of m)

let test_qdma_16b_fits_whole_fig1_intent () =
  (* checksum(16) + vlan(16) + rss(32) + kvs_key(64) = 128 bits = 16B. *)
  let m = Qdma.model ~intent:fig1 () in
  let p16 = List.find (fun p -> Opendesc.Path.size p = 16) m.spec.paths in
  check asl "all four"
    (List.sort compare (Opendesc.Intent.required fig1))
    p16.p_prov

let test_qdma_8b_truncates_greedily () =
  (* Only checksum+vlan+rss (64 bits) fit in 8 bytes; kvs_key (64 more)
     does not. *)
  let m = Qdma.model ~intent:fig1 () in
  let p8 = List.find (fun p -> Opendesc.Path.size p = 8) m.spec.paths in
  check asl "first three" [ "ip_checksum"; "rss"; "vlan" ] p8.p_prov

let test_qdma_synthesized_source_parses () =
  let src = Qdma.synthesize_source fig1 (Opendesc.Semantic.default ()) in
  match Opendesc.Prelude.check_result src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "synthesized source does not check: %s" e

(* ------------------------------------------------------------------ *)
(* device-side resolution *)

let flow =
  Packet.Fivetuple.make ~src_ip:0x0a000002l ~dst_ip:0xc0a80003l ~src_port:4242
    ~dst_port:11211 ~proto:Packet.Hdr.Proto.udp

let resolve_semantic (m : Model.t) sem pkt =
  let env = Softnic.Feature.make_env () in
  let view = Packet.Pkt.parse pkt in
  let field : Opendesc.Path.lfield =
    { l_name = "x"; l_header = "h"; l_semantic = Some sem; l_bit_off = 0; l_bits = 32;
      l_span = P4.Loc.dummy }
  in
  m.resolve env pkt view field

let test_resolver_semantics_match_softnic () =
  let m = Mlx5.model () in
  let pkt = Packet.Builder.ipv4 ~vlan:5 ~flow Packet.Builder.Udp in
  let expected_rss = Softnic.Toeplitz.hash_pkt pkt (Packet.Pkt.parse pkt) in
  check ai64 "rss"
    (Int64.logand (Int64.of_int32 expected_rss) 0xFFFFFFFFL)
    (resolve_semantic m "rss" pkt);
  check ai64 "vlan" 5L (resolve_semantic m "vlan" pkt);
  check ai64 "pkt_len" (Int64.of_int (Packet.Pkt.len pkt))
    (resolve_semantic m "pkt_len" pkt)

let test_resolver_constants_for_status_fields () =
  let m = E1000.legacy () in
  let env = Softnic.Feature.make_env () in
  let pkt = Packet.Builder.ipv4 ~flow Packet.Builder.Udp in
  let view = Packet.Pkt.parse pkt in
  let field name : Opendesc.Path.lfield =
    { l_name = name; l_header = "h"; l_semantic = None; l_bit_off = 0; l_bits = 8;
      l_span = P4.Loc.dummy }
  in
  check ai64 "status bit set" 1L (m.resolve env pkt view (field "status"));
  check ai64 "unknown plain field is 0" 0L (m.resolve env pkt view (field "errors"))

let test_hardware_only_semantics_resolve () =
  let m = Bluefield.model () in
  let pkt = Packet.Builder.kvs_get ~flow ~key:"hello" in
  check ai64 "kvs key" (Softnic.Kvs.fold_key "hello") (resolve_semantic m "kvs_key" pkt);
  check ab "wire timestamp nonzero" true
    (resolve_semantic m "wire_timestamp" pkt <> 0L);
  let http = Packet.Builder.ipv4 ~payload:(Bytes.of_string "GET /x HTTP/1.1\r\n")
      ~flow Packet.Builder.Udp in
  check ai64 "regex rule 1" 1L (resolve_semantic m "regex_match_id" http)

let test_regex_match_id_cases () =
  let m = Bluefield.model () in
  let udp payload =
    Packet.Builder.ipv4 ~payload:(Bytes.of_string payload) ~flow Packet.Builder.Udp
  in
  let regex pkt = resolve_semantic m "regex_match_id" pkt in
  check ai64 "GET" 1L (regex (udp "xx GET /index"));
  check ai64 "get" 1L (regex (udp "get key\r\n"));
  check ai64 "POST" 2L (regex (udp "POST /form"));
  check ai64 "needle ends the payload" 2L (regex (udp "....POST "));
  check ai64 "needle cut by the payload end" 0L (regex (udp "....POST"));
  check ai64 "payload shorter than the needle" 0L (regex (udp "GE"));
  check ai64 "empty payload" 0L (regex (udp ""));
  check ai64 "no L4 payload" 0L (regex (Packet.Builder.raw ~len:64 ~fill:'G'))

(* ------------------------------------------------------------------ *)
(* virtio *)

let test_virtio_two_negotiated_layouts () =
  let m = Virtio.model () in
  check (Alcotest.list ai) "12B classic, 20B hashed" [ 12; 20 ] (sizes_of m)

let test_virtio_hash_report_feature () =
  let m = Virtio.model () in
  let hashed = List.find (fun p -> Opendesc.Path.provides p "rss") m.spec.paths in
  (match hashed.p_assignments with
  | [ [ ("hash_report", 1L) ] ] -> ()
  | _ -> Alcotest.fail "hash layout should require hash_report=1");
  let classic =
    List.find (fun p -> not (Opendesc.Path.provides p "rss")) m.spec.paths
  in
  check ab "classic still validates checksums" true
    (Opendesc.Path.provides classic "csum_ok")

(* ------------------------------------------------------------------ *)
(* ice (E810 flexible descriptors) *)

let test_ice_flex_profiles () =
  let m = Ice.model () in
  check (Alcotest.list ai) "8B legacy, 16B flex, 16B tstamp" [ 8; 16; 16 ] (sizes_of m);
  (* The rxdid context uses @values, so exactly three configs exist. *)
  check ai "three configs total" 3
    (List.fold_left
       (fun acc (p : Opendesc.Path.t) -> acc + List.length p.p_assignments)
       0 m.spec.paths);
  (* Only the timestamp profile carries the PHC stamp. *)
  let tstamp_paths =
    List.filter (fun p -> Opendesc.Path.provides p "wire_timestamp") m.spec.paths
  in
  check ai "one tstamp profile" 1 (List.length tstamp_paths)

let test_ice_profile_selection_by_intent () =
  let m = Ice.model () in
  let pick sems =
    let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) sems) in
    let c = Opendesc.Compile.run_exn ~intent m.spec in
    (Opendesc.Compile.path c).p_assignments
  in
  (match pick [ "wire_timestamp" ] with
  | [ [ ("rxdid", 4L) ] ] -> ()
  | _ -> Alcotest.fail "timestamp intent should program RXDID 4");
  match pick [ "flow_id"; "rss" ] with
  | [ [ ("rxdid", 2L) ] ] -> ()
  | _ -> Alcotest.fail "flow intent should program RXDID 2"

(* ------------------------------------------------------------------ *)
(* catalog *)

let test_catalog_loads_all () =
  let models = Catalog.all () in
  check ai "eight models" 8 (List.length models);
  List.iter
    (fun (m : Model.t) ->
      check ab (m.spec.nic_name ^ " has paths") true (m.spec.paths <> []))
    models

let test_catalog_find () =
  let models = Catalog.all () in
  check ab "find mlx5" true (Catalog.find "mlx5-connectx" models <> None);
  check ab "find nothing" true (Catalog.find "nope" models = None)

let test_catalog_kinds () =
  let models = Catalog.all () in
  let kind name =
    (Option.get (Catalog.find name models)).Model.spec.kind
  in
  check ab "e1000 fixed" true (kind "e1000-legacy" = Opendesc.Nic_spec.Fixed_function);
  check ab "qdma programmable" true
    (kind "qdma-programmable" = Opendesc.Nic_spec.Fully_programmable)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nic_models"
    [
      ( "e1000",
        [
          Alcotest.test_case "legacy single path" `Quick test_e1000_legacy_single_path;
          Alcotest.test_case "newer two paths" `Quick test_e1000_newer_two_paths;
          Alcotest.test_case "tx descriptor" `Quick test_e1000_tx_descriptor;
        ] );
      ( "ixgbe",
        [
          Alcotest.test_case "three paths" `Quick test_ixgbe_three_paths;
          Alcotest.test_case "legacy from two configs" `Quick
            test_ixgbe_legacy_reachable_from_two_configs;
          Alcotest.test_case "rss/csum exclusive" `Quick test_ixgbe_rss_csum_exclusive;
        ] );
      ( "mlx5",
        [
          Alcotest.test_case "full CQE 64B / 12 semantics" `Quick
            test_mlx5_full_cqe_is_64_bytes;
          Alcotest.test_case "mini CQEs 8B" `Quick test_mlx5_mini_cqes_are_8_bytes;
          Alcotest.test_case "xdp covers 3 of 12" `Quick test_mlx5_xdp_covers_3_of_12;
          Alcotest.test_case "full CQE staged as cores" `Quick
            test_mlx5_full_cqe_staged_as_cores;
        ] );
      ( "bluefield",
        [
          Alcotest.test_case "slot paths" `Quick test_bluefield_slot_paths;
          Alcotest.test_case "reprogrammed slot" `Quick test_bluefield_reprogrammed_slot;
          Alcotest.test_case "tunnel slot end-to-end" `Quick
            test_bluefield_tunnel_slot_end_to_end;
          Alcotest.test_case "stateful slot counts" `Quick
            test_bluefield_stateful_slot_counts_on_device;
        ] );
      ( "qdma",
        [
          Alcotest.test_case "four formats" `Quick test_qdma_four_formats;
          Alcotest.test_case "16B fits fig1" `Quick test_qdma_16b_fits_whole_fig1_intent;
          Alcotest.test_case "8B truncates" `Quick test_qdma_8b_truncates_greedily;
          Alcotest.test_case "synthesized source checks" `Quick
            test_qdma_synthesized_source_parses;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "matches softnic" `Quick test_resolver_semantics_match_softnic;
          Alcotest.test_case "status constants" `Quick
            test_resolver_constants_for_status_fields;
          Alcotest.test_case "hardware-only semantics" `Quick
            test_hardware_only_semantics_resolve;
          Alcotest.test_case "regex_match_id cases" `Quick test_regex_match_id_cases;
        ] );
      ( "virtio",
        [
          Alcotest.test_case "negotiated layouts" `Quick
            test_virtio_two_negotiated_layouts;
          Alcotest.test_case "hash report feature" `Quick
            test_virtio_hash_report_feature;
        ] );
      ( "ice",
        [
          Alcotest.test_case "flex profiles" `Quick test_ice_flex_profiles;
          Alcotest.test_case "profile by intent" `Quick
            test_ice_profile_selection_by_intent;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "loads all" `Quick test_catalog_loads_all;
          Alcotest.test_case "find" `Quick test_catalog_find;
          Alcotest.test_case "kinds" `Quick test_catalog_kinds;
        ] );
    ]
