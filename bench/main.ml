(* The OpenDesc experiment harness.

   One experiment per figure and quantitative claim of the paper (see the
   per-experiment index in DESIGN.md). Running with no arguments executes
   everything; passing experiment ids (f1 f2 f3 f6 c1 ... c7 micro) runs a
   subset.

   The paper is a HotNets position paper without numeric result tables;
   experiments F1–F6 reproduce the behaviour its figures depict, and
   C1–C7 reproduce the quantitative claims its text cites from prior
   systems (TinyNF 1.7x, X-Change +70%/-28%, ENSO 6x, XDP's 3-of-12
   ConnectX coverage, compressed-CQE DMA savings, Eq. 1 trade-offs,
   SIMD batching). EXPERIMENTS.md records paper-vs-measured. *)

let fig1_intent = Nic_models.Catalog.fig1_intent

let softnic = Softnic.Registry.builtin ()

(* ================================================================== *)
(* F1: the Figure-1 scenario — one intent, every NIC. *)

let f1 () =
  Bench_util.section
    "F1. Figure 1: intent {ip_checksum, vlan, rss, kvs_key} across all NICs";
  Printf.printf "%-22s %-22s %5s %6s  %-34s %-28s\n" "nic" "kind" "cmpt" "eq1"
    "hardware" "software";
  List.iter
    (fun (m : Nic_models.Model.t) ->
      match Opendesc.Compile.run ~intent:fig1_intent m.spec with
      | Error e -> Printf.printf "%-22s ERROR %s\n" m.spec.nic_name e
      | Ok c ->
          Printf.printf "%-22s %-22s %4dB %6.0f  %-34s %-28s\n" m.spec.nic_name
            (Opendesc.Nic_spec.kind_to_string m.spec.kind)
            (Opendesc.Path.size (Opendesc.Compile.path c))
            c.outcome.chosen.s_total
            (String.concat "," (Opendesc.Compile.hardware c))
            (String.concat "," (Opendesc.Compile.missing c)))
    (Nic_models.Catalog.all ());
  print_newline ();
  print_endline
    "Reading: fixed NICs keep 1-2 intent fields in hardware; the BlueField\n\
     MA-pipeline slot adds the custom kvs_key; the fully-programmable QDMA\n\
     packs the entire intent into a 16-byte completion with no software."

(* ================================================================== *)
(* F2: the Figure-2 architecture — all five channels exercised. *)

let f2 () =
  Bench_util.section "F2. Figure 2: the five NIC-host channels, end to end";
  let model = Nic_models.E1000.newer () in
  let intent = Opendesc.Intent.make [ ("ip_checksum", 16) ] in
  let compiled = Opendesc.Compile.run_exn ~intent model.spec in
  let device = Driver.Device.create_exn ~config:compiled.config model in
  (* Control channel (implicit): queue context programmed via MMIO. *)
  Printf.printf "control channel : programmed context %s\n"
    (Format.asprintf "%a" Opendesc_analysis.Context.pp compiled.config);
  (* TX: host posts descriptors (1), device reads packets (2). *)
  let fmt = Option.get (Driver.Device.tx_format device) in
  let pkts =
    Array.init 8 (fun i ->
        Packet.Builder.ipv4
          ~flow:
            (Packet.Fivetuple.make ~src_ip:0x0a000001l ~dst_ip:0xc0a80001l
               ~src_port:(1000 + i) ~dst_port:80 ~proto:6)
          (Packet.Builder.Tcp { seq = Int32.of_int i; flags = 0x10 }))
  in
  Array.iteri
    (fun i _ ->
      let desc = Bytes.make (Opendesc.Descparser.size fmt) '\x00' in
      let addr = Option.get (Opendesc.Descparser.field_for fmt "buf_addr") in
      Opendesc.Accessor.writer ~bit_off:addr.l_bit_off ~bits:addr.l_bits desc
        (Int64.of_int i);
      assert (Driver.Device.tx_post device desc))
    pkts;
  let sent =
    Driver.Device.tx_process device ~fetch:(fun a ->
        let i = Int64.to_int a in
        if i >= 0 && i < 8 then Some pkts.(i) else None)
  in
  Printf.printf "TX desc    (1)  : 8 descriptors posted, %d bytes each\n"
    (Opendesc.Descparser.size fmt);
  Printf.printf "TX packet  (2)  : %d packets fetched by the device DMA\n" sent;
  (* RX: device writes packets (3) and completions (4). *)
  let w = Packet.Workload.make ~seed:4L Packet.Workload.Imix in
  Driver.Device.reset_counters device;
  for _ = 1 to 8 do
    ignore (Driver.Device.rx_inject device (Packet.Workload.next w))
  done;
  let rx_bytes = ref 0 and cmpt_bytes = ref 0 and n = ref 0 in
  let rec drain () =
    match Driver.Device.rx_consume device with
    | Some (_, len, cmpt) ->
        rx_bytes := !rx_bytes + len;
        cmpt_bytes := !cmpt_bytes + Bytes.length cmpt;
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  Printf.printf "RX packet  (3)  : %d packets, %d payload bytes DMAed to host\n" !n
    !rx_bytes;
  Printf.printf "RX cmpt    (4)  : %d completion records, %d bytes (%s)\n" !n
    !cmpt_bytes
    (match Opendesc.Path.field_for (Driver.Device.active_path device) "ip_checksum" with
    | Some f -> Printf.sprintf "ip_checksum at bit %d" f.l_bit_off
    | None -> "-")

(* ================================================================== *)
(* F3: Figures 3-5 — the interface templates parse and check. *)

let figs_3_4_5_source =
  {|
parser DescParser<H2C_CTX_T, DESC_T>(
    desc_in desc_in_s,
    in H2C_CTX_T h2c_ctx,
    out DESC_T desc_hdr);

control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
    cmpt_out cmpt_out_s,
    in C2H_CTX_T c2h_ctx,
    in DESC_T desc_hdr,
    in META_T pipe_meta);

header intent_t {
  @semantic("rss")
  bit<32> rss_val;
  @semantic("vlan")
  bit<16> vlan_tag;
  @semantic("ip_checksum")
  bit<16> csum;
}
|}

let f3 () =
  Bench_util.section "F3. Figures 3-5: interface templates and intent header";
  match Opendesc.Prelude.check_result figs_3_4_5_source with
  | Error e -> Printf.printf "FAILED: %s\n" e
  | Ok tenv -> (
      Printf.printf "parsed and checked %d declarations (including prelude)\n"
        (List.length (P4.Typecheck.program tenv));
      match Opendesc.Intent.of_program tenv with
      | Ok intent ->
          Printf.printf "intent header: %s\n"
            (Format.asprintf "%a" Opendesc.Intent.pp intent);
          print_endline "re-rendered intent:";
          print_string (Opendesc.Intent.to_p4 intent)
      | Error e -> Printf.printf "intent error: %s\n" e)

(* ================================================================== *)
(* F6: the Figure-6 running example. *)

let f6 () =
  Bench_util.section "F6. Figure 6: e1000 CFG extraction and path selection";
  let model = Nic_models.E1000.newer () in
  print_endline "control-flow graph of the completion deparser:";
  print_string (Opendesc.Cfg.to_dot (Opendesc.Nic_spec.cfg model.spec));
  Printf.printf "\n%s\n\n" (Format.asprintf "%a" Opendesc.Report.paths model.spec);
  Printf.printf "%-28s %-18s %-20s\n" "requested" "chosen branch" "missing (software)";
  List.iter
    (fun sems ->
      let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) sems) in
      match Opendesc.Compile.run ~intent model.spec with
      | Ok c ->
          let branch =
            if Opendesc.Path.provides (Opendesc.Compile.path c) "rss" then
              "rss (use_rss=1)"
            else "csum (use_rss=0)"
          in
          Printf.printf "%-28s %-18s %-20s\n" (String.concat "," sems) branch
            (String.concat "," (Opendesc.Compile.missing c))
      | Error e -> Printf.printf "%-28s ERROR %s\n" (String.concat "," sems) e)
    [ [ "rss" ]; [ "ip_checksum" ]; [ "rss"; "ip_checksum" ]; [ "ip_id"; "rss" ] ];
  print_newline ();
  print_endline
    "Reading: with both rss and csum requested the compiler prefers the csum\n\
     branch — software rss (~120 cycles) is cheaper than recomputing the\n\
     checksum (~180 cycles), exactly the preference the paper describes."

(* ================================================================== *)
(* C1: TinyNF — a minimal driver datapath vs the DPDK model (~1.7x). *)

let c1 () =
  Bench_util.section "C1. TinyNF claim: minimal driver ~1.7x DPDK (64B forwarding)";
  let model = Nic_models.Ixgbe.model () in
  let requested = [] in
  let intent = Opendesc.Intent.make [] in
  let compiled = Opendesc.Compile.run_exn ~intent model.spec in
  let path = Opendesc.Compile.path compiled in
  let rows =
    Bench_util.compare_stacks ~touch_payload:true ~model ~config:compiled.config
      ~workload:(fun () -> Packet.Workload.make ~seed:11L Packet.Workload.Min_size)
      [
        ("dpdk-mbuf", Driver.Hoststacks.dpdk ~path ~requested ~softnic);
        (* The generated runtime is the minimal driver: both rows are one
           stack, so the two ratios match by construction. *)
        ("minimal-tinynf", Driver.Hoststacks.opendesc ~compiled);
        ("opendesc-generated", Driver.Hoststacks.opendesc ~compiled);
      ]
  in
  Format.printf "%a@." Driver.Stats.pp_table rows;
  match rows with
  | [ dpdk; tinynf; od ] ->
      Printf.printf "measured minimal/dpdk throughput ratio : %.2fx (paper: ~1.7x)\n"
        (Driver.Stats.ratio tinynf dpdk);
      Printf.printf
        "measured opendesc/dpdk throughput ratio: %.2fx (generated = hand-written)\n"
        (Driver.Stats.ratio od dpdk)
  | _ -> ()

(* ================================================================== *)
(* C2: X-Change — unified accessor runtime vs DPDK indirections. *)

let c2 () =
  Bench_util.section
    "C2. X-Change claim: unified datapath vs DPDK, 3 offloads (~+70% tput, ~-28% lat)";
  let model = Nic_models.Mlx5.model () in
  let requested = [ "rss"; "vlan"; "csum_ok" ] in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) requested) in
  (* A metadata-hungry app on ConnectX, as PacketMill/X-Change ran. Use a
     low alpha so the full CQE (all offloads in hardware) is configured —
     both stacks then read the same descriptor. *)
  let compiled = Opendesc.Compile.run_exn ~alpha:0.05 ~intent model.spec in
  let path = Opendesc.Compile.path compiled in
  let rows =
    Bench_util.compare_stacks ~touch_payload:true ~model ~config:compiled.config
      ~workload:(fun () -> Packet.Workload.make ~seed:13L Packet.Workload.Min_size)
      [
        ("dpdk-mbuf", Driver.Hoststacks.dpdk ~path ~requested ~softnic);
        ("opendesc (x-change-like)", Driver.Hoststacks.opendesc ~compiled);
      ]
  in
  Format.printf "%a@." Driver.Stats.pp_table rows;
  match rows with
  | [ dpdk; od ] ->
      Printf.printf
        "throughput: %+.0f%% (paper: +70%%)   latency: %+.0f%% (paper: -28%%)\n"
        (Bench_util.pct od.pps_m dpdk.pps_m)
        (Bench_util.pct od.latency_ns dpdk.latency_ns)
  | _ -> ()

(* ================================================================== *)
(* C3: ENSO — streaming vs descriptor rings; raw payload, then collapse. *)

let c3 () =
  Bench_util.section
    "C3. ENSO claim: streaming ~6x on raw payload; collapses on metadata";
  let model = Nic_models.Ixgbe.model () in
  let intent = Opendesc.Intent.make [ ("rss", 32) ] in
  let compiled = Opendesc.Compile.run_exn ~intent model.spec in
  let path = Opendesc.Compile.path compiled in
  Bench_util.subsection "raw payload processing (no metadata requested)";
  let raw_rows =
    Bench_util.compare_stacks ~model ~config:compiled.config
      ~workload:(fun () ->
        Packet.Workload.make ~seed:17L Packet.Workload.(Raw_stream { size = 64 }))
      [
        ("dpdk-mbuf", Driver.Hoststacks.dpdk ~path ~requested:[] ~softnic);
        ("streaming-enso", Driver.Hoststacks.streaming ~requested:[] ~softnic);
      ]
  in
  Format.printf "%a@." Driver.Stats.pp_table raw_rows;
  (match raw_rows with
  | [ dpdk; st ] ->
      Printf.printf "measured streaming/dpdk ratio: %.2fx (paper: ~6x)\n"
        (Driver.Stats.ratio st dpdk)
  | _ -> ());
  Bench_util.subsection "the same app now needs the RSS hash";
  let rss_rows =
    Bench_util.compare_stacks ~model ~config:compiled.config
      ~workload:(fun () -> Packet.Workload.make ~seed:19L Packet.Workload.Min_size)
      [
        ( "streaming-enso (sw hash)",
          Driver.Hoststacks.streaming ~requested:[ "rss" ] ~softnic );
        ("opendesc (hw hash)", Driver.Hoststacks.opendesc ~compiled);
      ]
  in
  Format.printf "%a@." Driver.Stats.pp_table rss_rows;
  match rss_rows with
  | [ st; od ] ->
      Printf.printf
        "descriptor metadata wins by %.1fx once the hash is needed — \"the model\n\
         collapses if the application needs to recompute metadata such as a hash\n\
         in software\" (paper, section 2)\n"
        (Driver.Stats.ratio od st)
  | _ -> ()

(* ================================================================== *)
(* C4: XDP covers 3 of the 12 ConnectX metadata fields. *)

let c4 () =
  Bench_util.section "C4. XDP accessor coverage on ConnectX: 3 of 12";
  let model = Nic_models.Mlx5.model () in
  let twelve = Nic_models.Mlx5.full_cqe_semantics in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) twelve) in
  let compiled = Opendesc.Compile.run_exn ~alpha:0.05 ~intent model.spec in
  let path = Opendesc.Compile.path compiled in
  Printf.printf "%-16s %-12s %-12s\n" "semantic" "xdp" "opendesc";
  let covered = ref 0 in
  List.iter
    (fun sem ->
      let xdp_has = List.mem sem Nic_models.Mlx5.xdp_exposed in
      if xdp_has then incr covered;
      Printf.printf "%-16s %-12s %-12s\n" sem
        (if xdp_has then "accessor" else "software")
        (match List.assoc sem compiled.bindings with
        | Opendesc.Compile.Hardware _ -> "accessor"
        | Opendesc.Compile.Software _ -> "software"))
    twelve;
  Printf.printf "\nXDP exposes %d of %d (paper: 3 of 12); OpenDesc exposes %d of %d\n"
    !covered (List.length twelve)
    (List.length (Opendesc.Compile.hardware compiled))
    (List.length twelve);
  (* What the gap costs when an app wants all 12. *)
  let rows =
    Bench_util.compare_stacks ~model ~config:compiled.config
      ~workload:(fun () -> Packet.Workload.make ~seed:23L Packet.Workload.Min_size)
      [
        ( "xdp (3 accessors + 9 sw)",
          Driver.Hoststacks.xdp ~path ~requested:twelve ~softnic );
        ("opendesc (12 accessors)", Driver.Hoststacks.opendesc ~compiled);
      ]
  in
  Format.printf "@.%a@." Driver.Stats.pp_table rows

(* ================================================================== *)
(* C5: DMA completion footprint vs intent size (compressed CQEs). *)

let c5 () =
  Bench_util.section
    "C5. DMA completion footprint: compiler-selected format vs intent size";
  let model = Nic_models.Mlx5.model () in
  let ladder =
    [
      [ "rss" ];
      [ "rss"; "pkt_len" ];
      [ "l4_checksum"; "pkt_len" ];
      [ "rss"; "pkt_len"; "vlan" ];
      [ "rss"; "pkt_len"; "vlan"; "csum_ok"; "flow_id" ];
      Nic_models.Mlx5.full_cqe_semantics;
    ]
  in
  Printf.printf "%-52s %6s %10s %10s\n" "intent" "cmpt" "dmaB/pkt" "sw fields";
  List.iter
    (fun sems ->
      let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) sems) in
      let compiled = Opendesc.Compile.run_exn ~intent model.spec in
      let device = Driver.Device.create_exn ~config:compiled.config model in
      (* measure real DMA bytes for completions only: subtract packets *)
      Driver.Device.reset_counters device;
      let w = Packet.Workload.make ~seed:29L Packet.Workload.Min_size in
      let pkt_bytes = ref 0 in
      for _ = 1 to 256 do
        let p = Packet.Workload.next w in
        pkt_bytes := !pkt_bytes + Packet.Pkt.len p + 2;
        ignore (Driver.Device.rx_inject device p)
      done;
      let cmpt_bytes = Driver.Device.dma_bytes device - !pkt_bytes in
      Printf.printf "%-52s %4dB  %10.1f %10d\n" (String.concat "," sems)
        (Opendesc.Path.size (Opendesc.Compile.path compiled))
        (float_of_int cmpt_bytes /. 256.0)
        (List.length (Opendesc.Compile.missing compiled)))
    ladder;
  print_newline ();
  print_endline
    "Reading: small intents ride the 8-byte compressed mini-CQE (hash- or\n\
     checksum-flavoured); only the full 12-field intent justifies the 64-byte\n\
     CQE — an 8x DMA saving selected automatically by Eq. 1."

(* ================================================================== *)
(* C6: Eq. 1 ablation — sweeping the DMA weight alpha. *)

let c6 () =
  Bench_util.section "C6. Eq. 1 ablation: alpha sweep (software cost vs DMA footprint)";
  let model = Nic_models.Mlx5.model () in
  let intent = Opendesc.Intent.make [ ("rss", 32); ("vlan", 16) ] in
  let vlan_cost = Opendesc.Semantic.cost (Opendesc.Semantic.default ()) "vlan" in
  Printf.printf
    "intent {rss, vlan}: the mini-CQE provides rss only (vlan -> %g-cycle shim),\n\
     the full CQE provides both but costs 64 DMA bytes.\n\n"
    vlan_cost;
  Printf.printf "%8s %8s %14s %14s\n" "alpha" "chosen" "softnic cost" "dma cost";
  List.iter
    (fun alpha ->
      match Opendesc.Compile.run ~alpha ~intent model.spec with
      | Ok c ->
          Printf.printf "%8.3f %7dB %14.1f %14.1f\n" alpha
            (Opendesc.Path.size (Opendesc.Compile.path c))
            c.outcome.chosen.s_softnic_cost c.outcome.chosen.s_dma_cost
      | Error e -> Printf.printf "%8.3f ERROR %s\n" alpha e)
    [ 0.01; 0.05; 0.1; 0.2; 0.268; 0.3; 0.5; 1.0; 2.0; 5.0 ];
  print_newline ();
  Printf.printf
    "crossover at alpha = w(vlan)/(64-8) = %.3f cycles/byte: below it the full\n\
     CQE (all-hardware) wins, above it the compressed format + software vlan.\n"
    (vlan_cost /. 56.0)

(* ================================================================== *)
(* C7: the section-5 SIMD ablation. *)

let c7 () =
  Bench_util.section "C7. SIMD ablation (section 5): 4-wide descriptor processing";
  let model = Nic_models.Ixgbe.model () in
  let requested = [ "rss"; "pkt_len" ] in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) requested) in
  let compiled = Opendesc.Compile.run_exn ~intent model.spec in
  let rows =
    Bench_util.compare_stacks ~model ~config:compiled.config
      ~workload:(fun () -> Packet.Workload.make ~seed:31L Packet.Workload.Min_size)
      [
        ("opendesc scalar", Driver.Hoststacks.opendesc ~compiled);
        ("opendesc simd4", Driver.Hoststacks.opendesc_simd ~compiled);
      ]
  in
  Format.printf "%a@." Driver.Stats.pp_table rows;
  match rows with
  | [ scalar; simd ] ->
      Printf.printf
        "simd4 speedup: %.2fx — the gain DPDK drivers hand-write per architecture\n\
         today and OpenDesc could generate instead (section 5)\n"
        (Driver.Stats.ratio simd scalar)
  | _ -> ()

(* ================================================================== *)
(* C8: ASNI-style aggregation (paper sections 2 and 5). *)

let c8 () =
  Bench_util.section
    "C8. ASNI-style aggregation: metadata embedded in large frames";
  let model = Nic_models.Mlx5.model () in
  let requested = [ "rss"; "pkt_len" ] in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) requested) in
  let compiled = Opendesc.Compile.run_exn ~intent model.spec in
  let path = Opendesc.Compile.path compiled in
  let rows =
    Bench_util.compare_stacks ~model ~config:compiled.config
      ~workload:(fun () -> Packet.Workload.make ~seed:37L Packet.Workload.Min_size)
      [
        ("dpdk-mbuf", Driver.Hoststacks.dpdk ~path ~requested ~softnic);
        ("opendesc (desc ring)", Driver.Hoststacks.opendesc ~compiled);
        ("streaming (no metadata ch.)", Driver.Hoststacks.streaming ~requested ~softnic);
        ("asni (real frames)", Driver.Hoststacks.asni ~compiled);
      ]
  in
  Format.printf "%a@." Driver.Stats.pp_table rows;
  print_endline
    "Reading: aggregation removes the descriptor-ring load and amortises ring\n\
     work, beating per-packet descriptors when the NIC can build such frames\n\
     (programmable NICs only) — but its layout is fixed at NIC-program time,\n\
     with no per-queue negotiation; pure streaming still pays software\n\
     recomputation for every metadatum (sections 2 and 5 of the paper)."

(* ================================================================== *)
(* P4SHIM: interpreted reference implementations vs native shims. *)

let p4shim () =
  Bench_util.section
    "P4SHIM. Reference P4 implementations executed as SoftNIC shims";
  let flow =
    Packet.Fivetuple.make ~src_ip:0x0a000009l ~dst_ip:0xc0a80002l ~src_port:2000
      ~dst_port:80 ~proto:6
  in
  let pkt =
    Packet.Builder.ipv4 ~vlan:321 ~flow (Packet.Builder.Tcp { seq = 1l; flags = 0x10 })
  in
  let view = Packet.Pkt.parse pkt in
  let env = Softnic.Feature.make_env () in
  let native = Softnic.Registry.builtin () in
  Printf.printf "%-12s %-10s %-10s  agreement\n" "semantic" "native" "p4-interp";
  List.iter
    (fun sem ->
      let f_native = Option.get (Softnic.Registry.find native sem) in
      match Opendesc.Refimpl.interpret sem with
      | Error e -> Printf.printf "%-12s ERROR %s\n" sem e
      | Ok run ->
          let a = f_native.compute env pkt view and b = run pkt in
          Printf.printf "%-12s %-10Ld %-10Ld  %s\n" sem a b
            (if a = b then "ok" else "MISMATCH"))
    Opendesc.Refimpl.p4_semantics;
  let tests =
    List.concat_map
      (fun sem ->
        let f_native = Option.get (Softnic.Registry.find native sem) in
        match Opendesc.Refimpl.interpret sem with
        | Error _ -> []
        | Ok run ->
            [
              Bechamel.Test.make ~name:(sem ^ " native shim")
                (Bechamel.Staged.stage (fun () -> f_native.compute env pkt view));
              Bechamel.Test.make ~name:(sem ^ " interpreted P4 shim")
                (Bechamel.Staged.stage (fun () -> run pkt));
            ])
      [ "vlan"; "l4_type" ]
  in
  print_newline ();
  Bench_util.print_estimates (Bench_util.bechamel_estimates tests);
  print_endline
    "\nReading: the interpreted reference gives identical answers; it runs at\n\
     AST-walking speed, three orders slower than a native shim. It is the\n\
     functional oracle for 'every feature ships a reference P4\n\
     implementation' — a P4-to-software compiler (T4P4S/PISCES-style, cited\n\
     by the paper) would close the gap to the ~3x the cost model assumes."

(* ================================================================== *)
(* C9: rate-aware placement (section 5, performance interfaces). *)

let c9 () =
  Bench_util.section
    "C9. Rate-aware placement: when offloading everything stops being desirable";
  let model = Nic_models.Mlx5.model () in
  let registry = Opendesc.Semantic.default () in
  let intent = Opendesc.Intent.make [ ("rss", 32); ("vlan", 16) ] in
  List.iter
    (fun pcie_gbps ->
      let point = { Opendesc.Placement.default_point with pcie_gbps } in
      Printf.printf "\nPCIe budget %.0f Gbit/s, 64B packets, intent {rss, vlan}:\n"
        pcie_gbps;
      Printf.printf "  %-6s %6s %10s %10s %12s %12s %6s\n" "path" "cmpt" "cpu c/pkt"
        "dma B/pkt" "cpu Mpps" "pcie Mpps" "bound";
      (match Opendesc.Placement.advise ~point registry intent model.spec with
      | Ok verdicts ->
          List.iter
            (fun (v : Opendesc.Placement.verdict) ->
              Printf.printf "  #%-5d %5dB %10.1f %10.0f %12.1f %12.1f %6s\n"
                v.v_path.p_index
                (Opendesc.Path.size v.v_path)
                v.v_cpu_cycles v.v_dma_bytes (v.v_cpu_pps /. 1e6)
                (v.v_pcie_pps /. 1e6)
                (match v.v_bottleneck with `Cpu -> "cpu" | `Pcie -> "pcie"))
            verdicts
      | Error e -> print_endline (Opendesc.Select.error_to_string e));
      match Opendesc.Placement.crossover_pps ~point registry intent model.spec with
      | Some (pps, low, high) ->
          Printf.printf
            "  below %.1f Mpps prefer path #%d (%dB, least CPU); above it path #%d \
             (%dB) sustains more\n"
            (pps /. 1e6) low.p_index (Opendesc.Path.size low) high.p_index
            (Opendesc.Path.size high)
      | None -> Printf.printf "  one path dominates at every rate\n")
    [ 64.0; 32.0; 16.0 ];
  print_newline ();
  print_endline
    "Reading: on a roomy bus the full CQE (all offloads in hardware) dominates;\n\
     as PCIe tightens it saturates first and the compiler should prefer the\n\
     compressed completion plus a cheap software shim — the section-5 question\n\
     ('whether a feature should be offloaded to the NIC even if technically\n\
     possible') answered with a LogNIC/PIX-style operating-point model."

(* ================================================================== *)
(* micro: real wall-clock of the generated artifacts (bechamel). *)

let micro () =
  Bench_util.section "MICRO. Wall-clock of generated accessors and shims (bechamel)";
  let model = Nic_models.Mlx5.model () in
  let intent =
    Opendesc.Intent.make [ ("rss", 32); ("vlan", 16); ("wire_timestamp", 64) ]
  in
  let compiled = Opendesc.Compile.run_exn ~alpha:0.05 ~intent model.spec in
  let path = Opendesc.Compile.path compiled in
  let cmpt = Bytes.make (Opendesc.Path.size path) '\x5a' in
  let rss_acc =
    match List.assoc "rss" compiled.bindings with
    | Opendesc.Compile.Hardware a -> a
    | Opendesc.Compile.Software _ -> assert false
  in
  let l3_field = Option.get (Opendesc.Path.field_for path "l3_type") in
  let flow =
    Packet.Fivetuple.make ~src_ip:0x0a000001l ~dst_ip:0xc0a80001l ~src_port:1234
      ~dst_port:80 ~proto:6
  in
  let pkt = Packet.Builder.ipv4 ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0x10 }) in
  let view = Packet.Pkt.parse pkt in
  let env = Softnic.Feature.make_env () in
  let resolver = model.resolve env pkt view in
  let tests =
    [
      Bechamel.Test.make ~name:"accessor aligned 32b (rss)"
        (Bechamel.Staged.stage (fun () -> rss_acc.a_get cmpt));
      Bechamel.Test.make ~name:"accessor packed 4b (l3_type)"
        (Bechamel.Staged.stage (fun () ->
             Opendesc.Accessor.reader ~bit_off:l3_field.l_bit_off ~bits:l3_field.l_bits
               cmpt));
      Bechamel.Test.make ~name:"read all CQE fields"
        (Bechamel.Staged.stage (fun () -> Opendesc.Accessor.read_all path.p_layout cmpt));
      Bechamel.Test.make ~name:"softnic shim: toeplitz rss"
        (Bechamel.Staged.stage (fun () -> Softnic.Toeplitz.hash_pkt pkt view));
      Bechamel.Test.make ~name:"softnic shim: ipv4 checksum"
        (Bechamel.Staged.stage (fun () ->
             Packet.Cksum.ipv4_header pkt.Packet.Pkt.buf ~off:view.l3_off));
      Bechamel.Test.make ~name:"softnic shim: kvs key parse"
        (Bechamel.Staged.stage (fun () -> Softnic.Kvs.key64_of_pkt pkt view));
      Bechamel.Test.make ~name:"packet parse (header walk)"
        (Bechamel.Staged.stage (fun () -> Packet.Pkt.parse pkt));
      Bechamel.Test.make ~name:"device: serialise one completion"
        (Bechamel.Staged.stage (fun () ->
             Opendesc.Accessor.write_record path.p_layout cmpt resolver));
    ]
  in
  Bench_util.print_estimates (Bench_util.bechamel_estimates tests);
  print_endline
    "\nNote: constant-time accessor reads sit orders of magnitude below software\n\
     recomputation — the gap the Eq. 1 cost model encodes."

(* ================================================================== *)
(* batch_sweep: the batched datapath — amortised cycles/pkt vs burst size. *)

(* JSON fragments collected by the batch/cache experiments; flushed to
   BENCH_batch.json after the requested experiments ran. Hand-rolled —
   flat numbers and strings only, no JSON library needed. *)
let json_sections : (string * string) list ref = ref []

let record_json name fragment = json_sections := (name, fragment) :: !json_sections

(* Failed acceptance checks (batch monotonicity, cache speedup) turn
   into a non-zero exit so CI's quick run fails loudly. *)
let acceptance_failures = ref 0

let acceptance name ok =
  if not ok then begin
    incr acceptance_failures;
    Printf.printf "acceptance check failed: %s\n" name
  end

let flush_json () =
  match List.rev !json_sections with
  | [] -> ()
  | sections ->
      let oc = open_out "BENCH_batch.json" in
      output_string oc "{\n  \"schema\": \"opendesc-bench-v1\",\n";
      List.iteri
        (fun i (name, frag) ->
          Printf.fprintf oc "  %S: %s%s\n" name frag
            (if i = List.length sections - 1 then "" else ","))
        sections;
      output_string oc "}\n";
      close_out oc;
      print_endline "\nwrote BENCH_batch.json"

let batch_sizes = [ 1; 8; 32; 64 ]

let batch_sweep () =
  Bench_util.section
    "BATCH_SWEEP. Batched harvest + single-doorbell TX: cycles/pkt vs burst size";
  let model = Nic_models.Mlx5.model () in
  let requested = [ "rss"; "pkt_len"; "vlan"; "csum_ok" ] in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) requested) in
  let compiled = Opendesc.Cache.run_exn ~alpha:0.05 ~intent model.spec in
  let rows =
    List.map
      (fun batch ->
        let device = Driver.Device.create_exn ~config:compiled.config model in
        let stats =
          Driver.Stack.run ~pkts:4096 ~batch ~tx_echo:true ~device
            ~workload:(Packet.Workload.make ~seed:53L Packet.Workload.Min_size)
            (Driver.Hoststacks.opendesc_batched ~compiled)
        in
        let stats =
          { stats with Driver.Stats.name = Printf.sprintf "opendesc batch=%d" batch }
        in
        (batch, stats, Driver.Device.doorbells device))
      batch_sizes
  in
  Format.printf "%a@." Driver.Stats.pp_table (List.map (fun (_, s, _) -> s) rows);
  List.iter
    (fun (_, s, doorbells) ->
      Format.printf "  %-22s %a, %d TX doorbells@." s.Driver.Stats.name
        Driver.Stats.pp_burst_hist s doorbells)
    rows;
  let cycles = List.map (fun (_, s, _) -> s.Driver.Stats.cycles_per_pkt) rows in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | _ -> true
  in
  let mono = non_increasing cycles in
  Printf.printf "\namortised cycles/pkt monotonically non-increasing in batch: %s\n"
    (if mono then "yes" else "NO — regression!");
  acceptance "batch_sweep monotonicity" mono;
  let points =
    String.concat ",\n"
      (List.map
         (fun (batch, s, doorbells) ->
           Printf.sprintf
             "      { \"batch\": %d, \"cycles_per_pkt\": %.2f, \"mpps\": %.3f, \
              \"dma_bytes_per_pkt\": %.1f, \"bursts\": %d, \"tx_doorbells\": %d }"
             batch s.Driver.Stats.cycles_per_pkt s.Driver.Stats.pps_m
             s.Driver.Stats.dma_bytes_per_pkt s.Driver.Stats.bursts doorbells)
         rows)
  in
  record_json "batch_sweep"
    (Printf.sprintf
       "{\n    \"nic\": %S,\n    \"stack\": \"opendesc-batched\",\n    \"pkts\": \
        4096,\n    \"tx_echo\": true,\n    \"points\": [\n%s\n    ],\n    \
        \"monotonic_non_increasing\": %b\n  }"
       model.spec.nic_name points mono)

(* ================================================================== *)
(* compile_cache: memoized Compile.run — warm lookup vs cold pipeline. *)

(* CPU-time of one [f ()] call in ns, timed over an adaptive batch loop
   so the clock reads don't dominate sub-microsecond bodies. *)
let ns_per_call ?(budget = 0.25) f =
  ignore (f ());
  let t0 = Sys.time () in
  let n = ref 0 in
  while Sys.time () -. t0 < budget do
    for _ = 1 to 256 do
      ignore (f ())
    done;
    n := !n + 256
  done;
  (Sys.time () -. t0) /. float_of_int !n *. 1e9

let compile_cache () =
  Bench_util.section
    "COMPILE_CACHE. Memoized compilation: warm cache lookup vs cold pipeline";
  let model = Nic_models.Mlx5.model () in
  let intent = fig1_intent in
  Opendesc.Cache.clear ();
  (* Cold: the full pipeline — registry construction, Eq. 1 solve,
     accessor synthesis — exactly what every call paid before the cache. *)
  let cold_ns =
    ns_per_call (fun () -> Opendesc.Compile.run ~intent model.spec)
  in
  (* Warm: key construction + one hash lookup. *)
  let warm_ns = ns_per_call (fun () -> Opendesc.Cache.run ~intent model.spec) in
  let speedup = cold_ns /. warm_ns in
  let s = Opendesc.Cache.stats () in
  Printf.printf "cold Compile.run : %10.0f ns/call\n" cold_ns;
  Printf.printf "warm Cache.run   : %10.0f ns/call\n" warm_ns;
  Printf.printf "speedup          : %10.1fx (acceptance: >= 10x)  %s\n" speedup
    (if speedup >= 10.0 then "ok" else "BELOW TARGET");
  acceptance "compile_cache >= 10x warm speedup" (speedup >= 10.0);
  Printf.printf "%s\n" (Opendesc.Cache.stats_line ());
  record_json "compile_cache"
    (Printf.sprintf
       "{\n    \"nic\": %S,\n    \"intent\": %S,\n    \"cold_ns_per_compile\": \
        %.0f,\n    \"warm_ns_per_compile\": %.0f,\n    \"speedup\": %.1f,\n    \
        \"meets_10x\": %b,\n    \"hits\": %d,\n    \"misses\": %d\n  }"
       model.spec.nic_name
       (Opendesc.Intent.canonical intent)
       cold_ns warm_ns speedup (speedup >= 10.0) s.hits s.misses)

(* ================================================================== *)
(* parallel_sweep: the domain-parallel datapath — speedup vs domains. *)

let parallel_domains = [ 1; 2; 4 ]

(* Each domain point runs two legs. The {e accounted} leg (account=true)
   carries the full cost model and yields the deterministic model_mpps
   numbers — one run suffices because modelled cycles do not depend on
   the host. The {e hot} leg (account=false, pregen=true) is the
   allocation-free byte path the wall-clock and GC gates measure; it is
   repeated [hot_reps] times and the minimum effective wall is kept,
   the standard noise-robust estimator for a timing benchmark.

   The wall gate compares {e effective} wall — the busy-time critical
   path (packet-weighted median per-packet chunk cost times packets, per
   domain; see Parallel.robust_busy) — not the run's wall clock (from
   handing the workers their jobs to the last report), because on a
   host with fewer cores than domains that clock cannot improve no
   matter how good the code is. Its speedup is still reported,
   informationally, under its older name spawn_join_speedup_4v1. *)

let hot_reps = 3
let minor_words_budget = 2.0

type parallel_point = {
  pp_domains : int;
  pp_model : Driver.Parallel.result;  (* accounted leg *)
  pp_hot : Driver.Parallel.result;  (* best-of-[hot_reps] hot leg *)
  pp_minor_worst : float;  (* max minor words/pkt across hot reps *)
}

let parallel_sweep () =
  Bench_util.section
    "PARALLEL_SWEEP. Domain-parallel multi-queue datapath: speedup vs domains";
  let model = Nic_models.Mlx5.model () in
  let requested = [ "rss"; "pkt_len"; "vlan"; "csum_ok" ] in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) requested) in
  let compiled = Opendesc.Cache.run_exn ~alpha:0.05 ~intent model.spec in
  let queues = 4 and pkts = 65536 in
  let hw_domains = Domain.recommended_domain_count () in
  let run_one ~domains ~account =
    let mq =
      Driver.Mq.create_exn ~queue_depth:1024
        ~configs:(Array.make queues compiled.config)
        (fun () -> Nic_models.Mlx5.model ())
    in
    Driver.Parallel.run ~domains ~batch:64 ~ring_capacity:4096 ~account
      ~pregen:true ~mq
      ~stack:(fun _ -> Driver.Hoststacks.opendesc_batched ~compiled)
      ~pkts
      ~workload:
        (Packet.Workload.make ~seed:61L ~flows:64 Packet.Workload.Min_size)
      ()
  in
  let points =
    List.map
      (fun domains ->
        let pp_model = run_one ~domains ~account:true in
        let best = ref (run_one ~domains ~account:false) in
        let worst_minor = ref !best.Driver.Parallel.minor_words_per_pkt in
        for _ = 2 to hot_reps do
          let r = run_one ~domains ~account:false in
          worst_minor := Float.max !worst_minor r.minor_words_per_pkt;
          if r.eff_wall_s < !best.eff_wall_s then best := r
        done;
        { pp_domains = domains; pp_model; pp_hot = !best;
          pp_minor_worst = !worst_minor })
      parallel_domains
  in
  let model_mpps (r : Driver.Parallel.result) =
    let crit = Array.fold_left max 0.0 r.domain_cycles in
    if crit = 0.0 then 0.0
    else Driver.Cost.pps_of_cycles (crit /. float_of_int r.pkts) /. 1e6
  in
  let eff_mpps (r : Driver.Parallel.result) =
    float_of_int r.pkts /. r.eff_wall_s /. 1e6
  in
  Printf.printf "%7s %8s %10s %9s %10s %9s %8s %8s %7s\n" "domains" "wall_s"
    "eff_wall_s" "eff_mpps" "model_mpps" "minor/pkt" "spins" "parks" "wakes";
  List.iter
    (fun p ->
      let h = p.pp_hot in
      Printf.printf "%7d %8.3f %10.3f %9.2f %10.2f %9.1f %8d %8d %7d\n"
        p.pp_domains h.wall_s h.eff_wall_s (eff_mpps h) (model_mpps p.pp_model)
        h.minor_words_per_pkt h.stats.Driver.Stats.spins
        h.stats.Driver.Stats.parks h.stats.Driver.Stats.wakes)
    points;
  let find d = List.find (fun p -> p.pp_domains = d) points in
  let p1 = find 1 and p4 = find 4 in
  let model_speedup = model_mpps p4.pp_model /. model_mpps p1.pp_model in
  let wall_speedup = p1.pp_hot.eff_wall_s /. p4.pp_hot.eff_wall_s in
  let spawn_join_speedup = p1.pp_hot.wall_s /. p4.pp_hot.wall_s in
  let wall_enforced = true in
  let minor_worst =
    List.fold_left (fun acc p -> Float.max acc p.pp_minor_worst) 0.0 points
  in
  Printf.printf
    "\nmodel speedup 4v1: %.2fx (acceptance: >= 1.5x)   effective-wall \
     speedup 4v1: %.2fx (acceptance: >= 2.0x, enforced)\n"
    model_speedup wall_speedup;
  Printf.printf
    "spawn-join wall speedup 4v1: %.2fx (informational; %d hw domains)   \
     minor words/pkt worst: %.1f (budget %.0f)\n"
    spawn_join_speedup hw_domains minor_worst minor_words_budget;
  List.iter
    (fun p ->
      List.iter
        (fun (r : Driver.Parallel.result) ->
          acceptance "parallel_sweep clean shutdown (stranded = 0)"
            (r.stranded = 0);
          acceptance "parallel_sweep no device drops" (r.drops = 0);
          acceptance "parallel_sweep all packets delivered" (r.pkts = pkts))
        [ p.pp_model; p.pp_hot ])
    points;
  acceptance "parallel_sweep model >= 1.5x at 4 domains" (model_speedup >= 1.5);
  acceptance "parallel_sweep effective wall >= 2.0x at 4 domains"
    (wall_speedup >= 2.0);
  acceptance
    (Printf.sprintf "parallel_sweep minor words/pkt <= %.0f budget"
       minor_words_budget)
    (minor_worst <= minor_words_budget);
  let point_frags =
    String.concat ",\n"
      (List.map
         (fun p ->
           let h = p.pp_hot in
           Printf.sprintf
             "      { \"domains\": %d, \"wall_s\": %.4f, \"eff_wall_s\": \
              %.4f, \"producer_busy_s\": %.4f, \"wall_mpps\": %.3f, \
              \"eff_wall_mpps\": %.3f, \"model_mpps\": %.3f, \
              \"max_domain_cycles\": %.0f, \"total_cycles\": %.0f, \
              \"minor_words_per_pkt\": %.1f, \"spins\": %d, \"parks\": %d, \
              \"wakes\": %d, \"stranded\": %d, \"drops\": %d }"
             p.pp_domains h.wall_s h.eff_wall_s h.producer_busy_s
             (float_of_int h.pkts /. h.wall_s /. 1e6)
             (eff_mpps h)
             (model_mpps p.pp_model)
             (Array.fold_left max 0.0 p.pp_model.domain_cycles)
             (Array.fold_left ( +. ) 0.0 p.pp_model.domain_cycles)
             h.minor_words_per_pkt h.stats.Driver.Stats.spins
             h.stats.Driver.Stats.parks h.stats.Driver.Stats.wakes h.stranded
             h.drops)
         points)
  in
  record_json "parallel_sweep"
    (Printf.sprintf
       "{\n    \"nic\": %S,\n    \"queues\": %d,\n    \"pkts\": %d,\n    \
        \"hw_domains\": %d,\n    \"hot_reps\": %d,\n    \"wall_basis\": \
        \"busy-time critical path (packet-weighted median per-packet chunk \
        cost x packets, max over domains); robust to timeslicing when \
        domains outnumber cores. Hot leg: account=false pregen=true, \
        best of %d reps. spawn_join_speedup_4v1 is the raw spawn-to-join \
        clock, informational.\",\n    \"points\": [\n%s\n    ],\n    \
        \"model_speedup_4v1\": %.2f,\n    \"wall_speedup_4v1\": %.2f,\n    \
        \"spawn_join_speedup_4v1\": %.2f,\n    \"wall_enforced\": %b,\n    \
        \"minor_words_per_pkt_worst\": %.1f,\n    \"minor_words_budget\": \
        %.0f,\n    \"meets_1_5x\": %b,\n    \"meets_wall_2x\": %b,\n    \
        \"meets_alloc_budget\": %b\n  }"
       model.spec.nic_name queues pkts hw_domains hot_reps hot_reps
       point_frags model_speedup wall_speedup spawn_join_speedup wall_enforced
       minor_worst minor_words_budget (model_speedup >= 1.5)
       (wall_speedup >= 2.0)
       (minor_worst <= minor_words_budget))

(* ================================================================== *)
(* chaos_sweep: fault injection — detection rate and goodput vs intensity. *)

let chaos_intensities = [ 0.0; 0.5; 1.0; 2.0 ]

let chaos_sweep () =
  Bench_util.section
    "CHAOS_SWEEP. Fault-injected datapath: detection rate and goodput vs \
     fault intensity";
  let module F = Driver.Fault in
  let model = Nic_models.Mlx5.model () in
  let requested = [ "rss"; "pkt_len"; "vlan"; "csum_ok" ] in
  let intent = Opendesc.Intent.make (List.map (fun s -> (s, 32)) requested) in
  let compiled = Opendesc.Cache.run_exn ~alpha:0.05 ~intent model.spec in
  let queues = 4 and pkts = 16384 in
  let points =
    List.map
      (fun k ->
        let mq =
          Driver.Mq.create_exn ~queue_depth:1024
            ~configs:(Array.make queues compiled.config)
            (fun () -> Nic_models.Mlx5.model ())
        in
        let plan = F.scale k (F.default_plan 1337L) in
        let r =
          Driver.Parallel.run ~domains:2 ~batch:64 ~ring_capacity:4096 ~plan
            ~mq
            ~stack:(fun _ -> Driver.Hoststacks.opendesc_batched ~compiled)
            ~pkts
            ~workload:
              (Packet.Workload.make ~seed:61L ~flows:64
                 Packet.Workload.Min_size)
            ()
        in
        let c = F.counters_sum (Array.to_list (Option.get r.faults)) in
        (k, r, c))
      chaos_intensities
  in
  Printf.printf "%9s %8s %9s %10s %9s %9s %8s %9s %8s\n" "intensity" "injected"
    "violating" "quarantine" "delivered" "goodput%" "retries" "detect%" "drops";
  List.iter
    (fun (k, (r : Driver.Parallel.result), (c : F.counters)) ->
      let detection =
        if c.contract_violating = 0 then 1.0
        else float_of_int c.detected /. float_of_int c.contract_violating
      in
      Printf.printf "%9.2f %8d %9d %10d %9d %9.2f %8d %9.1f %8d\n" k c.injected
        c.contract_violating c.quarantined c.delivered
        (100.0 *. float_of_int c.delivered /. float_of_int pkts)
        c.retries (100.0 *. detection) r.drops)
    points;
  List.iter
    (fun (k, (r : Driver.Parallel.result), (c : F.counters)) ->
      acceptance
        (Printf.sprintf "chaos_sweep counters reconcile (intensity %.2f)" k)
        (F.reconciles c && r.stranded = 0);
      acceptance
        (Printf.sprintf "chaos_sweep 100%% detection (intensity %.2f)" k)
        (c.detected = c.contract_violating);
      (* The merged stats shards must agree exactly with the per-queue
         fault counters — Stats.merge is the reconciliation point. *)
      acceptance
        (Printf.sprintf "chaos_sweep Stats.merge reconciles (intensity %.2f)" k)
        (r.stats.Driver.Stats.faults_injected = c.injected
        && r.stats.Driver.Stats.faults_detected = c.detected
        && r.stats.Driver.Stats.descs_quarantined = c.quarantined
        && r.stats.Driver.Stats.pkts = c.delivered))
    points;
  (match points with
  | (_, r0, c0) :: _ ->
      acceptance "chaos_sweep zero intensity is fault-free"
        (c0.injected = 0 && c0.quarantined = 0 && r0.pkts = pkts)
  | [] -> ());
  let point_frags =
    String.concat ",\n"
      (List.map
         (fun (k, (r : Driver.Parallel.result), (c : F.counters)) ->
           let detection =
             if c.contract_violating = 0 then 1.0
             else float_of_int c.detected /. float_of_int c.contract_violating
           in
           Printf.sprintf
             "      { \"intensity\": %.2f, \"injected\": %d, \
              \"contract_violating\": %d, \"detected\": %d, \"quarantined\": \
              %d, \"delivered\": %d, \"duplicates\": %d, \"retries\": %d, \
              \"goodput_pct\": %.2f, \"detection_rate\": %.3f, \"drops\": %d \
              }"
             k c.injected c.contract_violating c.detected c.quarantined
             c.delivered c.duplicates c.retries
             (100.0 *. float_of_int c.delivered /. float_of_int pkts)
             detection r.drops)
         points)
  in
  record_json "chaos_sweep"
    (Printf.sprintf
       "{\n    \"nic\": %S,\n    \"queues\": %d,\n    \"pkts\": %d,\n    \
        \"seed\": 1337,\n    \"points\": [\n%s\n    ]\n  }"
       model.spec.nic_name queues pkts point_frags)

(* ================================================================== *)
(* live_upgrade: hot-swap latency and goodput dip across the epoch. *)

let live_upgrade () =
  Bench_util.section
    "LIVE_UPGRADE. Live contract hot-swap (e1000 rev A -> rev B under \
     chaos): swap latency and goodput dip across the epoch boundary";
  let module U = Driver.Upgrade in
  let read_fixture name =
    let candidates =
      [
        Filename.concat "examples/firmware" name;
        Filename.concat "../../examples/firmware" name;
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p ->
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
    | None -> failwith ("firmware fixture not found: " ^ name)
  in
  let load name =
    Opendesc.Nic_spec.load_exn
      ~name:(Filename.remove_extension name)
      ~kind:Opendesc.Nic_spec.Fixed_function (read_fixture name)
  in
  let old_spec = load "e1000_rev_a.p4" and new_spec = load "e1000_rev_b.p4" in
  let intent = Opendesc.Intent.make [ ("rss", 32); ("pkt_len", 16) ] in
  let compiled_old = Opendesc.Cache.run_exn ~intent old_spec in
  let queues = 4 and pkts = 32768 and seed = 97L in
  let plan = Driver.Fault.default_plan seed in
  let reps = 3 in
  let best f =
    let rec go best i =
      if i = 0 then best
      else
        let v = f () in
        go (min best v) (i - 1)
    in
    go (f ()) (reps - 1)
  in
  let swap_run domains =
    match
      U.run ~queues ~domains ~pkts ~seed ~plan ~intent ~old_spec ~new_spec ()
    with
    | Error e -> failwith e
    | Ok o -> o
  in
  (* Baseline: the same chaos stream with no epoch boundary (worker
     count matched), so the dip is attributable to the swap alone. *)
  let base_wall domains =
    best (fun () ->
        let mq =
          Driver.Mq.create_exn ~queue_depth:1024
            ~configs:(Array.make queues compiled_old.config)
            (fun () -> Nic_models.Model.make old_spec)
        in
        let r =
          Driver.Parallel.run ~domains ~batch:32 ~account:false ~plan ~mq
            ~stack:(fun _ ->
              Driver.Hoststacks.opendesc_batched ~compiled:compiled_old)
            ~pkts
            ~workload:(Packet.Workload.make ~seed Packet.Workload.Imix)
            ()
        in
        r.wall_s)
  in
  Printf.printf "%7s %14s %10s %12s %12s %10s %9s %9s %6s\n" "domains"
    "swap_latency_s" "pause_s" "base_wall_s" "swap_wall_s" "dip_pct"
    "delivered" "quarant" "lost";
  let points =
    List.map
      (fun domains ->
        (* best-of-reps on both clocks; the accounting fields are
           identical across reps (pure function of the seed) *)
        let o = ref (swap_run domains) in
        let swap_wall =
          best (fun () ->
              let o' = swap_run domains in
              if o'.U.o_wall_s < !o.U.o_wall_s then o := o';
              o'.U.o_wall_s)
        in
        (* latency and the producer quiesce pause come from the same
           runs: both are best-of-reps over one set of swaps *)
        let latency, pause =
          let l = ref infinity and p = ref infinity in
          for _ = 1 to reps do
            let o' = swap_run domains in
            l := min !l o'.U.o_latency_s;
            p := min !p o'.U.o_pause_s
          done;
          (!l, !p)
        in
        (* the 1-domain swap runs on the calling domain, with no worker
           domain, while Parallel.run always hands off to one: the dip
           is only meaningful where both runs use worker domains *)
        let dip =
          if domains < 2 then None
          else
            let bw = base_wall domains in
            Some (bw, 100.0 *. ((swap_wall -. bw) /. bw))
        in
        let o = !o in
        (match dip with
        | Some (bw, d) ->
            Printf.printf
              "%7d %14.6f %10.6f %12.6f %12.6f %9.1f%% %9d %9d %6d\n"
              domains latency pause bw swap_wall d o.U.o_delivered
              o.U.o_quarantined o.U.o_lost
        | None ->
            Printf.printf "%7d %14.6f %10.6f %12s %12.6f %10s %9d %9d %6d\n"
              domains latency pause "-" swap_wall "-" o.U.o_delivered
              o.U.o_quarantined o.U.o_lost);
        (domains, latency, pause, dip, swap_wall, o))
      [ 1; 2; 4 ]
  in
  List.iter
    (fun (domains, latency, pause, _, _, (o : U.outcome)) ->
      acceptance
        (Printf.sprintf "live_upgrade applied cleanly (%d domains)" domains)
        (o.U.o_action = U.Applied && o.U.o_epoch = 1);
      acceptance
        (Printf.sprintf "live_upgrade zero loss (%d domains)" domains)
        (o.U.o_lost = 0 && o.U.o_reconciled);
      acceptance
        (Printf.sprintf "live_upgrade never torn (%d domains)" domains)
        (o.U.o_torn = 0 && o.U.o_upgrade_errors = 0);
      acceptance
        (Printf.sprintf "live_upgrade swap latency < 0.5s (%d domains)"
           domains)
        (latency < 0.5);
      (* ROADMAP item 4's bound: the producer quiesce pause stays under
         100 ms at the full 4-domain configuration *)
      if domains = 4 then
        acceptance "live_upgrade producer pause < 100 ms (4 domains)"
          (pause < 0.1))
    points;
  let point_frags =
    String.concat ",\n"
      (List.map
         (fun (domains, latency, pause, dip, sw, (o : U.outcome)) ->
           let bw_s, dip_s =
             match dip with
             | Some (bw, d) ->
                 (Printf.sprintf "%.6f" bw, Printf.sprintf "%.2f" d)
             | None -> ("null", "null")
           in
           Printf.sprintf
             "      { \"domains\": %d, \"swap_latency_s\": %.6f, \
              \"quiesce_pause_s\": %.6f, \
              \"base_wall_s\": %s, \"swap_wall_s\": %.6f, \
              \"goodput_dip_pct\": %s, \"inflight_at_swap\": %d, \
              \"pre_delivered\": %d, \"post_delivered\": %d, \
              \"quarantined\": %d, \"lost\": %d, \"torn\": %d }"
             domains latency pause bw_s sw dip_s o.U.o_inflight
             o.U.o_pre_delivered o.U.o_post_delivered o.U.o_quarantined
             o.U.o_lost o.U.o_torn)
         points)
  in
  record_json "live_upgrade"
    (Printf.sprintf
       "{\n    \"nic\": %S,\n    \"to\": %S,\n    \"class\": \"recompile\",\n    \
        \"queues\": %d,\n    \"pkts\": %d,\n    \"seed\": 97,\n    \
        \"note\": \"swap latency = quiesce request to every worker on the \
        new epoch (includes background recompile + certification); quiesce \
        pause = how long injection was halted, bounded < 100 ms at 4 \
        domains; dip compares best-of-%d walls against a no-swap run of \
        the same chaos stream.\",\n    \"points\": [\n%s\n    ]\n  }"
       old_spec.nic_name new_spec.nic_name queues pkts reps point_frags)

(* ================================================================== *)
(* cost_bound: the static worst-case bound vs the measured ledger. *)

(* Cross-validation of the OD025 certifier: for every catalogue NIC x
   intent, the statically proved worst case (Costbound.plan_bound at the
   datapath's burst size) must contain the cycles/pkt the ledger actually
   measures on the batched stack, and must not be vacuously loose. *)
let cost_bound () =
  Bench_util.section
    "COST_BOUND. Static worst-case bound vs measured ledger, per NIC x intent";
  let module Cb = Opendesc_analysis.Costbound in
  let batch = 32 and pkts = 4096 in
  let intents =
    [
      ("fig1", Nic_models.Catalog.fig1_intent);
      ("rss+len", Opendesc.Intent.make [ ("rss", 32); ("pkt_len", 16) ]);
    ]
  in
  let rows =
    List.concat_map
      (fun (iname, intent) ->
        List.map
          (fun (model : Nic_models.Model.t) ->
            let compiled = Opendesc.Cache.run_exn ~alpha:0.05 ~intent model.spec in
            let bound =
              Cb.plan_bound ~burst:batch (Opendesc.Compile.to_plan compiled)
            in
            let device = Driver.Device.create_exn ~config:compiled.config model in
            let stats =
              (* No tx_echo: the bound models the decode path, and the TX
                 repost would charge doorbells the plan never promises. *)
              Driver.Stack.run ~pkts ~batch ~device
                ~workload:(Packet.Workload.make ~seed:53L Packet.Workload.Min_size)
                (Driver.Hoststacks.opendesc_batched ~compiled)
            in
            let measured = stats.Driver.Stats.cycles_per_pkt in
            (model.spec.nic_name, iname, bound, measured, bound /. measured))
          (Nic_models.Catalog.all ~intent ()))
      intents
  in
  Printf.printf "  %-18s %-8s %14s %14s %10s\n" "nic" "intent" "bound c/p"
    "measured c/p" "tightness";
  List.iter
    (fun (nic, iname, bound, measured, t) ->
      Printf.printf "  %-18s %-8s %14.2f %14.2f %9.3fx\n" nic iname bound
        measured t)
    rows;
  let contained =
    List.for_all (fun (_, _, b, m, _) -> m <= b *. 1.0000001) rows
  in
  let worst = List.fold_left (fun a (_, _, _, _, t) -> max a t) 0.0 rows in
  Printf.printf
    "\ncontainment (measured <= proved bound on every NIC x intent): %s\n"
    (if contained then "yes" else "NO — unsound bound!");
  Printf.printf "worst tightness (bound / measured): %.3fx (acceptance: <= 2.0x)\n"
    worst;
  acceptance "cost_bound containment on every NIC x intent" contained;
  acceptance "cost_bound tightness <= 2.0x" (worst <= 2.0);
  let point_frags =
    String.concat ",\n"
      (List.map
         (fun (nic, iname, bound, measured, t) ->
           Printf.sprintf
             "      { \"nic\": %S, \"intent\": %S, \"bound_cycles_per_pkt\": \
              %.2f, \"measured_cycles_per_pkt\": %.2f, \"tightness\": %.3f }"
             nic iname bound measured t)
         rows)
  in
  record_json "cost_bound"
    (Printf.sprintf
       "{\n    \"batch\": %d,\n    \"pkts\": %d,\n    \"contained\": %b,\n    \
        \"worst_tightness\": %.3f,\n    \"points\": [\n%s\n    ]\n  }"
       batch pkts contained worst point_frags)

(* ================================================================== *)

let experiments =
  [
    ("f1", f1);
    ("f2", f2);
    ("f3", f3);
    ("f6", f6);
    ("c1", c1);
    ("c2", c2);
    ("c3", c3);
    ("c4", c4);
    ("c5", c5);
    ("c6", c6);
    ("c7", c7);
    ("c8", c8);
    ("c9", c9);
    ("p4shim", p4shim);
    ("micro", micro);
    ("batch_sweep", batch_sweep);
    ("compile_cache", compile_cache);
    ("parallel_sweep", parallel_sweep);
    ("chaos_sweep", chaos_sweep);
    ("live_upgrade", live_upgrade);
    ("cost_bound", cost_bound);
  ]

(* The CI smoke subset: fast, no bechamel, covers compiler + batched
   datapath + cache + parallel runtime + fault injection. *)
let quick_set =
  [
    "f1";
    "batch_sweep";
    "compile_cache";
    "parallel_sweep";
    "chaos_sweep";
    "live_upgrade";
    "cost_bound";
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: [ "--quick" ] -> quick_set
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst experiments
  in
  List.iter
    (fun id ->
      match List.assoc_opt (String.lowercase_ascii id) experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" id
            (String.concat " " (List.map fst experiments @ [ "--quick" ]));
          exit 2)
    requested;
  flush_json ();
  if !acceptance_failures > 0 then exit 1
