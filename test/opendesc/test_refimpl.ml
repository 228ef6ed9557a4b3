(* Tests for the P4 interpreter, the reference P4 feature
   implementations, TX-intent format selection, and optimizer
   properties. *)

open Opendesc

let check = Alcotest.check
let ai = Alcotest.int
let ai64 = Alcotest.int64
let ab = Alcotest.bool
let asl = Alcotest.(list string)

(* ------------------------------------------------------------------ *)
(* P4.Interp on a hand-rolled program *)

let interp_prog =
  {|
header pair_t { bit<8> a; bit<8> b; }
header wide_t { bit<4> hi; bit<12> lo; bit<16> tail; }
struct hs_t { pair_t p; wide_t w; }

parser TestParser(packet_in pkt, out hs_t hdrs) {
  state start {
    pkt.extract(hdrs.p);
    transition select(hdrs.p.a) {
      1: more;
      default: accept;
    }
  }
  state more { pkt.extract(hdrs.w); transition accept; }
}

control TestControl(in hs_t hdrs, out bit<16> result) {
  apply {
    if (hdrs.w.isValid()) {
      result = hdrs.w.lo + 1;
    } else {
      result = (bit<16>)(hdrs.p.b);
    }
  }
}
|}

let interp_setup packet =
  let tenv = Prelude.check interp_prog in
  let store = P4.Interp.create tenv in
  let parser = Option.get (P4.Typecheck.find_parser tenv "TestParser") in
  let control = Option.get (P4.Typecheck.find_control tenv "TestControl") in
  P4.Interp.run_parser store parser ~packet ~len:(Bytes.length packet) ~param:"pkt";
  ignore (P4.Interp.run_control store control);
  store

let test_interp_extract_and_select () =
  (* a=1 -> parse wide too; wide = 0xA|0xBC? bytes 0xAB 0xCD -> hi=0xA,
     lo=0xBCD; tail = 0x1122. *)
  let packet = Bytes.of_string "\x01\x7f\xab\xcd\x11\x22" in
  let store = interp_setup packet in
  check ab "pair valid" true (P4.Interp.is_valid store [ "hdrs"; "p" ]);
  check ab "wide valid" true (P4.Interp.is_valid store [ "hdrs"; "w" ]);
  check (Alcotest.option ai64) "hi" (Some 0xAL)
    (P4.Interp.get_int store [ "hdrs"; "w"; "hi" ]);
  check (Alcotest.option ai64) "lo" (Some 0xBCDL)
    (P4.Interp.get_int store [ "hdrs"; "w"; "lo" ]);
  check (Alcotest.option ai64) "control result = lo+1" (Some 0xBCEL)
    (P4.Interp.get_int store [ "result" ])

let test_interp_default_branch () =
  let packet = Bytes.of_string "\x02\x7f" in
  let store = interp_setup packet in
  check ab "wide not parsed" false (P4.Interp.is_valid store [ "hdrs"; "w" ]);
  check (Alcotest.option ai64) "else branch result" (Some 0x7fL)
    (P4.Interp.get_int store [ "result" ])

let test_interp_truncated_packet_stops () =
  (* Selecting 'more' but only 3 bytes available: wide extract aborts,
     control takes the invalid branch. *)
  let packet = Bytes.of_string "\x01\x09\xff" in
  let store = interp_setup packet in
  check ab "wide invalid" false (P4.Interp.is_valid store [ "hdrs"; "w" ]);
  check (Alcotest.option ai64) "fallback to p.b" (Some 9L)
    (P4.Interp.get_int store [ "result" ])

(* ------------------------------------------------------------------ *)
(* Reference implementations: differential against the native features *)

let flow =
  Packet.Fivetuple.make ~src_ip:0x0a0a0a0al ~dst_ip:0xc0a80040l ~src_port:3333
    ~dst_port:443 ~proto:Packet.Hdr.Proto.tcp

let test_refimpl_checks () =
  check ai "six reference features" 6 (List.length (Refimpl.feature_controls ()));
  check asl "p4 semantics"
    (List.sort compare Refimpl.p4_semantics)
    (List.sort compare (List.map fst (Refimpl.feature_controls ())))

(* The order `shims` prints and the differential tests walk. *)
let test_refimpl_p4_semantics_order () =
  check asl "source order"
    [ "vlan"; "ip_id"; "pkt_len"; "l3_type"; "l4_type"; "rss_type" ]
    Refimpl.p4_semantics

(* Every @feature names a row, and its control's [result] is as wide as
   the row says. *)
let test_refimpl_widths_match_rows () =
  let widths =
    List.map
      (fun (sem, (c : P4.Typecheck.control_def)) ->
        let result =
          List.find (fun (p : P4.Typecheck.cparam) -> p.c_name = "result") c.ct_params
        in
        match (Semantic.row sem, result.c_typ) with
        | Some row, P4.Typecheck.RBit w ->
            check ai (sem ^ " result width") row.info.width_bits w;
            w
        | None, _ -> Alcotest.failf "@feature(%S) names no row" sem
        | Some _, _ -> Alcotest.failf "%s: result is not a bit<w>" sem)
      (Refimpl.feature_controls ())
  in
  check (Alcotest.list ai) "widths" [ 16; 16; 16; 4; 4; 8 ] widths

let test_refimpl_vlan_concat () =
  (* The VLAN reference rebuilds the TCI from pcp ++ dei ++ vid. *)
  let pkt =
    Packet.Builder.ipv4 ~vlan:1234 ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  match Refimpl.interpret "vlan" with
  | Ok run -> check ai64 "tci" 1234L (run pkt)
  | Error e -> Alcotest.fail e

let test_refimpl_unknown_semantic () =
  match Refimpl.interpret "rss" with
  | Error e -> check ab "no p4 rss" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "rss has no straight-line P4 implementation"

let test_refimpl_differential () =
  (* Every P4-expressible reference implementation agrees exactly with
     the native OCaml feature on varied traffic. *)
  let native = Softnic.Registry.builtin () in
  let p4reg = Refimpl.registry () in
  let env = Softnic.Feature.make_env () in
  List.iter
    (fun profile ->
      let w = Packet.Workload.make ~seed:99L profile in
      for _ = 1 to 25 do
        let pkt = Packet.Workload.next w in
        let view = Packet.Pkt.parse pkt in
        List.iter
          (fun sem ->
            let f_native = Option.get (Softnic.Registry.find native sem) in
            let f_p4 = Option.get (Softnic.Registry.find p4reg sem) in
            check ai64
              (Printf.sprintf "%s on %s" sem (Packet.Workload.profile_name profile))
              (f_native.compute env pkt view)
              (f_p4.compute env pkt view))
          Refimpl.p4_semantics
      done)
    Packet.Workload.
      [
        Min_size; Imix; Vlan_tagged; Kvs { key_len = 7 }; Raw_stream { size = 72 };
        Ipv6_mix;
      ]

let test_refimpl_cost_scaled () =
  let base = Semantic.default () in
  match Refimpl.feature "vlan" with
  | Ok f ->
      check (Alcotest.float 0.01) "interpreted cost = w * overhead"
        (Semantic.cost base "vlan" *. Refimpl.interp_overhead)
        f.cost_cycles
  | Error e -> Alcotest.fail e

let test_refimpl_usable_as_shim () =
  (* Compile with the reference registry: the vlan shim is the
     interpreted P4 implementation, end to end. *)
  let model = Nic_models.Mlx5.model () in
  let intent = Intent.make [ ("rss", 32); ("vlan", 16) ] in
  let compiled = Compile.run_exn ~softnic:(Refimpl.registry ()) ~intent model.spec in
  check asl "vlan in software" [ "vlan" ] (Compile.missing compiled);
  let pipeline = Compile.software_pipeline compiled in
  let pkt =
    Packet.Builder.ipv4 ~vlan:77 ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  match Softnic.Pipeline.run pipeline pkt with
  | [ ("vlan", v) ] -> check ai64 "interpreted shim value" 77L v
  | _ -> Alcotest.fail "expected one result"

(* ------------------------------------------------------------------ *)
(* TX intent *)

let test_tx_intent_selects_covering_format () =
  let model = Nic_models.Ixgbe.model () in
  check ai "ixgbe has two tx formats" 2 (List.length model.spec.tx_formats);
  let intent = Intent.make [ ("rss", 32) ] in
  let tx_intent = Intent.make [ ("vlan", 16); ("tso_mss", 16) ] in
  let compiled = Compile.run_exn ~tx_intent ~intent model.spec in
  check asl "fully covered" [] compiled.tx_missing;
  match compiled.tx_format with
  | Some f -> check ab "advanced format has tso_mss" true (Descparser.field_for f "tso_mss" <> None)
  | None -> Alcotest.fail "expected a tx format"

let test_tx_intent_reports_missing () =
  let model = Nic_models.E1000.legacy () in
  let intent = Intent.make [ ("ip_checksum", 16) ] in
  let tx_intent = Intent.make [ ("vlan", 16); ("tso_mss", 16) ] in
  let compiled = Compile.run_exn ~tx_intent ~intent model.spec in
  check asl "tso needs host software" [ "tso_mss" ] compiled.tx_missing;
  check ab "vlan writer exists" true (Compile.tx_writer compiled "vlan" <> None);
  check ab "tso writer absent" true (Compile.tx_writer compiled "tso_mss" = None)

let test_tx_writer_roundtrip () =
  let model = Nic_models.Ixgbe.model () in
  let tx_intent = Intent.make [ ("vlan", 16); ("tx_l4_csum", 1) ] in
  let compiled =
    Compile.run_exn ~tx_intent ~intent:(Intent.make [ ("rss", 32) ]) model.spec
  in
  let fmt = Option.get compiled.tx_format in
  let desc = Bytes.make (Descparser.size fmt) '\x00' in
  (Option.get (Compile.tx_writer compiled "vlan")) desc 99L;
  (Option.get (Compile.tx_writer compiled "tx_l4_csum")) desc 1L;
  let vlan_f = Option.get (Descparser.field_for fmt "vlan") in
  check ai64 "vlan readback" 99L
    (Accessor.reader ~bit_off:vlan_f.l_bit_off ~bits:vlan_f.l_bits desc)

let test_no_tx_intent_picks_smallest () =
  let model = Nic_models.Ixgbe.model () in
  let compiled = Compile.run_exn ~intent:(Intent.make [ ("rss", 32) ]) model.spec in
  match compiled.tx_format with
  | Some f ->
      let min_size =
        List.fold_left (fun acc g -> min acc (Descparser.size g)) max_int
          model.spec.tx_formats
      in
      check ai "smallest" min_size (Descparser.size f)
  | None -> Alcotest.fail "expected a format"

(* ------------------------------------------------------------------ *)
(* Placement advisor (section 5 extension) *)

let test_placement_verdicts_shape () =
  let model = Nic_models.Mlx5.model () in
  let registry = Semantic.default () in
  let intent = Intent.make [ ("rss", 32); ("vlan", 16) ] in
  match Placement.advise registry intent model.spec with
  | Error e -> Alcotest.fail (Select.error_to_string e)
  | Ok verdicts ->
      check ai "all three paths feasible" 3 (List.length verdicts);
      List.iter
        (fun (v : Placement.verdict) ->
          check ab "sustained = min(cpu, pcie)" true
            (Float.equal v.v_sustained_pps (Float.min v.v_cpu_pps v.v_pcie_pps));
          check ab "dma includes completion" true
            (v.v_dma_bytes
            = float_of_int (64 + Path.size v.v_path)))
        verdicts;
      let rates = List.map (fun v -> v.Placement.v_sustained_pps) verdicts in
      check ab "sorted best-first" true (List.sort (fun a b -> compare b a) rates = rates)

let test_placement_full_cqe_pcie_bound () =
  let model = Nic_models.Mlx5.model () in
  let registry = Semantic.default () in
  let intent = Intent.make [ ("rss", 32) ] in
  match Placement.advise registry intent model.spec with
  | Error e -> Alcotest.fail (Select.error_to_string e)
  | Ok verdicts ->
      let full =
        List.find (fun (v : Placement.verdict) -> Path.size v.v_path = 64) verdicts
      in
      check ab "64B completion saturates the bus first" true (full.v_bottleneck = `Pcie)

let test_placement_crossover_under_tight_pcie () =
  (* On a narrow link the all-hardware full CQE wins at low rate (least
     CPU) but saturates PCIe; the compressed format + software vlan
     sustains more — the section-5 "not more desirable" case. *)
  let model = Nic_models.Mlx5.model () in
  let registry = Semantic.default () in
  let intent = Intent.make [ ("rss", 32); ("vlan", 16) ] in
  let point = { Placement.default_point with pcie_gbps = 32.0 } in
  match Placement.crossover_pps ~point registry intent model.spec with
  | Some (pps, low, high) ->
      check ai "low-rate winner: full CQE" 64 (Path.size low);
      check ai "high-rate winner: mini CQE" 8 (Path.size high);
      check ab "flip strictly positive" true (pps > 0.0)
  | None -> Alcotest.fail "expected a crossover on a 32 Gbit/s link"

let test_placement_unsat_propagates () =
  let model = Nic_models.E1000.newer () in
  let registry = Semantic.default () in
  let intent = Intent.make [ ("wire_timestamp", 64) ] in
  match Placement.advise registry intent model.spec with
  | Error (Select.Unsatisfiable _) -> ()
  | _ -> Alcotest.fail "expected unsatisfiable"

(* ------------------------------------------------------------------ *)
(* Optimizer properties *)

(* The chosen path always minimises Eq. 1 over all paths (brute force). *)
let prop_select_optimal =
  QCheck.Test.make ~name:"Select.choose is optimal over all paths" ~count:100
    QCheck.(pair (int_bound 3) (QCheck.make (QCheck.Gen.float_range 0.01 10.0)))
    (fun (intent_idx, alpha) ->
      let registry = Semantic.default () in
      let model = Nic_models.Mlx5.model () in
      let intents =
        [|
          [ "rss" ];
          [ "rss"; "vlan" ];
          [ "l4_checksum"; "pkt_len"; "flow_id" ];
          [ "rss"; "vlan"; "pkt_len"; "csum_ok"; "mark"; "lro_num_seg" ];
        |]
      in
      let intent =
        Intent.make (List.map (fun s -> (s, 32)) intents.(intent_idx))
      in
      match Select.choose ~alpha registry intent model.spec.paths with
      | Error _ -> false
      | Ok outcome ->
          let brute =
            List.fold_left
              (fun acc p ->
                min acc (Select.score registry ~alpha intent p).s_total)
              infinity model.spec.paths
          in
          Float.equal outcome.chosen.s_total brute)

(* Fully randomized version over the whole catalog and semantic universe:
   random NIC, random intent drawn from the registry's names (including
   the hardware-only, infinitely-costly ones and the TX ones, which no
   received packet determines, so an RX intent has no fallback for them
   either), random alpha. Eq. 1 and the tie-break are re-implemented
   here from the paper's definition, sharing no code with Select, and
   the entire ranking must agree. *)
let prop_select_randomized =
  let registry = Semantic.default () in
  let pool = Array.of_list (Semantic.names registry) in
  let models = Array.of_list (Nic_models.Catalog.all ()) in
  QCheck.Test.make
    ~name:"Select.choose: randomized brute-force Eq. 1 with deterministic ranking"
    ~count:400
    (QCheck.make
       QCheck.Gen.(
         triple
           (int_bound (Array.length models - 1))
           (list_size (int_range 1 6) (int_bound (Array.length pool - 1)))
           (float_range 0.0 8.0)))
    (fun (mi, picks, alpha) ->
      let m = models.(mi) in
      let sems = List.sort_uniq compare (List.map (fun i -> pool.(i)) picks) in
      let intent = Intent.make (List.map (fun s -> (s, 32)) sems) in
      let paths = m.spec.paths in
      let w s =
        match Semantic.row s with
        | Some { dir = Tx; _ } -> infinity
        | _ -> Semantic.cost registry s
      in
      (* Eq. 1, straight from the paper: Σ_{s ∈ Req \ Prov(p)} w(s) + α·Size(p) *)
      let eq1 (p : Path.t) =
        let missing = List.filter (fun s -> not (Path.provides p s)) sems in
        List.fold_left (fun acc s -> acc +. w s) 0.0 missing
        +. (alpha *. float_of_int (Path.size p))
      in
      let brute_cmp (a : Path.t) (b : Path.t) =
        match compare (eq1 a) (eq1 b) with
        | 0 -> (
            match compare (Path.size a) (Path.size b) with
            | 0 -> compare a.p_index b.p_index
            | c -> c)
        | c -> c
      in
      let brute_order = List.sort brute_cmp paths in
      let brute_min = List.fold_left (fun acc p -> min acc (eq1 p)) infinity paths in
      match Select.choose ~alpha registry intent paths with
      | Error Select.No_paths -> paths = []
      | Error (Select.Unsatisfiable blocking) ->
          (* Only an infinite minimum may be rejected, and every reported
             blocker must genuinely lack a software implementation. *)
          (not (Float.is_finite brute_min))
          && List.for_all (fun s -> w s = infinity) blocking
      | Ok outcome ->
          Float.is_finite brute_min
          && Float.equal outcome.chosen.s_total brute_min
          && outcome.chosen.s_path.p_index = (List.hd brute_order).p_index
          && List.map (fun (sc : Select.scored) -> sc.s_path.p_index) outcome.ranked
             = List.map (fun (p : Path.t) -> p.p_index) brute_order)

(* alpha = 0 with an empty intent makes every path score exactly 0.0 —
   the all-ways-tied case — so the choice must be decided purely by the
   documented tie-break: smaller completion, then lower path index. *)
let prop_select_tiebreak_total_tie =
  QCheck.Test.make ~name:"Select.choose: full tie falls back to (size, index)"
    ~count:50 QCheck.unit (fun () ->
      let registry = Semantic.default () in
      List.for_all
        (fun (m : Nic_models.Model.t) ->
          match Select.choose ~alpha:0.0 registry (Intent.make []) m.spec.paths with
          | Error _ -> false
          | Ok outcome ->
              let best =
                List.fold_left
                  (fun (acc : Path.t) (p : Path.t) ->
                    if
                      Path.size p < Path.size acc
                      || (Path.size p = Path.size acc && p.p_index < acc.p_index)
                    then p
                    else acc)
                  (List.hd m.spec.paths) (List.tl m.spec.paths)
              in
              Float.equal outcome.chosen.s_total 0.0
              && outcome.chosen.s_path.p_index = best.p_index)
        (Nic_models.Catalog.all ()))

(* Path-enumeration invariant: the per-path context assignments partition
   the full context space. *)
let prop_assignments_partition =
  QCheck.Test.make ~name:"path assignments partition the context space" ~count:20
    QCheck.unit
    (fun () ->
      List.for_all
        (fun (m : Nic_models.Model.t) ->
          match m.spec.ctx with
          | None -> true
          | Some (_, ctx_header) -> (
              match Opendesc_analysis.Context.enumerate ctx_header with
              | Error _ -> false
              | Ok all ->
                  let claimed =
                    List.concat_map
                      (fun (p : Path.t) -> p.p_assignments)
                      m.spec.paths
                  in
                  List.length claimed = List.length all
                  && List.for_all
                       (fun a -> List.exists (Opendesc_analysis.Context.equal a) claimed)
                       all))
        (Nic_models.Catalog.all ()))

(* Random NIC deparser generator: a context of 1-3 single-bit knobs and a
   random tree of conditionals over them with emits at the leaves/spine.
   Invariants checked: enumeration succeeds, assignments partition the
   context space, layouts are byte-aligned and non-overlapping, and CFG
   vertices cover every emitted header. *)

let gen_deparser =
  let open QCheck.Gen in
  let* n_ctx = int_range 1 3 in
  let* n_headers = int_range 1 4 in
  let header_names = List.init n_headers (Printf.sprintf "h%d_t") in
  let sems = [| "rss"; "vlan"; "pkt_len"; "ip_id"; "flow_id"; "csum_ok" |] in
  let* header_defs =
    flatten_l
      (List.mapi
         (fun i name ->
           let* sem_idx = int_bound (Array.length sems - 1) in
           let* extra = oneofl [ 8; 16; 32 ] in
           return
             (Printf.sprintf
                "header %s { @semantic(%%S) bit<32> f%d; bit<%d> pad%d; }" name i
                extra i
             |> fun fmt -> Printf.sprintf (Scanf.format_from_string fmt "%S")
                             sems.(sem_idx)))
         header_names)
  in
  (* random statement tree of depth <= 3 *)
  let rec gen_stmts depth =
    let emit =
      let* h = int_bound (n_headers - 1) in
      return (Printf.sprintf "o.emit(m.h%d);" h)
    in
    if depth = 0 then map (fun s -> [ s ]) emit
    else
      let* shape = int_bound 2 in
      match shape with
      | 0 -> map (fun s -> [ s ]) emit
      | 1 ->
          (* if/else over a ctx bit *)
          let* bit = int_bound (n_ctx - 1) in
          let* then_b = gen_stmts (depth - 1) in
          let* else_b = gen_stmts (depth - 1) in
          return
            [
              Printf.sprintf "if (ctx.b%d == 1) { %s } else { %s }" bit
                (String.concat " " then_b)
                (String.concat " " else_b);
            ]
      | _ ->
          (* emit then conditional tail *)
          let* first = emit in
          let* bit = int_bound (n_ctx - 1) in
          let* tail = gen_stmts (depth - 1) in
          return
            [ first; Printf.sprintf "if (ctx.b%d == 1) { %s }" bit
                (String.concat " " tail) ]
  in
  let* body = gen_stmts 3 in
  let ctx_fields =
    String.concat " " (List.init n_ctx (Printf.sprintf "bit<1> b%d;"))
  in
  let struct_fields =
    String.concat " "
      (List.mapi (fun i n -> Printf.sprintf "%s h%d;" n i) header_names)
  in
  return
    (Printf.sprintf
       {|
header fuzz_ctx_t { %s }
%s
struct fuzz_meta_t { %s }
control FuzzDeparser(cmpt_out o, in fuzz_ctx_t ctx, in fuzz_meta_t m) {
  apply { %s }
}
|}
       ctx_fields
       (String.concat "
" header_defs)
       struct_fields (String.concat " " body))

let prop_random_deparser_invariants =
  QCheck.Test.make ~name:"random deparsers: enumeration invariants" ~count:150
    (QCheck.make ~print:(fun s -> s) gen_deparser)
    (fun src ->
      match Prelude.check_result src with
      | Error _ -> false
      | Ok tenv -> (
          (* the generated program also pretty-print round-trips *)
          let ast = P4.Parser.parse_program src in
          let roundtrip =
            P4.Ast.equal_program ast
              (P4.Parser.parse_program (P4.Pretty.program_to_string ast))
          in
          if not roundtrip then false
          else
          let ctrl = Option.get (P4.Typecheck.find_control tenv "FuzzDeparser") in
          match
            Result.bind (Opendesc_analysis.Engine.catalogue tenv ctrl) Path.of_catalogue
          with
          | Error _ -> false
          | Ok paths ->
              let ctx_header =
                Option.get (P4.Typecheck.find_header tenv "fuzz_ctx_t")
              in
              let all = Result.get_ok (Opendesc_analysis.Context.enumerate ctx_header) in
              let claimed = List.concat_map (fun p -> p.Path.p_assignments) paths in
              let partition =
                List.length claimed = List.length all
                && List.for_all
                     (fun a ->
                       List.exists (Opendesc_analysis.Context.equal a) claimed)
                     all
              in
              let layouts_ok =
                List.for_all
                  (fun (p : Path.t) ->
                    (* fields are contiguous, sorted, non-overlapping *)
                    let rec contiguous off = function
                      | [] -> off = 8 * Path.size p
                      | (f : Path.lfield) :: rest ->
                          f.l_bit_off = off && contiguous (off + f.l_bits) rest
                    in
                    contiguous 0 p.p_layout.fields)
                  paths
              in
              let cfg = Cfg.build tenv ctrl in
              let cfg_headers =
                List.map (fun (v : Cfg.vertex) -> v.v_header.h_name) cfg.vertices
                |> List.sort_uniq compare
              in
              let path_headers =
                List.concat_map
                  (fun (p : Path.t) ->
                    List.map (fun ((_, h) : _ * P4.Typecheck.header_def) -> h.h_name)
                      p.p_emits)
                  paths
                |> List.sort_uniq compare
              in
              let coverage =
                List.for_all (fun h -> List.mem h cfg_headers) path_headers
              in
              partition && layouts_ok && coverage))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "refimpl"
    [
      ( "interp",
        [
          Alcotest.test_case "extract + select" `Quick test_interp_extract_and_select;
          Alcotest.test_case "default branch" `Quick test_interp_default_branch;
          Alcotest.test_case "truncated stops" `Quick test_interp_truncated_packet_stops;
        ] );
      ( "refimpl",
        [
          Alcotest.test_case "checks + inventory" `Quick test_refimpl_checks;
          Alcotest.test_case "p4_semantics in source order" `Quick
            test_refimpl_p4_semantics_order;
          Alcotest.test_case "@feature widths match rows" `Quick
            test_refimpl_widths_match_rows;
          Alcotest.test_case "vlan concat" `Quick test_refimpl_vlan_concat;
          Alcotest.test_case "unknown semantic" `Quick test_refimpl_unknown_semantic;
          Alcotest.test_case "differential vs native" `Quick test_refimpl_differential;
          Alcotest.test_case "cost scaled" `Quick test_refimpl_cost_scaled;
          Alcotest.test_case "usable as shim" `Quick test_refimpl_usable_as_shim;
        ] );
      ( "tx-intent",
        [
          Alcotest.test_case "selects covering format" `Quick
            test_tx_intent_selects_covering_format;
          Alcotest.test_case "reports missing" `Quick test_tx_intent_reports_missing;
          Alcotest.test_case "writer roundtrip" `Quick test_tx_writer_roundtrip;
          Alcotest.test_case "default smallest" `Quick test_no_tx_intent_picks_smallest;
        ] );
      ( "placement",
        [
          Alcotest.test_case "verdict shape" `Quick test_placement_verdicts_shape;
          Alcotest.test_case "full CQE pcie-bound" `Quick
            test_placement_full_cqe_pcie_bound;
          Alcotest.test_case "crossover on tight link" `Quick
            test_placement_crossover_under_tight_pcie;
          Alcotest.test_case "unsat propagates" `Quick test_placement_unsat_propagates;
        ] );
      ( "properties",
        qsuite
          [
            prop_select_optimal; prop_select_randomized;
            prop_select_tiebreak_total_tie; prop_assignments_partition;
            prop_random_deparser_invariants;
          ] );
    ]
