(* Tests for the descriptor-contract verifier (Opendesc_analysis).

   Strategy: seed single mutations into the pristine e1000 and mlx5
   catalogue sources and assert the exact diagnostic code each one
   triggers — plus the converse, that the pristine catalogue raises no
   error- or warning-severity diagnostic at all. Every code documented
   in docs/LINTS.md is exercised by at least one case here. *)

module Dg = Opendesc_analysis.Diagnostic
module Engine = Opendesc_analysis.Engine

let check = Alcotest.check
let ab = Alcotest.bool
let ai = Alcotest.int
let asl = Alcotest.(list string)

(* Replace the first occurrence of [sub]; fail the test if the seed text
   is gone (a silent no-op mutation would make the assertion vacuous). *)
let replace ~sub ~by src =
  let sl = String.length sub and n = String.length src in
  let rec find i =
    if i + sl > n then None
    else if String.sub src i sl = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "mutation seed %S not found in source" sub
  | Some i ->
      String.sub src 0 i ^ by ^ String.sub src (i + sl) (n - i - sl)

let analyze src = Opendesc.Nic_spec.analyze_source src

let codes ds = List.sort_uniq compare (List.map (fun (d : Dg.t) -> d.d_code) ds)
let has code ds = List.exists (fun (d : Dg.t) -> d.d_code = code) ds

let find_exn code ds =
  match List.find_opt (fun (d : Dg.t) -> d.d_code = code) ds with
  | Some d -> d
  | None -> Alcotest.failf "expected %s, got codes %s" code (String.concat "," (codes ds))

let assert_code ?severity code ds =
  let d = find_exn code ds in
  match severity with
  | Some s ->
      check ab
        (Printf.sprintf "%s severity is %s" code (Dg.severity_to_string s))
        true (d.d_severity = s)
  | None -> ()

let legacy = Nic_models.E1000.legacy_source
let newer = Nic_models.E1000.newer_source
let mlx5 = Nic_models.Mlx5.source

(* ------------------------------------------------------------------ *)
(* OD001/OD002: broken sources still produce located findings. *)

(* Line and column of a diagnostic, in the user's own source. *)
let line_col (d : Dg.t) =
  Option.map (fun (sp : P4.Loc.span) -> (sp.left.line, sp.left.col)) d.d_loc

let test_od001_parse_error () =
  let ds = analyze (replace ~sub:"transition accept;" ~by:"transition accept" legacy) in
  assert_code ~severity:Dg.Error "OD001" ds;
  (* The missing ';' is reported at the '}' on line 3 of the file, not at
     its line in the prelude-prefixed text. *)
  let d = find_exn "OD001" (analyze "header h_t {\n  bit<8> a\n}\n") in
  check Alcotest.(option (pair int int)) "at 3:0" (Some (3, 0)) (line_col d)

let test_od001_lex_error () =
  (* An unterminated comment opened on line 2 runs to the end of input. *)
  let d = find_exn "OD001" (analyze "header h_t { bit<8> a; }\n/* oops") in
  check Alcotest.(option (pair int int)) "at end of input" (Some (2, 7)) (line_col d);
  check Alcotest.string "message" "syntax error: unterminated comment" d.d_msg

let test_od001_type_error () =
  let ds = analyze (replace ~sub:"ctx.use_rss == 1" ~by:"ctx.no_such == 1" newer) in
  let d = find_exn "OD001" ds in
  check ab "type error is located" true (d.d_loc <> None)

let test_od002_no_deparser () =
  let ds =
    analyze
      (replace ~sub:"control E1000CmptDeparser(cmpt_out o, "
         ~by:"control E1000CmptDeparser(" legacy)
  in
  assert_code ~severity:Dg.Error "OD002" ds

let test_od002_unbounded_context () =
  let ds = analyze (replace ~sub:"bit<1> cqe_comp" ~by:"bit<32> cqe_comp" mlx5) in
  assert_code ~severity:Dg.Error "OD002" ds

(* ------------------------------------------------------------------ *)
(* Layout safety. *)

let test_od003_non_byte_aligned_path () =
  let ds = analyze (replace ~sub:"bit<8> status;" ~by:"bit<4> status;" legacy) in
  assert_code ~severity:Dg.Error "OD003" ds

let test_od004_exceeds_completion_slot () =
  let ds = analyze (replace ~sub:"@cmpt_slot(8)" ~by:"@cmpt_slot(4)" legacy) in
  assert_code ~severity:Dg.Error "OD004" ds

let test_od005_header_emitted_twice () =
  let ds =
    analyze
      (replace ~sub:"o.emit(pipe_meta);"
         ~by:"o.emit(pipe_meta); o.emit(pipe_meta);" legacy)
  in
  assert_code ~severity:Dg.Warning "OD005" ds

let test_od006_semantic_carried_twice () =
  (* Two different headers on one path both carrying rss and pkt_len. *)
  let ds =
    analyze
      (replace ~sub:"o.emit(pipe_meta.full);"
         ~by:"o.emit(pipe_meta.full); o.emit(pipe_meta.mini_hash);" mlx5)
  in
  assert_code ~severity:Dg.Warning "OD006" ds;
  (* ... but a re-emitted header is OD005 only, not also OD006. *)
  let ds5 =
    analyze
      (replace ~sub:"o.emit(pipe_meta);"
         ~by:"o.emit(pipe_meta); o.emit(pipe_meta);" legacy)
  in
  check ab "re-emit is not double-reported" false (has "OD006" ds5)

(* ------------------------------------------------------------------ *)
(* Path feasibility. *)

let test_od007_od008_infeasible_branch () =
  (* use_rss is bit<1>: == 2 never holds, so the predicate is constant
     and the then-branch emit is dead. *)
  let ds = analyze (replace ~sub:"ctx.use_rss == 1" ~by:"ctx.use_rss == 2" newer) in
  assert_code ~severity:Dg.Warning "OD007" ds;
  assert_code ~severity:Dg.Warning "OD008" ds

let test_od009_inert_context_field () =
  let ds =
    analyze
      (replace ~sub:"bit<1> mini_fmt;" ~by:"bit<1> mini_fmt;\n  bit<1> dead_knob;"
         mlx5)
  in
  let d = find_exn "OD009" ds in
  check ab "info severity" true (d.d_severity = Dg.Info);
  check ab "names the field" true
    (let msg = d.d_msg in
     let rec contains i =
       i + 9 <= String.length msg
       && (String.sub msg i 9 = "dead_knob" || contains (i + 1))
     in
     contains 0)

let test_od008_not_raised_on_exhaustive_chain () =
  (* mlx5's nested else-branch dispatch is fully feasible: every branch
     is taken under some configuration, so no OD008/OD007 fires. *)
  let ds = analyze mlx5 in
  check ab "no OD007" false (has "OD007" ds);
  check ab "no OD008" false (has "OD008" ds)

(* ------------------------------------------------------------------ *)
(* Contract consistency. *)

let test_od010_unknown_semantic () =
  let ds =
    analyze
      (replace ~sub:{|@semantic("ip_checksum")|} ~by:{|@semantic("ip_checksumm")|}
         legacy)
  in
  assert_code ~severity:Dg.Warning "OD010" ds

let test_od011_narrower_than_registry () =
  (* ip_checksum is 16 bits in the registry; an 8-bit field truncates. *)
  let ds =
    analyze
      (replace ~sub:{|@semantic("ip_checksum") bit<16> csum;|}
         ~by:{|@semantic("ip_checksum") bit<8> csum; bit<8> morepad;|} legacy)
  in
  assert_code ~severity:Dg.Warning "OD011" ds

let test_od011_wider_is_info () =
  (* mlx5's 32-bit byte_cnt vs the registry's 16-bit pkt_len is zero
     padding, not truncation: info, so --werror keeps passing. *)
  let ds = analyze mlx5 in
  let d = find_exn "OD011" ds in
  check ab "info severity" true (d.d_severity = Dg.Info)

let test_od012_unreachable_semantics () =
  let ds =
    analyze
      (legacy ^ "\nheader e1000_ghost_t { @semantic(\"mark\") bit<32> m; }\n")
  in
  assert_code ~severity:Dg.Warning "OD012" ds

let test_od013_dominated_equal_size () =
  (* Make the checksum layout a clone of the RSS layout: same Prov, same
     8-byte size — the higher-index path loses every Eq. 1 tie-break. *)
  let ds =
    analyze
      (replace
         ~sub:
           {|@semantic("ip_id")       bit<16> ip_id;
  @semantic("ip_checksum") bit<16> csum;|}
         ~by:{|@semantic("rss")         bit<32> rss2;|} newer)
  in
  let d = find_exn "OD013" ds in
  check ab "warning severity" true (d.d_severity = Dg.Warning);
  check ab "mentions selection" true
    (let msg = d.d_msg in
     let sub = "never be selected" in
     let rec contains i =
       i + String.length sub <= String.length msg
       && (String.sub msg i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

let test_od013_dominated_larger () =
  (* Same Prov at different sizes: the larger layout can never win. *)
  let src =
    {|
header ctx_t { bit<1> mode; }
header small_t { @semantic("rss") bit<32> h; @semantic("vlan") bit<16> v; bit<16> pad; }
header big_t   { @semantic("rss") bit<32> h; @semantic("vlan") bit<16> v; bit<80> pad; }
struct meta_t { small_t s; big_t b; }
control Dep(cmpt_out o, in ctx_t ctx, in meta_t m) {
  apply {
    if (ctx.mode == 0) { o.emit(m.s); } else { o.emit(m.b); }
  }
}
|}
  in
  let ds = analyze src in
  assert_code ~severity:Dg.Warning "OD013" ds

let test_od014_tx_without_buf_addr () =
  let ds =
    analyze
      (replace ~sub:{|@semantic("buf_addr") bit<64> addr;|} ~by:{|bit<64> addr;|}
         legacy)
  in
  assert_code ~severity:Dg.Warning "OD014" ds

let test_od015_hardware_only_unprovided () =
  let intent = Opendesc.Intent.make [ ("wire_timestamp", 64) ] in
  let spec = (Nic_models.E1000.legacy ()).spec in
  let ds = Opendesc.Nic_spec.analyze ~intent spec in
  assert_code ~severity:Dg.Error "OD015" ds;
  (* mlx5's full CQE does provide it: no finding. *)
  let mlx5_spec = (Nic_models.Mlx5.model ()).spec in
  check ab "mlx5 provides wire_timestamp" false
    (has "OD015" (Opendesc.Nic_spec.analyze ~intent mlx5_spec))

(* Hardware-only is the registry's fact: a semantic it knows with no
   software cost, not a name on a fixed list. *)
let test_od015_custom_registry_hardware_only () =
  let registry = Opendesc.Semantic.default () in
  Opendesc.Semantic.register registry
    { name = "ptp_phase"; width_bits = 32; sw_cost = infinity; descr = "" };
  let intent = Opendesc.Intent.make [ ("ptp_phase", 32) ] in
  let spec = (Nic_models.E1000.legacy ()).spec in
  assert_code ~severity:Dg.Error "OD015" (Opendesc.Nic_spec.analyze ~registry ~intent spec);
  Opendesc.Semantic.register registry
    { name = "ptp_phase"; width_bits = 32; sw_cost = 50.0; descr = "" };
  check ab "a shimmable semantic is not hardware-only" false
    (has "OD015" (Opendesc.Nic_spec.analyze ~registry ~intent spec))

(* ------------------------------------------------------------------ *)
(* Codegen verification. *)

let afield ?semantic ~off ~bits name : Engine.afield =
  {
    af_name = name;
    af_header = "h_t";
    af_semantic = semantic;
    af_bit_off = off;
    af_bits = bits;
    af_span = P4.Loc.dummy;
  }

let test_od016_accessor_out_of_bounds () =
  (* A 16-bit field at bit 56 of an 8-byte completion reads byte 8. *)
  let ds =
    Engine.check_accessor_bounds ~size_bytes:8
      [ afield ~semantic:"vlan" ~off:56 ~bits:16 "v" ]
  in
  assert_code ~severity:Dg.Error "OD016" ds;
  (* The unaligned bound is exact: 12 bits at offset 52 ends at bit 63. *)
  check ai "in-bounds unaligned read is clean" 0
    (List.length
       (Engine.check_accessor_bounds ~size_bytes:8
          [ afield ~semantic:"vlan" ~off:52 ~bits:12 "v" ]))

let test_od017_oversized_semantic_field () =
  let ds =
    analyze
      (replace ~sub:{|@semantic("ip_checksum") bit<16> csum;|}
         ~by:{|@semantic("ip_checksum") bit<128> csum;|} legacy)
  in
  assert_code ~severity:Dg.Error "OD017" ds;
  (* Unannotated wide padding blobs (mlx5's rsvd_inline) are fine. *)
  check ab "padding blob is not flagged" false (has "OD017" (analyze mlx5))

(* ------------------------------------------------------------------ *)
(* Pristine catalogue and intents. *)

let test_pristine_catalog_is_clean () =
  let intent = Nic_models.Catalog.fig1_intent in
  List.iter
    (fun (m : Nic_models.Model.t) ->
      let ds = Opendesc.Nic_spec.analyze m.spec in
      check ab
        (Printf.sprintf "%s has no errors or warnings" m.spec.nic_name)
        false
        (Engine.failing ~werror:true ds))
    (Nic_models.Catalog.all ~intent ())

let test_intent_source_lints_without_deparser () =
  let src =
    {|
@intent header wants_t {
  @semantic("rss")  bit<32> hash;
  @semantic("vlan") bit<16> tag;
}
|}
  in
  let ds = analyze src in
  check asl "clean intent" [] (codes ds);
  let bad = replace ~sub:{|@semantic("rss")|} ~by:{|@semantic("rsss")|} src in
  assert_code ~severity:Dg.Warning "OD010" (analyze bad)

(* The shared catalogue is the compiler's path list: for every catalogue
   model its feasible groups are the spec's paths, in order, with the
   same index, size, provided semantics and selecting configurations
   (OD013's and Certify's "path #k" rest on this). The TX walk likewise
   partitions the context space: every configuration selects exactly one
   descriptor format. *)
let test_engine_paths_match_compiler () =
  let module Ctx = Opendesc_analysis.Context in
  let same_assignments = List.equal Ctx.equal in
  List.iter
    (fun (m : Nic_models.Model.t) ->
      let spec = m.spec in
      let name = spec.nic_name in
      let paths = spec.paths in
      let groups = spec.catalogue.Engine.cat_feasible in
      check ai (name ^ ": feasible groups = paths") (List.length paths)
        (List.length groups);
      List.iter2
        (fun (p : Opendesc.Path.t) (g : Engine.group) ->
          let what = Printf.sprintf "%s path #%d" name p.p_index in
          let bits = g.g_run.Opendesc_analysis.Dep_ir.r_total_bits in
          check ai (what ^ ": index") p.p_index g.g_index;
          check ai (what ^ ": size_bytes") p.p_layout.size_bytes (bits / 8);
          check ai (what ^ ": whole bytes") 0 (bits mod 8);
          check asl (what ^ ": provided semantics") p.p_prov
            (List.filter_map
               (fun (af : Engine.afield) -> af.af_semantic)
               (Engine.fields_of_run g.g_run)
            |> List.sort_uniq String.compare);
          check ab (what ^ ": assignments") true
            (same_assignments p.p_assignments g.g_assigns))
        paths groups;
      match spec.desc_parser with
      | None -> ()
      | Some pd ->
          let formats =
            match Opendesc.Descparser.enumerate spec.tenv pd with
            | Ok fs -> fs
            | Error e -> Alcotest.failf "%s: Descparser.enumerate: %s" name e
          in
          let all =
            match Ctx.find_in pd.pr_params with
            | None -> [ [] ]
            | Some (_, h) -> Result.get_ok (Ctx.enumerate h)
          in
          let claimed =
            List.concat_map
              (fun (f : Opendesc.Descparser.t) -> f.d_fmt.t_assignments)
              formats
          in
          check ai (name ^ ": one TX format per configuration") (List.length all)
            (List.length claimed);
          check ab (name ^ ": TX formats cover every configuration") true
            (List.for_all (fun a -> List.exists (Ctx.equal a) claimed) all))
    (Nic_models.Catalog.all ~intent:Nic_models.Catalog.fig1_intent ())

(* ------------------------------------------------------------------ *)
(* Symbolic feasibility and certification (OD018–OD020). *)

let test_od018_vacuous_runtime_guard () =
  (* length is bit<16>, so `< 65536` is a tautology: data-dependent (the
     concrete enumeration cannot decide it) but proved constant by the
     interval analysis. *)
  let ds =
    analyze
      (replace ~sub:"o.emit(pipe_meta.legacy);"
         ~by:
           "if (pipe_meta.legacy.length < 65536) { o.emit(pipe_meta.legacy); }"
         newer)
  in
  assert_code ~severity:Dg.Warning "OD018" ds;
  (* The guard's empty else-leaf is proved infeasible, so certification
     must not count it as a completion the accessor could observe. *)
  check ab "no OD020 on a vacuous guard" false (has "OD020" ds);
  check ab "no OD008 (not configuration-decidable)" false (has "OD008" ds)

let test_od019_genuinely_runtime_branch () =
  (* status is runtime data and genuinely two-valued; both sides emit the
     same header, so only the informational OD019 fires. *)
  let ds =
    analyze
      (replace ~sub:"o.emit(pipe_meta.legacy);"
         ~by:
           "if (pipe_meta.legacy.status == 1) { o.emit(pipe_meta.legacy); } \
            else { o.emit(pipe_meta.legacy); }"
         newer)
  in
  assert_code ~severity:Dg.Info "OD019" ds;
  check ab "no OD018" false (has "OD018" ds);
  check ab "no OD020 (identical placements on both forks)" false
    (has "OD020" ds)

let test_od020_uncertifiable_accessor () =
  (* Under use_rss=0 the emitted layout now depends on a runtime status
     bit: rss/ip_id/ip_checksum appear in one feasible fork but not the
     other, so their fixed-offset accessors cannot be certified. pkt_len
     sits at bit 32 with 16 bits in BOTH headers, so it stays safe. *)
  let ds =
    analyze
      (replace ~sub:"o.emit(pipe_meta.legacy);"
         ~by:
           "if (pipe_meta.legacy.status == 1) { o.emit(pipe_meta.rss); } else \
            { o.emit(pipe_meta.legacy); }"
         newer)
  in
  assert_code ~severity:Dg.Error "OD020" ds;
  assert_code ~severity:Dg.Info "OD019" ds;
  let od20 = List.filter (fun (d : Dg.t) -> d.d_code = "OD020") ds in
  let mentions s (d : Dg.t) =
    let n = String.length s and msg = d.d_msg in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = s || go (i + 1))
    in
    go 0
  in
  check ab "rss is uncertifiable" true
    (List.exists (mentions "\"rss\"") od20);
  check ab "pkt_len stays certified" false
    (List.exists (mentions "\"pkt_len\"") od20)

(* ------------------------------------------------------------------ *)
(* QCheck: abstract evaluation soundly over-approximates the concrete
   semantics on every catalogue model. *)

module A = Opendesc_analysis.Absdom
module Sx = Opendesc_analysis.Symexec
module Ir = Opendesc_analysis.Dep_ir

let rec rtyp_leaf_widths prefix (t : P4.Typecheck.rtyp) acc =
  match t with
  | P4.Typecheck.RBit w -> (List.rev prefix, w) :: acc
  | P4.Typecheck.RHeader h ->
      List.fold_left
        (fun acc (f : P4.Typecheck.field) ->
          (List.rev (f.f_name :: prefix), f.f_bits) :: acc)
        acc h.h_fields
  | P4.Typecheck.RStruct s ->
      List.fold_left
        (fun acc (n, ty) -> rtyp_leaf_widths (n :: prefix) ty acc)
        acc s.s_fields
  | _ -> acc

type fixture = {
  fx_name : string;
  fx_ir : Ir.t;
  fx_sym : Sx.result;
  fx_base : string list -> A.t;
  fx_consts : P4.Eval.env;
  fx_ctx_name : string;
  fx_assignments : Opendesc_analysis.Context.assignment list;
  fx_runtime : (string list * int) list;
}

let fixtures =
  lazy
    (List.filter_map
       (fun (m : Nic_models.Model.t) ->
         let spec = m.Nic_models.Model.spec in
         let ctrl = spec.deparser in
         match Ir.of_control spec.tenv ctrl with
         | Error _ -> None
         | Ok ir ->
             let consts = P4.Typecheck.const_env spec.tenv in
             let base =
               Sx.base_env ~consts ~ctx:spec.ctx ~params:ctrl.ct_params ()
             in
             let ctx_name =
               match spec.ctx with
               | Some (p, _) -> p.P4.Typecheck.c_name
               | None -> "ctx"
             in
             let assignments =
               match spec.ctx with
               | None -> [ [] ]
               | Some (_, h) -> (
                   match Opendesc_analysis.Context.enumerate h with
                   | Ok a -> a
                   | Error _ -> [ [] ])
             in
             let runtime =
               List.concat_map
                 (fun (p : P4.Typecheck.cparam) ->
                   if p.c_name = ctx_name then []
                   else rtyp_leaf_widths [ p.c_name ] p.c_typ [])
                 ctrl.ct_params
               |> List.filter (fun (_, w) -> w <= 64)
             in
             Some
               {
                 fx_name = spec.nic_name;
                 fx_ir = ir;
                 fx_sym = Sx.exec ~base ir;
                 fx_base = base;
                 fx_consts = consts;
                 fx_ctx_name = ctx_name;
                 fx_assignments = assignments;
                 fx_runtime = runtime;
               })
       (Nic_models.Catalog.all ~intent:Nic_models.Catalog.fig1_intent ()))

let concrete_env fx a (vals : int64 array) : P4.Eval.env =
  let nvals = max 1 (Array.length vals) in
  let runtime =
    List.mapi
      (fun i (path, w) ->
        let raw = if Array.length vals = 0 then 0L else vals.(i mod nvals) in
        let v =
          if w >= 64 then raw
          else Int64.logand raw (Int64.sub (Int64.shift_left 1L w) 1L)
        in
        (path, P4.Eval.vint ~width:w v))
      fx.fx_runtime
  in
  let ctx_env = Opendesc_analysis.Context.env_of ~param_name:fx.fx_ctx_name a in
  fun path ->
    match List.assoc_opt path runtime with
    | Some v -> Some v
    | None -> (
        match ctx_env path with Some v -> Some v | None -> fx.fx_consts path)

let value_str = function
  | P4.Eval.VInt { v; _ } -> Int64.to_string v
  | P4.Eval.VBool b -> string_of_bool b
  | P4.Eval.VUnknown -> "?"

(* Replay the deparser concretely under a fully-valued environment,
   recording each branch decision; mirrors Dep_ir.run without forking. *)
exception Stop_walk
exception Undecidable_walk

let concrete_decisions fx env0 =
  let locals : (string list, P4.Eval.value) Hashtbl.t = Hashtbl.create 8 in
  let env path =
    match Hashtbl.find_opt locals path with
    | Some v -> Some v
    | None -> env0 path
  in
  let decisions = ref [] in
  let rec exec nodes = List.iter exec1 nodes
  and exec1 = function
    | Ir.NEmit _ | Ir.NOther -> ()
    | Ir.NIf { i_id; i_cond; i_then; i_else } -> (
        match P4.Eval.eval_bool env i_cond with
        | Some b ->
            decisions := (i_id, b) :: !decisions;
            exec (if b then i_then else i_else)
        | None -> raise Undecidable_walk)
    | Ir.NAssign (l, r) -> (
        match P4.Eval.path_of_expr l with
        | Some p -> Hashtbl.replace locals p (P4.Eval.eval env r)
        | None -> ())
    | Ir.NDecl (n, init) ->
        Hashtbl.replace locals [ n ]
          (match init with
          | Some e -> P4.Eval.eval env e
          | None -> P4.Eval.VUnknown)
    | Ir.NReturn -> raise Stop_walk
  in
  match exec fx.fx_ir.Ir.ir_nodes with
  | () -> Some (List.rev !decisions)
  | exception Stop_walk -> Some (List.rev !decisions)
  | exception Undecidable_walk -> None

let check_soundness fx a vals =
  let env = concrete_env fx a vals in
  (* (a) every branch predicate: concrete value ∈ abstract value, with
     the unrefined base environment (VUnknown ∈ everything). *)
  let sx_env = { Sx.e_base = fx.fx_base; e_over = [] } in
  List.iter
    (fun ((_, cond) : int * P4.Ast.expr) ->
      let cv = P4.Eval.eval env cond in
      let av = Sx.eval sx_env cond in
      if not (A.mem_value cv av) then
        QCheck.Test.fail_reportf
          "%s: concrete %s escapes abstract %s for predicate %s" fx.fx_name
          (value_str cv) (A.to_string av)
          (P4.Pretty.expr_to_string cond))
    fx.fx_ir.Ir.ir_ifs;
  (* (b) the concretely-taken path lands on a feasible symbolic leaf:
     pruning never removes a reachable completion. *)
  match concrete_decisions fx env with
  | None -> () (* an extern-driven predicate: nothing to compare *)
  | Some ds -> (
      let key = List.sort compare ds in
      match
        List.find_opt
          (fun (l : Sx.leaf) -> List.sort compare l.Sx.lf_decisions = key)
          fx.fx_sym.Sx.sx_leaves
      with
      | None ->
          QCheck.Test.fail_reportf "%s: no symbolic leaf matches the concrete path"
            fx.fx_name
      | Some l ->
          if not l.Sx.lf_feasible then
            QCheck.Test.fail_reportf
              "%s: concretely-reachable path was proved infeasible" fx.fx_name)

let test_symexec_soundness =
  QCheck.Test.make
    ~name:"symbolic execution over-approximates concrete (whole catalogue)"
    ~count:1000
    QCheck.(pair small_nat (array_of_size (Gen.return 16) int64))
    (fun (aidx, vals) ->
      List.iter
        (fun fx ->
          let a =
            List.nth fx.fx_assignments (aidx mod List.length fx.fx_assignments)
          in
          check_soundness fx a vals)
        (Lazy.force fixtures);
      true)

(* ------------------------------------------------------------------ *)
(* Evolution: Transparent / Recompile / Breaking with witnesses. *)

module Ev = Opendesc_analysis.Evolution

let load_spec name src =
  Opendesc.Nic_spec.load_exn ~name ~kind:Opendesc.Nic_spec.Fixed_function src

let test_resize_direction () =
  (* Satellite contract: only narrowing is breaking, in both views. *)
  check ab "Nic_diff: narrowing breaks" true
    (Opendesc.Nic_diff.breaking
       (Opendesc.Nic_diff.Field_resized
          { semantic = "pkt_len"; from_width = 32; to_width = 16 }));
  check ab "Nic_diff: widening does not" false
    (Opendesc.Nic_diff.breaking
       (Opendesc.Nic_diff.Field_resized
          { semantic = "pkt_len"; from_width = 16; to_width = 32 }))

let test_evolution_narrowing_breaks_with_witness () =
  let old_spec = load_spec "rev-a" newer in
  let narrowed =
    load_spec "rev-b"
      (replace ~sub:{|@semantic("pkt_len") bit<16> length;|}
         ~by:{|@semantic("pkt_len") bit<8> length;
  bit<8> pad;|} newer)
  in
  let report = Opendesc.Nic_diff.check old_spec narrowed in
  check ab "breaking" true (Ev.breaking report);
  let e =
    List.find
      (fun (e : Ev.entry) -> e.e_kind = "field_narrowed")
      report.r_entries
  in
  check ab "class" true (e.e_class = Ev.Breaking);
  (match e.e_witness with
  | Some w ->
      check ab "concrete witness selects the rss path" true
        (w.w_config = [ ("use_rss", 1L) ])
  | None -> Alcotest.fail "narrowing entry has no witness");
  (* the same edit in the widening direction is only a recompile *)
  let widened =
    load_spec "rev-c"
      (replace
         ~sub:
           {|@semantic("pkt_len")     bit<16> length;
  bit<8> status;
  bit<8> errors;|}
         ~by:{|@semantic("pkt_len")     bit<32> length;|} newer)
  in
  let report = Opendesc.Nic_diff.check old_spec widened in
  check ab "widening is not breaking" false (Ev.breaking report);
  check ab "widening needs recompile" true (Ev.worst report = Ev.Recompile)

let test_evolution_transparent_and_removed () =
  let old_spec = load_spec "rev-a" newer in
  (* vlan added to the RSS writeback: additive, old hosts unaffected. *)
  let added =
    load_spec "rev-b"
      (replace
         ~sub:{|bit<8> status;
  bit<8> errors;
}|}
         ~by:{|@semantic("vlan") bit<16> vlan;
}|}
         newer)
  in
  let r = Opendesc.Nic_diff.check old_spec added in
  check ab "additive change is transparent" true (Ev.worst r = Ev.Transparent);
  (* ip_checksum dropped from the legacy writeback: breaking, witnessed
     by the configuration that selects that path. *)
  let removed =
    load_spec "rev-b"
      (replace ~sub:{|@semantic("ip_checksum") bit<16> csum;|}
         ~by:{|bit<16> rsvd;|} newer)
  in
  let r = Opendesc.Nic_diff.check old_spec removed in
  let e =
    List.find (fun (e : Ev.entry) -> e.e_kind = "semantic_removed") r.r_entries
  in
  check ab "removal is breaking" true (e.e_class = Ev.Breaking);
  (match e.e_witness with
  | Some w -> check ab "witness is {use_rss=0}" true (w.w_config = [ ("use_rss", 0L) ])
  | None -> Alcotest.fail "removal has no witness");
  (* self-diff is empty and transparent *)
  let self = Opendesc.Nic_diff.check old_spec old_spec in
  check ai "self-diff has no entries" 0 (List.length self.r_entries);
  check ab "self-diff is transparent" true (Ev.worst self = Ev.Transparent)

let test_evolution_json_schema () =
  let old_spec = load_spec "rev-a" newer in
  let j = Ev.report_to_json (Opendesc.Nic_diff.check old_spec old_spec) in
  check ab "schema tag" true
    (j
    = {|{"schema":"opendesc-diff-1","old":"rev-a","new":"rev-a","class":"transparent","entries":[]}|})

(* ------------------------------------------------------------------ *)
(* Certified compilation (OD021–OD024): the translation validator must
   accept everything the real compiler emits and reject every seeded
   miscompilation. Same strategy as the source-level lints above —
   single mutations, exact codes — but the mutations corrupt the
   compiled plan, not the source. *)

module Cert = Opendesc_analysis.Certify

let string_contains hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec go i = i + ns <= nh && (String.sub hay i ns = sub || go (i + 1)) in
  go 0

let fig1 = Nic_models.Catalog.fig1_intent

let compile_for_certify name src =
  let spec = load_spec name src in
  let compiled = Opendesc.Compile.run_exn ~intent:fig1 spec in
  (spec, compiled)

let certificate_exn compiled =
  match Opendesc.Compile.certify compiled with
  | Ok cert -> cert
  | Error ds ->
      Alcotest.failf "pristine plan failed certification: %s"
        (String.concat "; " (List.map Dg.to_string ds))

let expect_reject code compiled plan =
  match Cert.check (Opendesc.Compile.contract compiled) plan with
  | Ok _ -> Alcotest.failf "mutated plan was certified (%s expected)" code
  | Error ds -> assert_code ~severity:Dg.Error code ds

let test_certify_pristine_plans () =
  List.iter
    (fun src ->
      let _, compiled = compile_for_certify "cert-ok" src in
      let cert = certificate_exn compiled in
      check ab "contract hash matches the spec" true
        (cert.Cert.c_contract
        = Opendesc.Compile.contract_hash compiled.Opendesc.Compile.nic);
      check ab "obligations were discharged" true (cert.Cert.c_obligations > 0);
      check ai "one certified read per field accessor"
        (List.length compiled.Opendesc.Compile.field_accessors)
        (List.length cert.Cert.c_reads);
      (* serialization round-trips *)
      match Cert.of_text (Cert.to_text cert) with
      | Ok cert' -> check ab "to_text/of_text round-trip" true (cert = cert')
      | Error e -> Alcotest.failf "of_text failed: %s" e)
    [ legacy; newer; mlx5 ]

let test_od021_wrong_shift () =
  List.iter
    (fun src ->
      let _, compiled = compile_for_certify "cert-21" src in
      let plan = Opendesc.Compile.to_plan compiled in
      expect_reject "OD021" compiled (Cert.inject Cert.Wrong_shift plan);
      expect_reject "OD021" compiled (Cert.inject Cert.Swapped_mask plan))
    [ legacy; newer; mlx5 ]

let test_od022_dropped_shim () =
  List.iter
    (fun src ->
      let _, compiled = compile_for_certify "cert-22" src in
      let plan = Opendesc.Compile.to_plan compiled in
      expect_reject "OD022" compiled (Cert.inject Cert.Dropped_shim plan))
    [ legacy; mlx5 ]

let test_od023_size_lie () =
  (* The plan claims a Size for the chosen path that no feasible
     completion of its configuration actually totals. *)
  let _, compiled = compile_for_certify "cert-23a" newer in
  let plan = Opendesc.Compile.to_plan compiled in
  expect_reject "OD023" compiled
    { plan with Cert.pl_size_bytes = plan.Cert.pl_size_bytes + 1 }

let test_od023_cross_path_confusion () =
  (* mlx5 carries "rss" on both the mini hash CQE (bits 0..32 — the
     cheap path the optimizer picks) and the full CQE (bits 64..96).
     Pointing the chosen path's rss accessor at the OTHER path's
     placement is exactly the confusion OD023 names. *)
  let _, compiled = compile_for_certify "cert-23b" mlx5 in
  let plan = Opendesc.Compile.to_plan compiled in
  let rss =
    match List.assoc_opt "rss" plan.Cert.pl_hw with
    | Some a -> a
    | None -> Alcotest.fail "mlx5 plan does not bind rss in hardware"
  in
  check ab "rss sits at bit 0 on the chosen mini-CQE path" true
    (Cert.footprint rss.Cert.ap_steps = Some (0, 32));
  (* the full CQE's read: one 4-byte load at byte 8 *)
  let confused =
    { rss with Cert.ap_steps = [ Cert.SLoad { byte = 8; bytes = 4 } ] }
  in
  let plan' =
    {
      plan with
      Cert.pl_hw =
        List.map
          (fun (s, a) -> if s = "rss" then (s, confused) else (s, a))
          plan.Cert.pl_hw;
    }
  in
  expect_reject "OD023" compiled plan'

let test_certify_off_by_one () =
  List.iter
    (fun src ->
      let _, compiled = compile_for_certify "cert-ob1" src in
      let plan = Opendesc.Compile.to_plan compiled in
      match
        Cert.check (Opendesc.Compile.contract compiled)
          (Cert.inject Cert.Off_by_one plan)
      with
      | Ok _ -> Alcotest.fail "off-by-one plan was certified"
      | Error ds ->
          check ab "OD021 or OD023 fired" true
            (has "OD021" ds || has "OD023" ds))
    [ legacy; newer; mlx5 ]

let test_od024_stale_certificate () =
  let spec_a, compiled = compile_for_certify "cert-evo" newer in
  let cert = certificate_exn compiled in
  check ab "matching hash validates" true
    (Cert.validate cert
       ~contract_hash:(Opendesc.Compile.contract_hash spec_a)
    = []);
  let ds =
    Cert.validate cert ~contract_hash:"0000feedcafe0000feedcafe00000000"
  in
  assert_code ~severity:Dg.Error "OD024" ds;
  (* The cache's view across a firmware bump: certify revision A, load a
     widened revision B under the same NIC name, and the held
     certificate must read as stale until B is re-certified. *)
  (match Opendesc.Cache.certify ~intent:fig1 spec_a with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "revision A did not certify through the cache");
  (match Opendesc.Cache.certificate_status ~intent:fig1 spec_a with
  | Opendesc.Cache.Cert_fresh _ -> ()
  | _ -> Alcotest.fail "revision A's certificate should be fresh");
  let spec_b =
    load_spec "cert-evo"
      (replace
         ~sub:
           {|@semantic("pkt_len")     bit<16> length;
  bit<8> status;
  bit<8> errors;|}
         ~by:{|@semantic("pkt_len")     bit<32> length;|} newer)
  in
  (match Opendesc.Cache.certificate_status ~intent:fig1 spec_b with
  | Opendesc.Cache.Cert_stale held ->
      check ab "stale certificate names revision A's contract" true
        (held.Cert.c_contract = Opendesc.Compile.contract_hash spec_a)
  | _ -> Alcotest.fail "revision B should see a stale certificate");
  (match Opendesc.Cache.certify ~intent:fig1 spec_b with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "revision B did not certify");
  match Opendesc.Cache.certificate_status ~intent:fig1 spec_b with
  | Opendesc.Cache.Cert_fresh _ -> ()
  | _ -> Alcotest.fail "re-certification should refresh the certificate"

let test_evolution_recompile_certificate () =
  let old_spec = load_spec "cert-diff" newer in
  let widened =
    load_spec "cert-diff"
      (replace
         ~sub:
           {|@semantic("pkt_len")     bit<16> length;
  bit<8> status;
  bit<8> errors;|}
         ~by:{|@semantic("pkt_len")     bit<32> length;|} newer)
  in
  (* plain check: no certificate evidence, r_cert stays None and the
     pinned JSON shape is untouched *)
  let plain = Opendesc.Nic_diff.check old_spec widened in
  check ab "r_cert defaults to None" true (plain.Ev.r_cert = None);
  (* certified check: the Recompile-class change demands (and gets) a
     fresh certificate for the new revision *)
  let report, result =
    Opendesc.Nic_diff.check_certified ~intent:fig1 old_spec widened
  in
  check ab "upgrade is recompile-class" true (Ev.worst report = Ev.Recompile);
  (match result with
  | Some (Ok _) -> ()
  | Some (Error _) -> Alcotest.fail "re-certification failed"
  | None -> Alcotest.fail "recompile-class change did not demand a certificate");
  (match report.Ev.r_cert with
  | Some (Ev.Cert_fresh h) ->
      check ab "certificate covers the new contract" true
        (h = Opendesc.Compile.contract_hash widened)
  | _ -> Alcotest.fail "expected a fresh recompile certificate");
  let j = Ev.report_to_json report in
  check ab "json carries the certificate verdict" true
    (string_contains j {|"recompile_certificate":{"status":"fresh"|});
  (* a self-diff has no Recompile entry: no certificate required,
     none computed *)
  let self_report, self_result =
    Opendesc.Nic_diff.check_certified ~intent:fig1 old_spec old_spec
  in
  check ab "self-diff requires no certificate" true
    (self_report.Ev.r_cert = Some Ev.Cert_not_required);
  check ab "self-diff computes no certificate" true (self_result = None)

(* QCheck: the certified range of every field accessor contains every
   value the accessor can concretely read — over the whole catalogue,
   on random descriptor bytes. This is the certificate's operational
   meaning: a host trusting [c_reads] never sees a value outside it. *)

let certify_fixtures =
  lazy
    (List.map
       (fun (m : Nic_models.Model.t) ->
         let compiled = Opendesc.Compile.run_exn ~intent:fig1 m.spec in
         (compiled, certificate_exn compiled))
       (Nic_models.Catalog.all ~intent:fig1 ()))

let test_certificate_ranges =
  QCheck.Test.make
    ~name:"certified ranges contain every concrete read (whole catalogue)"
    ~count:1000 QCheck.small_nat
    (fun seed ->
      List.iter
        (fun ((compiled : Opendesc.Compile.t), (cert : Cert.certificate)) ->
          let size = Opendesc.Path.size (Opendesc.Compile.path compiled) in
          let rng =
            Packet.Rng.create
              (Int64.add 0x9e3779b97f4a7c15L (Int64.of_int seed))
          in
          let buf = Packet.Rng.bytes rng (max size 1) in
          List.iteri
            (fun i (a : Opendesc.Accessor.t) ->
              let rname, (lo, hi) = List.nth cert.Cert.c_reads i in
              if rname <> a.a_header ^ "." ^ a.a_name then
                QCheck.Test.fail_reportf
                  "%s: certified read #%d is %s, accessor is %s.%s"
                  cert.Cert.c_nic i rname a.a_header a.a_name;
              let v = a.Opendesc.Accessor.a_get buf in
              if
                Int64.unsigned_compare v lo < 0
                || Int64.unsigned_compare v hi > 0
              then
                QCheck.Test.fail_reportf
                  "%s: %s read 0x%Lx outside certified [0x%Lx, 0x%Lx]"
                  cert.Cert.c_nic rname v lo hi)
            compiled.Opendesc.Compile.field_accessors)
        (Lazy.force certify_fixtures);
      true)

(* ------------------------------------------------------------------ *)
(* Static cost bounds (OD025–OD028): seeded drills on the e1000 and
   mlx5 catalogue plans, exact codes — the same single-mutation
   strategy as the certification tests, but the drills corrupt the
   cost story (budget, baseline, path economics, bit-walks) rather
   than the decode semantics. *)

module Cb = Opendesc_analysis.Costbound

let drill_report m src =
  let _, compiled = compile_for_certify "cost-drill" src in
  let drill = Cb.inject m (Opendesc.Compile.to_plan compiled) in
  Cb.analyze ?budget:drill.Cb.dr_budget ?baseline:drill.Cb.dr_baseline
    (Opendesc.Compile.contract compiled) drill.Cb.dr_plan

let test_od025_over_budget () =
  List.iter
    (fun src ->
      let r = drill_report Cb.Over_budget src in
      assert_code ~severity:Dg.Error "OD025" r.Cb.r_diags)
    [ legacy; newer; mlx5 ]

let test_od026_cost_regression () =
  List.iter
    (fun src ->
      let r = drill_report Cb.Cost_regression src in
      assert_code ~severity:Dg.Warning "OD026" r.Cb.r_diags)
    [ legacy; newer; mlx5 ]

let test_od027_dominated_config () =
  (* Needs a multi-path NIC: demoting every hardware read to an
     expensive shim leaves some other feasible path serving the same
     intent cheaper. e1000-legacy is single-path, so the drill has no
     site there — newer and mlx5 are the fixtures. *)
  List.iter
    (fun src ->
      let r = drill_report Cb.Dominated_config src in
      assert_code ~severity:Dg.Info "OD027" r.Cb.r_diags)
    [ newer; mlx5 ]

let test_od028_unbounded_walk () =
  List.iter
    (fun src ->
      let r = drill_report Cb.Unbounded_walk src in
      assert_code ~severity:Dg.Error "OD028" r.Cb.r_diags)
    [ legacy; newer; mlx5 ]

(* The converse: pristine catalogue plans are cost-clean — the bound is
   finite and positive, and no Error- or Warning-severity cost
   diagnostic fires without a drill. (Info-severity OD027 is legitimate
   on multi-path NICs whose idealized cheapest path differs from the
   Eq. 1 deployment, which also weighs descriptor bytes.) *)
let test_costbound_pristine_plans () =
  List.iter
    (fun src ->
      let _, compiled = compile_for_certify "cost-ok" src in
      let r =
        Cb.analyze (Opendesc.Compile.contract compiled)
          (Opendesc.Compile.to_plan compiled)
      in
      check ab "bound is positive" true (r.Cb.r_cost.Cb.co_bound > 0.0);
      check ab "no error/warning cost diagnostics" true
        (List.for_all
           (fun (d : Dg.t) -> d.d_severity = Dg.Info)
           r.Cb.r_diags);
      (* the worst feasible path is the deployed one's bound *)
      check ab "bound covers every serving path" true
        (List.for_all
           (fun (p : Cb.path_cost) ->
             p.Cb.pc_index <> r.Cb.r_cost.Cb.co_path_index
             || p.Cb.pc_bound = r.Cb.r_cost.Cb.co_bound)
           r.Cb.r_paths))
    [ legacy; newer; mlx5 ]

(* A TX semantic has no RX shim. The per-path pricing must read it as
   Eq. 1 does ([Softnic.Semantic.rx_cost]): a path missing [buf_addr]
   cannot serve an intent that names it, whatever its row's w(s). *)
let test_costbound_tx_semantic_not_served () =
  let _, compiled = compile_for_certify "tx-priced" newer in
  let plan = Opendesc.Compile.to_plan compiled in
  let plan = { plan with Cert.pl_intent = plan.Cert.pl_intent @ [ ("buf_addr", 64) ] } in
  let r = Cb.analyze (Opendesc.Compile.contract compiled) plan in
  check ai "one entry per feasible path" 2 (List.length r.Cb.r_paths);
  List.iter
    (fun (pc : Cb.path_cost) ->
      check ab (Printf.sprintf "path #%d does not serve" pc.Cb.pc_index) false pc.Cb.pc_serves;
      check ab (Printf.sprintf "path #%d shims no TX semantic" pc.Cb.pc_index) false
        (List.mem "buf_addr" pc.Cb.pc_shimmed))
    r.Cb.r_paths

(* Two emit sites of one header (mode 0 and modes 2-3) are one compiler
   path. Lint and the cost report must number paths as the compiler
   does: no OD013 between the two sites, and one cost entry per path. *)
let dup_sites_source =
  {|
header ctx_t { bit<2> mode; }
header h_t { @semantic("rss") bit<32> hash; }
header l_t { @semantic("pkt_len") bit<16> len; bit<16> rsvd; }
struct meta_t { h_t h; l_t l; }
control Dep(cmpt_out o, in ctx_t ctx, in meta_t m) {
  apply {
    if (ctx.mode == 0) { o.emit(m.h); }
    else { if (ctx.mode == 1) { o.emit(m.l); } else { o.emit(m.h); } }
  }
}
|}

let test_one_path_numbering () =
  let spec = load_spec "dup_sites" dup_sites_source in
  check ai "two compiler paths" 2 (List.length spec.paths);
  check ab "no OD013" false (has "OD013" (Opendesc.Nic_spec.analyze spec));
  let compiled =
    Opendesc.Compile.run_exn ~intent:(Opendesc.Intent.make [ ("rss", 32) ]) spec
  in
  let r =
    Cb.analyze (Opendesc.Compile.contract compiled)
      (Opendesc.Compile.to_plan compiled)
  in
  check
    Alcotest.(list (pair int int))
    "one cost entry per path, same index and size"
    (List.map (fun (p : Opendesc.Path.t) -> (p.p_index, Opendesc.Path.size p)) spec.paths)
    (List.map (fun (pc : Cb.path_cost) -> (pc.pc_index, pc.pc_size_bytes)) r.r_paths)

(* Certification and the cost bound read the catalogue the spec was
   loaded with; they build none of their own. *)
let test_contract_shares_catalogue () =
  let spec, compiled = compile_for_certify "shared" newer in
  check ab "contract catalogue is the spec's" true
    ((Opendesc.Compile.contract compiled).cf_catalogue == spec.catalogue)

(* ------------------------------------------------------------------ *)
(* Diagnostic plumbing. *)

let test_diagnostic_ordering_and_render () =
  let d1 = Dg.make ~code:"OD010" ~severity:Dg.Warning "later" in
  let span : P4.Loc.span =
    {
      left = { line = 3; col = 5; off = 10 };
      right = { line = 3; col = 9; off = 14 };
    }
  in
  let d2 = Dg.make ~span ~code:"OD003" ~severity:Dg.Error "first" in
  (match List.sort Dg.compare [ d1; d2 ] with
  | [ a; b ] ->
      check ab "located sorts before unlocated" true
        (a.d_code = "OD003" && b.d_code = "OD010")
  | _ -> assert false);
  check ab "render" true (Dg.to_string d2 = "3:5: error[OD003]: first")

let test_diagnostic_json () =
  let d = Dg.make ~code:"OD010" ~severity:Dg.Warning "has \"quotes\"" in
  check ab "json escapes" true
    (Dg.to_json d
    = {|{"code":"OD010","severity":"warning","message":"has \"quotes\"","notes":[]}|})

let () =
  Alcotest.run "analysis"
    [
      ( "broken sources",
        [
          Alcotest.test_case "OD001 parse error" `Quick test_od001_parse_error;
          Alcotest.test_case "OD001 lexer error" `Quick test_od001_lex_error;
          Alcotest.test_case "OD001 type error" `Quick test_od001_type_error;
          Alcotest.test_case "OD002 no deparser" `Quick test_od002_no_deparser;
          Alcotest.test_case "OD002 unbounded context" `Quick
            test_od002_unbounded_context;
        ] );
      ( "layout safety",
        [
          Alcotest.test_case "OD003 non-byte-aligned" `Quick
            test_od003_non_byte_aligned_path;
          Alcotest.test_case "OD004 slot overflow" `Quick
            test_od004_exceeds_completion_slot;
          Alcotest.test_case "OD005 double emit" `Quick
            test_od005_header_emitted_twice;
          Alcotest.test_case "OD006 duplicate semantic" `Quick
            test_od006_semantic_carried_twice;
        ] );
      ( "path feasibility",
        [
          Alcotest.test_case "OD007/OD008 infeasible branch" `Quick
            test_od007_od008_infeasible_branch;
          Alcotest.test_case "OD009 inert context field" `Quick
            test_od009_inert_context_field;
          Alcotest.test_case "no OD008 on feasible dispatch" `Quick
            test_od008_not_raised_on_exhaustive_chain;
        ] );
      ( "contract consistency",
        [
          Alcotest.test_case "OD010 unknown semantic" `Quick
            test_od010_unknown_semantic;
          Alcotest.test_case "OD011 truncating width" `Quick
            test_od011_narrower_than_registry;
          Alcotest.test_case "OD011 padding width is info" `Quick
            test_od011_wider_is_info;
          Alcotest.test_case "OD012 unreachable semantics" `Quick
            test_od012_unreachable_semantics;
          Alcotest.test_case "OD013 dominated (tie)" `Quick
            test_od013_dominated_equal_size;
          Alcotest.test_case "OD013 dominated (larger)" `Quick
            test_od013_dominated_larger;
          Alcotest.test_case "OD014 no buf_addr" `Quick
            test_od014_tx_without_buf_addr;
          Alcotest.test_case "OD015 hw-only unprovided" `Quick
            test_od015_hardware_only_unprovided;
          Alcotest.test_case "OD015 custom registry hw-only" `Quick
            test_od015_custom_registry_hardware_only;
        ] );
      ( "codegen verification",
        [
          Alcotest.test_case "OD016 out of bounds" `Quick
            test_od016_accessor_out_of_bounds;
          Alcotest.test_case "OD017 oversized field" `Quick
            test_od017_oversized_semantic_field;
        ] );
      ( "pristine",
        [
          Alcotest.test_case "catalogue is clean" `Quick
            test_pristine_catalog_is_clean;
          Alcotest.test_case "intent sources lint" `Quick
            test_intent_source_lints_without_deparser;
          Alcotest.test_case "paths match compiler" `Quick
            test_engine_paths_match_compiler;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "OD018 vacuous runtime guard" `Quick
            test_od018_vacuous_runtime_guard;
          Alcotest.test_case "OD019 genuinely runtime branch" `Quick
            test_od019_genuinely_runtime_branch;
          Alcotest.test_case "OD020 uncertifiable accessor" `Quick
            test_od020_uncertifiable_accessor;
          QCheck_alcotest.to_alcotest test_symexec_soundness;
        ] );
      ( "evolution",
        [
          Alcotest.test_case "resize direction" `Quick test_resize_direction;
          Alcotest.test_case "narrowing breaks with witness" `Quick
            test_evolution_narrowing_breaks_with_witness;
          Alcotest.test_case "transparent and removed" `Quick
            test_evolution_transparent_and_removed;
          Alcotest.test_case "json schema" `Quick test_evolution_json_schema;
        ] );
      ( "certification",
        [
          Alcotest.test_case "pristine plans certify" `Quick
            test_certify_pristine_plans;
          Alcotest.test_case "OD021 wrong shift / swapped mask" `Quick
            test_od021_wrong_shift;
          Alcotest.test_case "OD022 dropped shim" `Quick
            test_od022_dropped_shim;
          Alcotest.test_case "OD023 size lie" `Quick test_od023_size_lie;
          Alcotest.test_case "OD023 cross-path confusion" `Quick
            test_od023_cross_path_confusion;
          Alcotest.test_case "off-by-one offset rejected" `Quick
            test_certify_off_by_one;
          Alcotest.test_case "OD024 stale certificate" `Quick
            test_od024_stale_certificate;
          Alcotest.test_case "evolution demands certificate" `Quick
            test_evolution_recompile_certificate;
          Alcotest.test_case "contract shares the spec's catalogue" `Quick
            test_contract_shares_catalogue;
          QCheck_alcotest.to_alcotest test_certificate_ranges;
        ] );
      ( "cost bounds",
        [
          Alcotest.test_case "pristine plans are cost-clean" `Quick
            test_costbound_pristine_plans;
          Alcotest.test_case "a TX semantic is not served" `Quick
            test_costbound_tx_semantic_not_served;
          Alcotest.test_case "paths numbered like the compiler" `Quick
            test_one_path_numbering;
          Alcotest.test_case "OD025 over budget" `Quick test_od025_over_budget;
          Alcotest.test_case "OD026 cost regression" `Quick
            test_od026_cost_regression;
          Alcotest.test_case "OD027 dominated config" `Quick
            test_od027_dominated_config;
          Alcotest.test_case "OD028 unbounded walk" `Quick
            test_od028_unbounded_walk;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "ordering and render" `Quick
            test_diagnostic_ordering_and_render;
          Alcotest.test_case "json" `Quick test_diagnostic_json;
        ] );
    ]
