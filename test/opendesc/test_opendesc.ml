(* Tests for the OpenDesc compiler core: context enumeration, CFG
   extraction (Figure 6), completion-path enumeration, the Eq. 1
   optimizer, intents, accessors, code generation, and the compile
   driver. *)

open Opendesc

let check = Alcotest.check
let ai = Alcotest.int
let ai64 = Alcotest.int64
let ab = Alcotest.bool
let astr = Alcotest.string
let asl = Alcotest.(list string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The Figure 6 NIC description, shared by many tests. *)
let e1000_src =
  {|
header e1000_ctx_t { bit<1> use_rss; }
header tx_desc_t { @semantic("buf_addr") bit<64> addr; bit<16> len; bit<16> flags; }
header rss_cmpt_t {
  @semantic("rss") bit<32> hash;
  @semantic("pkt_len") bit<16> length;
  bit<16> status;
}
header csum_cmpt_t {
  @semantic("ip_id") bit<16> ip_id;
  @semantic("ip_checksum") bit<16> csum;
  @semantic("pkt_len") bit<16> length;
  bit<16> status;
}
struct meta_t { rss_cmpt_t rss; csum_cmpt_t legacy; }

parser DP(desc_in d, in e1000_ctx_t h2c_ctx, out tx_desc_t desc_hdr) {
  state start { d.extract(desc_hdr); transition accept; }
}

@cmpt_deparser
control CD(cmpt_out o, in e1000_ctx_t ctx, in tx_desc_t d, in meta_t m) {
  apply {
    if (ctx.use_rss == 1) { o.emit(m.rss); } else { o.emit(m.legacy); }
  }
}
|}

let e1000 () =
  Nic_spec.load_exn ~name:"e1000" ~kind:Nic_spec.Fixed_function e1000_src

(* ------------------------------------------------------------------ *)
(* Prelude / loading *)

let test_prelude_checks () =
  match Prelude.check_result "header h_t { bit<8> v; }" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prelude check failed: %s" e

let test_prelude_reports_errors () =
  match Prelude.check_result "header h_t { unknown_t v; }" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> check ab "mentions unknown" true (contains e "unknown")

let test_prelude_errors_in_user_lines () =
  (match Prelude.check_result "header h_t {\n  bit<8> a\n}\n" with
  | Ok _ -> Alcotest.fail "expected a syntax error"
  | Error e ->
      check astr "rendered against the user's source"
        "line 3, column 0: expected ';', found RBrace\n  }\n  ^" e);
  (* The width expression is a literal, so the error has no position; it
     must not print one computed from the prelude offset. *)
  match Prelude.check_result "header h_t {\n  bit<(0-8)> a;\n}\n" with
  | Ok _ -> Alcotest.fail "expected a type error"
  | Error e -> check astr "no line" "type error: invalid width -8" e

let test_load_finds_annotated_deparser () =
  let nic = e1000 () in
  check astr "deparser" "CD" nic.deparser.ct_name

let test_load_rejects_no_deparser () =
  match Nic_spec.load ~name:"x" ~kind:Nic_spec.Fixed_function "header h_t { bit<8> v; }" with
  | Error e -> check ab "no deparser" true (contains e "deparser")
  | Ok _ -> Alcotest.fail "expected failure"

let test_load_finds_desc_parser () =
  let nic = e1000 () in
  check ab "tx parser found" true (nic.desc_parser <> None);
  check ai "tx formats" 1 (List.length nic.tx_formats)

(* ------------------------------------------------------------------ *)
(* Context *)

let ctx_header fields =
  let src =
    Printf.sprintf "header ctx_t { %s }"
      (String.concat " " fields)
  in
  let tenv = Prelude.check (src ^ e1000_src) in
  Option.get (P4.Typecheck.find_header tenv "ctx_t")

let test_context_enumerate_bits () =
  match Opendesc_analysis.Context.enumerate (ctx_header [ "bit<1> a;"; "bit<2> b;" ]) with
  | Ok assignments -> check ai "2 * 4" 8 (List.length assignments)
  | Error e -> Alcotest.fail e

let test_context_values_annotation () =
  match
    Opendesc_analysis.Context.enumerate
      (ctx_header [ "@values(0, 3, 7) bit<8> fmt;" ])
  with
  | Ok assignments ->
      check ai "three values" 3 (List.length assignments);
      check ab "values respected" true
        (List.for_all
           (fun a -> match a with [ ("fmt", v) ] -> List.mem v [ 0L; 3L; 7L ] | _ -> false)
           assignments)
  | Error e -> Alcotest.fail e

let test_context_wide_field_needs_values () =
  match Opendesc_analysis.Context.enumerate (ctx_header [ "bit<8> fmt;" ]) with
  | Error e -> check ab "mentions @values" true (contains e "@values")
  | Ok _ -> Alcotest.fail "expected an error"

let test_context_empty_header () =
  match Opendesc_analysis.Context.enumerate (ctx_header []) with
  | Ok [ [] ] -> ()
  | Ok _ -> Alcotest.fail "expected single empty assignment"
  | Error e -> Alcotest.fail e

let test_context_env_lookup () =
  let env = Opendesc_analysis.Context.env_of ~param_name:"ctx" [ ("flag", 1L) ] in
  check ab "hit" true (env [ "ctx"; "flag" ] = Some (P4.Eval.vint 1L));
  check ab "miss other param" true (env [ "other"; "flag" ] = None);
  check ab "miss other field" true (env [ "ctx"; "nope" ] = None)

let test_context_find_param_by_annotation () =
  let src =
    {|
header cfg_t { bit<1> x; }
header h_t { @semantic("rss") bit<32> v; }
control C(cmpt_out o, @context in cfg_t queue_cfg, in h_t m) {
  apply { o.emit(m); }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  match Opendesc_analysis.Context.find_param c with
  | Some (p, h) ->
      check astr "param" "queue_cfg" p.c_name;
      check astr "header" "cfg_t" h.h_name
  | None -> Alcotest.fail "annotated context not found"

(* ------------------------------------------------------------------ *)
(* CFG (Figure 6) *)

let test_cfg_fig6_structure () =
  let nic = e1000 () in
  let cfg = Nic_spec.cfg nic in
  check ai "two emit vertices" 2 (List.length cfg.vertices);
  check ai "two root edges" 2 (List.length cfg.edges);
  check ab "all from root" true (List.for_all (fun (e : Cfg.edge) -> e.e_src = Cfg.root) cfg.edges);
  let labels = List.map (fun (e : Cfg.edge) -> e.e_label) cfg.edges in
  check ab "then label" true (List.exists (fun l -> contains l "use_rss") labels);
  check ab "else label negated" true (List.exists (fun l -> l.[0] = '!') labels)

let test_cfg_vertex_properties () =
  let nic = e1000 () in
  let cfg = Nic_spec.cfg nic in
  let rss_v =
    List.find (fun (v : Cfg.vertex) -> List.mem "rss" v.v_sem) cfg.vertices
  in
  check ai "size(v) bytes" 8 rss_v.v_size;
  check asl "sem(v)" [ "rss"; "pkt_len" ] rss_v.v_sem

let test_cfg_walks () =
  let nic = e1000 () in
  let walks = Cfg.walks (Nic_spec.cfg nic) in
  check ai "two completion walks" 2 (List.length walks)

let test_cfg_sequential_emits_chain () =
  let src =
    {|
header a_t { @semantic("rss") bit<32> v; }
header b_t { @semantic("vlan") bit<16> v; bit<16> pad; }
control C(cmpt_out o, in a_t a, in b_t b) {
  apply { o.emit(a); o.emit(b); }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  let cfg = Cfg.build tenv c in
  check ai "two vertices" 2 (List.length cfg.vertices);
  (* a -> b chain, root -> a *)
  check ab "chained" true
    (List.exists (fun (e : Cfg.edge) -> e.e_src = 0 && e.e_dst = 1) cfg.edges);
  check ai "one leaf" 1 (List.length cfg.leaves)

let test_cfg_walk_termination_labels () =
  (* emit A; if (c) emit B; -> the short walk must carry the negated
     predicate, the long one the positive. *)
  let src =
    {|
header ctx2_t { bit<1> c; }
header a_t { @semantic("rss") bit<32> v; }
header b_t { @semantic("vlan") bit<16> v; bit<16> pad; }
struct m2_t { a_t a; b_t b; }
control C(cmpt_out o, in ctx2_t ctx, in m2_t m) {
  apply { o.emit(m.a); if (ctx.c == 1) { o.emit(m.b); } }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  let walks = Cfg.walks (Cfg.build tenv c) in
  check ai "two walks" 2 (List.length walks);
  let short = List.find (fun (_, vs) -> List.length vs = 1) walks in
  let long = List.find (fun (_, vs) -> List.length vs = 2) walks in
  check (Alcotest.list astr) "short carries negation" [ "!(ctx.c == 1)" ] (fst short);
  check (Alcotest.list astr) "long carries predicate" [ "(ctx.c == 1)" ] (fst long)

let test_cfg_dot_output () =
  let nic = e1000 () in
  let dot = Cfg.to_dot (Nic_spec.cfg nic) in
  check ab "digraph" true (contains dot "digraph");
  check ab "has labels" true (contains dot "use_rss")

(* ------------------------------------------------------------------ *)
(* Path enumeration *)

(* A control's completion paths: the view of its catalogue that
   [Nic_spec.load] keeps. *)
let paths_of tenv c =
  Result.bind (Opendesc_analysis.Engine.catalogue tenv c) Path.of_catalogue

let test_paths_e1000 () =
  let nic = e1000 () in
  check ai "two paths" 2 (List.length nic.paths);
  let by_prov sem = List.find (fun p -> Path.provides p sem) nic.paths in
  let rss_path = by_prov "rss" and csum_path = by_prov "ip_checksum" in
  check ai "rss path 8B" 8 (Path.size rss_path);
  check ai "csum path 8B" 8 (Path.size csum_path);
  check asl "rss prov" [ "pkt_len"; "rss" ] rss_path.p_prov;
  check asl "csum prov" [ "ip_checksum"; "ip_id"; "pkt_len" ] csum_path.p_prov

let test_paths_assignments_recorded () =
  let nic = e1000 () in
  List.iter
    (fun (p : Path.t) ->
      check ai "one config each" 1 (List.length p.p_assignments);
      match (Path.provides p "rss", p.p_assignments) with
      | true, [ [ ("use_rss", v) ] ] -> check ai64 "rss config" 1L v
      | false, [ [ ("use_rss", v) ] ] -> check ai64 "legacy config" 0L v
      | _ -> Alcotest.fail "unexpected assignment shape")
    nic.paths

let test_paths_layout_offsets () =
  let nic = e1000 () in
  let p = List.find (fun p -> Path.provides p "ip_checksum") nic.paths in
  let f = Option.get (Path.field_for p "ip_checksum") in
  check ai "csum at bit 16" 16 f.l_bit_off;
  check ai "csum width" 16 f.l_bits

let test_paths_grouping_merges_configs () =
  (* Two context values produce the same emit sequence -> one path with
     two assignments. *)
  let src =
    {|
header ctx_t { bit<1> a; bit<1> b; }
header h_t { @semantic("rss") bit<32> v; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) {
  apply {
    if (ctx.a == 1) { o.emit(m); } else { o.emit(m); }
  }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  match paths_of tenv c with
  | Ok [ p ] -> check ai "all four configs" 4 (List.length p.p_assignments)
  | Ok ps -> Alcotest.failf "expected one path, got %d" (List.length ps)
  | Error e -> Alcotest.fail e

let test_paths_sequential_emits_concatenate () =
  let src =
    {|
header ctx_t { bit<1> extra; }
header base_t { @semantic("rss") bit<32> v; }
header ext_t { @semantic("vlan") bit<16> v; bit<16> pad; }
struct m_t { base_t base; ext_t ext; }
control C(cmpt_out o, in ctx_t ctx, in m_t m) {
  apply {
    o.emit(m.base);
    if (ctx.extra == 1) { o.emit(m.ext); }
  }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  match paths_of tenv c with
  | Ok paths ->
      check ai "two paths" 2 (List.length paths);
      let big = List.find (fun p -> Path.provides p "vlan") paths in
      check ai "8 bytes" 8 (Path.size big);
      let vlan = Option.get (Path.field_for big "vlan") in
      check ai "vlan offset after base" 32 vlan.l_bit_off
  | Error e -> Alcotest.fail e

let test_paths_data_dependent_branch_rejected () =
  let src =
    {|
header ctx_t { bit<1> c; }
header h_t { @semantic("rss") bit<32> v; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) {
  apply { if (m.v == 0) { o.emit(m); } }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  match paths_of tenv c with
  | Error e -> check ab "mentions decidable" true (contains e "decidable")
  | Ok _ -> Alcotest.fail "expected rejection"

let test_paths_local_derived_conditions () =
  (* Conditions over locals computed from the context are fine. *)
  let src =
    {|
header ctx_t { bit<2> fmt; }
header h_t { @semantic("rss") bit<32> v; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) {
  apply {
    bit<2> mode = ctx.fmt & 1;
    if (mode == 1) { o.emit(m); }
  }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  match paths_of tenv c with
  | Ok paths -> check ai "empty + rss paths" 2 (List.length paths)
  | Error e -> Alcotest.fail e

let test_paths_empty_completion_allowed () =
  let src =
    {|
header ctx_t { bit<1> en; }
header h_t { @semantic("rss") bit<32> v; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) {
  apply { if (ctx.en == 1) { o.emit(m); } }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  match paths_of tenv c with
  | Ok paths ->
      let empty = List.find (fun p -> p.Path.p_emits = []) paths in
      check ai "zero bytes" 0 (Path.size empty)
  | Error e -> Alcotest.fail e

(* [Nic_spec.load] refuses a description whose completion paths are not
   well defined: too many configurations to enumerate, a completion that
   is not whole bytes, or an emit of something that is not a header. *)
let load_error src =
  match Nic_spec.load ~name:"bad" ~kind:Nic_spec.Fixed_function src with
  | Ok _ -> Alcotest.fail "expected load to fail"
  | Error e -> e

let test_load_rejects_context_over_cap () =
  let fields = List.init 11 (Printf.sprintf "bit<1> k%d;") in
  let e =
    load_error
      (Printf.sprintf
         {|
header ctx_t { %s }
header h_t { @semantic("rss") bit<32> v; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) {
  apply { if (ctx.k0 == 1) { o.emit(m); } }
}
|}
         (String.concat " " fields))
  in
  check ab "names the configuration count" true (contains e "2048 configurations")

let test_load_rejects_unaligned_completion () =
  let e =
    load_error
      {|
header ctx_t { bit<1> en; }
header h_t { @semantic("pkt_len") bit<12> len; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) {
  apply { if (ctx.en == 1) { o.emit(m); } }
}
|}
  in
  check ab "mentions byte alignment" true (contains e "byte-aligned")

let test_load_rejects_non_header_emit () =
  let e =
    load_error
      {|
header ctx_t { bit<1> en; }
header h_t { @semantic("rss") bit<32> v; }
struct m_t { h_t h; bit<8> flags; }
control C(cmpt_out o, in ctx_t ctx, in m_t m) {
  apply { o.emit(m.h); if (ctx.en == 1) { o.emit(m.flags); } }
}
|}
  in
  check ab "mentions the non-header" true (contains e "non-header m.flags")

(* ------------------------------------------------------------------ *)
(* Descriptor parser (TX) *)

let test_descparser_single_format () =
  let nic = e1000 () in
  match nic.tx_formats with
  | [ f ] ->
      check ai "16 bytes" 12 (Descparser.size f);
      check ab "buf_addr present" true (Descparser.field_for f "buf_addr" <> None)
  | _ -> Alcotest.fail "expected one format"

let test_descparser_select_formats () =
  let src =
    {|
header ctx_t { bit<1> big; }
header small_t { @semantic("buf_addr") bit<64> addr; }
header big_t { @semantic("buf_addr") bit<64> addr; @semantic("tx_flags") bit<32> flags; bit<32> pad; }
struct d_t { small_t s; big_t b; }
parser P(desc_in d, in ctx_t h2c_ctx, out d_t out_d) {
  state start {
    transition select(h2c_ctx.big) {
      0: small;
      1: big;
    }
  }
  state small { d.extract(out_d.s); transition accept; }
  state big { d.extract(out_d.b); transition accept; }
}
control C(cmpt_out o, in ctx_t ctx, in small_t m) { apply { o.emit(m); } }
|}
  in
  let tenv = Prelude.check src in
  let pd = Option.get (P4.Typecheck.find_parser tenv "P") in
  match Descparser.enumerate tenv pd with
  | Ok formats ->
      check ai "two formats" 2 (List.length formats);
      let sizes = List.sort compare (List.map Descparser.size formats) in
      check (Alcotest.list ai) "sizes" [ 8; 16 ] sizes
  | Error e -> Alcotest.fail e

let test_descparser_cycle_rejected () =
  let src =
    {|
header h_t { bit<8> v; }
parser P(desc_in d, out h_t out_d) {
  state start { transition loop; }
  state loop { transition start; }
}
control C(cmpt_out o, in h_t m) { apply { o.emit(m); } }
|}
  in
  let tenv = Prelude.check src in
  let pd = Option.get (P4.Typecheck.find_parser tenv "P") in
  match Descparser.enumerate tenv pd with
  | Error e -> check ab "cycle" true (contains e "cycle")
  | Ok _ -> Alcotest.fail "expected cycle error"

(* ------------------------------------------------------------------ *)
(* Lint *)

let test_lint_clean_description () =
  check (Alcotest.list Alcotest.string) "no warnings" [] (Nic_spec.lint (e1000 ()))

let test_lint_unknown_semantic () =
  let src =
    {|
header ctx_t { bit<1> x; }
header h_t { @semantic("rsss") bit<32> v; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) { apply { o.emit(m); } }
|}
  in
  let spec = Nic_spec.load_exn ~name:"typo" ~kind:Nic_spec.Fixed_function src in
  match Nic_spec.lint spec with
  | [ w ] -> check ab "names the typo" true (contains w "rsss")
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws)

let test_lint_duplicate_semantic_in_path () =
  let src =
    {|
header ctx_t { bit<1> x; }
header h_t { @semantic("rss") bit<32> a; @semantic("rss") bit<32> b; }
control C(cmpt_out o, in ctx_t ctx, in h_t m) { apply { o.emit(m); } }
|}
  in
  let spec = Nic_spec.load_exn ~name:"dup" ~kind:Nic_spec.Fixed_function src in
  check ab "duplicate flagged" true
    (List.exists (fun w -> contains w "twice") (Nic_spec.lint spec))

let test_lint_dominated_path () =
  let src =
    {|
header ctx_t { bit<1> big; }
header small_t { @semantic("rss") bit<32> v; }
header big_t { @semantic("rss") bit<32> v; bit<32> pad; }
struct m_t { small_t s; big_t b; }
control C(cmpt_out o, in ctx_t ctx, in m_t m) {
  apply { if (ctx.big == 1) { o.emit(m.b); } else { o.emit(m.s); } }
}
|}
  in
  let spec = Nic_spec.load_exn ~name:"dom" ~kind:Nic_spec.Fixed_function src in
  check ab "dominated flagged" true
    (List.exists (fun w -> contains w "never be selected") (Nic_spec.lint spec))

let test_lint_tx_without_buf_addr () =
  let src =
    {|
header ctx_t { bit<1> x; }
header d_t { bit<64> not_an_address; }
header h_t { @semantic("rss") bit<32> v; }
parser P(desc_in d, in ctx_t h2c, out d_t out_d) {
  state start { d.extract(out_d); transition accept; }
}
control C(cmpt_out o, in ctx_t ctx, in h_t m) { apply { o.emit(m); } }
|}
  in
  let spec = Nic_spec.load_exn ~name:"noaddr" ~kind:Nic_spec.Fixed_function src in
  check ab "missing buf_addr flagged" true
    (List.exists (fun w -> contains w "buf_addr") (Nic_spec.lint spec))

(* ------------------------------------------------------------------ *)
(* Semantic registry *)

let test_semantic_default_costs () =
  let r = Semantic.default () in
  check ab "rss cheaper than csum (Fig. 6 premise)" true
    (Semantic.cost r "rss" < Semantic.cost r "ip_checksum");
  check ab "hardware-only infinite" true (Semantic.cost r "wire_timestamp" = infinity);
  check ab "unknown infinite" true (Semantic.cost r "made_up" = infinity)

let test_semantic_register_custom () =
  let r = Semantic.default () in
  Semantic.register r { name = "my_feature"; width_bits = 16; sw_cost = 42.0; descr = "" };
  check (Alcotest.float 0.01) "cost" 42.0 (Semantic.cost r "my_feature");
  check (Alcotest.option ai) "width" (Some 16) (Semantic.width r "my_feature")

(* ------------------------------------------------------------------ *)
(* Intent *)

let test_intent_of_source_annotation () =
  let src =
    {|
@intent
header wants_t {
  @semantic("rss") bit<32> h;
  bit<32> scratch;
  @semantic("vlan") bit<16> v;
}
|}
  in
  match Intent.of_source src with
  | Ok intent ->
      check asl "required, scratch skipped" [ "rss"; "vlan" ] (Intent.required intent)
  | Error e -> Alcotest.fail e

let test_intent_by_name_fallback () =
  match Intent.of_source "header my_intent_t { @semantic(\"rss\") bit<32> h; }" with
  | Ok intent -> check astr "found by name" "my_intent_t" intent.name
  | Error e -> Alcotest.fail e

let test_intent_missing_is_error () =
  match Intent.of_source "header plain_t { bit<8> v; }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_intent_custom_semantics_cost () =
  let src =
    {|
@intent
header wants_t {
  @semantic("frob_index") @cost(77) bit<32> fi;
}
|}
  in
  let tenv = Prelude.check src in
  let h = Option.get (P4.Typecheck.find_header tenv "wants_t") in
  let r = Semantic.default () in
  (match Intent.register_custom_semantics r h with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check (Alcotest.float 0.01) "registered cost" 77.0 (Semantic.cost r "frob_index")

let test_intent_custom_semantics_requires_cost () =
  let src = {| @intent header wants_t { @semantic("mystery") bit<8> m; } |} in
  let tenv = Prelude.check src in
  let h = Option.get (P4.Typecheck.find_header tenv "wants_t") in
  match Intent.register_custom_semantics (Semantic.default ()) h with
  | Error e -> check ab "mentions @cost" true (contains e "@cost")
  | Ok () -> Alcotest.fail "expected error"

let test_intent_to_p4_roundtrip () =
  let intent = Intent.make [ ("rss", 32); ("vlan", 16) ] in
  match Intent.of_source (Intent.to_p4 intent) with
  | Ok intent2 -> check asl "roundtrip" (Intent.required intent) (Intent.required intent2)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Selection (Eq. 1) *)

let registry () = Semantic.default ()

let test_select_fig6_preference () =
  (* Req = {rss, ip_checksum}: pick the csum path; software rss is
     cheaper than software checksum. *)
  let nic = e1000 () in
  let intent = Intent.make [ ("rss", 32); ("ip_checksum", 16) ] in
  match Select.choose (registry ()) intent nic.paths with
  | Ok outcome ->
      check ab "csum path chosen" true (Path.provides outcome.chosen.s_path "ip_checksum");
      check asl "rss missing" [ "rss" ] outcome.chosen.s_missing
  | Error e -> Alcotest.fail (Select.error_to_string e)

let test_select_single_semantics () =
  let nic = e1000 () in
  let pick sem =
    match Select.choose (registry ()) (Intent.make [ (sem, 32) ]) nic.paths with
    | Ok o -> o.chosen.s_path
    | Error e -> Alcotest.fail (Select.error_to_string e)
  in
  check ab "rss -> rss path" true (Path.provides (pick "rss") "rss");
  check ab "csum -> csum path" true (Path.provides (pick "ip_checksum") "ip_checksum")

let test_select_alpha_prefers_small () =
  (* With a huge alpha the DMA term dominates and the smaller path wins
     regardless of software cost. *)
  let src =
    {|
header ctx_t { bit<1> big; }
header small_t { @semantic("pkt_len") bit<16> l; bit<16> pad; }
header big_t {
  @semantic("rss") bit<32> h; @semantic("vlan") bit<16> v;
  @semantic("pkt_len") bit<16> l; bit<64> pad0; bit<64> pad1; bit<64> pad2;
}
struct m_t { small_t s; big_t b; }
control C(cmpt_out o, in ctx_t ctx, in m_t m) {
  apply { if (ctx.big == 1) { o.emit(m.b); } else { o.emit(m.s); } }
}
|}
  in
  let tenv = Prelude.check src in
  let c = Option.get (P4.Typecheck.find_control tenv "C") in
  let paths = Result.get_ok (paths_of tenv c) in
  let intent = Intent.make [ ("rss", 32); ("pkt_len", 16) ] in
  let chosen_with alpha =
    match Select.choose ~alpha (registry ()) intent paths with
    | Ok o -> Path.size o.chosen.s_path
    | Error e -> Alcotest.fail (Select.error_to_string e)
  in
  check ai "low alpha: big path (hw rss)" 32 (chosen_with 0.1);
  check ai "high alpha: small path (sw rss)" 4 (chosen_with 100.0)

let test_select_unsatisfiable () =
  let nic = e1000 () in
  let intent = Intent.make [ ("inline_crypto_tag", 64) ] in
  match Select.choose (registry ()) intent nic.paths with
  | Error (Select.Unsatisfiable blocking) ->
      check asl "names the blocker" [ "inline_crypto_tag" ] blocking
  | Error e -> Alcotest.fail (Select.error_to_string e)
  | Ok _ -> Alcotest.fail "expected unsatisfiable"

let test_select_no_paths () =
  match Select.choose (registry ()) (Intent.make [ ("rss", 32) ]) [] with
  | Error Select.No_paths -> ()
  | _ -> Alcotest.fail "expected No_paths"

let test_select_ranking_sorted () =
  let nic = e1000 () in
  let intent = Intent.make [ ("rss", 32); ("ip_checksum", 16) ] in
  match Select.choose (registry ()) intent nic.paths with
  | Ok o ->
      let totals = List.map (fun s -> s.Select.s_total) o.ranked in
      check ab "ascending" true (List.sort compare totals = totals);
      check ab "chosen is head" true (List.hd o.ranked == o.chosen)
  | Error e -> Alcotest.fail (Select.error_to_string e)

let test_select_all_provided_zero_softnic () =
  let nic = e1000 () in
  let intent = Intent.make [ ("ip_checksum", 16); ("ip_id", 16) ] in
  match Select.choose (registry ()) intent nic.paths with
  | Ok o ->
      check (Alcotest.float 0.001) "no softnic cost" 0.0 o.chosen.s_softnic_cost;
      check asl "nothing missing" [] o.chosen.s_missing
  | Error e -> Alcotest.fail (Select.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let test_accessor_aligned_roundtrip () =
  let b = Bytes.make 8 '\x00' in
  Accessor.writer ~bit_off:16 ~bits:32 b 0xDEADBEEFL;
  check ai64 "aligned 32" 0xDEADBEEFL (Accessor.reader ~bit_off:16 ~bits:32 b)

let test_accessor_unaligned_roundtrip () =
  let b = Bytes.make 8 '\x00' in
  Accessor.writer ~bit_off:3 ~bits:13 b 0x1FFFL;
  check ai64 "unaligned 13" 0x1FFFL (Accessor.reader ~bit_off:3 ~bits:13 b)

let test_accessor_wide_field_reads_zero () =
  let b = Bytes.make 32 '\xff' in
  check ai64 "over-64-bit field" 0L (Accessor.reader ~bit_off:0 ~bits:160 b)

let test_accessor_write_read_layout () =
  let nic = e1000 () in
  let p = List.find (fun p -> Path.provides p "rss") nic.paths in
  let b = Bytes.make (Path.size p) '\x00' in
  Accessor.write_record p.p_layout b (fun f ->
      match f.l_semantic with
      | Some "rss" -> 0xAABBCCDDL
      | Some "pkt_len" -> 1500L
      | _ -> 0x7L);
  let readings = Accessor.read_all p.p_layout b in
  check ai64 "hash" 0xAABBCCDDL (List.assoc "hash" readings);
  check ai64 "length" 1500L (List.assoc "length" readings);
  check ai64 "status" 0x7L (List.assoc "status" readings)

(* Property: writing all fields of a random layout then reading them back
   yields the written values (layouts don't overlap, offsets are right). *)
let gen_layout =
  let open QCheck.Gen in
  let widths = oneofl [ 4; 8; 12; 16; 24; 32; 48; 64 ] in
  list_size (int_range 1 8) widths >|= fun ws ->
  (* pad to byte multiple *)
  let total = List.fold_left ( + ) 0 ws in
  let ws = if total mod 8 = 0 then ws else ws @ [ 8 - (total mod 8) ] in
  let _, fields =
    List.fold_left
      (fun (off, acc) w ->
        ( off + w,
          {
            Path.l_name = Printf.sprintf "f%d" (List.length acc);
            l_header = "h";
            l_semantic = None;
            l_bit_off = off;
            l_bits = w;
            l_span = P4.Loc.dummy;
          }
          :: acc ))
      (0, []) ws
  in
  let fields = List.rev fields in
  let size_bytes = List.fold_left (fun a (f : Path.lfield) -> a + f.l_bits) 0 fields / 8 in
  { Path.fields; size_bytes }

let prop_layout_write_read =
  QCheck.Test.make ~name:"layout write/read roundtrip" ~count:300
    (QCheck.make gen_layout)
    (fun layout ->
      let b = Bytes.make layout.Path.size_bytes '\x00' in
      let value_of (f : Path.lfield) =
        Int64.logand
          (Int64.of_int ((f.l_bit_off * 2654435761) land max_int))
          (Packet.Bitops.mask (min f.l_bits 64))
      in
      Accessor.write_record layout b value_of;
      List.for_all
        (fun (f : Path.lfield) ->
          Int64.equal
            (Accessor.reader ~bit_off:f.l_bit_off ~bits:f.l_bits b)
            (value_of f))
        layout.Path.fields)

(* ------------------------------------------------------------------ *)
(* Codegen *)

let compiled_e1000 () =
  let intent = Intent.make [ ("rss", 32); ("ip_checksum", 16) ] in
  Compile.run_exn ~intent (e1000 ())

let test_codegen_c_contains_accessors () =
  let c = compiled_e1000 () in
  let src = Compile.c_source c in
  check ab "include guard" true (contains src "#ifndef OPENDESC_");
  check ab "csum accessor" true (contains src "opendesc_e1000_rx_csum");
  check ab "semantic comment" true (contains src "@semantic(ip_checksum)");
  check ab "config define" true (contains src "OPENDESC_e1000_CTX_USE_RSS 0");
  check ab "soft shim decl" true (contains src "opendesc_soft_rss");
  check ab "cmpt size" true (contains src "CMPT_SIZE 8")

let test_codegen_c_shift_loads () =
  let c = compiled_e1000 () in
  let src = Compile.c_source c in
  (* csum is at byte 2..3: expect shifted loads of those bytes *)
  check ab "byte loads" true (contains src "cmpt[2]" && contains src "cmpt[3]")

let test_codegen_ebpf_structure () =
  let c = compiled_e1000 () in
  let src = Compile.ebpf_source c in
  check ab "xdp section" true (contains src "SEC(\"xdp\")");
  check ab "bounds check" true (contains src "(void *)(md + 1) > data");
  check ab "metadata struct" true (contains src "struct opendesc_e1000_md");
  check ab "license" true (contains src "_license");
  check ab "ntohs for csum" true (contains src "bpf_ntohs(md->csum)");
  check ab "software note for rss" true (contains src "not in this completion path");
  check ab "8-bit fields are __u8" true (not (contains src "__be8"))

let test_codegen_c_unaligned_helper_only_when_needed () =
  let c = compiled_e1000 () in
  let src = Compile.c_source c in
  check ab "no generic helper for aligned layout" false
    (contains src "opendesc_get_bits(")

(* ------------------------------------------------------------------ *)
(* Compile driver *)

let test_compile_bindings_split () =
  let c = compiled_e1000 () in
  check asl "hardware" [ "ip_checksum" ] (Compile.hardware c);
  check asl "software" [ "rss" ] (Compile.missing c);
  check ai "one shim" 1 (List.length (Compile.shims c))

let test_compile_config_matches_path () =
  let c = compiled_e1000 () in
  check ab "legacy config" true
    (Opendesc_analysis.Context.equal c.config [ ("use_rss", 0L) ])

let test_compile_software_pipeline_runs () =
  let c = compiled_e1000 () in
  let pipeline = Compile.software_pipeline c in
  let flow =
    Packet.Fivetuple.make ~src_ip:0x01020304l ~dst_ip:0x05060708l ~src_port:1
      ~dst_port:2 ~proto:6
  in
  let pkt = Packet.Builder.ipv4 ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0 }) in
  match Softnic.Pipeline.run pipeline pkt with
  | [ ("rss", v) ] ->
      let expected = Softnic.Toeplitz.hash_flow flow in
      check ai64 "shim == toeplitz"
        (Int64.logand (Int64.of_int32 expected) 0xFFFFFFFFL)
        v
  | _ -> Alcotest.fail "expected one shim result"

let test_compile_unsat_propagates () =
  let intent = Intent.make [ ("regex_match_id", 32) ] in
  match Compile.run ~intent (e1000 ()) with
  | Error e -> check ab "unsatisfiable" true (contains e "unsatisfiable")
  | Ok _ -> Alcotest.fail "expected error"

(* A TX semantic in an RX intent: the host writes it, so Eq. 1 has no
   software fallback for it, whatever its w, and the intent is
   unsatisfiable before any path is bound. *)
let test_compile_tx_semantic_in_rx_intent () =
  let intent = Intent.make [ ("rss", 32); ("tx_len", 16) ] in
  match Compile.run ~intent (Nic_models.E1000.newer ()).spec with
  | Error e ->
      check Alcotest.string "unsatisfiable on tx_len"
        "e1000-newer: unsatisfiable intent: no completion path provides {tx_len} and no \
         software implementation exists"
        e
  | Ok _ -> Alcotest.fail "expected an unsatisfiable intent"

let test_compile_finite_cost_without_impl_rejected () =
  let registry = Semantic.default () in
  Semantic.register registry
    { name = "phantom"; width_bits = 8; sw_cost = 5.0; descr = "" };
  let intent = Intent.make [ ("phantom", 8) ] in
  match Compile.run ~registry ~intent (e1000 ()) with
  | Error e -> check ab "names phantom" true (contains e "phantom")
  | Ok _ -> Alcotest.fail "expected error"

let test_compile_tx_format_selected () =
  let c = compiled_e1000 () in
  match c.tx_format with
  | Some f -> check ai "smallest format" 12 (Descparser.size f)
  | None -> Alcotest.fail "expected tx format"

let test_report_renders () =
  let c = compiled_e1000 () in
  let s = Report.to_string c in
  check ab "has ranking" true (contains s "ranking");
  check ab "has bindings" true (contains s "hardware");
  check ab "summary" true (contains (Report.summary_line c) "e1000")

(* ------------------------------------------------------------------ *)
(* Contract identity. Every contract hash, certificate and compile-cache
   key is built from [Nic_spec.fingerprint]; these digests pin its text
   over the catalogue, the firmware fixtures and 300 generated specs, as
   it was built when every call recomputed it from the paths. *)

(* A fixture from the nearest ancestor of the working directory that
   holds [examples/firmware]. *)
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

let fingerprint_digest loads =
  List.map
    (function Ok s -> Nic_spec.fingerprint s | Error e -> "error: " ^ e)
    loads
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_fingerprint_pins () =
  let catalog = List.map (fun (m : Nic_models.Model.t) -> Ok m.spec) (Nic_models.Catalog.all ()) in
  let fixtures =
    List.map
      (fun f ->
        Nic_spec.load ~name:(Filename.remove_extension f) ~kind:Nic_spec.Fixed_function
          (firmware_fixture f))
      [ "e1000_rev_a.p4"; "e1000_rev_b.p4"; "e1000_rev_broken.p4" ]
  in
  let generated =
    List.init 300 (fun index ->
        let seed = Opendesc_fuzz.Gen.spec_seed ~seed:7L ~index in
        let name = Printf.sprintf "fz%04d" index in
        let sp = Opendesc_fuzz.Gen.generate ~seed ~name () in
        Nic_spec.load ~name ~kind:Nic_spec.Fully_programmable (Opendesc_fuzz.Spec.render sp))
  in
  check astr "catalogue" "523d9940fc1cedbee564b9fe2a25c1ce" (fingerprint_digest catalog);
  check astr "firmware fixtures" "5fd8d4238b945f08b237a221c92ce62e" (fingerprint_digest fixtures);
  check astr "300 generated specs, seed 7" "b5c9620aa1ea1ae9c0239a29622747cb" (fingerprint_digest generated)

(* [Upgrade] rebrands a new revision with the old one's name; the
   fingerprint, the contract hash and a compiled plan's contract must
   follow the name the spec carries. *)
let test_fingerprint_follows_rebrand () =
  let s = (Nic_models.E1000.newer ()).spec in
  let fp = Nic_spec.fingerprint s in
  let x = { s with nic_name = "x" } in
  let body = String.sub fp (String.length s.nic_name) (String.length fp - String.length s.nic_name) in
  check astr "fingerprint is the new name, then the layout" ("x" ^ body) (Nic_spec.fingerprint x);
  let hash = Digest.to_hex (Digest.string ("x" ^ body)) in
  check astr "contract hash" hash (Compile.contract_hash x);
  check astr "cache's contract hash" hash (Cache.contract_hash_of x);
  check ab "differs from the original's" false (hash = Compile.contract_hash s);
  let plan = Compile.to_plan (Compile.run_exn ~intent:(Intent.make [ ("rss", 32) ]) x) in
  check astr "plan's contract" hash plan.pl_contract

(* Allocation budgets of the certified-compilation steps every
   [opendesc_cc lint/certify/cost] request and every live swap runs,
   over every catalogue model and both of the toolchain benchmark's
   intents. The largest measured values are 377 words for [to_plan] and
   3,483 for a passing [certify] (bluefield-kvs_key, Figure 1 intent:
   ten fields, three paths), with a [certify] mean of about 1,520.
   Rebuilding the fingerprint per call, or formatting diagnostic text
   that no diagnostic uses, costs about 2,000 words more per call and
   breaks them. *)
let to_plan_budget = 400.
let certify_budget = 4_000.
let certify_mean_budget = 2_000.

let words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  let r = f () in
  let w = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity r);
  w

let test_certified_compile_budgets () =
  let certify_words =
    List.concat_map
      (fun intent ->
        List.map
          (fun (m : Nic_models.Model.t) ->
            let c = Compile.run_exn ~intent m.spec in
            let name = m.spec.nic_name ^ " x " ^ Intent.canonical intent in
            check ab (name ^ " certifies") true (Result.is_ok (Compile.certify c));
            let tp = words (fun () -> Compile.to_plan c) in
            let ce = words (fun () -> Compile.certify c) in
            if tp > to_plan_budget || ce > certify_budget then
              Alcotest.failf "%s: to_plan %.0f words (budget %.0f), certify %.0f words (budget %.0f)"
                name tp to_plan_budget ce certify_budget;
            ce)
          (Nic_models.Catalog.all ~intent ()))
      [ Nic_models.Catalog.fig1_intent; Intent.make [ ("rss", 32); ("pkt_len", 16) ] ]
  in
  let mean = List.fold_left ( +. ) 0. certify_words /. float_of_int (List.length certify_words) in
  if mean > certify_mean_budget then
    Alcotest.failf "certify: mean %.0f words over %d requests (budget %.0f)" mean
      (List.length certify_words) certify_mean_budget

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "opendesc"
    [
      ( "prelude",
        [
          Alcotest.test_case "checks" `Quick test_prelude_checks;
          Alcotest.test_case "reports errors" `Quick test_prelude_reports_errors;
          Alcotest.test_case "errors in user lines" `Quick test_prelude_errors_in_user_lines;
          Alcotest.test_case "finds deparser" `Quick test_load_finds_annotated_deparser;
          Alcotest.test_case "rejects no deparser" `Quick test_load_rejects_no_deparser;
          Alcotest.test_case "finds desc parser" `Quick test_load_finds_desc_parser;
        ] );
      ( "context",
        [
          Alcotest.test_case "enumerate bits" `Quick test_context_enumerate_bits;
          Alcotest.test_case "@values" `Quick test_context_values_annotation;
          Alcotest.test_case "wide needs @values" `Quick
            test_context_wide_field_needs_values;
          Alcotest.test_case "empty header" `Quick test_context_empty_header;
          Alcotest.test_case "env lookup" `Quick test_context_env_lookup;
          Alcotest.test_case "@context annotation" `Quick
            test_context_find_param_by_annotation;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "fig6 structure" `Quick test_cfg_fig6_structure;
          Alcotest.test_case "vertex properties" `Quick test_cfg_vertex_properties;
          Alcotest.test_case "walks" `Quick test_cfg_walks;
          Alcotest.test_case "sequential chain" `Quick test_cfg_sequential_emits_chain;
          Alcotest.test_case "walk termination labels" `Quick
            test_cfg_walk_termination_labels;
          Alcotest.test_case "dot output" `Quick test_cfg_dot_output;
        ] );
      ( "path",
        [
          Alcotest.test_case "e1000 paths" `Quick test_paths_e1000;
          Alcotest.test_case "assignments recorded" `Quick
            test_paths_assignments_recorded;
          Alcotest.test_case "layout offsets" `Quick test_paths_layout_offsets;
          Alcotest.test_case "grouping merges configs" `Quick
            test_paths_grouping_merges_configs;
          Alcotest.test_case "sequential emits concatenate" `Quick
            test_paths_sequential_emits_concatenate;
          Alcotest.test_case "data-dependent branch rejected" `Quick
            test_paths_data_dependent_branch_rejected;
          Alcotest.test_case "local derived conditions" `Quick
            test_paths_local_derived_conditions;
          Alcotest.test_case "empty completion" `Quick test_paths_empty_completion_allowed;
          Alcotest.test_case "load rejects context over cap" `Quick
            test_load_rejects_context_over_cap;
          Alcotest.test_case "load rejects unaligned completion" `Quick
            test_load_rejects_unaligned_completion;
          Alcotest.test_case "load rejects non-header emit" `Quick
            test_load_rejects_non_header_emit;
        ] );
      ( "descparser",
        [
          Alcotest.test_case "single format" `Quick test_descparser_single_format;
          Alcotest.test_case "select formats" `Quick test_descparser_select_formats;
          Alcotest.test_case "cycle rejected" `Quick test_descparser_cycle_rejected;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean description" `Quick test_lint_clean_description;
          Alcotest.test_case "unknown semantic" `Quick test_lint_unknown_semantic;
          Alcotest.test_case "duplicate in path" `Quick
            test_lint_duplicate_semantic_in_path;
          Alcotest.test_case "dominated path" `Quick test_lint_dominated_path;
          Alcotest.test_case "tx without buf_addr" `Quick test_lint_tx_without_buf_addr;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "default costs" `Quick test_semantic_default_costs;
          Alcotest.test_case "register custom" `Quick test_semantic_register_custom;
        ] );
      ( "intent",
        [
          Alcotest.test_case "of_source @intent" `Quick test_intent_of_source_annotation;
          Alcotest.test_case "by-name fallback" `Quick test_intent_by_name_fallback;
          Alcotest.test_case "missing is error" `Quick test_intent_missing_is_error;
          Alcotest.test_case "custom @cost" `Quick test_intent_custom_semantics_cost;
          Alcotest.test_case "custom requires @cost" `Quick
            test_intent_custom_semantics_requires_cost;
          Alcotest.test_case "to_p4 roundtrip" `Quick test_intent_to_p4_roundtrip;
        ] );
      ( "select",
        [
          Alcotest.test_case "fig6 preference" `Quick test_select_fig6_preference;
          Alcotest.test_case "single semantics" `Quick test_select_single_semantics;
          Alcotest.test_case "alpha prefers small" `Quick test_select_alpha_prefers_small;
          Alcotest.test_case "unsatisfiable" `Quick test_select_unsatisfiable;
          Alcotest.test_case "no paths" `Quick test_select_no_paths;
          Alcotest.test_case "ranking sorted" `Quick test_select_ranking_sorted;
          Alcotest.test_case "all provided" `Quick test_select_all_provided_zero_softnic;
        ] );
      ( "accessor",
        [
          Alcotest.test_case "aligned roundtrip" `Quick test_accessor_aligned_roundtrip;
          Alcotest.test_case "unaligned roundtrip" `Quick
            test_accessor_unaligned_roundtrip;
          Alcotest.test_case "wide reads zero" `Quick test_accessor_wide_field_reads_zero;
          Alcotest.test_case "layout write/read" `Quick test_accessor_write_read_layout;
        ]
        @ qsuite [ prop_layout_write_read ] );
      ( "codegen",
        [
          Alcotest.test_case "c accessors" `Quick test_codegen_c_contains_accessors;
          Alcotest.test_case "c shift loads" `Quick test_codegen_c_shift_loads;
          Alcotest.test_case "ebpf structure" `Quick test_codegen_ebpf_structure;
          Alcotest.test_case "no helper when aligned" `Quick
            test_codegen_c_unaligned_helper_only_when_needed;
        ] );
      ( "compile",
        [
          Alcotest.test_case "bindings split" `Quick test_compile_bindings_split;
          Alcotest.test_case "config matches path" `Quick test_compile_config_matches_path;
          Alcotest.test_case "software pipeline" `Quick test_compile_software_pipeline_runs;
          Alcotest.test_case "unsat propagates" `Quick test_compile_unsat_propagates;
          Alcotest.test_case "TX semantic in an RX intent" `Quick
            test_compile_tx_semantic_in_rx_intent;
          Alcotest.test_case "finite cost needs impl" `Quick
            test_compile_finite_cost_without_impl_rejected;
          Alcotest.test_case "tx format selected" `Quick test_compile_tx_format_selected;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
      (* Alcotest pads every group to the widest group name and truncates
         test names to the rest of the line: keep group names short. *)
      ( "contract",
        [
          Alcotest.test_case "fingerprint pins" `Quick test_fingerprint_pins;
          Alcotest.test_case "fingerprint follows a rebrand" `Quick
            test_fingerprint_follows_rebrand;
          Alcotest.test_case "to_plan and certify allocation budgets" `Quick
            test_certified_compile_budgets;
        ] );
    ]
