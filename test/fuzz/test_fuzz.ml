(* The generative fuzzing flywheel, pinned down:

   - a seeded campaign over generated deparser specs passes the full
     differential property (and is bit-for-bit deterministic);
   - the checked-in corpus replays through the same property on every
     runtest, so shapes the fuzzer once produced stay covered even as
     the generator drifts;
   - the generator respects its grammar bounds (the invariants that
     make "any failure is a toolchain bug" true);
   - the shrinker reaches a local minimum deterministically;
   - pretty-print/reparse is a fixpoint over every catalog model and
     over generated specs (the Narcissus-style encode/decode oracle at
     the source level). *)

open Opendesc_fuzz

let check = Alcotest.check
let ai = Alcotest.int
let ab = Alcotest.bool
let astr = Alcotest.string

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Campaign: everything passes, and the report is a pure function of
   the seed. *)

let test_campaign_passes () =
  let r = Campaign.run ~seed:7L ~count:40 () in
  check ai "all pass" 40 r.Campaign.cp_passed;
  check ai "no failures" 0 (List.length r.Campaign.cp_failures);
  check ab "paths were exercised" true (r.Campaign.cp_total_paths >= 40);
  check ab "certify obligations discharged" true (r.Campaign.cp_obligations > 0)

let test_campaign_deterministic () =
  let a = Campaign.run ~seed:11L ~count:12 () in
  let b = Campaign.run ~seed:11L ~count:12 () in
  check astr "identical JSON reports" (Campaign.to_json a) (Campaign.to_json b);
  let c = Campaign.run ~seed:12L ~count:12 () in
  check ab "different seed, different sources" true
    (a.Campaign.cp_digest <> c.Campaign.cp_digest)

let test_member_replays_alone () =
  (* Any campaign member regenerates from its derived seed without
     generating its predecessors — what makes a failure report
     actionable in isolation. *)
  let seen = ref None in
  let r =
    Campaign.run
      ~on_spec:(fun i _ src -> if i = 5 then seen := Some src)
      ~seed:21L ~count:6 ()
  in
  check ai "ran" 6 r.Campaign.cp_passed;
  let sseed = Gen.spec_seed ~seed:21L ~index:5 in
  let sp = Gen.generate ~seed:sseed ~name:"fz0005" () in
  match !seen with
  | None -> Alcotest.fail "on_spec did not fire"
  | Some src -> check astr "regenerated verbatim" src (Spec.render sp)

(* ------------------------------------------------------------------ *)
(* Corpus replay: every pinned fixture must keep passing the whole
   differential property. *)

(* dune runtest runs with test/fuzz as cwd; `dune exec` from the root
   does not. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else "test/fuzz/corpus"

let corpus_files =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".p4")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus_replay file () =
  let src = read_file (Filename.concat corpus_dir file) in
  match
    Oracle.check_source ~seed:0xC0FFEEL
      ~name:(Filename.remove_extension file)
      src
  with
  | Ok st -> check ab "has paths" true (st.Oracle.st_paths >= 1)
  | Error f ->
      Alcotest.fail
        (Printf.sprintf "%s failed at %s: %s" file f.Oracle.fl_stage
           f.Oracle.fl_message)

let test_corpus_is_present () =
  (* A glob mishap would make every replay vacuously green. *)
  check ab "at least 6 fixtures" true (List.length corpus_files >= 6)

(* ------------------------------------------------------------------ *)
(* Generator invariants: the grammar region every stage must accept. *)

let specs_for_bounds =
  lazy
    (List.init 100 (fun i ->
         Gen.generate
           ~seed:(Gen.spec_seed ~seed:99L ~index:i)
           ~name:(Printf.sprintf "b%03d" i)
           ()))

let test_generator_bounds () =
  let b = Gen.default_bounds in
  List.iter
    (fun (sp : Spec.t) ->
      check ab "ctx field count" true (List.length sp.sp_ctx <= b.Gen.b_max_ctx);
      check ab "config product" true (Spec.ctx_configs sp <= b.Gen.b_max_configs);
      check ab "config product below engine cap" true
        (Spec.ctx_configs sp < Opendesc_analysis.Context.max_assignments);
      check ab "header count" true
        (List.length sp.sp_headers <= b.Gen.b_max_headers);
      List.iter
        (fun (h : Spec.header) ->
          check ab "field count" true
            (List.length h.h_fields <= b.Gen.b_max_fields);
          List.iter
            (fun (f : Spec.field) ->
              check ab "wide fields are unannotated" true
                (f.f_bits <= 64 || f.f_semantic = None))
            h.h_fields)
        sp.sp_headers;
      List.iter
        (fun (c : Spec.ctx_field) ->
          check ab "wide knobs carry @values" true
            (c.c_bits <= Opendesc_analysis.Context.max_enum_bits || c.c_values <> None))
        sp.sp_ctx;
      List.iter
        (fun ms ->
          check ab "leaf emits nonempty" true (ms <> []);
          check ab "emits within bound" true (List.length ms <= b.Gen.b_max_emits);
          check ab "emits are distinct headers" true
            (List.length (List.sort_uniq compare ms) = List.length ms);
          List.iter
            (fun m ->
              check ab "emitted header exists" true
                (List.exists (fun (h : Spec.header) -> h.h_name = m) sp.sp_headers))
            ms)
        (Spec.leaves sp.sp_tree);
      match sp.sp_slot with
      | Some s -> check ab "slot covers largest path" true (s >= Spec.max_path_bytes sp)
      | None -> ())
    (Lazy.force specs_for_bounds)

(* The generator indexes its pools with its draws, so their contents and
   order are part of every seed's spec (fuzz_seed7 pins one campaign).
   Both literals are the pools as they read before the semantic table
   derived them. *)
let test_generator_pools () =
  check
    Alcotest.(array string)
    "software pool, sorted"
    [|
      "buf_addr"; "crc"; "csum_ok"; "flow_id"; "flow_pkts"; "ip_checksum"; "ip_id";
      "kvs_key"; "l3_type"; "l4_checksum"; "l4_type"; "lro_num_seg"; "mark"; "pkt_len";
      "rss"; "rss_type"; "timestamp"; "tso_mss"; "tunnel_vni"; "tx_flags"; "tx_l4_csum";
      "tx_len"; "vlan";
    |]
    Gen.software_semantics;
  check
    Alcotest.(array string)
    "hardware pool, in row order"
    [| "wire_timestamp"; "inline_crypto_tag"; "regex_match_id" |]
    Gen.hardware_semantics

let test_normalize_drops_dead () =
  let sp : Spec.t =
    {
      sp_name = "norm";
      sp_ctx =
        [
          { c_name = "k0"; c_bits = 1; c_values = None };
          { c_name = "k1"; c_bits = 2; c_values = None };
        ];
      sp_headers =
        [
          { h_name = "h0"; h_fields = [ { f_name = "f0"; f_bits = 8; f_semantic = None } ] };
          { h_name = "h1"; h_fields = [ { f_name = "f0"; f_bits = 8; f_semantic = None } ] };
        ];
      sp_tree =
        Branch (Cfield ("k0", Ceq, 0L), Leaf [ "h0" ], Leaf [ "h0" ]);
      sp_slot = None;
    }
  in
  let n = Spec.normalize sp in
  check ai "unused header dropped" 1 (List.length n.sp_headers);
  check ai "unread ctx field dropped" 1 (List.length n.sp_ctx);
  check astr "read ctx field kept" "k0" (List.hd n.sp_ctx).c_name

(* ------------------------------------------------------------------ *)
(* Shrinker: greedy, deterministic, reaches a local minimum. *)

let has_wide_field (sp : Spec.t) =
  List.exists
    (fun (h : Spec.header) ->
      List.exists (fun (f : Spec.field) -> f.f_bits > 32) h.h_fields)
    sp.sp_headers

let test_shrinker_minimizes () =
  (* Find a generated spec with a >32-bit field, then minimize against
     that synthetic predicate: the local minimum is one header, one
     field, one leaf, no context, no slot. *)
  let sp =
    let rec find i =
      if i > 500 then Alcotest.fail "no wide-field spec in 500 draws"
      else
        let sp =
          Gen.generate ~seed:(Gen.spec_seed ~seed:3L ~index:i)
            ~name:"shrinkme" ()
        in
        if has_wide_field sp then sp else find (i + 1)
    in
    find 0
  in
  let r = Shrink.shrink ~budget:4000 ~still_fails:has_wide_field sp in
  let m = r.Shrink.sh_spec in
  check ab "still satisfies the predicate" true (has_wide_field m);
  check ai "one header" 1 (List.length m.sp_headers);
  check ai "one field" 1 (List.length (List.hd m.sp_headers).h_fields);
  check ab "single leaf" true
    (match m.sp_tree with Spec.Leaf [ _ ] -> true | _ -> false);
  check ai "no ctx" 0 (List.length m.sp_ctx);
  check ab "no slot" true (m.sp_slot = None);
  (* Determinism: same input, same minimum. *)
  let r2 = Shrink.shrink ~budget:4000 ~still_fails:has_wide_field sp in
  check ab "deterministic" true (r2.Shrink.sh_spec = m)

let test_shrunk_spec_still_renders () =
  (* A minimized spec must stay inside the valid grammar region: it
     has to load, or pinning it as a corpus fixture would be useless. *)
  let sp =
    Gen.generate ~seed:(Gen.spec_seed ~seed:3L ~index:0) ~name:"still" ()
  in
  let r = Shrink.shrink ~budget:500 ~still_fails:(fun _ -> true) sp in
  match
    Opendesc.Nic_spec.load ~name:"still"
      ~kind:Opendesc.Nic_spec.Fully_programmable
      (Spec.render r.Shrink.sh_spec)
  with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("shrunk spec does not load: " ^ m)

(* ------------------------------------------------------------------ *)
(* Pretty/parse fixpoint (satellite of the Narcissus oracle): catalog
   models and generated specs both reparse to an equivalent AST, the
   print is idempotent, and the printed source still typechecks. *)

let fixpoint_ok name src =
  let ast1 = P4.Parser.parse_program src in
  let printed = P4.Pretty.program_to_string ast1 in
  let ast2 = P4.Parser.parse_program printed in
  check ab (name ^ ": reparses to an equal AST") true
    (P4.Ast.equal_program ast1 ast2);
  check astr (name ^ ": idempotent") printed (P4.Pretty.program_to_string ast2);
  match Opendesc.Prelude.check_result printed with
  | Ok _ -> ()
  | Error m -> Alcotest.fail (name ^ ": printed source does not typecheck: " ^ m)

let test_catalog_pretty_fixpoint () =
  let models =
    Nic_models.Catalog.all ~intent:Nic_models.Catalog.fig1_intent ()
  in
  check ab "catalog is populated" true (List.length models >= 8);
  List.iter
    (fun (m : Nic_models.Model.t) ->
      fixpoint_ok m.spec.Opendesc.Nic_spec.nic_name
        m.spec.Opendesc.Nic_spec.p4_source)
    models

let prop_generated_pretty_fixpoint =
  QCheck.Test.make ~name:"pretty |> parse is identity on generated specs"
    ~count:150
    QCheck.(small_nat)
    (fun i ->
      let sp =
        Gen.generate ~seed:(Gen.spec_seed ~seed:5L ~index:i)
          ~name:(Printf.sprintf "pp%03d" i)
          ()
      in
      let src = Spec.render sp in
      let ast1 = P4.Parser.parse_program src in
      let printed = P4.Pretty.program_to_string ast1 in
      P4.Ast.equal_program ast1 (P4.Parser.parse_program printed))

(* ------------------------------------------------------------------ *)
(* Negative fuzzing: near-miss mutations must make the analyzer fire the
   exact code each mutation violates, on every applicable round. *)

let test_negative_campaign () =
  let r = Negative.run ~seed:7L ~count:40 () in
  check ai "no failures" 0 (List.length (Negative.failed r));
  check ai "every round accounted for" 40
    (List.length r.Negative.ng_cases + r.Negative.ng_skipped);
  List.iter
    (fun m ->
      check ab (Negative.mutation_name m ^ " exercised") true
        (List.exists
           (fun (c : Negative.case) -> c.ng_mutation = m)
           r.Negative.ng_cases))
    Negative.mutations

let test_negative_deterministic () =
  let a = Negative.run ~seed:11L ~count:12 () in
  let b = Negative.run ~seed:11L ~count:12 () in
  check astr "identical JSON reports" (Negative.to_json a) (Negative.to_json b)

let test_negative_expected_codes () =
  List.iter2
    (fun m code -> check astr (Negative.mutation_name m) code
        (Negative.expected_code m))
    Negative.mutations
    [ "OD005"; "OD004"; "OD010"; "OD017"; "OD025" ]

let test_negative_no_site () =
  (* A spec whose dispatch tree emits nothing offers no mutation site:
     the mutator must decline rather than assert a code that cannot
     fire. *)
  let sp =
    Gen.generate ~seed:(Gen.spec_seed ~seed:7L ~index:0) ~name:"fzneg" ()
  in
  let bare = { sp with Spec.sp_tree = Spec.Leaf []; sp_slot = None } in
  List.iter
    (fun m ->
      match m with
      | Negative.Over_budget ->
          (* the over-budget site is the compile pipeline itself: even a
             bare spec decodes at some ring/refill cost, so the halved
             budget still has a bound to undercut *)
          ()
      | _ ->
          check ab (Negative.mutation_name m ^ " has no site") true
            (Negative.mutate m bare = None))
    Negative.mutations

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ( "campaign",
        [
          Alcotest.test_case "40 specs pass" `Quick test_campaign_passes;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "member replays alone" `Quick
            test_member_replays_alone;
        ] );
      ( "corpus",
        Alcotest.test_case "fixtures present" `Quick test_corpus_is_present
        :: List.map
             (fun f -> Alcotest.test_case f `Quick (test_corpus_replay f))
             corpus_files );
      ( "generator",
        [
          Alcotest.test_case "bounds respected" `Quick test_generator_bounds;
          Alcotest.test_case "semantic pools" `Quick test_generator_pools;
          Alcotest.test_case "normalize drops dead parts" `Quick
            test_normalize_drops_dead;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "reaches a local minimum" `Quick
            test_shrinker_minimizes;
          Alcotest.test_case "minimum still loads" `Quick
            test_shrunk_spec_still_renders;
        ] );
      ( "pretty",
        Alcotest.test_case "catalog fixpoint" `Quick test_catalog_pretty_fixpoint
        :: qsuite [ prop_generated_pretty_fixpoint ] );
      ( "negative",
        [
          Alcotest.test_case "40 rounds reject" `Quick test_negative_campaign;
          Alcotest.test_case "deterministic" `Quick test_negative_deterministic;
          Alcotest.test_case "expected codes" `Quick
            test_negative_expected_codes;
          Alcotest.test_case "no site declines" `Quick test_negative_no_site;
        ] );
    ]
