(* The P4 frontend over real inputs: the catalogue NICs, the shipped
   fixtures and generated specs. Pins the lexer's and parser's output
   byte for byte, checks the lexer's positions and token boundaries
   against an oracle that reads the raw text, and checks that parsing a
   NIC description leaves its tokens to die young. *)

open P4

let check = Alcotest.check
let ai = Alcotest.int
let ab = Alcotest.bool

let read_file f = In_channel.with_open_bin f In_channel.input_all

let catalog =
  List.map
    (fun (m : Nic_models.Model.t) -> (m.spec.Opendesc.Nic_spec.nic_name, m.spec.p4_source))
    (Nic_models.Catalog.all ())

(* Fixture files, named relative to the repository root. *)
let fixtures dirs =
  List.concat_map
    (fun dir ->
      Sys.readdir (Filename.concat "../.." dir)
      |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".p4")
      |> List.map (fun f ->
             let name = dir ^ "/" ^ f in
             (name, read_file (Filename.concat "../.." name))))
    dirs

let examples = fixtures [ "examples/firmware"; "examples/intents" ]

(* ------------------------------------------------------------------ *)
(* Pinned output: the MD5 of every token (kind and span) and of the
   printed AST (spans included), as produced by the frontend before its
   list-cursor rewrite (the sets below: before its lexer-cursor
   rewrite). *)

let token_digest src =
  Lexer.tokenize src
  |> List.map (fun (t : Token.t) -> Token.show_kind t.kind ^ " " ^ Loc.show_span t.span)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let ast_digest src = Digest.to_hex (Digest.string (Ast.show_program (Parser.parse_program src)))

let pinned =
  [
    ("e1000-legacy", "3704fd16ad6e7552e24470ab695e1b1a", "6e3147aeb01a81f5278cc0ce19c77e9f");
    ("e1000-newer", "72811be067653f19f2e23684effb0a09", "0bc156693f10743fc0900aae2e6adaf6");
    ("ixgbe-82599", "cd2af549a36c570f69dcefccca883e70", "a05760c69f806449fd909d9c0822af0b");
    ("mlx5-connectx", "3ad1b91613b5410f942dd7ea17b43de7", "8e900f268532aa6bb435c6362c38b28b");
    ("bluefield-kvs_key", "ff2bd5c9007f43e6267d167e4acb2d8a", "3042584a456a58ded3590f7f55fa3061");
    ("qdma-programmable", "75bd29de003117cb1b7d15d103d8cb60", "703200d422065d1331199c9e5a44264c");
    ("virtio-net", "9e0fde0f90b05ad706bff2c7195b31c0", "9e729d6fb3d9cdfd6488761ede390f7a");
    ("ice-e810", "441ccb09c17204fe2e6e6488a99f6b12", "966628bb637a009fc6f64155d50d50fe");
    ( "examples/firmware/e1000_rev_a.p4",
      "72cf3be38292b74c2bb3eda57726758b",
      "1bf242534116fabc098e400c3e7491de" );
    ( "examples/firmware/e1000_rev_b.p4",
      "aac79d664d0f7a04dfe689a637f28af8",
      "9e5555a846c1eab00e01bc1ab8114534" );
    ( "examples/firmware/e1000_rev_broken.p4",
      "d5653075c8edfb3cfc7d593ce4124f7f",
      "1c9617841b6aef404189de696e426c40" );
    ( "examples/intents/fig1.p4",
      "c55c7f941cca147b8852098cc2a6d059",
      "1f55745a8ccbd9b960eab8045c554125" );
    ( "examples/intents/xdp_metadata.p4",
      "70ba202d8cdd969f6aed8ae51d824d34",
      "f6821edf4194451b4086e78f832d14c2" );
  ]

(* Larger sets, one digest each: the MD5 of their sources' digests in
   order. The fuzz corpus, the golden paths fixture, and the 300 specs
   of the seed-7 fuzz campaign as [Spec.render] prints them. *)

let generated_specs =
  List.init 300 (fun index ->
      Opendesc_fuzz.Spec.render
        (Opendesc_fuzz.Gen.generate
           ~seed:(Opendesc_fuzz.Gen.spec_seed ~seed:7L ~index)
           ~name:(Printf.sprintf "fz%04d" index) ()))

let pinned_sets =
  [
    ( "test/fuzz/corpus",
      List.map snd (fixtures [ "test/fuzz/corpus" ]),
      "5347ac6c0be5a24010c67013ad312ecb",
      "a6c5690f46cea124bec6ed51ae938e96" );
    ( "test/golden/dup_sites.p4",
      [ read_file "../../test/golden/dup_sites.p4" ],
      "8eab8924f8c15690549ad806bd0ff1e8",
      "22398a2f0fdf6b89869a93140b6bc245" );
    ( "generated specs, seed 7",
      generated_specs,
      "17c0474239e97d29c91c4f3c2496d931",
      "d85f8913927aa1969fc876043baceebd" );
  ]

let set_digest digest sources =
  Digest.to_hex (Digest.string (String.concat "" (List.map digest sources)))

let test_pinned_digests () =
  let sources = catalog @ examples in
  check
    Alcotest.(list string)
    "every catalogue NIC and example is pinned"
    (List.map fst sources)
    (List.map (fun (name, _, _) -> name) pinned);
  List.iter
    (fun (name, tokens, ast) ->
      let src = List.assoc name sources in
      check Alcotest.string (name ^ " tokens") tokens (token_digest src);
      check Alcotest.string (name ^ " AST") ast (ast_digest src))
    pinned;
  check ai "fuzz corpus size" 6 (List.length (fixtures [ "test/fuzz/corpus" ]));
  List.iter
    (fun (name, sources, tokens, ast) ->
      check Alcotest.string (name ^ " tokens") tokens (set_digest token_digest sources);
      check Alcotest.string (name ^ " AST") ast (set_digest ast_digest sources))
    pinned_sets

(* The expression grammar, pinned by the MD5 of [Parser.parse_expr]'s
   result (the tree, or the error message and span) over 20,000 seeded
   strings, as produced by the parser with one function per binary
   precedence level. The strings mix every binary operator, [>>]
   written adjacent and spaced, unary prefixes, ternaries, casts and
   calls with type arguments; one in four drops or inserts a token, so
   error messages and spans are pinned too. *)

let binops =
  [| "||"; "&&"; "|"; "^"; "&"; "=="; "!="; "<"; "<="; ">"; ">="; "<<"; ">>"; "> >"; "+"; "-";
     "++"; "*"; "/"; "%" |]

let atoms = [| "a"; "b"; "x.y"; "h.f[2]"; "8w255"; "0x1F"; "3"; "true"; "4s7"; "error.NoMatch"; "t.apply()" |]
let cast_types = [| "bit<8>"; "bit<16>"; "int<4>"; "bool"; "bit<(4 + 4)>"; "varbit<32>" |]
let type_args = [| "bit<8>"; "bit<16>"; "T"; "int<4>"; "bool"; "V<bit<8>>" |]
let junk = [| "("; ")"; "?"; ":"; "<"; ">"; "&&&"; ","; "$"; "\"s\""; "."; "[" |]

let gen_expr_tokens rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let rec expr d =
    if d = 0 then [ pick atoms ]
    else
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 -> expr (d - 1) @ [ pick binops ] @ expr (d - 1)
      | 4 -> pick [| "!"; "~"; "-" |] :: expr (d - 1)
      | 5 -> expr (d - 1) @ [ "?" ] @ expr (d - 1) @ [ ":" ] @ expr (d - 1)
      | 6 -> [ "("; pick cast_types; ")" ] @ expr (d - 1)
      | 7 ->
          let targs = List.init (1 + Random.State.int rng 2) (fun _ -> pick type_args) in
          [ pick [| "f"; "x.g" |]; "<"; String.concat ", " targs; ">"; "(" ]
          @ (if Random.State.bool rng then [] else expr (d - 1))
          @ [ ")" ]
      | 8 -> [ "(" ] @ expr (d - 1) @ [ ")" ]
      | _ -> [ pick atoms ]
  in
  let toks = expr (1 + Random.State.int rng 4) in
  let n = List.length toks in
  match Random.State.int rng 8 with
  | 0 ->
      let i = Random.State.int rng n in
      List.filteri (fun j _ -> j <> i) toks
  | 1 ->
      let i = Random.State.int rng (n + 1) in
      List.concat (List.mapi (fun j t -> if j = i then [ pick junk; t ] else [ t ]) toks)
      @ if i = n then [ pick junk ] else []
  | _ -> toks

let gen_expr_source rng =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i t ->
      if i > 0 && Random.State.bool rng then Buffer.add_char buf ' ';
      Buffer.add_string buf t)
    (gen_expr_tokens rng);
  Buffer.contents buf

let parse_expr_result src =
  match Parser.parse_expr src with
  | e -> Ast.show_expr e
  | exception Parser.Error (msg, sp) -> "syntax " ^ msg ^ " " ^ Loc.show_span sp
  | exception Lexer.Error (msg, p) -> "lexical " ^ msg ^ " " ^ Loc.show_pos p

let test_parse_expr_digest () =
  let rng = Random.State.make [| 26 |] in
  let digests = Buffer.create (16 * 20_000) in
  for _ = 1 to 20_000 do
    Buffer.add_string digests (Digest.string (parse_expr_result (gen_expr_source rng)))
  done;
  check Alcotest.string "parse_expr over 20,000 seeded strings" "add97b8ecd26762ab4b436e5eeb0a050"
    (Digest.to_hex (Digest.string (Buffer.contents digests)))

(* ------------------------------------------------------------------ *)
(* Lexer invariants. The oracle computes positions from the raw text and
   judges token boundaries by re-lexing slices, so it shares no code with
   the lexer's own position tracking. *)

(* [pos_ok p] holds when [p.line] is 1 + the newlines before [p.off] and
   [p.col] is [p.off] minus the offset just past the last of them. *)
let position_oracle src =
  let n = String.length src in
  let lines = Array.make (n + 1) 1 and cols = Array.make (n + 1) 0 in
  let line = ref 1 and bol = ref 0 in
  for off = 0 to n do
    lines.(off) <- !line;
    cols.(off) <- off - !bol;
    if off < n && src.[off] = '\n' then begin
      incr line;
      bol := off + 1
    end
  done;
  fun (p : Loc.pos) -> p.off >= 0 && p.off <= n && p.line = lines.(p.off) && p.col = cols.(p.off)

let lexes_to slice expected =
  match Lexer.tokenize slice with
  | toks -> List.equal Token.equal_kind (List.map (fun (t : Token.t) -> t.kind) toks) expected
  | exception Lexer.Error _ -> false

(* Every token re-lexes alone to itself, the text between tokens is
   trivia only, positions follow the line-start rule, and the list ends
   in one [Eof] at the end of input. On a lexical error, its position
   follows the same rule. *)
let lexer_invariants src =
  let pos_ok = position_oracle src in
  let slice a b = String.sub src a (b - a) in
  match Lexer.tokenize src with
  | exception Lexer.Error (_, p) -> pos_ok p
  | toks ->
      let rec walk prev = function
        | [] -> false
        | [ { Token.kind = Token.Eof; span } ] ->
            pos_ok span.left && span.left = span.right
            && span.left.off = String.length src
            && lexes_to (slice prev span.left.off) [ Token.Eof ]
        | { Token.kind; span = { left; right } } :: rest ->
            kind <> Token.Eof && pos_ok left && pos_ok right && left.off < right.off
            && lexes_to (slice prev left.off) [ Token.Eof ]
            && lexes_to (slice left.off right.off) [ kind; Token.Eof ]
            && walk right.off rest
      in
      walk 0 toks

(* Characters that start, end or split tokens, plus NUL and a non-ASCII
   byte; mutations draw from these half of the time. *)
let interesting = "<>&|/*\"\\\n\r\t 0189xXbowsW_aZ{}()[];:,.@?~^%+-=!\000\255"

let mutate rng s =
  let len = String.length s in
  let byte () =
    if Random.State.bool rng then interesting.[Random.State.int rng (String.length interesting)]
    else Char.chr (Random.State.int rng 256)
  in
  let at () = Random.State.int rng (len + 1) in
  match Random.State.int rng 4 with
  | 0 when len > 0 ->
      let i = Random.State.int rng len in
      String.mapi (fun j c -> if i = j then byte () else c) s
  | 1 ->
      let i = at () in
      String.sub s 0 i ^ String.init (1 + Random.State.int rng 4) (fun _ -> byte ())
      ^ String.sub s i (len - i)
  | 2 when len > 0 ->
      let i = Random.State.int rng len in
      let k = min (len - i) (1 + Random.State.int rng 16) in
      String.sub s 0 i ^ String.sub s (i + k) (len - i - k)
  | _ -> String.sub s 0 (at ())

let corpus =
  lazy
    (Array.of_list
       (List.map snd
          (catalog
          @ List.map (fun (n, s) -> (n, Opendesc.Prelude.source ^ s)) catalog
          @ examples
          @ fixtures [ "test/fuzz/corpus" ])))

let gen_source : string QCheck.Gen.t =
 fun rng ->
  let base =
    if Random.State.int rng 4 = 0 then
      Opendesc_fuzz.Spec.render
        (Opendesc_fuzz.Gen.generate ~seed:(Random.State.int64 rng Int64.max_int) ~name:"gen" ())
    else
      let c = Lazy.force corpus in
      c.(Random.State.int rng (Array.length c))
  in
  let rec go s k = if k = 0 then s else go (mutate rng s) (k - 1) in
  go base (Random.State.int rng 6)

let prop_lexer_invariants =
  QCheck.Test.make ~name:"tokens re-lex alone, gaps are trivia, positions follow line starts"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_source)
    lexer_invariants

(* ------------------------------------------------------------------ *)
(* Allocation: a parse must not force a minor collection. OCaml 5 does
   one when a large array is created from a young value, which is what
   building a token array did, and the collection then promoted every
   token. *)

let test_parse_stays_young () =
  let src =
    List.fold_left
      (fun acc (_, s) -> if String.length s > String.length acc then s else acc)
      "" catalog
  in
  let src = Opendesc.Prelude.source ^ src in
  ignore (Parser.parse_program src);
  Gc.minor ();
  let before = Gc.quick_stat () in
  let prog = Parser.parse_program src in
  let after = Gc.quick_stat () in
  ignore (Sys.opaque_identity prog);
  check ai "no minor collection" before.minor_collections after.minor_collections;
  check ab "under 1k words promoted" true (after.promoted_words -. before.promoted_words < 1000.)

(* A parse builds no token container, and a span only for an
   identifier, so it allocates little beyond its AST: the mean minor
   words of [Parser.parse_program] over the catalogue sources read
   10,138 with a token list and 3,735 from the cursor. *)
let test_parse_words () =
  let words src =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Parser.parse_program src));
    Gc.minor_words () -. before
  in
  let mean =
    List.fold_left (fun acc (_, src) -> acc +. words src) 0. catalog
    /. float_of_int (List.length catalog)
  in
  check ab (Printf.sprintf "%.0f words per catalogue source, under 5,000" mean) true (mean < 5000.)

let () =
  Alcotest.run "p4 frontend"
    [
      ( "pinned",
        [
          Alcotest.test_case "token and AST digests" `Quick test_pinned_digests;
          Alcotest.test_case "parse_expr over seeded strings" `Quick test_parse_expr_digest;
        ] );
      ("lexer", [ QCheck_alcotest.to_alcotest prop_lexer_invariants ]);
      ( "gc",
        [
          Alcotest.test_case "parse stays in the minor heap" `Quick test_parse_stays_young;
          Alcotest.test_case "parse allocation budget" `Quick test_parse_words;
        ] );
    ]
