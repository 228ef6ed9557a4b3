(* Tests for the P4 frontend: lexer, parser, pretty-printer round trips,
   constant evaluation, and the typechecker's layout computation. *)

open P4

let check = Alcotest.check
let ai = Alcotest.int

let ab = Alcotest.bool
let astr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Lexer *)

let kinds src = List.map (fun (t : Token.t) -> t.kind) (Lexer.tokenize src)

let test_lex_idents_keywords () =
  check ab "shapes" true
    (kinds "header foo_1 Bar"
    = [ Token.KwHeader; Token.Ident "foo_1"; Token.Ident "Bar"; Token.Eof ])

let test_lex_numbers () =
  (match kinds "42 0x2A 0b101010 8w255 4w0xF 8s3" with
  | [
   Token.Int { value = 42L; width = None; _ };
   Token.Int { value = 42L; width = None; _ };
   Token.Int { value = 42L; width = None; _ };
   Token.Int { value = 255L; width = Some 8; signed = false };
   Token.Int { value = 15L; width = Some 4; _ };
   Token.Int { value = 3L; width = Some 8; signed = true };
   Token.Eof;
  ] ->
      ()
  | other -> Alcotest.failf "unexpected tokens (%d)" (List.length other));
  check ab "underscores" true
    (kinds "1_000" = [ Token.Int { value = 1000L; width = None; signed = false }; Token.Eof ])

let test_lex_comments () =
  check ab "comments skipped" true
    (kinds "a // line\n b /* block\n multi */ c"
    = [ Token.Ident "a"; Token.Ident "b"; Token.Ident "c"; Token.Eof ])

let test_lex_operators () =
  check ab "operators" true
    (kinds "== != <= >= && || << ++"
    = [
        Token.Eq; Token.Neq; Token.Le; Token.Ge; Token.AndAnd; Token.OrOr;
        Token.Shl; Token.PlusPlus; Token.Eof;
      ])

let test_lex_rangle_never_fused () =
  (* '>>' lexes as two RAngle tokens; the parser reassembles shifts. *)
  check ab "two rangles" true
    (kinds ">>" = [ Token.RAngle; Token.RAngle; Token.Eof ])

let test_lex_string_escapes () =
  check ab "string" true (kinds {|"a\nb"|} = [ Token.String "a\nb"; Token.Eof ])

let test_lex_error_unterminated_comment () =
  match Lexer.tokenize "/* oops" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected lexer error"

let test_lex_error_bad_char () =
  match Lexer.tokenize "a $ b" with
  | exception Lexer.Error (_, p) -> check ai "column" 2 p.col
  | _ -> Alcotest.fail "expected lexer error"

let test_lex_positions () =
  match Lexer.tokenize "a\n  b" with
  | [ a; b; _eof ] ->
      check ai "a line" 1 a.span.left.line;
      check ai "b line" 2 b.span.left.line;
      check ai "b col" 2 b.span.left.col
  | _ -> Alcotest.fail "expected two tokens"

(* ------------------------------------------------------------------ *)
(* Parser: expressions *)

let roundtrip_expr s =
  let e = Parser.parse_expr s in
  let printed = Pretty.expr_to_string e in
  let e2 = Parser.parse_expr printed in
  check ab (Printf.sprintf "roundtrip %s" s) true (Ast.equal_expr e e2);
  e

let test_expr_precedence_mul_add () =
  match roundtrip_expr "1 + 2 * 3" with
  | Ast.EBinop (Ast.Add, _, Ast.EBinop (Ast.Mul, _, _)) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_precedence_cmp_and () =
  match roundtrip_expr "a == 1 && b != 2" with
  | Ast.EBinop (Ast.LAnd, Ast.EBinop (Ast.Eq, _, _), Ast.EBinop (Ast.Neq, _, _)) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_shift_vs_gt () =
  (match roundtrip_expr "a >> 2" with
  | Ast.EBinop (Ast.Shr, _, _) -> ()
  | e -> Alcotest.failf "expected shift: %s" (Pretty.expr_to_string e));
  match roundtrip_expr "a > 2" with
  | Ast.EBinop (Ast.Gt, _, _) -> ()
  | e -> Alcotest.failf "expected gt: %s" (Pretty.expr_to_string e)

let test_expr_member_chain () =
  match roundtrip_expr "a.b.c" with
  | Ast.EMember (Ast.EMember (Ast.EIdent _, _), c) -> check astr "c" "c" c.name
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_method_call () =
  match roundtrip_expr "pkt.emit(h.inner)" with
  | Ast.ECall (Ast.EMember (_, m), [], [ Ast.EMember (_, _) ]) ->
      check astr "method" "emit" m.name
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_explicit_type_args () =
  match roundtrip_expr "pkt.extract<my_hdr_t>(h)" with
  | Ast.ECall (_, [ Ast.TName t ], [ _ ]) -> check astr "targ" "my_hdr_t" t.name
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_ternary () =
  match roundtrip_expr "a == 1 ? b : c" with
  | Ast.ETernary (_, _, _) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_cast () =
  match roundtrip_expr "(bit<8>)(x + 1)" with
  | Ast.ECast (Ast.TBit _, _) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_concat () =
  match roundtrip_expr "a ++ b" with
  | Ast.EBinop (Ast.Concat, _, _) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_expr_unops () =
  match roundtrip_expr "!(~a == -b)" with
  | Ast.EUnop (Ast.LNot, _) -> ()
  | e -> Alcotest.failf "wrong tree: %s" (Pretty.expr_to_string e)

let test_parse_error_position () =
  match Parser.parse_expr "1 +" with
  | exception Parser.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected parse error"

(* ------------------------------------------------------------------ *)
(* Parser: the token cursor and its lookahead. These shapes exercise the
   two-token peeks (the token after a leading identifier or after '<';
   '>>' adjacency is in "shift vs gt") and the backtracking around them. *)

let test_expr_lookahead () =
  (match Parser.parse_expr "f<T>(x)" with
  | Ast.ECall
      (Ast.EIdent { name = "f"; _ }, [ Ast.TName { name = "T"; _ } ], [ Ast.EIdent { name = "x"; _ } ])
    ->
      ()
  | e -> Alcotest.failf "f<T>(x): %s" (Ast.show_expr e));
  (match Parser.parse_expr "f<T, U>(x, y)" with
  | Ast.ECall
      ( Ast.EIdent { name = "f"; _ },
        [ Ast.TName { name = "T"; _ }; Ast.TName { name = "U"; _ } ],
        [ Ast.EIdent { name = "x"; _ }; Ast.EIdent { name = "y"; _ } ] ) ->
      ()
  | e -> Alcotest.failf "f<T, U>(x, y): %s" (Ast.show_expr e));
  (match Parser.parse_expr "a < 3 && b > 2" with
  | Ast.EBinop
      ( Ast.LAnd,
        Ast.EBinop (Ast.Lt, Ast.EIdent { name = "a"; _ }, Ast.EInt { value = 3L; _ }),
        Ast.EBinop (Ast.Gt, Ast.EIdent { name = "b"; _ }, Ast.EInt { value = 2L; _ }) ) ->
      ()
  | e -> Alcotest.failf "a < 3 && b > 2: %s" (Ast.show_expr e));
  match Parser.parse_expr "(bit<8>) x" with
  | Ast.ECast (Ast.TBit (Ast.EInt { value = 8L; _ }), Ast.EIdent { name = "x"; _ }) -> ()
  | e -> Alcotest.failf "(bit<8>) x: %s" (Ast.show_expr e)

(* One statement inside a control's apply block, alone on line 2 so the
   columns of an error are its own. *)
let stmt_src s = "control C() { apply {\n" ^ s ^ "\n} }"

let parse_stmt s =
  match Parser.parse_program (stmt_src s) with
  | [ Ast.DControl { apply = [ st ]; _ } ] -> st
  | _ -> Alcotest.failf "expected one statement from %S" s

let test_stmt_lookahead () =
  let one src ok =
    let st = parse_stmt src in
    if not (ok st) then Alcotest.failf "%s: %s" src (Ast.show_stmt st)
  in
  one "x.y = 1;" (function
    | Ast.SAssign (Ast.EMember (Ast.EIdent { name = "x"; _ }, { name = "y"; _ }), Ast.EInt _) ->
        true
    | _ -> false);
  one "f(x);" (function
    | Ast.SCall (Ast.ECall (Ast.EIdent { name = "f"; _ }, [], [ Ast.EIdent _ ])) -> true
    | _ -> false);
  one "a[0] = 1;" (function
    | Ast.SAssign (Ast.EIndex (Ast.EIdent { name = "a"; _ }, Ast.EInt _), Ast.EInt _) -> true
    | _ -> false);
  one "T x;" (function
    | Ast.SVar (Ast.TName { name = "T"; _ }, { name = "x"; _ }, None) -> true
    | _ -> false);
  one "T<bit<8>> x = y;" (function
    | Ast.SVar
        ( Ast.TApply ({ name = "T"; _ }, [ Ast.TBit _ ]),
          { name = "x"; _ },
          Some (Ast.EIdent { name = "y"; _ }) ) ->
        true
    | _ -> false);
  one "x = y < z;" (function
    | Ast.SAssign (Ast.EIdent { name = "x"; _ }, Ast.EBinop (Ast.Lt, Ast.EIdent _, Ast.EIdent _))
      ->
        true
    | _ -> false)

(* Message and span (line, col, line, col) of a syntax error. *)
let syntax_error parse src =
  match parse src with
  | exception Parser.Error (msg, sp) ->
      (msg, (sp.Loc.left.line, sp.left.col, sp.right.line, sp.right.col))
  | _ -> Alcotest.failf "expected a syntax error from %S" src

let test_lookahead_errors () =
  let pinned = Alcotest.(pair string (pair (pair int int) (pair int int))) in
  let one parse src msg (l1, c1, l2, c2) =
    let m, (a, b, c, d) = syntax_error parse src in
    check pinned src (msg, ((l1, c1), (l2, c2))) (m, ((a, b), (c, d)))
  in
  one Parser.parse_expr "a > > 2" "expected expression, found RAngle" (1, 4, 1, 5);
  let stmt s = Parser.parse_program (stmt_src s) in
  (* The statement is consumed through ';' before its shape is judged,
     so the error sits on the closing brace after it. *)
  one stmt "x.y;" "expected assignment or call statement" (3, 0, 3, 1);
  one stmt "a b c;" "expected ';', found identifier \"b\"" (2, 2, 2, 3);
  one stmt "x = ;" "expected expression, found Semi" (2, 4, 2, 5);
  (* '(' cannot start a type, so this is the comparison f < (x). *)
  one stmt "f<(x);" "expected assignment or call statement" (3, 0, 3, 1)

(* ------------------------------------------------------------------ *)
(* Parser: declarations *)

let parse_ok src =
  try Parser.parse_program src
  with e -> (
    match Parser.error_to_string src e with
    | Some s -> Alcotest.failf "parse failed:\n%s" s
    | None -> raise e)

let test_parse_header_with_annotations () =
  match parse_ok {| header h_t { @semantic("rss") bit<32> f; bit<8> g; } |} with
  | [ Ast.DHeader { fields = [ f; g ]; _ } ] ->
      check (Alcotest.option astr) "semantic" (Some "rss") (Ast.semantic_of f);
      check (Alcotest.option astr) "no semantic" None (Ast.semantic_of g)
  | _ -> Alcotest.fail "expected one header"

let test_parse_nested_generics () =
  (* Nested type application closing with '>>'. *)
  match parse_ok "struct s_t { Wrap<Inner<bit<8>>> w; }" with
  | [ Ast.DStruct { fields = [ _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected struct"

let test_parse_parser_decl_vs_def () =
  match parse_ok "parser P<T>(in T x); parser Q(desc_in d) { state start { transition accept; } }" with
  | [ Ast.DParserDecl _; Ast.DParser { states = [ _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected decl then def"

let test_parse_control_with_locals_and_apply () =
  let src =
    {|
control C(inout bit<8> x) {
  bit<8> tmp = 0;
  action bump() { x = x + 1; }
  table t { key = { x: exact; } actions = { bump; } default_action = bump(); }
  apply {
    if (x == 0) { bump(); } else { t.apply(); }
  }
}
|}
  in
  match parse_ok src with
  | [ Ast.DControl { locals; apply = [ Ast.SIf (_, _, Some _) ]; _ } ] ->
      check ai "locals" 3 (List.length locals)
  | _ -> Alcotest.fail "expected control"

let test_parse_select_with_masks () =
  let src =
    {|
parser P(desc_in d, in bit<16> tag) {
  state start {
    transition select(tag) {
      0x8100 &&& 0xEFFF: vlan;
      16w0x0800: ip;
      default: accept;
    }
  }
  state vlan { transition accept; }
  state ip { transition accept; }
}
|}
  in
  match parse_ok src with
  | [ Ast.DParser { states = s :: _; _ } ] -> (
      match s.st_trans with
      | Ast.TSelect (_, [ m; e; d ]) ->
          check ab "mask" true (match m.keysets with [ Ast.KMask _ ] -> true | _ -> false);
          check ab "expr" true (match e.keysets with [ Ast.KExpr _ ] -> true | _ -> false);
          check ab "default" true (d.keysets = [ Ast.KDefault ])
      | _ -> Alcotest.fail "expected select")
  | _ -> Alcotest.fail "expected parser"

let test_parse_enums () =
  match
    parse_ok "enum Color { RED, GREEN, BLUE } enum bit<2> Fmt { A = 0, B = 1 }"
  with
  | [ Ast.DEnum { members; _ }; Ast.DSerEnum { members = sm; _ } ] ->
      check ai "enum members" 3 (List.length members);
      check ai "serenum members" 2 (List.length sm)
  | _ -> Alcotest.fail "expected two enums"

let test_parse_const_typedef_error_matchkind () =
  match
    parse_ok
      "const bit<8> W = 16; typedef bit<32> addr_t; error { NoMatch } match_kind { exact, lpm }"
  with
  | [ Ast.DConst _; Ast.DTypedef _; Ast.DError [ _ ]; Ast.DMatchKind [ _; _ ] ] -> ()
  | _ -> Alcotest.fail "unexpected decls"

let test_parse_extern_package_instantiation () =
  let src =
    {|
extern counter<W> { counter(bit<32> n); void count(in W idx); }
package Pipe<H>(MyParser<H> p);
MyCtrl() c;
|}
  in
  match parse_ok src with
  | [ Ast.DExtern { methods; _ }; Ast.DPackage _; Ast.DInstantiation _ ] ->
      check ai "methods" 2 (List.length methods)
  | _ -> Alcotest.fail "unexpected decls"

let test_program_roundtrip () =
  let src =
    {|
const bit<8> N = 4;
header h_t { @semantic("rss") bit<32> f; bit<4> a; bit<4> b; }
struct m_t { h_t h; }
parser P(desc_in d, in bit<8> ctx, out h_t hdr) {
  state start { d.extract(hdr); transition select(ctx) { 0: accept; default: reject; } }
}
control C(cmpt_out o, in bit<8> ctx_x, in m_t m) {
  apply { if (ctx_x == N) { o.emit(m.h); } }
}
|}
  in
  let p = parse_ok src in
  let printed = Pretty.program_to_string p in
  let p2 = parse_ok printed in
  check ab "program roundtrip" true (Ast.equal_program p p2)

let test_parse_pna_style_corpus () =
  (* A realistic PNA-flavoured program: externs, package, match-action
     pipeline, annotations, casts, selects with masks. *)
  let src =
    {|
error { NoError, PacketTooShort, HeaderTooShort }
match_kind { exact, ternary, lpm }

typedef bit<48> mac_addr_t;
typedef bit<32> ipv4_addr_t;
const bit<16> TYPE_IPV4 = 0x0800;

extern packet_in { void extract<T>(out T hdr); void advance(bit<32> n); }
extern packet_out { void emit<T>(in T hdr); }
extern Counter<W, S> { Counter(bit<32> n_counters); void count(in S index); }

header ethernet_t { mac_addr_t dst; mac_addr_t src; bit<16> ether_type; }
header ipv4_t {
  bit<4> version; bit<4> ihl; bit<8> diffserv; bit<16> total_len;
  bit<16> identification; bit<3> flags; bit<13> frag_offset;
  bit<8> ttl; bit<8> protocol; bit<16> hdr_checksum;
  ipv4_addr_t src_addr; ipv4_addr_t dst_addr;
}
struct headers_t { ethernet_t eth; ipv4_t ipv4; }
struct metadata_t { bit<16> l4_len; bool is_tunneled; }

parser MainParser(packet_in pkt, out headers_t hdr, inout metadata_t meta) {
  state start {
    pkt.extract(hdr.eth);
    transition select(hdr.eth.ether_type) {
      TYPE_IPV4 &&& 0xFFFF: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 {
    pkt.extract(hdr.ipv4);
    meta.l4_len = hdr.ipv4.total_len - 20;
    transition accept;
  }
}

control MainControl(inout headers_t hdr, inout metadata_t meta) {
  Counter<bit<64>, bit<8>>(256) per_port;
  action drop() { meta.is_tunneled = false; }
  action forward(mac_addr_t next_hop) {
    hdr.eth.dst = next_hop;
    hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
  }
  table routing {
    key = { hdr.ipv4.dst_addr: lpm; }
    actions = { forward; drop; }
    default_action = drop();
    size = 1024;
  }
  apply {
    if (hdr.ipv4.isValid() && hdr.ipv4.ttl > 1) {
      routing.apply();
      per_port.count((bit<8>)(hdr.ipv4.dst_addr));
    }
  }
}

control MainDeparser(packet_out pkt, in headers_t hdr) {
  apply {
    pkt.emit(hdr.eth);
    pkt.emit(hdr.ipv4);
  }
}

package Pipeline<H, M>(MainParser p, MainControl c, MainDeparser d);
|}
  in
  let tenv =
    try Typecheck.check_string src
    with Typecheck.Type_error (m, _) -> Alcotest.failf "type error: %s" m
  in
  check ai "headers" 2 (List.length (Typecheck.headers tenv));
  check ai "parsers" 1 (List.length (Typecheck.parsers tenv));
  check ai "controls" 2 (List.length (Typecheck.controls tenv));
  (* and it round-trips *)
  let p = parse_ok src in
  check ab "pna corpus roundtrip" true
    (Ast.equal_program p (parse_ok (Pretty.program_to_string p)))

(* Random expression generator for the round-trip property. *)
let gen_expr =
  let open QCheck.Gen in
  let ident_g = oneofl [ "a"; "b"; "ctx"; "meta"; "x1" ] in
  (* Strings draw from a pool heavy on the characters whose escaping
     can go wrong: quotes, backslashes, the two named escapes, and a
     control character OCaml's %S would print as a decimal escape the
     P4 lexer does not understand. *)
  let string_g =
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '\007' ])
      (int_bound 8)
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Ast.EInt { value = Int64.of_int (abs i); width = None; signed = false }) small_int;
                map
                  (fun (i, w) ->
                    Ast.EInt
                      { value = Int64.of_int (abs i); width = Some (1 + (abs w mod 32)); signed = false })
                  (pair small_int small_int);
                map (fun b -> Ast.EBool b) bool;
                map (fun s -> Ast.EString s) string_g;
                map (fun s -> Ast.EIdent (Ast.ident s)) ident_g;
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map (fun s -> Ast.EIdent (Ast.ident s)) ident_g;
                map2 (fun e f -> Ast.EMember (e, Ast.ident f)) sub ident_g;
                map2
                  (fun op (a, b) -> Ast.EBinop (op, a, b))
                  (oneofl
                     Ast.
                       [
                         Add; Sub; Mul; BAnd; BOr; BXor; LAnd; LOr; Eq; Neq; Lt; Gt;
                         Le; Ge; Shl; Shr; Concat;
                       ])
                  (pair sub sub);
                (* Casts only to built-in type heads: the parser reads
                   (user_t)(x) as a call, so named-type casts do not
                   round-trip by design. *)
                map2
                  (fun w e ->
                    let width =
                      Ast.EInt
                        {
                          value = Int64.of_int (1 + (abs w mod 64));
                          width = None;
                          signed = false;
                        }
                    in
                    Ast.ECast (Ast.TBit width, e))
                  small_int sub;
                map (fun e -> Ast.EUnop (Ast.LNot, e)) sub;
                map (fun e -> Ast.EUnop (Ast.BitNot, e)) sub;
                map3 (fun c a b -> Ast.ETernary (c, a, b)) sub sub sub;
              ])
        n)

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"pretty |> parse is identity on expressions" ~count:500
    (QCheck.make ~print:Pretty.expr_to_string gen_expr)
    (fun e ->
      let printed = Pretty.expr_to_string e in
      match Parser.parse_expr printed with
      | e2 -> Ast.equal_expr e e2
      | exception _ -> false)

(* Regression: Pretty used OCaml's %S for string literals, which emits
   decimal escapes (\007) the P4 lexer reads back as three characters.
   Only quote, backslash, newline and tab have named escapes; every
   other byte must be printed raw. *)
let test_string_literal_escaping () =
  let strings =
    [ "plain"; "quo\"te"; "back\\slash"; "tab\there"; "line\nbreak"; "bell\007raw"; "" ]
  in
  List.iter
    (fun s ->
      let e = Ast.EString s in
      let printed = Pretty.expr_to_string e in
      match Parser.parse_expr printed with
      | Ast.EString s2 ->
          check astr (Printf.sprintf "roundtrip of %S" s) s s2
      | _ -> Alcotest.fail (Printf.sprintf "%S did not reparse to a string" s))
    strings

let test_annotation_string_escaping () =
  let src = "@semantic(\"odd\\\\name\\\"x\") header h_t { bit<8> a; }" in
  let ast1 = Parser.parse_program src in
  let printed = Pretty.program_to_string ast1 in
  let ast2 = Parser.parse_program printed in
  check ab "annotation argument roundtrips" true (Ast.equal_program ast1 ast2)

(* ------------------------------------------------------------------ *)
(* Error reporting quality: every malformed program must fail with a
   message locating the problem, never an unhandled exception. *)

let expect_syntax_error ~at_line src =
  match Parser.parse_program src with
  | exception Parser.Error (_, sp) ->
      check ai (Printf.sprintf "error line for %S..." (String.sub src 0 (min 20 (String.length src))))
        at_line sp.Loc.left.line
  | exception Lexer.Error (_, p) -> check ai "lexer error line" at_line p.Loc.line
  | _ -> Alcotest.fail "expected a syntax error"

let test_errors_located () =
  expect_syntax_error ~at_line:1 "header {}";
  expect_syntax_error ~at_line:1 "header h_t { bit<8 x; }";
  expect_syntax_error ~at_line:2 "header h_t { bit<8> a; }\ncontrol C( { apply {} }";
  expect_syntax_error ~at_line:1 "parser P() { state start transition accept; } }";
  expect_syntax_error ~at_line:1 "const bit<8> X 3;";
  expect_syntax_error ~at_line:1 "@ header h_t { bit<8> a; }"

let test_error_rendering_has_caret () =
  let src = "header h_t { bit<8> a b; }" in
  match Parser.parse_program src with
  | exception e -> (
      match Parser.error_to_string src e with
      | Some msg ->
          check ab "caret line" true
            (String.split_on_char '\n' msg
            |> List.exists (fun l -> String.trim l = "^"))
      | None -> Alcotest.fail "renderable error expected")
  | _ -> Alcotest.fail "expected failure"

let test_all_failures_are_typed_exceptions () =
  (* A pile of malformed inputs: each must raise Parser.Error,
     Lexer.Error, or Typecheck.Type_error — nothing else. *)
  let bad =
    [
      "";  (* fine: empty program, no exception expected *)
      "header h_t { bit<0> z; }";
      "header h_t { bit<9000> z; }";
      "struct s_t { s_t recursive; }";
      "control C(unknown_t x) { apply {} }";
      "enum bit<2> e_t { A = banana }";
      "parser P(desc_in d) { state start { transition warp; } }";
      "header h_t { bit<8> a; } header h_t { bit<8> a; }";
      "const bit<8> N = M;";
    ]
  in
  List.iter
    (fun src ->
      match Typecheck.check_string src with
      | _ -> () (* empty/benign cases may pass *)
      | exception Parser.Error _ | exception Lexer.Error _
      | exception Typecheck.Type_error _ ->
          ()
      | exception e ->
          Alcotest.failf "unexpected exception %s for %S" (Printexc.to_string e) src)
    bad

(* ------------------------------------------------------------------ *)
(* Eval *)

let ev src = Eval.eval Eval.empty_env (Parser.parse_expr src)

let test_eval_arith () =
  check ab "add" true (Eval.equal_value (ev "1 + 2 * 3") (Eval.vint 7L));
  check ab "parens" true (Eval.equal_value (ev "(1 + 2) * 3") (Eval.vint 9L));
  check ab "shift" true (Eval.equal_value (ev "1 << 4") (Eval.vint 16L));
  check ab "mod" true (Eval.equal_value (ev "10 % 3") (Eval.vint 1L))

let test_eval_width_wrapping () =
  check ab "8-bit wrap" true (Eval.equal_value (ev "8w255 + 8w1") (Eval.vint 0L));
  check ab "cast wrap" true (Eval.equal_value (ev "(bit<4>)(8w0xFF)") (Eval.vint 0xFL))

let test_eval_comparisons () =
  check ab "lt" true (Eval.equal_value (ev "1 < 2") (Eval.VBool true));
  check ab "unsigned compare" true
    (* 8w255 > 8w1 under unsigned semantics *)
    (Eval.equal_value (ev "8w255 > 8w1") (Eval.VBool true))

let test_eval_short_circuit_with_unknown () =
  check ab "false && unknown" true
    (Eval.equal_value (ev "false && mystery") (Eval.VBool false));
  check ab "true || unknown" true
    (Eval.equal_value (ev "true || mystery") (Eval.VBool true));
  check ab "unknown && true is unknown" true
    (Eval.equal_value (ev "mystery && true") Eval.VUnknown)

let test_eval_env_paths () =
  let env path = if path = [ "ctx"; "flag" ] then Some (Eval.vint 1L) else None in
  let v = Eval.eval env (Parser.parse_expr "ctx.flag == 1") in
  check ab "ctx member" true (Eval.equal_value v (Eval.VBool true))

let test_eval_div_zero_unknown () =
  check ab "div by zero" true (Eval.equal_value (ev "1 / 0") Eval.VUnknown)

let test_eval_concat () =
  check ab "concat widths" true
    (Eval.equal_value (ev "4w0xA ++ 4w0x5") (Eval.vint ~width:8 0xA5L))

let test_eval_ternary () =
  check ab "ternary" true (Eval.equal_value (ev "1 == 1 ? 5 : 6") (Eval.vint 5L))

(* ------------------------------------------------------------------ *)
(* Typecheck *)

let tc src =
  try Typecheck.check_string src
  with
  | Typecheck.Type_error (m, _) -> Alcotest.failf "type error: %s" m
  | e -> (
      match Parser.error_to_string src e with
      | Some s -> Alcotest.failf "parse error:\n%s" s
      | None -> raise e)

let tc_err src =
  match Typecheck.check_string src with
  | exception Typecheck.Type_error (m, _) -> m
  | _ -> Alcotest.fail "expected a type error"

let test_tc_header_layout () =
  let t = tc "header h_t { bit<4> a; bit<4> b; bit<16> c; bit<8> d; }" in
  let h = Option.get (Typecheck.find_header t "h_t") in
  check ai "total bits" 32 h.h_bits;
  check ai "bytes" 4 (Typecheck.header_bytes h);
  let offs = List.map (fun (f : Typecheck.field) -> f.f_bit_off) h.h_fields in
  check (Alcotest.list ai) "offsets" [ 0; 4; 8; 24 ] offs

let test_tc_width_from_const () =
  let t = tc "const bit<8> W = 16; header h_t { bit<W> x; bit<W> y; }" in
  let h = Option.get (Typecheck.find_header t "h_t") in
  check ai "widths from const" 32 h.h_bits

let test_tc_serenum_field_width () =
  let t = tc "enum bit<2> fmt_t { A = 0, B = 3 } header h_t { fmt_t f; bit<6> pad; }" in
  let h = Option.get (Typecheck.find_header t "h_t") in
  check ai "enum width" 8 h.h_bits

let test_tc_duplicate_field_rejected () =
  let m = tc_err "header h_t { bit<8> a; bit<8> a; }" in
  check ab "mentions duplicate" true
    (String.length m > 0 && String.sub m 0 9 = "duplicate")

let test_tc_duplicate_decl_rejected () =
  ignore (tc_err "header h_t { bit<8> a; } header h_t { bit<8> b; }")

let test_tc_unknown_type_rejected () =
  ignore (tc_err "struct s_t { missing_t x; }")

let test_tc_unknown_member_rejected () =
  ignore
    (tc_err
       {|
extern cmpt_out { void emit<T>(in T hdr); }
header h_t { bit<8> a; }
control C(cmpt_out o, in h_t h) { apply { if (h.nope == 1) { o.emit(h); } } }
|})

let test_tc_semantics_recorded () =
  let t = tc {| header h_t { @semantic("rss") bit<32> v; } |} in
  let h = Option.get (Typecheck.find_header t "h_t") in
  match h.h_fields with
  | [ f ] -> check (Alcotest.option astr) "semantic" (Some "rss") f.f_semantic
  | _ -> Alcotest.fail "one field expected"

let test_tc_const_env () =
  let t = tc "const bit<8> N = 3; enum bit<2> fmt_t { MINI = 1, FULL = 2 }" in
  let env = Typecheck.const_env t in
  check ab "const" true (env [ "N" ] = Some (Eval.vint ~width:8 3L));
  check ab "enum member" true (env [ "fmt_t"; "MINI" ] = Some (Eval.vint ~width:2 1L))

let test_tc_control_params_resolved () =
  let t =
    tc
      {|
extern cmpt_out { void emit<T>(in T hdr); }
header ctx_t { bit<1> flag; }
header h_t { bit<8> v; }
control C(cmpt_out o, in ctx_t ctx, in h_t h) { apply { o.emit(h); } }
|}
  in
  let c = Option.get (Typecheck.find_control t "C") in
  match c.ct_params with
  | [ o; ctx; h ] ->
      check astr "o type" "cmpt_out" (Typecheck.rtyp_name o.c_typ);
      check astr "ctx type" "ctx_t" (Typecheck.rtyp_name ctx.c_typ);
      check astr "h type" "h_t" (Typecheck.rtyp_name h.c_typ)
  | _ -> Alcotest.fail "three params expected"

let test_tc_type_of_member_expr () =
  let t =
    tc
      {|
header h_t { bit<12> v; bit<4> w; }
struct m_t { h_t h; }
|}
  in
  let scope =
    Typecheck.scope_add
      (Typecheck.scope_of_params t [])
      "m"
      (Typecheck.resolve t (Parser.parse_type "m_t"))
  in
  let ty = Typecheck.type_of_expr t scope (Parser.parse_expr "m.h.v") in
  check astr "bit<12>" "bit<12>" (Typecheck.rtyp_name ty)

let test_tc_isvalid_is_bool () =
  let t = tc "header h_t { bit<8> v; }" in
  let scope =
    Typecheck.scope_add (Typecheck.scope_of_params t []) "h"
      (Typecheck.resolve t (Parser.parse_type "h_t"))
  in
  let ty = Typecheck.type_of_expr t scope (Parser.parse_expr "h.isValid()") in
  check astr "bool" "bool" (Typecheck.rtyp_name ty)

let test_tc_parser_unknown_state_rejected () =
  ignore
    (tc_err
       {|
extern desc_in { void extract<T>(out T hdr); }
header h_t { bit<8> v; }
parser P(desc_in d, out h_t h) { state start { transition nowhere; } }
|})

let test_tc_odd_header_bytes_rejected () =
  let t = tc "header h_t { bit<4> nib; }" in
  let h = Option.get (Typecheck.find_header t "h_t") in
  match Typecheck.header_bytes h with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "expected byte-multiple error"

let test_tc_headers_in_order () =
  let t = tc "header a_t { bit<8> x; } header b_t { bit<8> x; }" in
  check (Alcotest.list astr) "order" [ "a_t"; "b_t" ]
    (List.map (fun (h : Typecheck.header_def) -> h.h_name) (Typecheck.headers t))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "p4"
    [
      ( "lexer",
        [
          Alcotest.test_case "idents/keywords" `Quick test_lex_idents_keywords;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "rangle unfused" `Quick test_lex_rangle_never_fused;
          Alcotest.test_case "strings" `Quick test_lex_string_escapes;
          Alcotest.test_case "unterminated comment" `Quick
            test_lex_error_unterminated_comment;
          Alcotest.test_case "bad char" `Quick test_lex_error_bad_char;
          Alcotest.test_case "positions" `Quick test_lex_positions;
        ] );
      ( "expr",
        [
          Alcotest.test_case "mul/add precedence" `Quick test_expr_precedence_mul_add;
          Alcotest.test_case "cmp/and precedence" `Quick test_expr_precedence_cmp_and;
          Alcotest.test_case "shift vs gt" `Quick test_expr_shift_vs_gt;
          Alcotest.test_case "member chain" `Quick test_expr_member_chain;
          Alcotest.test_case "method call" `Quick test_expr_method_call;
          Alcotest.test_case "explicit type args" `Quick test_expr_explicit_type_args;
          Alcotest.test_case "ternary" `Quick test_expr_ternary;
          Alcotest.test_case "cast" `Quick test_expr_cast;
          Alcotest.test_case "concat" `Quick test_expr_concat;
          Alcotest.test_case "unops" `Quick test_expr_unops;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
          Alcotest.test_case "lookahead" `Quick test_expr_lookahead;
          Alcotest.test_case "statement lookahead" `Quick test_stmt_lookahead;
          Alcotest.test_case "lookahead errors" `Quick test_lookahead_errors;
          Alcotest.test_case "string literal escaping" `Quick
            test_string_literal_escaping;
          Alcotest.test_case "annotation string escaping" `Quick
            test_annotation_string_escaping;
        ]
        @ qsuite [ prop_expr_roundtrip ] );
      ( "decls",
        [
          Alcotest.test_case "header annotations" `Quick
            test_parse_header_with_annotations;
          Alcotest.test_case "nested generics" `Quick test_parse_nested_generics;
          Alcotest.test_case "parser decl vs def" `Quick test_parse_parser_decl_vs_def;
          Alcotest.test_case "control locals/apply" `Quick
            test_parse_control_with_locals_and_apply;
          Alcotest.test_case "select with masks" `Quick test_parse_select_with_masks;
          Alcotest.test_case "enums" `Quick test_parse_enums;
          Alcotest.test_case "const/typedef/error/match_kind" `Quick
            test_parse_const_typedef_error_matchkind;
          Alcotest.test_case "extern/package/instantiation" `Quick
            test_parse_extern_package_instantiation;
          Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip;
          Alcotest.test_case "PNA-style corpus" `Quick test_parse_pna_style_corpus;
        ] );
      ( "errors",
        [
          Alcotest.test_case "located" `Quick test_errors_located;
          Alcotest.test_case "caret rendering" `Quick test_error_rendering_has_caret;
          Alcotest.test_case "typed exceptions only" `Quick
            test_all_failures_are_typed_exceptions;
        ] );
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_eval_arith;
          Alcotest.test_case "width wrapping" `Quick test_eval_width_wrapping;
          Alcotest.test_case "comparisons" `Quick test_eval_comparisons;
          Alcotest.test_case "short circuit unknowns" `Quick
            test_eval_short_circuit_with_unknown;
          Alcotest.test_case "env paths" `Quick test_eval_env_paths;
          Alcotest.test_case "div by zero" `Quick test_eval_div_zero_unknown;
          Alcotest.test_case "concat" `Quick test_eval_concat;
          Alcotest.test_case "ternary" `Quick test_eval_ternary;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "header layout" `Quick test_tc_header_layout;
          Alcotest.test_case "width from const" `Quick test_tc_width_from_const;
          Alcotest.test_case "serenum field width" `Quick test_tc_serenum_field_width;
          Alcotest.test_case "duplicate field" `Quick test_tc_duplicate_field_rejected;
          Alcotest.test_case "duplicate decl" `Quick test_tc_duplicate_decl_rejected;
          Alcotest.test_case "unknown type" `Quick test_tc_unknown_type_rejected;
          Alcotest.test_case "unknown member" `Quick test_tc_unknown_member_rejected;
          Alcotest.test_case "semantics recorded" `Quick test_tc_semantics_recorded;
          Alcotest.test_case "const env" `Quick test_tc_const_env;
          Alcotest.test_case "control params" `Quick test_tc_control_params_resolved;
          Alcotest.test_case "member expr type" `Quick test_tc_type_of_member_expr;
          Alcotest.test_case "isValid is bool" `Quick test_tc_isvalid_is_bool;
          Alcotest.test_case "unknown state" `Quick test_tc_parser_unknown_state_rejected;
          Alcotest.test_case "odd header bytes" `Quick test_tc_odd_header_bytes_rejected;
          Alcotest.test_case "headers in order" `Quick test_tc_headers_in_order;
        ] );
    ]
