exception Error of string * Loc.span

(* The parser pulls tokens from the lexer's cursor and reads the current
   token's kind from its field: no token container is built (see "The P4
   frontend" in docs/ARCHITECTURE.md). Advancing at [Eof] stays there. *)
type state = Lexer.t

let peek_kind (st : state) = st.kind
let span = Lexer.span
let advance = Lexer.advance

let err st msg = raise (Error (msg, span st))

(* Every caller passes a constant constructor, an immediate value, so
   physical equality is equality. *)
let is (st : state) kind = st.kind == kind

let expect st kind what =
  if is st kind then advance st
  else err st (Printf.sprintf "expected %s, found %s" what (Token.describe (peek_kind st)))

let accept st kind =
  if is st kind then begin
    advance st;
    true
  end
  else false

let ident st =
  match peek_kind st with
  | Token.Ident name ->
      let sp = span st in
      advance st;
      { Ast.name; span = sp }
  | k -> err st (Printf.sprintf "expected identifier, found %s" (Token.describe k))

(* Member position also admits the keywords that double as method or
   property names in P4 ([t.apply()], [h.key], ...); a keyword's name
   is its text. *)
let member_ident st =
  match peek_kind st with
  | Token.Ident _ -> ident st
  | _ when Lexer.is_keyword st ->
      let sp = span st and name = Lexer.text st in
      advance st;
      { Ast.name; span = sp }
  | k -> err st (Printf.sprintf "expected member name, found %s" (Token.describe k))

(* Backtracking helper: run [f]; on failure restore the cursor. *)
let try_parse st f =
  let saved = Lexer.mark st in
  try Some (f st)
  with Error _ ->
    Lexer.reset st saved;
    None

(* ------------------------------------------------------------------ *)
(* Annotations: @name or @name(arg, ...). *)

let annotation_arg st : Ast.annot_arg =
  match peek_kind st with
  | Token.String s ->
      advance st;
      Ast.AString s
  | Token.Int { value; _ } ->
      advance st;
      Ast.AInt value
  | Token.Minus -> (
      advance st;
      match peek_kind st with
      | Token.Int { value; _ } ->
          advance st;
          Ast.AInt (Int64.neg value)
      | k -> err st (Printf.sprintf "expected integer after '-', found %s" (Token.describe k)))
  | Token.Ident s ->
      advance st;
      Ast.AIdent s
  | k -> err st (Printf.sprintf "expected annotation argument, found %s" (Token.describe k))

let annotations st : Ast.annotation list =
  let rec go acc =
    if accept st Token.At then begin
      let name = (ident st).name in
      let args =
        if accept st Token.LParen then begin
          let rec args acc =
            let a = annotation_arg st in
            if accept st Token.Comma then args (a :: acc) else List.rev (a :: acc)
          in
          let l = if is st Token.RParen then [] else args [] in
          expect st Token.RParen "')'";
          l
        end
        else []
      in
      go ({ Ast.aname = name; args } :: acc)
    end
    else List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Types and expressions (mutually recursive through casts/widths). *)

(* The binary-operator table: the operator at the cursor, and its
   binding power, loosest first. A '>' directly followed by another is
   a right shift, not a comparison. *)
let binop_at st : Ast.binop option =
  match peek_kind st with
  | Token.OrOr -> Some Ast.LOr
  | Token.AndAnd -> Some Ast.LAnd
  | Token.Pipe -> Some Ast.BOr
  | Token.Caret -> Some Ast.BXor
  | Token.Amp -> Some Ast.BAnd
  | Token.Eq -> Some Ast.Eq
  | Token.Neq -> Some Ast.Neq
  | Token.LAngle -> Some Ast.Lt
  | Token.Le -> Some Ast.Le
  | Token.Ge -> Some Ast.Ge
  | Token.RAngle -> if Lexer.at_shr st then Some Ast.Shr else Some Ast.Gt
  | Token.Shl -> Some Ast.Shl
  | Token.Plus -> Some Ast.Add
  | Token.Minus -> Some Ast.Sub
  | Token.PlusPlus -> Some Ast.Concat
  | Token.Star -> Some Ast.Mul
  | Token.Slash -> Some Ast.Div
  | Token.Percent -> Some Ast.Mod
  | _ -> None

let precedence : Ast.binop -> int = function
  | Ast.LOr -> 1
  | Ast.LAnd -> 2
  | Ast.BOr -> 3
  | Ast.BXor -> 4
  | Ast.BAnd -> 5
  | Ast.Eq | Ast.Neq -> 6
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 7
  | Ast.Shl | Ast.Shr -> 8
  | Ast.Add | Ast.Sub | Ast.Concat -> 9
  | Ast.Mul | Ast.Div | Ast.Mod -> 10

(* The tokens [typ] accepts first. *)
let starts_type : Token.kind -> bool = function
  | Token.KwBit | Token.KwInt | Token.KwVarbit | Token.KwBool | Token.KwError | Token.KwVoid
  | Token.Ident _ ->
      true
  | _ -> false

let rec typ st : Ast.typ =
  match peek_kind st with
  | Token.KwBit ->
      advance st;
      if accept st Token.LAngle then begin
        let e = width_expr st in
        expect st Token.RAngle "'>'";
        Ast.TBit e
      end
      else Ast.TBit (Ast.EInt { value = 1L; width = None; signed = false })
  | Token.KwInt ->
      advance st;
      expect st Token.LAngle "'<'";
      let e = width_expr st in
      expect st Token.RAngle "'>'";
      Ast.TSigned e
  | Token.KwVarbit ->
      advance st;
      expect st Token.LAngle "'<'";
      let e = width_expr st in
      expect st Token.RAngle "'>'";
      Ast.TVarbit e
  | Token.KwBool ->
      advance st;
      Ast.TBool
  | Token.KwError ->
      advance st;
      Ast.TError
  | Token.KwVoid ->
      advance st;
      Ast.TVoid
  | Token.Ident _ ->
      let name = ident st in
      if is st Token.LAngle then begin
        match
          try_parse st (fun st ->
              expect st Token.LAngle "'<'";
              let args = type_args st in
              close_angle st;
              args)
        with
        | Some args -> Ast.TApply (name, args)
        | None -> Ast.TName name
      end
      else Ast.TName name
  | k -> err st (Printf.sprintf "expected a type, found %s" (Token.describe k))

and type_args st =
  let rec go acc =
    let t = typ st in
    if accept st Token.Comma then go (t :: acc) else List.rev (t :: acc)
  in
  go []

(* Closing '>' of type arguments. Nothing fancy needed because the lexer
   never fuses '>>'. *)
and close_angle st = expect st Token.RAngle "'>'"

and expr st : Ast.expr = ternary st

(* Width expressions inside bit<...> stop below relational/shift level so
   the closing '>' of the type is never mistaken for a comparison. *)
and width_expr st : Ast.expr = binary st (precedence Ast.Add)

and ternary st =
  let c = binary st (precedence Ast.LOr) in
  if accept st Token.Question then begin
    let t = expr st in
    expect st Token.Colon "':'";
    let f = expr st in
    Ast.ETernary (c, t, f)
  end
  else c

(* Precedence climbing over [binop_at] and [precedence]: the operands
   of a level-[min] expression bind at least as tightly as [min], and
   every level associates to the left. *)
and binary st min = climb st min (unary st)

and climb st min lhs =
  match binop_at st with
  | Some op when precedence op >= min ->
      advance st;
      (* a right shift is two '>' tokens *)
      if op = Ast.Shr then advance st;
      climb st min (Ast.EBinop (op, lhs, binary st (precedence op + 1)))
  | _ -> lhs

and unary st =
  match peek_kind st with
  | Token.Not ->
      advance st;
      Ast.EUnop (Ast.LNot, unary st)
  | Token.Tilde ->
      advance st;
      Ast.EUnop (Ast.BitNot, unary st)
  | Token.Minus ->
      advance st;
      Ast.EUnop (Ast.Neg, unary st)
  | _ -> postfix st

and postfix st = postfix_ops st (primary st)

and postfix_ops st acc =
  match peek_kind st with
  | Token.Dot ->
      advance st;
      postfix_ops st (Ast.EMember (acc, member_ident st))
  | Token.LBracket ->
      advance st;
      let i = expr st in
      expect st Token.RBracket "']'";
      postfix_ops st (Ast.EIndex (acc, i))
  | Token.LParen ->
      advance st;
      let args = if is st Token.RParen then [] else expr_list st in
      expect st Token.RParen "')'";
      postfix_ops st (Ast.ECall (acc, [], args))
  | Token.LAngle when starts_type (Lexer.peek st) -> (
      (* Possibly explicit type arguments of a call: f<T, U>(args). *)
      match
        try_parse st (fun st ->
            expect st Token.LAngle "'<'";
            let targs = type_args st in
            close_angle st;
            expect st Token.LParen "'('";
            let args = if is st Token.RParen then [] else expr_list st in
            expect st Token.RParen "')'";
            (targs, args))
      with
      | Some (targs, args) -> postfix_ops st (Ast.ECall (acc, targs, args))
      | None -> acc)
  | _ -> acc

and expr_list st =
  let rec go acc =
    let e = expr st in
    if accept st Token.Comma then go (e :: acc) else List.rev (e :: acc)
  in
  go []

and primary st =
  match peek_kind st with
  | Token.Int lit ->
      advance st;
      Ast.EInt { value = lit.value; width = lit.width; signed = lit.signed }
  | Token.KwTrue ->
      advance st;
      Ast.EBool true
  | Token.KwFalse ->
      advance st;
      Ast.EBool false
  | Token.String s ->
      advance st;
      Ast.EString s
  | Token.Ident _ -> Ast.EIdent (ident st)
  | Token.KwError ->
      (* error.NoMatch etc: represent "error" as an identifier head. *)
      advance st;
      Ast.EIdent (Ast.ident "error")
  | Token.LParen -> (
      (* Either a cast "(bit<8>) e" or a parenthesised expression. Casts
         are only recognised for built-in type heads, which is all the
         corpus uses. *)
      match Lexer.peek st with
      | Token.KwBit | Token.KwInt | Token.KwVarbit | Token.KwBool ->
          advance st;
          let t = typ st in
          expect st Token.RParen "')'";
          let e = unary st in
          Ast.ECast (t, e)
      | _ ->
          advance st;
          let e = expr st in
          expect st Token.RParen "')'";
          e)
  | k -> err st (Printf.sprintf "expected expression, found %s" (Token.describe k))

(* ------------------------------------------------------------------ *)
(* Statements. *)

let rec stmt st : Ast.stmt =
  match peek_kind st with
  | Token.Semi ->
      advance st;
      Ast.SEmpty
  | Token.LBrace -> Ast.SBlock (block st)
  | Token.KwIf ->
      advance st;
      expect st Token.LParen "'('";
      let c = expr st in
      expect st Token.RParen "')'";
      let then_ = stmt_as_block st in
      let else_ = if accept st Token.KwElse then Some (stmt_as_block st) else None in
      Ast.SIf (c, then_, else_)
  | Token.KwReturn ->
      advance st;
      let e = if is st Token.Semi then None else Some (expr st) in
      expect st Token.Semi "';'";
      Ast.SReturn e
  | Token.KwConst ->
      advance st;
      let t = typ st in
      let name = ident st in
      expect st Token.Assign "'='";
      let v = expr st in
      expect st Token.Semi "';'";
      Ast.SConst (t, name, v)
  | Token.KwBit | Token.KwInt | Token.KwVarbit | Token.KwBool ->
      var_decl_stmt st
  | Token.Ident _ -> (
      (* Could be: a variable declaration "T name (= e)? ;", an
         assignment "lvalue = e;", or a call statement "e(...);". Try a
         declaration first (requires type-then-ident shape). A type is
         [T] or [T<...>], so an identifier followed by '.', '=', '(' or
         '[' cannot start one. *)
      match Lexer.peek st with
      | Token.Dot | Token.Assign | Token.LParen | Token.LBracket -> assign_or_call st
      | _ -> (
          match try_parse st var_decl_stmt with
          | Some s -> s
          | None -> assign_or_call st))
  | k -> err st (Printf.sprintf "expected statement, found %s" (Token.describe k))

and var_decl_stmt st =
  let t = typ st in
  let name = ident st in
  let init = if accept st Token.Assign then Some (expr st) else None in
  expect st Token.Semi "';'";
  Ast.SVar (t, name, init)

and assign_or_call st =
  let e = expr st in
  if accept st Token.Assign then begin
    let rhs = expr st in
    expect st Token.Semi "';'";
    Ast.SAssign (e, rhs)
  end
  else begin
    expect st Token.Semi "';'";
    match e with
    | Ast.ECall _ -> Ast.SCall e
    | _ -> err st "expected assignment or call statement"
  end

and stmt_as_block st : Ast.block =
  if is st Token.LBrace then block st else [ stmt st ]

and block st : Ast.block =
  expect st Token.LBrace "'{'";
  let rec go acc =
    if is st Token.RBrace then begin
      advance st;
      List.rev acc
    end
    else go (stmt st :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Parameters and declarations. *)

let direction st : Ast.direction =
  match peek_kind st with
  | Token.KwIn ->
      advance st;
      Ast.DIn
  | Token.KwOut ->
      advance st;
      Ast.DOut
  | Token.KwInout ->
      advance st;
      Ast.DInOut
  | _ -> Ast.DNone

let param st : Ast.param =
  let pannots = annotations st in
  let pdir = direction st in
  let ptyp = typ st in
  let pname = ident st in
  { Ast.pannots; pdir; ptyp; pname }

let params st : Ast.param list =
  expect st Token.LParen "'('";
  if accept st Token.RParen then []
  else begin
    let rec go acc =
      let p = param st in
      if accept st Token.Comma then go (p :: acc) else List.rev (p :: acc)
    in
    let ps = go [] in
    expect st Token.RParen "')'";
    ps
  end

let type_params st : Ast.ident list =
  if accept st Token.LAngle then begin
    let rec go acc =
      let i = ident st in
      if accept st Token.Comma then go (i :: acc) else List.rev (i :: acc)
    in
    let tps = go [] in
    close_angle st;
    tps
  end
  else []

let field st : Ast.field =
  let fannots = annotations st in
  let ftyp = typ st in
  let fname = member_ident st in
  expect st Token.Semi "';'";
  { Ast.fannots; ftyp; fname }

let fields st : Ast.field list =
  expect st Token.LBrace "'{'";
  let rec go acc =
    if is st Token.RBrace then begin
      advance st;
      List.rev acc
    end
    else go (field st :: acc)
  in
  go []

let ident_list_braced st =
  expect st Token.LBrace "'{'";
  let rec go acc =
    match peek_kind st with
    | Token.RBrace ->
        advance st;
        List.rev acc
    | _ ->
        let i = ident st in
        let _ = accept st Token.Comma in
        go (i :: acc)
  in
  go []

(* Parser states. *)

let keyset st : Ast.keyset =
  if accept st Token.KwDefault then Ast.KDefault
  else begin
    let e = expr st in
    if accept st Token.MaskAnd then begin
      let m = expr st in
      Ast.KMask (e, m)
    end
    else Ast.KExpr e
  end

let select_case st : Ast.select_case =
  let keysets =
    if accept st Token.LParen then begin
      let rec go acc =
        let k = keyset st in
        if accept st Token.Comma then go (k :: acc) else List.rev (k :: acc)
      in
      let ks = go [] in
      expect st Token.RParen "')'";
      ks
    end
    else [ keyset st ]
  in
  expect st Token.Colon "':'";
  let next = ident st in
  expect st Token.Semi "';'";
  { Ast.keysets; next }

let transition st : Ast.transition =
  expect st Token.KwTransition "'transition'";
  if accept st Token.KwSelect then begin
    expect st Token.LParen "'('";
    let scrutinee = expr_list st in
    expect st Token.RParen "')'";
    expect st Token.LBrace "'{'";
    let rec go acc =
      if is st Token.RBrace then begin
        advance st;
        List.rev acc
      end
      else go (select_case st :: acc)
    in
    let cases = go [] in
    Ast.TSelect (scrutinee, cases)
  end
  else begin
    let next = ident st in
    expect st Token.Semi "';'";
    Ast.TDirect next
  end

let parser_state st : Ast.parser_state =
  let st_annots = annotations st in
  expect st Token.KwState "'state'";
  let st_name = ident st in
  expect st Token.LBrace "'{'";
  let rec go acc =
    if is st Token.KwTransition then List.rev acc
    else if is st Token.RBrace then List.rev acc
    else go (stmt st :: acc)
  in
  let st_stmts = go [] in
  let st_trans =
    if is st Token.KwTransition then transition st
    else
      (* implicit reject, modelled as a direct transition *)
      Ast.TDirect (Ast.ident "reject")
  in
  expect st Token.RBrace "'}'";
  { Ast.st_annots; st_name; st_stmts; st_trans }

(* Table properties. *)

let table_prop st : Ast.table_prop =
  match peek_kind st with
  | Token.KwKey ->
      advance st;
      expect st Token.Assign "'='";
      expect st Token.LBrace "'{'";
      let rec go acc =
        if is st Token.RBrace then begin
          advance st;
          List.rev acc
        end
        else begin
          let e = expr st in
          expect st Token.Colon "':'";
          let mk = ident st in
          expect st Token.Semi "';'";
          go ((e, mk) :: acc)
        end
      in
      Ast.PKey (go [])
  | Token.KwActions ->
      advance st;
      expect st Token.Assign "'='";
      expect st Token.LBrace "'{'";
      let rec go acc =
        if is st Token.RBrace then begin
          advance st;
          List.rev acc
        end
        else begin
          let i = ident st in
          expect st Token.Semi "';'";
          go (i :: acc)
        end
      in
      Ast.PActions (go [])
  | Token.KwDefaultAction ->
      advance st;
      expect st Token.Assign "'='";
      let e = expr st in
      expect st Token.Semi "';'";
      Ast.PDefaultAction e
  | Token.Ident _ ->
      let name = ident st in
      expect st Token.Assign "'='";
      let e = expr st in
      expect st Token.Semi "';'";
      Ast.PCustom (name, e)
  | k -> err st (Printf.sprintf "expected table property, found %s" (Token.describe k))

(* Declarations. *)

let rec decl st : Ast.decl =
  let annots = annotations st in
  match peek_kind st with
  | Token.KwConst ->
      advance st;
      let t = typ st in
      let name = ident st in
      expect st Token.Assign "'='";
      let value = expr st in
      expect st Token.Semi "';'";
      Ast.DConst { annots; typ = t; name; value }
  | Token.KwTypedef ->
      advance st;
      let t = typ st in
      let name = ident st in
      expect st Token.Semi "';'";
      Ast.DTypedef { annots; typ = t; name }
  | Token.KwHeader ->
      advance st;
      let name = ident st in
      let tps = type_params st in
      let fs = fields st in
      Ast.DHeader { annots; name; type_params = tps; fields = fs }
  | Token.KwStruct ->
      advance st;
      let name = ident st in
      let tps = type_params st in
      let fs = fields st in
      Ast.DStruct { annots; name; type_params = tps; fields = fs }
  | Token.KwEnum -> (
      advance st;
      match peek_kind st with
      | Token.KwBit | Token.KwInt -> (
          let t = typ st in
          let name = ident st in
          expect st Token.LBrace "'{'";
          let rec go acc =
            if is st Token.RBrace then begin
              advance st;
              List.rev acc
            end
            else begin
              let m = ident st in
              expect st Token.Assign "'='";
              let v = expr st in
              let _ = accept st Token.Comma in
              go ((m, v) :: acc)
            end
          in
          match go [] with
          | members -> Ast.DSerEnum { annots; typ = t; name; members })
      | _ ->
          let name = ident st in
          let members = ident_list_braced st in
          Ast.DEnum { annots; name; members })
  | Token.KwError ->
      advance st;
      Ast.DError (ident_list_braced st)
  | Token.KwMatchKind ->
      advance st;
      Ast.DMatchKind (ident_list_braced st)
  | Token.KwParser ->
      advance st;
      let name = ident st in
      let tps = type_params st in
      let ps = params st in
      if accept st Token.Semi then
        Ast.DParserDecl { annots; name; type_params = tps; params = ps }
      else begin
        expect st Token.LBrace "'{'";
        let rec go locals states =
          match peek_kind st with
          | Token.RBrace ->
              advance st;
              (List.rev locals, List.rev states)
          | Token.KwState -> go_states locals states
          | Token.At when state_annotated st -> go_states locals states
          | _ -> go (decl st :: locals) states
        and go_states locals states =
          match peek_kind st with
          | Token.RBrace ->
              advance st;
              (List.rev locals, List.rev states)
          | _ -> go_states locals (parser_state st :: states)
        in
        let locals, states = go [] [] in
        Ast.DParser { annots; name; type_params = tps; params = ps; locals; states }
      end
  | Token.KwControl ->
      advance st;
      let name = ident st in
      let tps = type_params st in
      let ps = params st in
      if accept st Token.Semi then
        Ast.DControlDecl { annots; name; type_params = tps; params = ps }
      else begin
        expect st Token.LBrace "'{'";
        let rec go locals =
          if is st Token.KwApply then List.rev locals
          else go (decl st :: locals)
        in
        let locals = go [] in
        expect st Token.KwApply "'apply'";
        let body = block st in
        expect st Token.RBrace "'}'";
        Ast.DControl { annots; name; type_params = tps; params = ps; locals; apply = body }
      end
  | Token.KwAction ->
      advance st;
      let name = ident st in
      let ps = params st in
      let body = block st in
      Ast.DAction { annots; name; params = ps; body }
  | Token.KwTable ->
      advance st;
      let name = ident st in
      expect st Token.LBrace "'{'";
      let rec go acc =
        if is st Token.RBrace then begin
          advance st;
          List.rev acc
        end
        else go (table_prop st :: acc)
      in
      Ast.DTable { annots; name; props = go [] }
  | Token.KwExtern ->
      advance st;
      let name = ident st in
      let tps = type_params st in
      if accept st Token.LBrace then begin
        let rec go acc =
          if is st Token.RBrace then begin
            advance st;
            List.rev acc
          end
          else begin
            let m_annots = annotations st in
            let m_ret =
              (* constructor methods have no return type: Name(params); *)
              if Lexer.peek st == Token.LParen then Ast.TVoid else typ st
            in
            let m_name = ident st in
            let m_type_params = type_params st in
            let m_params = params st in
            expect st Token.Semi "';'";
            go ({ Ast.m_annots; m_ret; m_name; m_type_params; m_params } :: acc)
          end
        in
        Ast.DExtern { annots; name; type_params = tps; methods = go [] }
      end
      else begin
        expect st Token.Semi "';'";
        Ast.DExtern { annots; name; type_params = tps; methods = [] }
      end
  | Token.KwPackage ->
      advance st;
      let name = ident st in
      let tps = type_params st in
      let ps = params st in
      expect st Token.Semi "';'";
      Ast.DPackage { annots; name; type_params = tps; params = ps }
  | Token.KwBit | Token.KwInt | Token.KwVarbit | Token.KwBool ->
      let t = typ st in
      let name = ident st in
      let init = if accept st Token.Assign then Some (expr st) else None in
      expect st Token.Semi "';'";
      Ast.DVarTop { annots; typ = t; name; init }
  | Token.Ident _ -> (
      (* Instantiation "Type(args) name;" or top-level variable. *)
      let t = typ st in
      match peek_kind st with
      | Token.LParen ->
          advance st;
          let args = if is st Token.RParen then [] else expr_list st in
          expect st Token.RParen "')'";
          let name = ident st in
          expect st Token.Semi "';'";
          Ast.DInstantiation { annots; typ = t; args; name }
      | _ ->
          let name = ident st in
          let init = if accept st Token.Assign then Some (expr st) else None in
          expect st Token.Semi "';'";
          Ast.DVarTop { annots; typ = t; name; init })
  | k -> err st (Printf.sprintf "expected declaration, found %s" (Token.describe k))

(* Lookahead: annotations followed by 'state' (annotated parser state). *)
and state_annotated st =
  let saved = Lexer.mark st in
  let result =
    try
      let _ = annotations st in
      is st Token.KwState
    with Error _ -> false
  in
  Lexer.reset st saved;
  result

(* Parse all of [src] with [f]. A lexical error anywhere wins over a
   syntax error, as it did when the whole input was lexed before
   parsing: a syntax error lexes the rest of the input before it
   escapes. *)
let parse ?start src f =
  let st = Lexer.make ?start src in
  try
    let x = f st in
    expect st Token.Eof "end of input";
    x
  with Error _ as e ->
    Lexer.drain st;
    raise e

let parse_program ?start src =
  parse ?start src (fun st ->
      let rec go acc = if is st Token.Eof then List.rev acc else go (decl st :: acc) in
      go [])

let parse_expr src = parse src expr
let parse_type src = parse src typ

let error_to_string src exn =
  let render msg (p : Loc.pos) =
    let lines = String.split_on_char '\n' src in
    let line = try List.nth lines (p.line - 1) with _ -> "" in
    let caret = String.make (max 0 p.col) ' ' ^ "^" in
    Printf.sprintf "line %d, column %d: %s\n  %s\n  %s" p.line p.col msg line caret
  in
  match exn with
  | Error (msg, sp) -> Some (render msg sp.Loc.left)
  | Lexer.Error (msg, p) -> Some (render msg p)
  | _ -> None
