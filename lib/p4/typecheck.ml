exception Type_error of string * Loc.span

type field = {
  f_name : string;
  f_bits : int;
  f_bit_off : int;
  f_semantic : string option;
  f_annots : Ast.annotation list;
  f_span : Loc.span;
}

type header_def = {
  h_name : string;
  h_fields : field list;
  h_bits : int;
  h_annots : Ast.annotation list;
  h_span : Loc.span;
}

type rtyp =
  | RBit of int
  | RSigned of int
  | RVarbit of int
  | RBool
  | RError
  | RString
  | RVoid
  | RHeader of header_def
  | RStruct of struct_def
  | REnum of string
  | RSerEnum of { se_name : string; se_width : int }
  | RExtern of string
  | RTypeVar of string

and struct_def = { s_name : string; s_fields : (string * rtyp) list }

let rtyp_name = function
  | RBit w -> Printf.sprintf "bit<%d>" w
  | RSigned w -> Printf.sprintf "int<%d>" w
  | RVarbit w -> Printf.sprintf "varbit<%d>" w
  | RBool -> "bool"
  | RError -> "error"
  | RString -> "string"
  | RVoid -> "void"
  | RHeader h -> h.h_name
  | RStruct s -> s.s_name
  | REnum n -> n
  | RSerEnum { se_name; _ } -> se_name
  | RExtern n -> n
  | RTypeVar n -> n

let err span msg = raise (Type_error (msg, span))

let header_bytes h =
  if h.h_bits mod 8 <> 0 then
    err h.h_span
      (Printf.sprintf "header %s is %d bits, not a byte multiple" h.h_name h.h_bits)
  else h.h_bits / 8

let find_field h name = List.find_opt (fun f -> f.f_name = name) h.h_fields

type cparam = {
  c_name : string;
  c_dir : Ast.direction;
  c_typ : rtyp;
  c_annots : Ast.annotation list;
}

type control_def = {
  ct_name : string;
  ct_params : cparam list;
  ct_locals : Ast.decl list;
  ct_body : Ast.block;
  ct_annots : Ast.annotation list;
  ct_span : Loc.span;
}

type parser_def = {
  pr_name : string;
  pr_params : cparam list;
  pr_locals : Ast.decl list;
  pr_states : Ast.parser_state list;
  pr_annots : Ast.annotation list;
  pr_span : Loc.span;
}

type extern_def = { e_name : string; e_methods : Ast.extern_method list }

type entry =
  | EnHeader of header_def
  | EnStruct of struct_def
  | EnTypedef of rtyp
  | EnEnum of string list
  | EnSerEnum of { width : int; members : (string * int64) list }
  | EnExtern of extern_def
  | EnControl of control_def
  | EnParser of parser_def
  | EnCtrlDecl  (* control/parser/package type declarations: opaque *)
  | EnConst of Eval.value
  | EnInstance of rtyp

type t = {
  table : (string, entry) Hashtbl.t;
  mutable order : string list;  (* declaration order, reversed *)
  prog : Ast.program;
}

let program t = t.prog

let lookup t name = Hashtbl.find_opt t.table name

let define t span name entry =
  if Hashtbl.mem t.table name then err span (Printf.sprintf "duplicate definition of %s" name)
  else begin
    Hashtbl.replace t.table name entry;
    t.order <- name :: t.order
  end

(* Environment exposing constants and serializable enum members to the
   evaluator. *)
let const_env t : Eval.env =
 fun path ->
  match path with
  | [ name ] -> (
      match lookup t name with Some (EnConst v) -> Some v | _ -> None)
  | [ enum; member ] -> (
      match lookup t enum with
      | Some (EnSerEnum { width; members }) -> (
          match List.assoc_opt member members with
          | Some v -> Some (Eval.vint ~width v)
          | None -> None)
      | _ -> None)
  | _ -> None

let eval_width t span e =
  match Eval.const_int (const_env t) e with
  | Some w -> (
      match Lexer.check_width w with Some msg -> err span msg | None -> Int64.to_int w)
  | None -> err span "width expression is not a compile-time constant"

let span_of_typ = function
  | Ast.TName i | Ast.TApply (i, _) -> i.Ast.span
  | _ -> Loc.dummy

let rec resolve t (ty : Ast.typ) : rtyp =
  match ty with
  | Ast.TBit e -> RBit (eval_width t (span_of_typ ty) e)
  | Ast.TSigned e -> RSigned (eval_width t (span_of_typ ty) e)
  | Ast.TVarbit e -> RVarbit (eval_width t (span_of_typ ty) e)
  | Ast.TBool -> RBool
  | Ast.TError -> RError
  | Ast.TString -> RString
  | Ast.TVoid -> RVoid
  | Ast.TApply (i, _) -> resolve_name t i
  | Ast.TName i -> resolve_name t i

and resolve_name t (i : Ast.ident) =
  match lookup t i.name with
  | Some (EnHeader h) -> RHeader h
  | Some (EnStruct s) -> RStruct s
  | Some (EnTypedef ty) -> ty
  | Some (EnEnum _) -> REnum i.name
  | Some (EnSerEnum { width; _ }) -> RSerEnum { se_name = i.name; se_width = width }
  | Some (EnExtern e) -> RExtern e.e_name
  | Some (EnCtrlDecl) -> RExtern i.name
  | Some (EnControl _) -> RExtern i.name
  | Some (EnParser _) -> RExtern i.name
  | Some (EnConst _) | Some (EnInstance _) ->
      err i.span (Printf.sprintf "%s is a value, not a type" i.name)
  | None -> err i.span (Printf.sprintf "unknown type %s" i.name)

(* A type usable as a header field, with its width. *)
let field_width _t span = function
  | RBit w -> w
  | RSigned w -> w
  | RBool -> 1
  | RSerEnum { se_width; _ } -> se_width
  | ty -> err span (Printf.sprintf "type %s cannot be a header field" (rtyp_name ty))

let resolve_header t (name : Ast.ident) annots (fields : Ast.field list) =
  let seen = Hashtbl.create 8 in
  let _, rev_fields =
    List.fold_left
      (fun (off, acc) (f : Ast.field) ->
        if Hashtbl.mem seen f.fname.name then
          err f.fname.span (Printf.sprintf "duplicate field %s" f.fname.name);
        Hashtbl.replace seen f.fname.name ();
        let w = field_width t f.fname.span (resolve t f.ftyp) in
        let fd =
          {
            f_name = f.fname.name;
            f_bits = w;
            f_bit_off = off;
            f_semantic = Ast.semantic_of f;
            f_annots = f.fannots;
            f_span = f.fname.span;
          }
        in
        (off + w, fd :: acc))
      (0, []) fields
  in
  let h_fields = List.rev rev_fields in
  let h_bits = List.fold_left (fun acc f -> acc + f.f_bits) 0 h_fields in
  { h_name = name.name; h_fields; h_bits; h_annots = annots; h_span = name.span }

let resolve_struct t (name : Ast.ident) (fields : Ast.field list) =
  let s_fields =
    List.map (fun (f : Ast.field) -> (f.fname.Ast.name, resolve t f.ftyp)) fields
  in
  { s_name = name.name; s_fields }

(* ------------------------------------------------------------------ *)
(* Scopes and expression typing. *)

type scope = (string * rtyp) list

let scope_of_params _t params =
  List.map (fun p -> (p.c_name, p.c_typ)) params

let scope_add scope name ty = (name, ty) :: scope

let rec type_of_expr t (scope : scope) (e : Ast.expr) : rtyp =
  match e with
  | Ast.EInt { width = Some w; signed; _ } -> if signed then RSigned w else RBit w
  | Ast.EInt { width = None; _ } -> RBit 64 (* unsized literal; widest *)
  | Ast.EBool _ -> RBool
  | Ast.EString _ -> RString
  | Ast.EIdent i -> (
      match List.assoc_opt i.name scope with
      | Some ty -> ty
      | None -> (
          match lookup t i.name with
          | Some (EnConst (Eval.VInt { width = Some w; _ })) -> RBit w
          | Some (EnConst (Eval.VInt { width = None; _ })) -> RBit 64
          | Some (EnConst (Eval.VBool _)) -> RBool
          | Some (EnConst Eval.VUnknown) -> RTypeVar "?"
          | Some (EnSerEnum { width; _ }) ->
              RSerEnum { se_name = i.name; se_width = width }
          | Some (EnEnum _) -> REnum i.name
          | Some (EnInstance ty) -> ty
          | Some (EnExtern e) -> RExtern e.e_name
          | _ -> err i.span (Printf.sprintf "unknown name %s" i.name)))
  | Ast.EMember (base, fld) -> (
      (* Serializable-enum member? The base is then a type name. *)
      match base with
      | Ast.EIdent bi when (match lookup t bi.name with
                           | Some (EnSerEnum _) | Some (EnEnum _) -> true
                           | _ -> false)
                           && not (List.mem_assoc bi.name scope) -> (
          match lookup t bi.name with
          | Some (EnSerEnum { width; members }) ->
              if List.mem_assoc fld.name members then
                RSerEnum { se_name = bi.name; se_width = width }
              else err fld.span (Printf.sprintf "%s has no member %s" bi.name fld.name)
          | Some (EnEnum members) ->
              if List.mem fld.name members then REnum bi.name
              else err fld.span (Printf.sprintf "%s has no member %s" bi.name fld.name)
          | _ -> assert false)
      | _ -> (
          match type_of_expr t scope base with
          | RHeader h -> (
              match find_field h fld.name with
              | Some f -> RBit f.f_bits
              | None ->
                  err fld.span
                    (Printf.sprintf "header %s has no field %s" h.h_name fld.name))
          | RStruct s -> (
              match List.assoc_opt fld.name s.s_fields with
              | Some ty -> ty
              | None ->
                  err fld.span
                    (Printf.sprintf "struct %s has no field %s" s.s_name fld.name))
          | RTypeVar _ -> RTypeVar "?"
          | RExtern _ as ty -> ty (* method group; typed at the call *)
          | ty ->
              err fld.span
                (Printf.sprintf "cannot access field %s of %s" fld.name (rtyp_name ty))))
  | Ast.EIndex (base, _) -> (
      match type_of_expr t scope base with
      | RBit _ -> RBit 1
      | RTypeVar _ -> RTypeVar "?"
      | ty -> err (Ast.expr_span base) (Printf.sprintf "cannot index %s" (rtyp_name ty)))
  | Ast.EUnop (Ast.LNot, _) -> RBool
  | Ast.EUnop (_, e) -> type_of_expr t scope e
  | Ast.EBinop ((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.LAnd | Ast.LOr), a, b)
    ->
      ignore (type_of_expr t scope a);
      ignore (type_of_expr t scope b);
      RBool
  | Ast.EBinop (Ast.Concat, a, b) -> (
      match (type_of_expr t scope a, type_of_expr t scope b) with
      | RBit x, RBit y -> RBit (x + y)
      | _ -> RTypeVar "?")
  | Ast.EBinop (_, a, b) -> (
      match type_of_expr t scope a with RTypeVar _ -> type_of_expr t scope b | ty -> ty)
  | Ast.ETernary (_, a, _) -> type_of_expr t scope a
  | Ast.ECast (ty, _) -> resolve t ty
  | Ast.ECall (callee, _targs, _args) -> type_of_call t scope callee

and type_of_call t scope callee =
  match callee with
  | Ast.EMember (base, meth) -> (
      let base_ty =
        try Some (type_of_expr t scope base) with Type_error _ -> None
      in
      match base_ty with
      | Some (RHeader _) -> (
          match meth.name with
          | "isValid" -> RBool
          | "setValid" | "setInvalid" -> RVoid
          | "minSizeInBytes" | "minSizeInBits" -> RBit 32
          | m -> err meth.span (Printf.sprintf "unknown header method %s" m))
      | Some (RExtern ename) -> (
          match lookup t ename with
          | Some (EnExtern e) -> (
              match
                List.find_opt (fun (m : Ast.extern_method) -> m.m_name.name = meth.name)
                  e.e_methods
              with
              | Some m -> ( try resolve t m.m_ret with Type_error _ -> RVoid)
              | None ->
                  err meth.span
                    (Printf.sprintf "extern %s has no method %s" ename meth.name))
          | _ ->
              (* controls/tables: apply() *)
              if meth.name = "apply" then RVoid
              else err meth.span (Printf.sprintf "unknown method %s" meth.name))
      | Some (RTypeVar _) -> RTypeVar "?"
      | Some ty ->
          err meth.span
            (Printf.sprintf "cannot call method %s on %s" meth.name (rtyp_name ty))
      | None -> RVoid)
  | Ast.EIdent i -> (
      (* action call or free function; typed loosely as void *)
      match lookup t i.name with
      | Some _ -> RVoid
      | None -> err i.span (Printf.sprintf "unknown function %s" i.name))
  | _ -> RVoid

(* ------------------------------------------------------------------ *)
(* Statement checking. *)

let rec check_block t scope (b : Ast.block) =
  let _ = List.fold_left (check_stmt t) scope b in
  ()

and check_stmt t scope (s : Ast.stmt) : scope =
  match s with
  | Ast.SAssign (l, r) ->
      let lt = type_of_expr t scope l in
      let rt = type_of_expr t scope r in
      (match (lt, rt) with
      | RBit _, (RBit _ | RSigned _ | RSerEnum _)
      | RSigned _, (RBit _ | RSigned _)
      | RBool, RBool
      | RSerEnum _, (RSerEnum _ | RBit _)
      | REnum _, REnum _
      | RTypeVar _, _
      | _, RTypeVar _ ->
          ()
      | RHeader a, RHeader b when a.h_name = b.h_name -> ()
      | RStruct a, RStruct b when a.s_name = b.s_name -> ()
      | _ ->
          err (Ast.expr_span l)
            (Printf.sprintf "cannot assign %s to %s" (rtyp_name rt) (rtyp_name lt)));
      scope
  | Ast.SCall e ->
      let _ = type_of_expr t scope e in
      scope
  | Ast.SIf (c, th, el) ->
      (match type_of_expr t scope c with
      | RBool | RBit _ | RTypeVar _ -> ()
      | ty -> err (Ast.expr_span c) (Printf.sprintf "condition has type %s" (rtyp_name ty)));
      check_block t scope th;
      Option.iter (check_block t scope) el;
      scope
  | Ast.SBlock b ->
      check_block t scope b;
      scope
  | Ast.SVar (ty, name, init) ->
      let rty = resolve t ty in
      Option.iter (fun e -> ignore (type_of_expr t scope e)) init;
      scope_add scope name.name rty
  | Ast.SConst (ty, name, value) ->
      let rty = resolve t ty in
      ignore (type_of_expr t scope value);
      scope_add scope name.name rty
  | Ast.SReturn (Some e) ->
      ignore (type_of_expr t scope e);
      scope
  | Ast.SReturn None | Ast.SEmpty -> scope

let resolve_params t (params : Ast.param list) =
  List.map
    (fun (p : Ast.param) ->
      {
        c_name = p.pname.name;
        c_dir = p.pdir;
        c_typ = (try resolve t p.ptyp with Type_error _ -> RTypeVar (Format.asprintf "%a" Pretty.typ p.ptyp));
        c_annots = p.pannots;
      })
    params

(* Scope for a control body: params, then local declarations. *)
let scope_of_locals t scope (locals : Ast.decl list) =
  List.fold_left
    (fun scope (d : Ast.decl) ->
      match d with
      | Ast.DVarTop { typ = ty; name; _ } -> (
          match try Some (resolve t ty) with Type_error _ -> None with
          | Some rty -> scope_add scope name.name rty
          | None -> scope)
      | Ast.DInstantiation { typ = ty; name; _ } -> (
          match try Some (resolve t ty) with Type_error _ -> None with
          | Some rty -> scope_add scope name.name rty
          | None -> scope)
      | Ast.DConst { typ = ty; name; _ } -> (
          match try Some (resolve t ty) with Type_error _ -> None with
          | Some rty -> scope_add scope name.name rty
          | None -> scope)
      | Ast.DTable { name; _ } -> scope_add scope name.name (RExtern "table")
      | _ -> scope)
    scope locals

let scope_of_params t params = scope_of_params t params

let scope_of_control t (c : control_def) =
  scope_of_locals t (scope_of_params t c.ct_params) c.ct_locals

(* ------------------------------------------------------------------ *)
(* Program checking. *)

let check_parser_states t scope (states : Ast.parser_state list) =
  let state_names = List.map (fun (s : Ast.parser_state) -> s.Ast.st_name.name) states in
  let known_target n = List.mem n state_names || n = "accept" || n = "reject" in
  List.iter
    (fun (s : Ast.parser_state) ->
      let scope = List.fold_left (check_stmt t) scope s.st_stmts in
      match s.st_trans with
      | Ast.TDirect next ->
          if not (known_target next.name) then
            err next.span (Printf.sprintf "unknown state %s" next.name)
      | Ast.TSelect (scrutinee, cases) ->
          List.iter (fun e -> ignore (type_of_expr t scope e)) scrutinee;
          List.iter
            (fun (c : Ast.select_case) ->
              if not (known_target c.next.name) then
                err c.next.span (Printf.sprintf "unknown state %s" c.next.name))
            cases)
    states

let check_decl t (d : Ast.decl) =
  match d with
  | Ast.DConst { typ = ty; name; value; _ } ->
      let rty = resolve t ty in
      let v =
        match (Eval.eval (const_env t) value, rty) with
        | Eval.VInt { v; _ }, RBit w -> Eval.vint ~width:w (Eval.truncate ~width:w v)
        | Eval.VInt { v; _ }, RSigned w -> Eval.vint ~width:w v
        | (Eval.VBool _ as b), RBool -> b
        | v, _ -> v
      in
      define t name.span name.name (EnConst v)
  | Ast.DTypedef { typ = ty; name; _ } ->
      define t name.span name.name (EnTypedef (resolve t ty))
  | Ast.DHeader { name; fields; annots; type_params = [] } ->
      define t name.span name.name (EnHeader (resolve_header t name annots fields))
  | Ast.DHeader { name; _ } ->
      (* generic headers are registered opaquely *)
      define t name.span name.name EnCtrlDecl
  | Ast.DStruct { name; fields; type_params = []; _ } ->
      define t name.span name.name (EnStruct (resolve_struct t name fields))
  | Ast.DStruct { name; _ } -> define t name.span name.name EnCtrlDecl
  | Ast.DEnum { name; members; _ } ->
      define t name.span name.name
        (EnEnum (List.map (fun (i : Ast.ident) -> i.name) members))
  | Ast.DSerEnum { typ = ty; name; members; _ } ->
      let width =
        match resolve t ty with
        | RBit w | RSigned w -> w
        | ty -> err name.span (Printf.sprintf "enum base %s is not bit/int" (rtyp_name ty))
      in
      let members =
        List.map
          (fun ((i : Ast.ident), e) ->
            match Eval.const_int (const_env t) e with
            | Some v -> (i.name, v)
            | None -> err i.span (Printf.sprintf "enum member %s is not constant" i.name))
          members
      in
      define t name.span name.name (EnSerEnum { width; members })
  | Ast.DError _ | Ast.DMatchKind _ -> ()
  | Ast.DParser { name; type_params = []; params; locals; states; annots } ->
      let pr_params = resolve_params t params in
      let pd =
        { pr_name = name.name; pr_params; pr_locals = locals; pr_states = states;
          pr_annots = annots; pr_span = name.span }
      in
      define t name.span name.name (EnParser pd);
      let scope = scope_of_locals t (scope_of_params t pr_params) locals in
      check_parser_states t scope states
  | Ast.DParser { name; _ } -> define t name.span name.name EnCtrlDecl
  | Ast.DControl { name; type_params = []; params; locals; apply; annots } ->
      let ct_params = resolve_params t params in
      let cd =
        { ct_name = name.name; ct_params; ct_locals = locals; ct_body = apply;
          ct_annots = annots; ct_span = name.span }
      in
      define t name.span name.name (EnControl cd);
      (* check local actions and the apply body *)
      let scope = scope_of_locals t (scope_of_params t ct_params) locals in
      List.iter
        (fun (d : Ast.decl) ->
          match d with
          | Ast.DAction { params; body; _ } ->
              let pscope =
                List.fold_left
                  (fun sc (p : cparam) -> scope_add sc p.c_name p.c_typ)
                  scope (resolve_params t params)
              in
              check_block t pscope body
          | _ -> ())
        locals;
      check_block t scope apply
  | Ast.DControl { name; _ } -> define t name.span name.name EnCtrlDecl
  | Ast.DAction { name; params; body; _ } ->
      define t name.span name.name EnCtrlDecl;
      let pscope =
        List.fold_left
          (fun sc (p : cparam) -> scope_add sc p.c_name p.c_typ)
          [] (resolve_params t params)
      in
      check_block t pscope body
  | Ast.DTable { name; _ } -> define t name.span name.name EnCtrlDecl
  | Ast.DExtern { name; methods; _ } ->
      define t name.span name.name (EnExtern { e_name = name.name; e_methods = methods })
  | Ast.DParserDecl { name; _ } | Ast.DControlDecl { name; _ } | Ast.DPackage { name; _ }
    ->
      define t name.span name.name EnCtrlDecl
  | Ast.DInstantiation { typ = ty; name; _ } ->
      let rty = try resolve t ty with Type_error _ -> RExtern "package" in
      define t name.span name.name (EnInstance rty)
  | Ast.DVarTop { typ = ty; name; _ } ->
      define t name.span name.name (EnInstance (resolve t ty))

let check (prog : Ast.program) : t =
  let t = { table = Hashtbl.create 64; order = []; prog } in
  List.iter (check_decl t) prog;
  t

let check_string src = check (Parser.parse_program src)

let check_result prog =
  match check prog with
  | t -> Ok t
  | exception Type_error (msg, sp) ->
      Error (Printf.sprintf "type error at %d:%d: %s" sp.Loc.left.line sp.Loc.left.col msg)

let find_header t name =
  match lookup t name with Some (EnHeader h) -> Some h | _ -> None

let find_control t name =
  match lookup t name with Some (EnControl c) -> Some c | _ -> None

let find_parser t name =
  match lookup t name with Some (EnParser p) -> Some p | _ -> None

let in_order t pick =
  List.rev t.order
  |> List.filter_map (fun name ->
         match lookup t name with Some e -> pick e | None -> None)

let headers t = in_order t (function EnHeader h -> Some h | _ -> None)
let controls t = in_order t (function EnControl c -> Some c | _ -> None)
let parsers t = in_order t (function EnParser p -> Some p | _ -> None)
