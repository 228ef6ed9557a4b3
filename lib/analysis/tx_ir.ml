(* TX descriptor formats: walk the desc_in parser under every context
   assignment and group equal extract sequences, with the assignments
   that select each. The compiler's Descparser lays these groups out;
   the engine lints them directly. *)

type fmt = {
  t_index : int;
  t_extracts : (string * P4.Typecheck.header_def) list;
  t_assignments : Context.assignment list;  (** in enumeration order *)
}

exception Walk_error of string

let stream_param (p : P4.Typecheck.parser_def) =
  List.find_map
    (fun (prm : P4.Typecheck.cparam) ->
      match prm.c_typ with
      | P4.Typecheck.RExtern "desc_in" -> Some prm.c_name
      | _ -> None)
    p.pr_params

let is_desc_parser p = stream_param p <> None

let extract_target stream_name (e : P4.Ast.expr) =
  match e with
  | P4.Ast.ECall (P4.Ast.EMember (base, meth), _, [ arg ])
    when meth.name = "extract" -> (
      match P4.Eval.path_of_expr base with
      | Some [ b ] when b = stream_name -> Some arg
      | _ -> None)
  | _ -> None

let max_steps = 64

let keyset_matches env value (k : P4.Ast.keyset) =
  match k with
  | P4.Ast.KDefault -> Some true
  | P4.Ast.KExpr e -> (
      match P4.Eval.eval env e with
      | P4.Eval.VInt { v; _ } -> Some (Int64.equal v value)
      | _ -> None)
  | P4.Ast.KMask (e, m) -> (
      match (P4.Eval.eval env e, P4.Eval.eval env m) with
      | P4.Eval.VInt { v; _ }, P4.Eval.VInt { v = mask; _ } ->
          Some (Int64.equal (Int64.logand v mask) (Int64.logand value mask))
      | _ -> None)

let run_assignment tenv (pd : P4.Typecheck.parser_def) ~stream_name ~ctx_env scope =
  let locals : (string list, P4.Eval.value) Hashtbl.t = Hashtbl.create 8 in
  let consts = P4.Typecheck.const_env tenv in
  let env path =
    match Hashtbl.find_opt locals path with
    | Some v -> Some v
    | None -> ( match ctx_env path with Some v -> Some v | None -> consts path)
  in
  let extracts = ref [] in
  let exec_stmt (s : P4.Ast.stmt) =
    match s with
    | P4.Ast.SCall e -> (
        match extract_target stream_name e with
        | Some arg -> (
            match P4.Typecheck.type_of_expr tenv scope arg with
            | P4.Typecheck.RHeader h ->
                extracts := (P4.Pretty.expr_to_string arg, h) :: !extracts
            | ty ->
                raise
                  (Walk_error
                     (Printf.sprintf "extract into non-header %s : %s"
                        (P4.Pretty.expr_to_string arg)
                        (P4.Typecheck.rtyp_name ty))))
        | None -> ())
    | P4.Ast.SAssign (lhs, rhs) -> (
        match P4.Eval.path_of_expr lhs with
        | Some path -> Hashtbl.replace locals path (P4.Eval.eval env rhs)
        | None -> ())
    | P4.Ast.SVar (_, name, init) ->
        let v =
          match init with Some e -> P4.Eval.eval env e | None -> P4.Eval.VUnknown
        in
        Hashtbl.replace locals [ name.name ] v
    | P4.Ast.SConst (_, name, value) ->
        Hashtbl.replace locals [ name.name ] (P4.Eval.eval env value)
    | P4.Ast.SIf _ | P4.Ast.SBlock _ | P4.Ast.SReturn _ | P4.Ast.SEmpty -> ()
  in
  let find_state name =
    List.find_opt
      (fun (s : P4.Ast.parser_state) -> s.st_name.name = name)
      pd.pr_states
  in
  let rec step name count =
    if count > max_steps then
      raise
        (Walk_error (Printf.sprintf "parser %s: state cycle detected" pd.pr_name));
    if name = "accept" || name = "reject" then ()
    else
      match find_state name with
      | None -> raise (Walk_error (Printf.sprintf "unknown parser state %s" name))
      | Some st -> (
          List.iter exec_stmt st.st_stmts;
          match st.st_trans with
          | P4.Ast.TDirect next -> step next.name (count + 1)
          | P4.Ast.TSelect ([ scrutinee ], cases) -> (
              match P4.Eval.eval env scrutinee with
              | P4.Eval.VInt { v; _ } -> (
                  match
                    List.find_opt
                      (fun (c : P4.Ast.select_case) ->
                        match c.keysets with
                        | [ k ] -> keyset_matches env v k = Some true
                        | _ -> false)
                      cases
                  with
                  | Some c -> step c.next.name (count + 1)
                  | None -> () (* implicit reject *))
              | _ ->
                  raise
                    (Walk_error
                       (Printf.sprintf "select(%s) is not decidable from the context"
                          (P4.Pretty.expr_to_string scrutinee))))
          | P4.Ast.TSelect (_, _) ->
              raise (Walk_error "multi-scrutinee select is not supported"))
  in
  step "start" 0;
  List.rev !extracts

let extracts_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ((ea, (ha : P4.Typecheck.header_def)) : string * _)
            ((eb, (hb : P4.Typecheck.header_def)) : string * _) ->
         ea = eb && ha.h_name = hb.h_name)
       a b

let enumerate tenv (pd : P4.Typecheck.parser_def) : (fmt list, string) result =
  match
    match stream_param pd with
    | None ->
        Error (Printf.sprintf "parser %s has no desc_in parameter" pd.pr_name)
    | Some stream_name -> (
        let scope = P4.Typecheck.scope_of_params tenv pd.pr_params in
        let ctx = Context.find_in pd.pr_params in
        let assignments =
          match ctx with
          | None -> Ok [ [] ]
          | Some (_, ctx_header) -> Context.enumerate ctx_header
        in
        let ctx_param_name =
          match ctx with Some (p, _) -> p.c_name | None -> "ctx"
        in
        match assignments with
        | Error e -> Error e
        | Ok assignments ->
            (* (extracts, its assignments), both newest first *)
            let groups = ref [] in
            List.iter
              (fun a ->
                let ctx_env = Context.env_of ~param_name:ctx_param_name a in
                let extracts =
                  run_assignment tenv pd ~stream_name ~ctx_env scope
                in
                match
                  List.find_opt (fun (g, _) -> extracts_equal g extracts) !groups
                with
                | Some (_, assigns) -> assigns := a :: !assigns
                | None -> groups := (extracts, ref [ a ]) :: !groups)
              assignments;
            Ok
              (List.mapi
                 (fun i (extracts, assigns) ->
                   {
                     t_index = i;
                     t_extracts = extracts;
                     t_assignments = List.rev !assigns;
                   })
                 (List.rev !groups)))
  with
  | result -> result
  | exception Walk_error msg -> Error msg
  | exception P4.Typecheck.Type_error (msg, _) -> Error msg
