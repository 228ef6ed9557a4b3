type store = {
  tenv : Typecheck.t;
  vals : (string list, Eval.value) Hashtbl.t;
  valid : (string list, unit) Hashtbl.t;
}

exception Runtime_error of string

exception Stop  (* accept / reject / return *)

let max_parser_steps = 256

let create tenv = { tenv; vals = Hashtbl.create 32; valid = Hashtbl.create 8 }

let set_int store path ?width v =
  Hashtbl.replace store.vals path (Eval.vint ?width v)

let get_int store path =
  match Hashtbl.find_opt store.vals path with
  | Some (Eval.VInt { v; _ }) -> Some v
  | _ -> None

let is_valid store path = Hashtbl.mem store.valid path

let env_of store : Eval.env =
 fun path ->
  match Hashtbl.find_opt store.vals path with
  | Some v -> Some v
  | None -> Typecheck.const_env store.tenv path

(* Replace [p.isValid()] subexpressions with boolean literals so the
   plain evaluator can decide mixed conditions. *)
let rec rewrite_isvalid store (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.ECall (Ast.EMember (base, meth), _, []) when meth.name = "isValid" -> (
      match Eval.path_of_expr base with
      | Some p -> Ast.EBool (is_valid store p)
      | None -> e)
  | Ast.EUnop (op, a) -> Ast.EUnop (op, rewrite_isvalid store a)
  | Ast.EBinop (op, a, b) ->
      Ast.EBinop (op, rewrite_isvalid store a, rewrite_isvalid store b)
  | Ast.ETernary (c, a, b) ->
      Ast.ETernary (rewrite_isvalid store c, rewrite_isvalid store a,
                    rewrite_isvalid store b)
  | Ast.ECast (t, a) -> Ast.ECast (t, rewrite_isvalid store a)
  | Ast.EInt _ | Ast.EBool _ | Ast.EString _ | Ast.EIdent _ | Ast.EMember _
  | Ast.EIndex _ | Ast.ECall _ ->
      e

let eval store e = Eval.eval (env_of store) (rewrite_isvalid store e)

let eval_bool store e =
  match eval store e with
  | Eval.VBool b -> b
  | Eval.VInt { v; _ } -> v <> 0L
  | Eval.VUnknown ->
      raise
        (Runtime_error
           (Printf.sprintf "condition %s is not concrete" (Pretty.expr_to_string e)))

let assign store scope lhs value =
  match Eval.path_of_expr lhs with
  | None -> ()
  | Some path ->
      (* Truncate to the destination width when it is known. *)
      let value =
        match (value, try Typecheck.type_of_expr store.tenv scope lhs with _ -> Typecheck.RVoid) with
        | Eval.VInt { v; _ }, Typecheck.RBit w when w <= 64 ->
            Eval.vint ~width:w (Eval.truncate ~width:w v)
        | v, _ -> v
      in
      Hashtbl.replace store.vals path value

(* ------------------------------------------------------------------ *)
(* Parser execution. *)

let run_parser store (pd : Typecheck.parser_def) ~packet ~len ~param =
  let scope =
    Typecheck.scope_of_params store.tenv pd.pr_params
  in
  let cursor = ref 0 in
  let bits_len = 8 * len in
  let exec_stmt (s : Ast.stmt) =
    match s with
    | Ast.SCall (Ast.ECall (Ast.EMember (base, meth), _, args)) -> (
        match (Eval.path_of_expr base, meth.name, args) with
        | Some [ b ], "extract", [ arg ] when b = param -> (
            match Typecheck.type_of_expr store.tenv scope arg with
            | Typecheck.RHeader h ->
                if !cursor + h.h_bits > bits_len then raise Stop (* truncated *)
                else begin
                  let dest =
                    match Eval.path_of_expr arg with
                    | Some p -> p
                    | None ->
                        raise
                          (Runtime_error
                             (Printf.sprintf "extract destination %s is not an lvalue"
                                (Pretty.expr_to_string arg)))
                  in
                  List.iter
                    (fun (f : Typecheck.field) ->
                      let v =
                        if f.f_bits > 64 then 0L
                        else
                          Packet.Bitops.get_bits packet
                            ~bit_off:(!cursor + f.f_bit_off) ~width:f.f_bits
                      in
                      Hashtbl.replace store.vals (dest @ [ f.f_name ])
                        (Eval.vint ~width:(min f.f_bits 64) v))
                    h.h_fields;
                  Hashtbl.replace store.valid dest ();
                  cursor := !cursor + h.h_bits
                end
            | ty ->
                raise
                  (Runtime_error
                     (Printf.sprintf "extract into non-header %s"
                        (Typecheck.rtyp_name ty))))
        | Some [ b ], "advance", [ arg ] when b = param -> (
            match eval store arg with
            | Eval.VInt { v; _ } -> cursor := !cursor + Int64.to_int v
            | _ -> raise (Runtime_error "advance amount is not concrete"))
        | _ -> ())
    | Ast.SAssign (lhs, rhs) -> assign store scope lhs (eval store rhs)
    | Ast.SVar (_, name, init) ->
        Hashtbl.replace store.vals [ name.name ]
          (match init with Some e -> eval store e | None -> Eval.VUnknown)
    | Ast.SConst (_, name, value) ->
        Hashtbl.replace store.vals [ name.name ] (eval store value)
    | Ast.SBlock _ | Ast.SIf _ ->
        (* Conditionals inside parser states are outside the supported
           subset; failing loudly beats silently skipping logic. *)
        raise (Runtime_error "conditional statements in parser states are not supported")
    | Ast.SCall _ | Ast.SReturn _ | Ast.SEmpty -> ()
  in
  let find_state name =
    List.find_opt (fun (s : Ast.parser_state) -> s.st_name.name = name) pd.pr_states
  in
  let keyset_matches value (k : Ast.keyset) =
    match k with
    | Ast.KDefault -> true
    | Ast.KExpr e -> (
        match eval store e with
        | Eval.VInt { v; _ } -> Int64.equal v value
        | _ -> raise (Runtime_error "keyset is not concrete"))
    | Ast.KMask (e, m) -> (
        match (eval store e, eval store m) with
        | Eval.VInt { v; _ }, Eval.VInt { v = mask; _ } ->
            Int64.equal (Int64.logand value mask) (Int64.logand v mask)
        | _ -> raise (Runtime_error "mask keyset is not concrete"))
  in
  let rec step name count =
    if count > max_parser_steps then raise (Runtime_error "parser step limit");
    if name = "accept" || name = "reject" then ()
    else
      match find_state name with
      | None -> raise (Runtime_error (Printf.sprintf "unknown state %s" name))
      | Some st -> (
          List.iter exec_stmt st.st_stmts;
          match st.st_trans with
          | Ast.TDirect next -> step next.name (count + 1)
          | Ast.TSelect ([ scrutinee ], cases) -> (
              match eval store scrutinee with
              | Eval.VInt { v; _ } -> (
                  match
                    List.find_opt
                      (fun (c : Ast.select_case) ->
                        match c.keysets with
                        | [ k ] -> keyset_matches v k
                        | _ -> false)
                      cases
                  with
                  | Some c -> step c.next.name (count + 1)
                  | None -> () (* implicit reject *))
              | _ ->
                  raise
                    (Runtime_error
                       (Printf.sprintf "select(%s) is not concrete"
                          (Pretty.expr_to_string scrutinee))))
          | Ast.TSelect _ -> raise (Runtime_error "multi-scrutinee select"))
  in
  try step "start" 0 with Stop -> ()

(* ------------------------------------------------------------------ *)
(* Control execution. *)

let run_control store (cd : Typecheck.control_def) =
  let scope = Typecheck.scope_of_control store.tenv cd in
  let emits = ref [] in
  let rec exec_block stmts = List.iter exec_stmt stmts
  and exec_stmt (s : Ast.stmt) =
    match s with
    | Ast.SAssign (lhs, rhs) -> assign store scope lhs (eval store rhs)
    | Ast.SIf (c, then_b, else_b) ->
        if eval_bool store c then exec_block then_b
        else Option.iter exec_block else_b
    | Ast.SBlock b -> exec_block b
    | Ast.SCall (Ast.ECall (Ast.EMember (base, meth), _, [])) -> (
        match (Eval.path_of_expr base, meth.name) with
        | Some p, "setValid" -> Hashtbl.replace store.valid p ()
        | Some p, "setInvalid" -> Hashtbl.remove store.valid p
        | _ -> ())
    | Ast.SCall (Ast.ECall (Ast.EMember (_, meth), _, [ arg ])) when meth.name = "emit" ->
        emits := arg :: !emits
    | Ast.SCall _ -> ()
    | Ast.SVar (_, name, init) ->
        Hashtbl.replace store.vals [ name.name ]
          (match init with Some e -> eval store e | None -> Eval.VUnknown)
    | Ast.SConst (_, name, value) ->
        Hashtbl.replace store.vals [ name.name ] (eval store value)
    | Ast.SReturn _ -> raise Stop
    | Ast.SEmpty -> ()
  in
  (try exec_block cd.ct_body with Stop -> ());
  List.rev !emits
