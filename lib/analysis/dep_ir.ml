(* A small IR of a completion deparser body: emit and branch sites are
   numbered in AST pre-order (then-branch before else-branch), the same
   encounter order the compiler's CFG uses, so diagnostics and path
   indices line up with `opendesc_cc paths`/`cfg` output.

   This is the one deparser walk: Engine.catalogue runs it under every
   context assignment, and the compiler's completion paths
   (Path.of_catalogue) are a view of that catalogue. The interpreter
   forks on undecidable branches, recording the first one a run forked
   on, so the analysis still produces runs for descriptions the compiler
   rejects (Nic_spec.load refuses any forked run). *)

type emit = {
  e_id : int;  (** site number, pre-order *)
  e_arg : string;  (** pretty-printed emitted expression *)
  e_header : P4.Typecheck.header_def;
  e_span : P4.Loc.span;
}

type node =
  | NEmit of emit
  | NIf of { i_id : int; i_cond : P4.Ast.expr; i_then : node list; i_else : node list }
  | NAssign of P4.Ast.expr * P4.Ast.expr
  | NDecl of string * P4.Ast.expr option
  | NReturn
  | NOther

type t = {
  ir_nodes : node list;
  ir_emits : emit list;  (** all emit sites, in site order *)
  ir_ifs : (int * P4.Ast.expr) list;  (** all branch sites, in site order *)
  ir_out : string;  (** the cmpt_out parameter name *)
}

let out_param (c : P4.Typecheck.control_def) =
  List.find_map
    (fun (p : P4.Typecheck.cparam) ->
      match p.c_typ with
      | P4.Typecheck.RExtern "cmpt_out" -> Some p.c_name
      | _ -> None)
    c.ct_params

let emit_target out_name (e : P4.Ast.expr) =
  match e with
  | P4.Ast.ECall (P4.Ast.EMember (base, meth), _, [ arg ]) when meth.name = "emit"
    -> (
      match P4.Eval.path_of_expr base with
      | Some [ b ] when b = out_name -> Some arg
      | _ -> None)
  | _ -> None

exception Build_error of string

let of_control tenv (ctrl : P4.Typecheck.control_def) : (t, string) result =
  match out_param ctrl with
  | None ->
      Error
        (Printf.sprintf "control %s has no cmpt_out parameter" ctrl.ct_name)
  | Some out -> (
      let scope = P4.Typecheck.scope_of_control tenv ctrl in
      let next = ref 0 in
      let fresh () =
        let id = !next in
        next := id + 1;
        id
      in
      let emits = ref [] and ifs = ref [] in
      let rec build_block stmts = List.concat_map build_stmt stmts
      and build_stmt (s : P4.Ast.stmt) =
        match s with
        | P4.Ast.SCall e -> (
            match emit_target out e with
            | None -> [ NOther ]
            | Some arg -> (
                let id = fresh () in
                match P4.Typecheck.type_of_expr tenv scope arg with
                | P4.Typecheck.RHeader h ->
                    let em =
                      {
                        e_id = id;
                        e_arg = P4.Pretty.expr_to_string arg;
                        e_header = h;
                        e_span = P4.Ast.expr_span arg;
                      }
                    in
                    emits := em :: !emits;
                    [ NEmit em ]
                | ty ->
                    raise
                      (Build_error
                         (Printf.sprintf "emit of non-header %s : %s"
                            (P4.Pretty.expr_to_string arg)
                            (P4.Typecheck.rtyp_name ty)))))
        | P4.Ast.SIf (c, th, el) ->
            let id = fresh () in
            ifs := (id, c) :: !ifs;
            let i_then = build_block th in
            let i_else = match el with Some b -> build_block b | None -> [] in
            [ NIf { i_id = id; i_cond = c; i_then; i_else } ]
        | P4.Ast.SBlock b -> build_block b
        | P4.Ast.SAssign (l, r) -> [ NAssign (l, r) ]
        | P4.Ast.SVar (_, name, init) -> [ NDecl (name.name, init) ]
        | P4.Ast.SConst (_, name, v) -> [ NDecl (name.name, Some v) ]
        | P4.Ast.SReturn _ -> [ NReturn ]
        | P4.Ast.SEmpty -> []
      in
      match build_block ctrl.ct_body with
      | nodes ->
          Ok
            {
              ir_nodes = nodes;
              ir_emits = List.rev !emits;
              ir_ifs = List.rev !ifs;
              ir_out = out;
            }
      | exception Build_error msg -> Error msg
      | exception P4.Typecheck.Type_error (msg, _) -> Error msg)

(* ------------------------------------------------------------------ *)
(* Abstract/concrete interpretation under one context assignment. *)

type exec_emit = {
  x_emit : emit;
  x_bit_off : int;  (** absolute offset of this header in the completion *)
}

type run = {
  r_emits : exec_emit list;
  r_total_bits : int;
  r_forked : P4.Ast.expr option;
      (** the first undecidable branch forked along this run, if any *)
}

type state = {
  locals : (string list * P4.Eval.value) list;
  bits : int;
  emits : exec_emit list;  (* reversed *)
  forked : P4.Ast.expr option;
  stopped : bool;
}

let max_forks = 64

let run ~consts ~ctx_env t : run list =
  let env_of st path =
    match List.assoc_opt path st.locals with
    | Some v -> Some v
    | None -> ( match ctx_env path with Some v -> Some v | None -> consts path)
  in
  let set_local st path v =
    { st with locals = (path, v) :: List.remove_assoc path st.locals }
  in
  let rec exec_nodes sts nodes = List.fold_left exec_node sts nodes
  and exec_node sts node =
    let allow_fork = List.length sts < max_forks in
    List.concat_map (fun st -> exec_one allow_fork st node) sts
  and exec_one allow_fork st node =
    if st.stopped then [ st ]
    else
      match node with
      | NEmit em ->
          [
            {
              st with
              bits = st.bits + em.e_header.h_bits;
              emits = { x_emit = em; x_bit_off = st.bits } :: st.emits;
            };
          ]
      | NIf { i_cond; i_then; i_else; _ } -> (
          match P4.Eval.eval_bool (env_of st) i_cond with
          | Some true -> exec_nodes [ st ] i_then
          | Some false -> exec_nodes [ st ] i_else
          | None ->
              let st =
                if Option.is_none st.forked then { st with forked = Some i_cond }
                else st
              in
              if allow_fork then
                exec_nodes [ st ] i_then @ exec_nodes [ st ] i_else
              else exec_nodes [ st ] i_then)
      | NAssign (l, r) -> (
          match P4.Eval.path_of_expr l with
          | Some p -> [ set_local st p (P4.Eval.eval (env_of st) r) ]
          | None -> [ st ])
      | NDecl (n, init) ->
          let v =
            match init with
            | Some e -> P4.Eval.eval (env_of st) e
            | None -> P4.Eval.VUnknown
          in
          [ set_local st [ n ] v ]
      | NReturn -> [ { st with stopped = true } ]
      | NOther -> [ st ]
  in
  let init =
    { locals = []; bits = 0; emits = []; forked = None; stopped = false }
  in
  exec_nodes [ init ] t.ir_nodes
  |> List.map (fun st ->
         { r_emits = List.rev st.emits; r_total_bits = st.bits; r_forked = st.forked })
