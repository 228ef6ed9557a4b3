type lfield = {
  l_name : string;
  l_header : string;
  l_semantic : string option;
  l_bit_off : int;
  l_bits : int;
  l_span : P4.Loc.span;
}

type layout = { fields : lfield list; size_bytes : int }

type t = {
  p_index : int;
  p_emits : (string * P4.Typecheck.header_def) list;
  p_layout : layout;
  p_prov : string list;
  p_assignments : Opendesc_analysis.Context.assignment list;
}

let size t = t.p_layout.size_bytes
let provides t s = List.mem s t.p_prov

let field_for t s =
  List.find_opt (fun f -> f.l_semantic = Some s) t.p_layout.fields

exception Stop_exec  (* a return statement ends the apply body *)

exception Exec_error of string

(* Execute the deparser body under one context assignment, collecting the
   emit sequence. Local variables are tracked concretely when their values
   are computable, so conditions may also read locals derived from the
   context. *)
let run_assignment tenv (ctrl : P4.Typecheck.control_def) ~out_name ~ctx_env scope =
  let locals : (string list, P4.Eval.value) Hashtbl.t = Hashtbl.create 8 in
  let consts = P4.Typecheck.const_env tenv in
  let env path =
    match Hashtbl.find_opt locals path with
    | Some v -> Some v
    | None -> ( match ctx_env path with Some v -> Some v | None -> consts path)
  in
  let emits = ref [] in
  let rec exec_block stmts = List.iter exec_stmt stmts
  and exec_stmt (s : P4.Ast.stmt) =
    match s with
    | P4.Ast.SCall e -> (
        match Cfg.emit_target out_name e with
        | Some arg -> (
            match P4.Typecheck.type_of_expr tenv scope arg with
            | P4.Typecheck.RHeader h ->
                emits := (P4.Pretty.expr_to_string arg, h) :: !emits
            | ty ->
                raise
                  (Exec_error
                     (Printf.sprintf "emit of non-header %s : %s"
                        (P4.Pretty.expr_to_string arg)
                        (P4.Typecheck.rtyp_name ty))))
        | None -> () (* other extern/table calls don't affect the layout *))
    | P4.Ast.SIf (cond, then_b, else_b) -> (
        match P4.Eval.eval_bool env cond with
        | Some true -> exec_block then_b
        | Some false -> Option.iter exec_block else_b
        | None ->
            raise
              (Exec_error
                 (Printf.sprintf
                    "branch %s is not decidable from the context; OpenDesc \
                     requires completion layouts to be selected by configuration"
                    (P4.Pretty.expr_to_string cond))))
    | P4.Ast.SBlock b -> exec_block b
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
    | P4.Ast.SReturn _ -> raise Stop_exec
    | P4.Ast.SEmpty -> ()
  in
  (try exec_block ctrl.ct_body with Stop_exec -> ());
  List.rev !emits

let layout_of_emits emits =
  let bit = ref 0 in
  let fields =
    List.concat_map
      (fun ((_, h) : string * P4.Typecheck.header_def) ->
        let base = !bit in
        let fs =
          List.map
            (fun (f : P4.Typecheck.field) ->
              {
                l_name = f.f_name;
                l_header = h.h_name;
                l_semantic = f.f_semantic;
                l_bit_off = base + f.f_bit_off;
                l_bits = f.f_bits;
                l_span = f.f_span;
              })
            h.h_fields
        in
        bit := base + h.h_bits;
        fs)
      emits
  in
  if !bit mod 8 <> 0 then
    raise (Exec_error (Printf.sprintf "completion layout is %d bits, not byte-aligned" !bit));
  { fields; size_bytes = !bit / 8 }

let prov_of_emits emits =
  List.concat_map
    (fun ((_, h) : string * P4.Typecheck.header_def) ->
      List.filter_map (fun (f : P4.Typecheck.field) -> f.f_semantic) h.h_fields)
    emits
  |> List.sort_uniq String.compare

let emits_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ((ea, ha) : string * P4.Typecheck.header_def) ((eb, hb) : string * P4.Typecheck.header_def) ->
         ea = eb && ha.h_name = hb.h_name)
       a b

type pruning = {
  pr_syntactic : int;
  pr_feasible : int;
  pr_pruned : int;
  pr_runs : int;
  pr_configs : int;
}

(* Context fields that can influence a branch decision, computed as the
   taint closure of every condition's read set through local-variable
   definitions. Fields outside this set cannot change the emit sequence,
   so one concrete run covers every assignment that agrees on the set. *)
let influencing_fields (ctrl : P4.Typecheck.control_def) ~ctx_param_name =
  let deps : (string list, string list list) Hashtbl.t = Hashtbl.create 8 in
  let add_dep lhs rhs_paths =
    let prev = Option.value ~default:[] (Hashtbl.find_opt deps lhs) in
    Hashtbl.replace deps lhs (rhs_paths @ prev)
  in
  let cond_paths = ref [] in
  let rec walk (s : P4.Ast.stmt) =
    match s with
    | P4.Ast.SIf (cond, then_b, else_b) ->
        cond_paths := P4.Eval.paths_in cond @ !cond_paths;
        List.iter walk then_b;
        Option.iter (List.iter walk) else_b
    | P4.Ast.SBlock b -> List.iter walk b
    | P4.Ast.SAssign (lhs, rhs) -> (
        match P4.Eval.path_of_expr lhs with
        | Some p -> add_dep p (P4.Eval.paths_in rhs)
        | None -> ())
    | P4.Ast.SVar (_, name, init) ->
        Option.iter (fun e -> add_dep [ name.P4.Ast.name ] (P4.Eval.paths_in e)) init
    | P4.Ast.SConst (_, name, value) ->
        add_dep [ name.P4.Ast.name ] (P4.Eval.paths_in value)
    | P4.Ast.SCall _ | P4.Ast.SReturn _ | P4.Ast.SEmpty -> ()
  in
  List.iter walk ctrl.ct_body;
  let seen : (string list, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec close p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      List.iter close (Option.value ~default:[] (Hashtbl.find_opt deps p))
    end
  in
  List.iter close !cond_paths;
  Hashtbl.fold
    (fun p () acc ->
      match p with
      | [ root; field ] when root = ctx_param_name -> field :: acc
      | _ -> acc)
    seen []

(* Symbolic leaf census of the deparser's decision tree: how many
   syntactic completion paths exist, and how many of them the abstract
   interpreter proves unreachable under every configuration and every
   descriptor value. Purely informational here (the concrete walk below
   only ever visits feasible paths); the counts feed the CLI, the bench
   acceptance and [Nic_spec]. *)
let pruning_stats tenv (ctrl : P4.Typecheck.control_def) ~runs ~configs =
  let zero =
    { pr_syntactic = 0; pr_feasible = 0; pr_pruned = 0; pr_runs = runs; pr_configs = configs }
  in
  match Opendesc_analysis.Dep_ir.of_control tenv ctrl with
  | Error _ -> zero
  | Ok ir ->
      let base =
        Opendesc_analysis.Symexec.base_env
          ~consts:(P4.Typecheck.const_env tenv)
          ~ctx:(Opendesc_analysis.Context.find_param ctrl) ~params:ctrl.ct_params ()
      in
      let sx = Opendesc_analysis.Symexec.exec ~base ir in
      let total = List.length sx.Opendesc_analysis.Symexec.sx_leaves in
      {
        pr_syntactic = total;
        pr_feasible = total - sx.Opendesc_analysis.Symexec.sx_pruned;
        pr_pruned = sx.Opendesc_analysis.Symexec.sx_pruned;
        pr_runs = runs;
        pr_configs = configs;
      }

let enumerate_core ~memoize tenv (ctrl : P4.Typecheck.control_def) =
  match
    let out_name = Cfg.out_param ctrl in
    let scope = P4.Typecheck.scope_of_control tenv ctrl in
    let ctx = Opendesc_analysis.Context.find_param ctrl in
    let assignments =
      match ctx with
      | None -> Ok [ [] ]
      | Some (_param, ctx_header) -> Opendesc_analysis.Context.enumerate ctx_header
    in
    let ctx_param_name =
      match ctx with Some (p, _) -> p.c_name | None -> "ctx"
    in
    match assignments with
    | Error e -> Error e
    | Ok assignments ->
        (* Execute under each assignment, then group equal emit sequences.
           When memoizing, project each assignment onto the branch-
           influencing context fields and run the deparser once per
           projection: the full product is still enumerated (so per-path
           configuration sets are exact and ordered as before) but the
           number of concrete executions drops from |product| to
           |projection|. *)
        let infl =
          if memoize then influencing_fields ctrl ~ctx_param_name else []
        in
        let project a = List.filter (fun (k, _) -> List.mem k infl) a in
        let memo :
            ( Opendesc_analysis.Context.assignment,
              (string * P4.Typecheck.header_def) list )
            Hashtbl.t =
          Hashtbl.create 16
        in
        let n_runs = ref 0 in
        let run a =
          incr n_runs;
          let ctx_env = Opendesc_analysis.Context.env_of ~param_name:ctx_param_name a in
          run_assignment tenv ctrl ~out_name ~ctx_env scope
        in
        let runs =
          if memoize then
            List.map
              (fun a ->
                let key = project a in
                match Hashtbl.find_opt memo key with
                | Some emits -> (a, emits)
                | None ->
                    let emits = run a in
                    Hashtbl.add memo key emits;
                    (a, emits))
              assignments
          else List.map (fun a -> (a, run a)) assignments
        in
        let groups : (string * P4.Typecheck.header_def) list list ref = ref [] in
        let by_path = Hashtbl.create 8 in
        List.iter
          (fun (a, emits) ->
            match
              List.find_opt (fun g -> emits_equal g emits) !groups
            with
            | Some g ->
                let key = List.map fst g in
                Hashtbl.replace by_path key (a :: Hashtbl.find by_path key)
            | None ->
                groups := !groups @ [ emits ];
                Hashtbl.replace by_path (List.map fst emits) [ a ])
          runs;
        let paths =
          List.mapi
            (fun i emits ->
              {
                p_index = i;
                p_emits = emits;
                p_layout = layout_of_emits emits;
                p_prov = prov_of_emits emits;
                p_assignments = List.rev (Hashtbl.find by_path (List.map fst emits));
              })
            !groups
        in
        Ok
          ( paths,
            pruning_stats tenv ctrl ~runs:!n_runs
              ~configs:(List.length assignments) )
  with
  | result -> result
  | exception Exec_error msg -> Error msg
  | exception Cfg.Analysis_error msg -> Error msg
  | exception P4.Typecheck.Type_error (msg, _) -> Error msg

let enumerate_pruned tenv ctrl = enumerate_core ~memoize:true tenv ctrl
let enumerate tenv ctrl = Result.map fst (enumerate_pruned tenv ctrl)

let enumerate_product tenv ctrl =
  Result.map fst (enumerate_core ~memoize:false tenv ctrl)

let pp ppf t =
  Format.fprintf ppf "path#%d [%s] %dB prov={%s} cfgs=%d" t.p_index
    (String.concat "; " (List.map fst t.p_emits))
    t.p_layout.size_bytes
    (String.concat "," t.p_prov)
    (List.length t.p_assignments)
