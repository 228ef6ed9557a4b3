(* Symbolic execution of a completion deparser over the context
   domains: abstract expression evaluation in Absdom, path-condition
   refinement at branches, and a decision-tree walk of the Dep_ir that
   classifies every syntactic completion path as feasible or proved
   infeasible.

   Where Dep_ir.run executes the body under ONE concrete context
   assignment, [exec] covers ALL of them in a single walk: context
   fields start at the tightest abstraction of their enumerated domain
   and are refined by each branch taken, so a leaf whose path condition
   collapses to bottom is unreachable under every configuration — a
   proof, not a sampling result. *)

module A = Absdom

(* ------------------------------------------------------------------ *)
(* Environments: a base lookup (context domains, constants, runtime
   header fields) plus refinements and locals accumulated on the walk. *)

type env = { e_base : string list -> A.t; e_over : (string list * A.t) list }

let lookup env p =
  match List.assoc_opt p env.e_over with
  | Some v -> v
  | None -> env.e_base p

let set env p v = { env with e_over = (p, v) :: List.remove_assoc p env.e_over }

let header_paths prefix (h : P4.Typecheck.header_def) =
  List.map
    (fun (f : P4.Typecheck.field) -> (prefix @ [ f.f_name ], f.f_bits))
    h.h_fields

(* Abstractions for every field reachable from a parameter: headers
   directly, headers nested one level inside structs (pipeline
   metadata), recursively through struct members. *)
let rec rtyp_paths prefix (t : P4.Typecheck.rtyp) =
  match t with
  | P4.Typecheck.RHeader h -> header_paths prefix h
  | P4.Typecheck.RStruct s ->
      List.concat_map (fun (n, t) -> rtyp_paths (prefix @ [ n ]) t) s.s_fields
  | P4.Typecheck.RBit w -> [ (prefix, w) ]
  | _ -> []

let base_env ~(consts : P4.Eval.env)
    ~(ctx : (P4.Typecheck.cparam * P4.Typecheck.header_def) option)
    ~(params : P4.Typecheck.cparam list) () : string list -> A.t =
  let tbl : (string list, A.t) Hashtbl.t = Hashtbl.create 32 in
  (* runtime fields: any value of their declared width *)
  List.iter
    (fun (p : P4.Typecheck.cparam) ->
      List.iter
        (fun (path, w) -> Hashtbl.replace tbl path (A.of_width w))
        (rtyp_paths [ p.c_name ] p.c_typ))
    params;
  (* context fields override: the enumerated domain, widthless because
     Context.env_of gives concrete context values no width *)
  (match ctx with
  | None -> ()
  | Some (p, h) -> (
      match Context.domains h with
      | Ok doms ->
          List.iter
            (fun (fname, vs) ->
              Hashtbl.replace tbl [ p.c_name; fname ] (A.of_values vs))
            doms
      | Error _ ->
          (* unbounded configuration space: fall back to the field's
             range (still widthless, matching the concrete env) *)
          List.iter
            (fun (f : P4.Typecheck.field) ->
              Hashtbl.replace tbl
                [ p.c_name; f.f_name ]
                (A.of_range ~lo:0L
                   ~hi:
                     (if f.f_bits >= 64 then -1L
                      else Int64.sub (Int64.shift_left 1L f.f_bits) 1L)
                   ()))
            h.h_fields));
  fun path ->
    match Hashtbl.find_opt tbl path with
    | Some v -> v
    | None -> (
        match consts path with
        | Some (P4.Eval.VInt { v; width }) -> A.const ?width v
        | Some (P4.Eval.VBool b) -> A.of_bool b
        | Some P4.Eval.VUnknown | None -> A.Top)

(* ------------------------------------------------------------------ *)
(* Abstract expression evaluation, mirroring P4.Eval.eval. *)

let rec eval env (e : P4.Ast.expr) : A.t =
  match e with
  | P4.Ast.EInt { value; width; _ } -> A.const ?width value
  | P4.Ast.EBool b -> A.of_bool b
  | P4.Ast.EString _ -> A.Top
  | P4.Ast.EIdent _ | P4.Ast.EMember _ -> (
      match P4.Eval.path_of_expr e with Some p -> lookup env p | None -> A.Top)
  | P4.Ast.EIndex _ | P4.Ast.ECall _ -> A.Top
  | P4.Ast.EUnop (op, a) -> A.unop op (eval env a)
  | P4.Ast.EBinop (P4.Ast.LAnd, a, b) -> (
      match A.truth (eval env a) with
      | A.BFalse -> A.Bool A.BFalse
      | A.BTrue -> A.Bool (A.truth (eval env b))
      | A.BMaybe -> (
          match A.truth (eval env b) with
          | A.BFalse -> A.Bool A.BFalse
          | _ -> A.Bool A.BMaybe))
  | P4.Ast.EBinop (P4.Ast.LOr, a, b) -> (
      match A.truth (eval env a) with
      | A.BTrue -> A.Bool A.BTrue
      | A.BFalse -> A.Bool (A.truth (eval env b))
      | A.BMaybe -> (
          match A.truth (eval env b) with
          | A.BTrue -> A.Bool A.BTrue
          | _ -> A.Bool A.BMaybe))
  | P4.Ast.EBinop (op, a, b) -> A.binop op (eval env a) (eval env b)
  | P4.Ast.ETernary (c, t, f) -> (
      match A.truth (eval env c) with
      | A.BTrue -> eval env t
      | A.BFalse -> eval env f
      | A.BMaybe -> A.join (eval env t) (eval env f))
  | P4.Ast.ECast (P4.Ast.TBit we, a) -> (
      match A.singleton (eval env we) with
      | Some w -> A.cast_bit (Int64.to_int w) (eval env a)
      | None -> A.Top)
  | P4.Ast.ECast (_, a) -> eval env a

let eval_pred env e = A.truth (eval env e)

(* ------------------------------------------------------------------ *)
(* Path-condition refinement: assume a predicate holds (or not) and
   narrow the abstractions of the paths it constrains. Returns [None]
   when the assumption is contradictory — the branch side is infeasible
   even though the predicate alone did not decide. *)

let refine env p narrowed =
  match A.meet (lookup env p) narrowed with
  | A.Bot -> None
  | v -> Some (set env p v)

let max_u64 = -1L

let rec assume env (e : P4.Ast.expr) (polarity : bool) : env option =
  let num_cmp l r =
    (* (path, singleton) for a comparison with one refinable side *)
    match (P4.Eval.path_of_expr l, A.singleton (eval env r)) with
    | Some p, Some c -> Some (p, c)
    | _ -> None
  in
  match e with
  | P4.Ast.EUnop (P4.Ast.LNot, a) -> assume env a (not polarity)
  | P4.Ast.EBinop (P4.Ast.LAnd, a, b) ->
      if polarity then Option.bind (assume env a true) (fun env -> assume env b true)
      else Some env
  | P4.Ast.EBinop (P4.Ast.LOr, a, b) ->
      if polarity then Some env
      else Option.bind (assume env a false) (fun env -> assume env b false)
  | P4.Ast.EBinop (P4.Ast.Neq, l, r) -> assume env (P4.Ast.EBinop (P4.Ast.Eq, l, r)) (not polarity)
  | P4.Ast.EBinop (P4.Ast.Eq, l, r) -> (
      let one p c =
        if polarity then refine env p (A.const c)
        else
          match A.exclude c (lookup env p) with
          | A.Bot -> None
          | v -> Some (set env p v)
      in
      match num_cmp l r with
      | Some (p, c) -> one p c
      | None -> ( match num_cmp r l with Some (p, c) -> one p c | None -> Some env))
  | P4.Ast.EBinop (((P4.Ast.Lt | P4.Ast.Le | P4.Ast.Gt | P4.Ast.Ge) as op), l, r) -> (
      (* normalise to path-on-the-left *)
      let flipped =
        match op with
        | P4.Ast.Lt -> P4.Ast.Gt
        | P4.Ast.Le -> P4.Ast.Ge
        | P4.Ast.Gt -> P4.Ast.Lt
        | P4.Ast.Ge -> P4.Ast.Le
        | _ -> op
      in
      let effective =
        match num_cmp l r with
        | Some pc -> Some (op, pc)
        | None -> (
            match num_cmp r l with Some pc -> Some (flipped, pc) | None -> None)
      in
      match effective with
      | None -> Some env
      | Some (op, (p, c)) ->
          (* the assumed relation after polarity *)
          let op =
            if polarity then op
            else
              match op with
              | P4.Ast.Lt -> P4.Ast.Ge
              | P4.Ast.Le -> P4.Ast.Gt
              | P4.Ast.Gt -> P4.Ast.Le
              | P4.Ast.Ge -> P4.Ast.Lt
              | _ -> op
          in
          let narrowed =
            match op with
            | P4.Ast.Lt ->
                if c = 0L then A.Bot else A.of_range ~lo:0L ~hi:(Int64.sub c 1L) ()
            | P4.Ast.Le -> A.of_range ~lo:0L ~hi:c ()
            | P4.Ast.Gt ->
                if c = max_u64 then A.Bot
                else A.of_range ~lo:(Int64.add c 1L) ~hi:max_u64 ()
            | P4.Ast.Ge -> A.of_range ~lo:c ~hi:max_u64 ()
            | _ -> A.Top
          in
          if narrowed = A.Bot then None else refine env p narrowed)
  | _ -> (
      (* bare truth test of a bit<_> flag: ctx.flag means ctx.flag != 0 *)
      match P4.Eval.path_of_expr e with
      | Some p ->
          if polarity then (
            match A.exclude 0L (lookup env p) with
            | A.Bot -> None
            | v -> Some (set env p v))
          else refine env p (A.const 0L)
      | None -> Some env)

(* ------------------------------------------------------------------ *)
(* Decision-tree walk. *)

type leaf = {
  lf_emit_ids : int list;  (** emit sites reached, in order *)
  lf_total_bits : int;
  lf_decisions : (int * bool) list;  (** (branch site, side taken) *)
  lf_feasible : bool;  (** path condition not proved unsatisfiable *)
}

type result = {
  sx_leaves : leaf list;  (** every syntactic completion path *)
  sx_verdicts : (int * A.abool list) list;
      (** per branch site: the predicate's abstract verdict at each
          occurrence reached along a feasible prefix *)
  sx_pruned : int;  (** leaves proved infeasible *)
}

type state = {
  st_env : env;
  st_emits : int list;  (* reversed *)
  st_bits : int;
  st_decisions : (int * bool) list;  (* reversed *)
  st_feasible : bool;
  st_stopped : bool;
}

let exec ~(base : string list -> A.t) (ir : Dep_ir.t) : result =
  let verdicts : (int, A.abool list ref) Hashtbl.t = Hashtbl.create 8 in
  let record id v =
    match Hashtbl.find_opt verdicts id with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add verdicts id (ref [ v ])
  in
  let rec exec_nodes sts nodes = List.fold_left exec_node sts nodes
  and exec_node sts node = List.concat_map (fun st -> exec_one st node) sts
  and exec_one st node =
    if st.st_stopped then [ st ]
    else
      match node with
      | Dep_ir.NEmit em ->
          [
            {
              st with
              st_emits = em.Dep_ir.e_id :: st.st_emits;
              st_bits = st.st_bits + em.Dep_ir.e_header.h_bits;
            };
          ]
      | Dep_ir.NIf { i_id; i_cond; i_then; i_else } ->
          let v = eval_pred st.st_env i_cond in
          if st.st_feasible then record i_id v;
          let side taken nodes =
            let feasible, env =
              if not st.st_feasible then (false, st.st_env)
              else
                match v with
                | A.BTrue -> (taken, st.st_env)
                | A.BFalse -> (not taken, st.st_env)
                | A.BMaybe -> (
                    match assume st.st_env i_cond taken with
                    | Some env -> (true, env)
                    | None -> (false, st.st_env))
            in
            exec_nodes
              [
                {
                  st with
                  st_env = env;
                  st_decisions = (i_id, taken) :: st.st_decisions;
                  st_feasible = feasible;
                };
              ]
              nodes
          in
          side true i_then @ side false i_else
      | Dep_ir.NAssign (l, r) -> (
          match P4.Eval.path_of_expr l with
          | Some p -> [ { st with st_env = set st.st_env p (eval st.st_env r) } ]
          | None -> [ st ])
      | Dep_ir.NDecl (n, init) ->
          let v = match init with Some e -> eval st.st_env e | None -> A.Top in
          [ { st with st_env = set st.st_env [ n ] v } ]
      | Dep_ir.NReturn -> [ { st with st_stopped = true } ]
      | Dep_ir.NOther -> [ st ]
  in
  let init =
    {
      st_env = { e_base = base; e_over = [] };
      st_emits = [];
      st_bits = 0;
      st_decisions = [];
      st_feasible = true;
      st_stopped = false;
    }
  in
  let finals = exec_nodes [ init ] ir.Dep_ir.ir_nodes in
  let leaves =
    List.map
      (fun st ->
        {
          lf_emit_ids = List.rev st.st_emits;
          lf_total_bits = st.st_bits;
          lf_decisions = List.rev st.st_decisions;
          lf_feasible = st.st_feasible;
        })
      finals
  in
  {
    sx_leaves = leaves;
    sx_verdicts =
      List.filter_map
        (fun ((id, _) : int * P4.Ast.expr) ->
          match Hashtbl.find_opt verdicts id with
          | Some l -> Some (id, List.rev !l)
          | None -> None)
        ir.Dep_ir.ir_ifs;
    sx_pruned = List.length (List.filter (fun l -> not l.lf_feasible) leaves);
  }
