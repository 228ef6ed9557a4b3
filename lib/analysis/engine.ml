module D = Diagnostic

(* One field of a concrete completion layout, as the codegen pass sees
   it. Kept independent of the opendesc Path type so the bounds check is
   unit-testable against hand-built layouts. *)
type afield = {
  af_name : string;
  af_header : string;
  af_semantic : string option;
  af_bit_off : int;
  af_bits : int;
  af_span : P4.Loc.span;
}

let contains_sub hay needle =
  let hay = String.lowercase_ascii hay in
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let is_intent_header (h : P4.Typecheck.header_def) =
  P4.Ast.find_annotation "intent" h.h_annots <> None
  || contains_sub h.h_name "intent"

let fields_of_run (r : Dep_ir.run) : afield list =
  List.concat_map
    (fun (x : Dep_ir.exec_emit) ->
      let h = x.Dep_ir.x_emit.Dep_ir.e_header in
      List.map
        (fun (f : P4.Typecheck.field) ->
          {
            af_name = f.f_name;
            af_header = h.h_name;
            af_semantic = f.f_semantic;
            af_bit_off = x.Dep_ir.x_bit_off + f.f_bit_off;
            af_bits = f.f_bits;
            af_span = f.f_span;
          })
        h.h_fields)
    r.Dep_ir.r_emits

let describe_run (r : Dep_ir.run) =
  "["
  ^ String.concat "; "
      (List.map (fun (x : Dep_ir.exec_emit) -> x.Dep_ir.x_emit.Dep_ir.e_arg) r.Dep_ir.r_emits)
  ^ "]"

let run_semantics r =
  List.filter_map (fun af -> af.af_semantic) (fields_of_run r)
  |> List.sort_uniq String.compare

let last_emit_span (r : Dep_ir.run) =
  match List.rev r.Dep_ir.r_emits with
  | x :: _ -> Some x.Dep_ir.x_emit.Dep_ir.e_span
  | [] -> None

let locate_deparser tenv =
  let candidates =
    List.filter
      (fun c -> Dep_ir.out_param c <> None)
      (P4.Typecheck.controls tenv)
  in
  let annotated (c : P4.Typecheck.control_def) =
    P4.Ast.find_annotation "cmpt_deparser" c.ct_annots <> None
  in
  match List.filter annotated candidates with
  | [ c ] -> Ok c
  | _ :: _ :: _ -> Error "multiple @cmpt_deparser controls"
  | [] -> (
      match candidates with
      | [ c ] -> Ok c
      | [] -> Error "no completion deparser found (no control takes a cmpt_out)"
      | _ -> Error "multiple deparser candidates; tag one with @cmpt_deparser")

(* ------------------------------------------------------------------ *)
(* The completion-path catalogue: the deparser IR run under every
   context assignment, grouped by emit site. Every pass below, the
   compiler's paths, Certify and Costbound read this one result. *)

type group = {
  g_index : int;
  g_key : int list;
  g_run : Dep_ir.run;
  g_assigns : Context.assignment list;
  g_feasible : bool;
}

type catalogue = {
  cat_ctrl : P4.Typecheck.control_def;
  cat_ir : Dep_ir.t;
  cat_ctx : (P4.Typecheck.cparam * P4.Typecheck.header_def) option;
  cat_ctx_error : string option;
  cat_assignments : Context.assignment list;
  cat_runs : (Context.assignment * Dep_ir.run * group) list;
  cat_sym : Symexec.result;
  cat_groups : group list;
  cat_feasible : group list;
}

type input = {
  in_tenv : P4.Typecheck.t;
  in_catalogue : catalogue option;
      (** the loaded spec's catalogue, or [None] to locate and build it *)
  in_desc_parser : P4.Typecheck.parser_def option;
  in_tx_formats : Tx_ir.fmt list option;  (** the loaded spec's, or [None] to walk *)
  in_registry : Softnic.Semantic.t;
  in_intent : (string * int) list option;  (** requested (semantic, width) *)
  in_line_offset : int;  (** prelude lines to subtract from spans *)
}

let run_key (r : Dep_ir.run) =
  List.map (fun (x : Dep_ir.exec_emit) -> x.Dep_ir.x_emit.Dep_ir.e_id) r.Dep_ir.r_emits

(* The compiler's paths. Two emit sites of one header (say, in both arms
   of a branch) emit the same layout, so the feasible runs merge by the
   emitted expressions, not by site. *)
let feasible_groups runs =
  let emitted r =
    List.map (fun (x : Dep_ir.exec_emit) -> x.Dep_ir.x_emit.Dep_ir.e_arg) r.Dep_ir.r_emits
  in
  (* (emitted expressions, first group, its assignments newest first),
     newest first *)
  let found = ref [] in
  List.iter
    (fun (a, r, g) ->
      if g.g_feasible then
        let e = emitted r in
        match List.find_opt (fun (e', _, _) -> e' = e) !found with
        | Some (_, _, assigns) ->
            (* a forked configuration may land here twice *)
            if not (Context.equal (List.hd !assigns) a) then
              assigns := a :: !assigns
        | None -> found := (e, g, ref [ a ]) :: !found)
    runs;
  List.rev !found
  |> List.mapi (fun i (_, g, assigns) ->
         { g with g_index = i; g_assigns = List.rev !assigns })

let catalogue tenv (ctrl : P4.Typecheck.control_def) =
  match Dep_ir.of_control tenv ctrl with
  | Error _ as e -> e
  | Ok ir ->
      let ctx = Context.find_param ctrl in
      let assignments, ctx_error =
        match ctx with
        | None -> ([ [] ], None)
        | Some (_, h) -> (
            match Context.enumerate h with
            | Ok a -> (a, None)
            | Error msg -> ([ [] ], Some msg))
      in
      let ctx_name = match ctx with Some (p, _) -> p.c_name | None -> "ctx" in
      let consts = P4.Typecheck.const_env tenv in
      let runs =
        List.concat_map
          (fun a ->
            let ctx_env = Context.env_of ~param_name:ctx_name a in
            List.map (fun r -> (a, run_key r, r)) (Dep_ir.run ~consts ~ctx_env ir))
          assignments
      in
      let sym =
        Symexec.exec ~base:(Symexec.base_env ~consts ~ctx ~params:ctrl.ct_params ()) ir
      in
      (* (key, first run, its assignments newest first), newest first *)
      let found = ref [] in
      List.iter
        (fun (a, k, r) ->
          match List.find_opt (fun (k', _, _) -> k' = k) !found with
          | Some (_, _, assigns) -> assigns := a :: !assigns
          | None -> found := (k, r, ref [ a ]) :: !found)
        runs;
      let groups =
        List.mapi
          (fun i (k, r, assigns) ->
            {
              g_index = i;
              g_key = k;
              g_run = r;
              g_assigns = List.rev !assigns;
              g_feasible =
                List.exists
                  (fun (l : Symexec.leaf) -> l.lf_feasible && l.lf_emit_ids = k)
                  sym.sx_leaves;
            })
          (List.rev !found)
      in
      let runs =
        List.map (fun (a, k, r) -> (a, r, List.find (fun g -> g.g_key = k) groups)) runs
      in
      Ok
        {
          cat_ctrl = ctrl;
          cat_ir = ir;
          cat_ctx = ctx;
          cat_ctx_error = ctx_error;
          cat_assignments = assignments;
          cat_runs = runs;
          cat_sym = sym;
          cat_groups = groups;
          cat_feasible = feasible_groups runs;
        }

(* An intent description has no deparser by design; anything else
   without one is a malformed interface. *)
let intent_only tenv =
  List.exists is_intent_header (P4.Typecheck.headers tenv)
  && not
       (List.exists
          (fun c -> Dep_ir.out_param c <> None)
          (P4.Typecheck.controls tenv))

let prepare add (inp : input) : catalogue option =
  let tenv = inp.in_tenv in
  let cat =
    match inp.in_catalogue with
    | Some cat -> Some cat
    | None -> (
        match locate_deparser tenv with
        | Error msg ->
            if not (intent_only tenv) then
              add (D.make ~code:"OD002" ~severity:D.Error "%s" msg);
            None
        | Ok ctrl -> (
            match catalogue tenv ctrl with
            | Error msg ->
                add (D.make ~span:ctrl.ct_span ~code:"OD002" ~severity:D.Error "%s" msg);
                None
            | Ok cat -> Some cat))
  in
  (match cat with
  | Some { cat_ctx = Some (_, h); cat_ctx_error = Some msg; _ } ->
      add (D.make ~span:h.h_span ~code:"OD002" ~severity:D.Error "%s" msg)
  | _ -> ());
  cat

(* ------------------------------------------------------------------ *)
(* Pass 1: layout safety. *)

let slot_bytes (ctrl : P4.Typecheck.control_def) =
  Option.bind
    (P4.Ast.find_annotation "cmpt_slot" ctrl.ct_annots)
    P4.Ast.annotation_int

let layout_pass add cat =
  let slot = slot_bytes cat.cat_ctrl in
  List.iter
    (fun g ->
      let r = g.g_run in
      let desc = describe_run r in
      let span = last_emit_span r in
      if r.Dep_ir.r_total_bits mod 8 <> 0 then
        add
          (D.make ?span ~code:"OD003" ~severity:D.Error
             "completion path %s totals %d bits, not a byte multiple; the \
              device cannot DMA it"
             desc r.Dep_ir.r_total_bits)
      else begin
        let size = r.Dep_ir.r_total_bits / 8 in
        match slot with
        | Some s when size > s ->
            add
              (D.make ?span ~code:"OD004" ~severity:D.Error
                 "completion path %s is %d bytes, exceeding the declared \
                  %d-byte DMA completion slot"
                 desc size s)
        | _ -> ()
      end;
      (* The same header emitted twice writes every field at two offsets. *)
      let seen_args = Hashtbl.create 4 in
      List.iter
        (fun (x : Dep_ir.exec_emit) ->
          let arg = x.Dep_ir.x_emit.Dep_ir.e_arg in
          if Hashtbl.mem seen_args arg then
            add
              (D.make ~span:x.Dep_ir.x_emit.Dep_ir.e_span ~code:"OD005"
                 ~severity:D.Warning
                 "header %s is emitted twice on completion path %s; its \
                  fields are written twice at different offsets"
                 arg desc)
          else Hashtbl.add seen_args arg ())
        r.Dep_ir.r_emits;
      (* A semantic carried twice on one path: only the first copy is
         read by accessors. Duplicates caused by re-emitting the same
         header are already covered by OD005. *)
      let header_count hname =
        List.length
          (List.filter
             (fun (x : Dep_ir.exec_emit) ->
               x.Dep_ir.x_emit.Dep_ir.e_header.h_name = hname)
             r.Dep_ir.r_emits)
      in
      let seen_sems : (string, string) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun af ->
          match af.af_semantic with
          | None -> ()
          | Some s -> (
              match Hashtbl.find_opt seen_sems s with
              | Some prev_header
                when prev_header = af.af_header && header_count af.af_header > 1
                ->
                  () (* re-emitted header; OD005 already fired *)
              | Some _ ->
                  add
                    (D.make ~span:af.af_span ~code:"OD006" ~severity:D.Warning
                       "completion path %s carries semantic %S twice (only \
                        the first copy is read)"
                       desc s)
              | None -> Hashtbl.add seen_sems s af.af_header))
        (fields_of_run r))
    cat.cat_groups

(* ------------------------------------------------------------------ *)
(* Pass 2: path feasibility and dead code. *)

let rec expr_paths (e : P4.Ast.expr) acc =
  match P4.Eval.path_of_expr e with
  | Some p -> p :: acc
  | None -> (
      match e with
      | P4.Ast.EUnop (_, a) | P4.Ast.ECast (_, a) -> expr_paths a acc
      | P4.Ast.EBinop (_, a, b) | P4.Ast.EIndex (a, b) ->
          expr_paths a (expr_paths b acc)
      | P4.Ast.ETernary (a, b, c) -> expr_paths a (expr_paths b (expr_paths c acc))
      | P4.Ast.ECall (f, _, args) ->
          List.fold_left (fun acc a -> expr_paths a acc) (expr_paths f acc) args
      | P4.Ast.EMember (b, _) -> expr_paths b acc
      | _ -> acc)

let feasibility_pass add tenv cat =
  let ir = cat.cat_ir in
  (* OD007: emit sites reached by no run under any configuration. *)
  let reached = Hashtbl.create 8 in
  List.iter
    (fun g -> List.iter (fun id -> Hashtbl.replace reached id ()) g.g_key)
    cat.cat_groups;
  List.iter
    (fun (em : Dep_ir.emit) ->
      if not (Hashtbl.mem reached em.Dep_ir.e_id) then
        add
          (D.make ~span:em.Dep_ir.e_span ~code:"OD007" ~severity:D.Warning
             "emit of %s is dead: no context configuration reaches it"
             em.Dep_ir.e_arg))
    ir.Dep_ir.ir_emits;
  (* OD008: a branch predicate that evaluates the same way under every
     context configuration (evaluated standalone, so nesting under other
     branches does not mask infeasible predicates). Predicates reading
     locals are data-dependent and skipped. *)
  let consts = P4.Typecheck.const_env tenv in
  let ctx_name =
    match cat.cat_ctx with Some (p, _) -> p.c_name | None -> "ctx"
  in
  List.iter
    (fun ((site, cond) : int * P4.Ast.expr) ->
      let outcomes =
        List.filter_map
          (fun a ->
            let ctx_env = Context.env_of ~param_name:ctx_name a in
            let env path =
              match ctx_env path with Some v -> Some v | None -> consts path
            in
            P4.Eval.eval_bool env cond)
          cat.cat_assignments
      in
      if
        List.length outcomes = List.length cat.cat_assignments
        && outcomes <> []
      then begin
        (* decidable from the configuration alone: the concrete
           enumeration is exact and governs this site (OD008) *)
        match List.sort_uniq Bool.compare outcomes with
        | [ b ] ->
            add
              (D.make ~span:(P4.Ast.expr_span cond) ~code:"OD008"
                 ~severity:D.Warning
                 "branch predicate %s is always %b for every context \
                  configuration (%d checked); one side is unreachable"
                 (P4.Pretty.expr_to_string cond)
                 b
                 (List.length cat.cat_assignments))
        | _ -> ()
      end
      else
        (* data-dependent: only the symbolic walk, which covers every
           configuration at once and refines context fields at each
           branch, can reason here *)
        match List.assoc_opt site cat.cat_sym.Symexec.sx_verdicts with
        | None | Some [] -> () (* never reached along a feasible prefix *)
        | Some verdicts ->
            let all v = List.for_all (fun x -> x = v) verdicts in
            if all Absdom.BTrue || all Absdom.BFalse then
              let b = all Absdom.BTrue in
              add
                (D.make ~span:(P4.Ast.expr_span cond) ~code:"OD018"
                   ~severity:D.Warning
                   "branch predicate %s depends on runtime data but is \
                    proved always %b by interval and known-bits analysis; \
                    the %s side's completion paths are unreachable for \
                    every configuration and every descriptor value"
                   (P4.Pretty.expr_to_string cond)
                   b
                   (if b then "false" else "true"))
            else
              add
                (D.make ~span:(P4.Ast.expr_span cond) ~code:"OD019"
                   ~severity:D.Info
                   "branch predicate %s cannot be decided from the context, \
                    even symbolically; completion-path feasibility is \
                    over-approximated (the layout is not selected by \
                    configuration alone)"
                   (P4.Pretty.expr_to_string cond)))
    ir.Dep_ir.ir_ifs;
  (* OD009: context fields with no influence on any branch, through a
     taint closure over local definitions. *)
  match cat.cat_ctx with
  | None -> ()
  | Some (param, ctx_header) ->
      let defs = ref [] and conds = ref [] in
      let rec collect nodes =
        List.iter
          (fun (n : Dep_ir.node) ->
            match n with
            | Dep_ir.NIf { i_cond; i_then; i_else; _ } ->
                conds := i_cond :: !conds;
                collect i_then;
                collect i_else
            | Dep_ir.NAssign (l, r) -> (
                match P4.Eval.path_of_expr l with
                | Some p -> defs := (p, expr_paths r []) :: !defs
                | None -> ())
            | Dep_ir.NDecl (n, Some e) -> defs := ([ n ], expr_paths e []) :: !defs
            | _ -> ())
          nodes
      in
      collect ir.Dep_ir.ir_nodes;
      let rec close set =
        let grown =
          List.fold_left
            (fun acc (p, vars) ->
              if List.mem p acc then
                List.fold_left
                  (fun acc v -> if List.mem v acc then acc else v :: acc)
                  acc vars
              else acc)
            set !defs
        in
        if List.length grown = List.length set then set else close grown
      in
      let influencing =
        close (List.concat_map (fun c -> expr_paths c []) !conds)
      in
      let whole_ctx_used = List.mem [ param.P4.Typecheck.c_name ] influencing in
      List.iter
        (fun (f : P4.Typecheck.field) ->
          if
            (not whole_ctx_used)
            && not (List.mem [ param.P4.Typecheck.c_name; f.f_name ] influencing)
          then
            add
              (D.make ~span:f.f_span ~code:"OD009" ~severity:D.Info
                 "context field %s.%s never influences a branch; it cannot \
                  select a completion layout"
                 ctx_header.h_name f.f_name))
        ctx_header.h_fields

(* ------------------------------------------------------------------ *)
(* Pass 2b: accessor certification (OD020). A synthesized accessor is a
   fixed-offset load chosen per configuration; it is only safe when the
   semantic it reads is written at that same offset on EVERY feasible
   completion the device may emit under that configuration. When
   undecidable (runtime-data) branches fork the runs of one assignment,
   each semantic must agree across the forks — otherwise the accessor
   can observe unwritten completion-ring bytes. *)

let certification_pass add cat =
  (* Forked runs whose emit sequence is symbolically proved unreachable
     are not feasible completions: an always-true runtime guard must not
     fail certification. *)
  let reported : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun a ->
      let runs =
        List.filter_map
          (fun (a', r, g) -> if a' = a && g.g_feasible then Some r else None)
          cat.cat_runs
      in
      if List.length runs > 1 then
        let sems =
          List.concat_map run_semantics runs |> List.sort_uniq String.compare
        in
        List.iter
          (fun s ->
            if not (Hashtbl.mem reported s) then
              let placement r =
                List.find_opt (fun af -> af.af_semantic = Some s) (fields_of_run r)
              in
              let placements = List.map placement runs in
              let positions =
                List.sort_uniq Stdlib.compare
                  (List.map
                     (Option.map (fun af -> (af.af_bit_off, af.af_bits)))
                     placements)
              in
              match positions with
              | [ Some _ ] -> () (* same offset and width on every fork *)
              | _ ->
                  Hashtbl.add reported s ();
                  let span =
                    List.find_map
                      (Option.map (fun af -> af.af_span))
                      (List.filter Option.is_some placements)
                  in
                  let where = function
                    | None -> "absent"
                    | Some (af : afield) ->
                        Printf.sprintf "at bit %d (%d bits)" af.af_bit_off
                          af.af_bits
                  in
                  let variants =
                    List.sort_uniq String.compare (List.map where placements)
                  in
                  add
                    (D.make ?span ~code:"OD020" ~severity:D.Error
                       "accessor for semantic %S cannot be certified: \
                        configuration %s admits %d feasible completions and \
                        the field is %s; a fixed-offset read can observe \
                        unwritten completion bytes"
                       s
                       (Format.asprintf "%a" Context.pp a)
                       (List.length runs)
                       (String.concat " in one but " variants)))
          sems)
    cat.cat_assignments

(* ------------------------------------------------------------------ *)
(* Pass 3: contract consistency. *)

(* Headers whose contents actually cross the interface: emitted on some
   completion run, or named in any emit/extract call of any control or
   parser (packet streams included), or serving as the context. *)
let used_headers tenv cat =
  let used = Hashtbl.create 16 in
  let note_header = function
    | P4.Typecheck.RHeader h -> Hashtbl.replace used h.P4.Typecheck.h_name ()
    | _ -> ()
  in
  let scan_expr tenv scope (e : P4.Ast.expr) =
    match e with
    | P4.Ast.ECall (P4.Ast.EMember (_, meth), _, [ arg ])
      when meth.name = "emit" || meth.name = "extract" -> (
        match P4.Typecheck.type_of_expr tenv scope arg with
        | ty -> note_header ty
        | exception P4.Typecheck.Type_error _ -> ())
    | _ -> ()
  in
  let rec scan_stmt tenv scope (s : P4.Ast.stmt) =
    match s with
    | P4.Ast.SCall e -> scan_expr tenv scope e
    | P4.Ast.SIf (_, th, el) ->
        List.iter (scan_stmt tenv scope) th;
        Option.iter (List.iter (scan_stmt tenv scope)) el
    | P4.Ast.SBlock b -> List.iter (scan_stmt tenv scope) b
    | _ -> ()
  in
  List.iter
    (fun (c : P4.Typecheck.control_def) ->
      let scope = P4.Typecheck.scope_of_control tenv c in
      List.iter (scan_stmt tenv scope) c.ct_body)
    (P4.Typecheck.controls tenv);
  List.iter
    (fun (p : P4.Typecheck.parser_def) ->
      let scope = P4.Typecheck.scope_of_params tenv p.pr_params in
      List.iter
        (fun (st : P4.Ast.parser_state) ->
          List.iter (scan_stmt tenv scope) st.st_stmts)
        p.pr_states)
    (P4.Typecheck.parsers tenv);
  (match cat with
  | Some cat -> (
      List.iter
        (fun g ->
          List.iter
            (fun (x : Dep_ir.exec_emit) ->
              Hashtbl.replace used x.Dep_ir.x_emit.Dep_ir.e_header.h_name ())
            g.g_run.Dep_ir.r_emits)
        cat.cat_groups;
      match cat.cat_ctx with
      | Some (_, h) -> Hashtbl.replace used h.P4.Typecheck.h_name ()
      | None -> ())
  | None -> ());
  used

let contract_pass add (inp : input) cat (tx_formats : Tx_ir.fmt list) =
  let tenv = inp.in_tenv in
  let registry = inp.in_registry in
  let reported_unknown = Hashtbl.create 8 in
  let unknown ?span s =
    if not (Hashtbl.mem reported_unknown s) then begin
      Hashtbl.add reported_unknown s ();
      add
        (D.make ?span ~code:"OD010" ~severity:D.Warning
           "unknown semantic %S (typo? register it or fix the annotation)" s)
    end
  in
  (* OD010 / OD011 over every @semantic field of every header. *)
  List.iter
    (fun (h : P4.Typecheck.header_def) ->
      List.iter
        (fun (f : P4.Typecheck.field) ->
          match f.f_semantic with
          | None -> ()
          | Some s ->
              if not (Softnic.Semantic.mem registry s) then unknown ~span:f.f_span s
              else (
                match Softnic.Semantic.width registry s with
                | Some w when f.f_bits < w ->
                    add
                      (D.make ~span:f.f_span ~code:"OD011" ~severity:D.Warning
                         "field %s.%s (@semantic %S) is %d bits, narrower \
                          than the registry's %d bits; values will be \
                          truncated"
                         h.h_name f.f_name s f.f_bits w)
                | Some w when f.f_bits > w ->
                    add
                      (D.make ~span:f.f_span ~code:"OD011" ~severity:D.Info
                         "field %s.%s (@semantic %S) is %d bits, wider than \
                          the registry's %d bits (the upper bits are zero \
                          padding)"
                         h.h_name f.f_name s f.f_bits w)
                | _ -> ()))
        h.h_fields)
    (P4.Typecheck.headers tenv);
  (* OD012: declared contract surface nothing ever carries. *)
  let used = used_headers tenv cat in
  List.iter
    (fun (h : P4.Typecheck.header_def) ->
      let sems =
        List.filter_map (fun (f : P4.Typecheck.field) -> f.f_semantic) h.h_fields
      in
      if sems <> [] && (not (Hashtbl.mem used h.h_name)) && not (is_intent_header h)
      then
        add
          (D.make ~span:h.h_span ~code:"OD012" ~severity:D.Warning
             "header %s carries @semantic fields but is never emitted to a \
              completion nor extracted from a descriptor; its semantics are \
              unreachable"
             h.h_name))
    (P4.Typecheck.headers tenv);
  (* OD013: dominated paths — same Prov means the same Eq. 1 coverage for
     every intent, so the larger layout (or, on a size tie, the higher
     index) can never be selected. Numbered like the compiler's paths. *)
  (match cat with
  | None -> ()
  | Some cat ->
      let paths =
        List.filter_map
          (fun g ->
            if g.g_run.Dep_ir.r_total_bits mod 8 = 0 then
              Some
                ( g.g_index,
                  run_semantics g.g_run,
                  g.g_run.Dep_ir.r_total_bits / 8 )
            else None)
          cat.cat_feasible
      in
      List.iter
        (fun (ia, prov_a, sz_a) ->
          List.iter
            (fun (ib, prov_b, sz_b) ->
              if ia < ib && prov_a = prov_b then
                let span = cat.cat_ctrl.ct_span in
                let notes =
                  [ D.note (Printf.sprintf "shared semantics: {%s}" (String.concat ", " prov_a)) ]
                in
                if sz_a <> sz_b then
                  add
                    (D.make ~span ~notes ~code:"OD013" ~severity:D.Warning
                       "paths #%d and #%d provide the same semantics; the \
                        %d-byte layout can never be selected (Eq. 1 always \
                        prefers the %d-byte one)"
                       ia ib (max sz_a sz_b) (min sz_a sz_b))
                else
                  add
                    (D.make ~span ~notes ~code:"OD013" ~severity:D.Warning
                       "paths #%d and #%d provide the same semantics at the \
                        same size (%d bytes); path #%d can never be selected \
                        (ties break toward the lower index)"
                       ia ib sz_a ib))
            paths)
        paths);
  (* OD014: TX formats the host cannot use to send. *)
  List.iter
    (fun (f : Tx_ir.fmt) ->
      let sems =
        List.concat_map
          (fun ((_, h) : string * P4.Typecheck.header_def) ->
            List.filter_map
              (fun (fd : P4.Typecheck.field) -> fd.f_semantic)
              h.h_fields)
          f.Tx_ir.t_extracts
      in
      if not (List.mem "buf_addr" sems) then
        let span =
          Option.map (fun (p : P4.Typecheck.parser_def) -> p.pr_span) inp.in_desc_parser
        in
        add
          (D.make ?span ~code:"OD014" ~severity:D.Warning
             "TX format #%d has no buf_addr field; the device cannot fetch \
              packets"
             f.Tx_ir.t_index))
    tx_formats;
  (* OD015: an intent asking for hardware the NIC does not expose. *)
  match inp.in_intent with
  | None -> ()
  | Some fields ->
      let provided =
        match cat with
        | None -> []
        | Some cat ->
            List.concat_map (fun g -> run_semantics g.g_run) cat.cat_groups
            |> List.sort_uniq String.compare
      in
      List.iter
        (fun (s, _w) ->
          if not (Softnic.Semantic.mem registry s) then unknown s
          else if
            Softnic.Semantic.cost registry s = infinity
            && cat <> None
            && not (List.mem s provided)
          then
            add
              (D.make ~code:"OD015" ~severity:D.Error
                 "intent requests hardware-only semantic %S but no completion \
                  path of this NIC provides it; Eq. 1 has no software fallback"
                 s))
        fields

(* ------------------------------------------------------------------ *)
(* Pass 4: codegen verification. *)

(* Every accessor the compiler emits — OCaml, C or eBPF, a single load
   or a bit walk — reads exactly the bytes its field spans,
   [off/8 .. (off+bits-1)/8], with compile-time-constant bounds, so the
   constant-time obligation reduces to the width limit checked here and
   the bounds obligation to that last byte. *)
let check_accessor_bounds ?(path_desc = "") ~size_bytes fields =
  List.concat_map
    (fun af ->
      if af.af_bits > 64 then
        match af.af_semantic with
        | Some s ->
            [
              D.make ~span:af.af_span ~code:"OD017" ~severity:D.Error
                "field %s.%s (@semantic %S) is %d bits wide; accessors are \
                 synthesized as constant-time loads of at most 64 bits, so \
                 this read is not synthesizable (the C and eBPF accessors \
                 would return a constant 0)"
                af.af_header af.af_name s af.af_bits;
            ]
        | None -> [] (* unannotated blobs are padding; nothing reads them *)
      else
        let first = af.af_bit_off / 8 in
        let last = (af.af_bit_off + af.af_bits - 1) / 8 in
        if last >= size_bytes then
          [
            D.make ~span:af.af_span ~code:"OD016" ~severity:D.Error
              "accessor for %s.%s reads bytes %d..%d but Size(p)%s is %d \
               bytes; the C and eBPF accessors would read out of bounds"
              af.af_header af.af_name first last
              (if path_desc = "" then "" else " of path " ^ path_desc)
              size_bytes;
          ]
        else [])
    fields

let codegen_pass add cat =
  List.iter
    (fun g ->
      let r = g.g_run in
      if r.Dep_ir.r_total_bits mod 8 = 0 then
        check_accessor_bounds ~path_desc:(describe_run r)
          ~size_bytes:(r.Dep_ir.r_total_bits / 8)
          (fields_of_run r)
        |> List.iter add)
    cat.cat_groups

(* ------------------------------------------------------------------ *)
(* Engine entry points. *)

let analyze (inp : input) : D.t list =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  let cat = prepare add inp in
  (match cat with
  | Some cat ->
      layout_pass add cat;
      feasibility_pass add inp.in_tenv cat;
      certification_pass add cat;
      codegen_pass add cat
  | None -> ());
  let tx_formats =
    match (inp.in_tx_formats, inp.in_desc_parser) with
    | Some fs, _ -> fs
    | None, None -> []
    | None, Some pd -> (
        match Tx_ir.enumerate inp.in_tenv pd with
        | Ok f -> f
        | Error msg ->
            add (D.make ~span:pd.pr_span ~code:"OD002" ~severity:D.Error "%s" msg);
            [])
  in
  contract_pass add inp cat tx_formats;
  !acc
  |> List.map (D.relocate ~lines:inp.in_line_offset)
  |> List.sort_uniq D.compare

let analyze_program ~registry ?intent ?(line_offset = 0) tenv =
  let desc_parser =
    List.find_opt Tx_ir.is_desc_parser (P4.Typecheck.parsers tenv)
  in
  analyze
    {
      in_tenv = tenv;
      in_catalogue = None;
      in_desc_parser = desc_parser;
      in_tx_formats = None;
      in_registry = registry;
      in_intent = intent;
      in_line_offset = line_offset;
    }

let analyze_source ~registry ?intent ?prelude src =
  let decls, start = match prelude with Some (d, p) -> (d, Some p) | None -> ([], None) in
  let off = match start with Some (p : P4.Loc.pos) -> p.line - 1 | None -> 0 in
  let od001 span what msg =
    [ D.relocate ~lines:off (D.make ~span ~code:"OD001" ~severity:D.Error "%s: %s" what msg) ]
  in
  match P4.Typecheck.check (decls @ P4.Parser.parse_program ?start src) with
  | tenv -> analyze_program ~registry ?intent ~line_offset:off tenv
  | exception P4.Typecheck.Type_error (msg, sp) -> od001 sp "type error" msg
  | exception P4.Parser.Error (msg, sp) -> od001 sp "syntax error" msg
  | exception P4.Lexer.Error (msg, p) -> od001 { P4.Loc.left = p; right = p } "syntax error" msg

let failing ~werror ds =
  List.exists
    (fun (d : D.t) ->
      match d.D.d_severity with
      | D.Error -> true
      | D.Warning -> werror
      | D.Info -> false)
    ds
