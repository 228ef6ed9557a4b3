type vertex = {
  v_id : int;
  v_emit : string;
  v_header : P4.Typecheck.header_def;
  v_sem : string list;
  v_size : int;
}

type edge = { e_src : int; e_dst : int; e_label : string }

type t = {
  vertices : vertex list;
  edges : edge list;
  leaves : int list;
  ends : (int * string) list;
      (* final frontier: vertex id (or root) with the predicate label
         pending when the body finished there *)
}

let root = -1

exception Analysis_error of string

let semantics_of_header (h : P4.Typecheck.header_def) =
  List.filter_map (fun (f : P4.Typecheck.field) -> f.f_semantic) h.h_fields

let out_param (c : P4.Typecheck.control_def) =
  match Opendesc_analysis.Dep_ir.out_param c with
  | Some name -> name
  | None ->
      raise
        (Analysis_error
           (Printf.sprintf "control %s has no cmpt_out parameter" c.ct_name))

let emit_target = Opendesc_analysis.Dep_ir.emit_target

type builder = {
  mutable vertices : vertex list;
  mutable edges : edge list;
  mutable next_id : int;
  tenv : P4.Typecheck.t;
  scope : P4.Typecheck.scope;
  out_name : string;
}

(* The frontier is the set of (vertex id, pending edge label) pairs that
   the next emitted vertex must be linked from. Labels accumulate across
   nested conditionals until an emit consumes them. *)
let rec walk_block b frontier (stmts : P4.Ast.block) =
  List.fold_left (walk_stmt b) frontier stmts

and walk_stmt b frontier (s : P4.Ast.stmt) =
  match s with
  | P4.Ast.SCall e -> (
      match emit_target b.out_name e with
      | None -> frontier
      | Some arg -> (
          match P4.Typecheck.type_of_expr b.tenv b.scope arg with
          | P4.Typecheck.RHeader h ->
              let v =
                {
                  v_id = b.next_id;
                  v_emit = P4.Pretty.expr_to_string arg;
                  v_header = h;
                  v_sem = semantics_of_header h;
                  v_size = P4.Typecheck.header_bytes h;
                }
              in
              b.next_id <- b.next_id + 1;
              b.vertices <- v :: b.vertices;
              List.iter
                (fun (src, label) ->
                  b.edges <- { e_src = src; e_dst = v.v_id; e_label = label } :: b.edges)
                frontier;
              [ (v.v_id, "") ]
          | ty ->
              raise
                (Analysis_error
                   (Printf.sprintf "emit of non-header expression %s : %s"
                      (P4.Pretty.expr_to_string arg)
                      (P4.Typecheck.rtyp_name ty)))))
  | P4.Ast.SIf (cond, then_b, else_b) ->
      let cond_s = P4.Pretty.expr_to_string cond in
      let with_label lbl (src, pending) =
        (src, if pending = "" then lbl else pending ^ " && " ^ lbl)
      in
      let then_frontier =
        walk_block b (List.map (with_label cond_s) frontier) then_b
      in
      let neg = "!" ^ cond_s in
      let else_frontier =
        match else_b with
        | Some eb -> walk_block b (List.map (with_label neg) frontier) eb
        | None -> List.map (with_label neg) frontier
      in
      then_frontier @ else_frontier
  | P4.Ast.SBlock blk -> walk_block b frontier blk
  | P4.Ast.SAssign _ | P4.Ast.SVar _ | P4.Ast.SConst _ | P4.Ast.SEmpty
  | P4.Ast.SReturn _ ->
      frontier

let build tenv (c : P4.Typecheck.control_def) =
  let out_name = out_param c in
  let b =
    {
      vertices = [];
      edges = [];
      next_id = 0;
      tenv;
      scope = P4.Typecheck.scope_of_control tenv c;
      out_name;
    }
  in
  let final_frontier = walk_block b [ (root, "") ] c.ct_body in
  let vertices = List.rev b.vertices in
  let edges = List.rev b.edges in
  let leaves =
    List.sort_uniq compare (List.map (fun (src, _) -> src) final_frontier)
  in
  { vertices; edges; leaves; ends = final_frontier }

let vertex (t : t) id = List.find (fun v -> v.v_id = id) t.vertices

let walks (t : t) =
  (* DFS from root along edges; a walk terminates wherever the body could
     finish (an entry of [ends]), carrying that entry's pending label. *)
  let succs id = List.filter (fun e -> e.e_src = id) t.edges in
  let rec go id labels visited =
    let here =
      List.filter_map
        (fun (eid, pending) ->
          if eid = id then
            let labels = if pending = "" then labels else pending :: labels in
            Some (List.rev labels, List.rev visited)
          else None)
        t.ends
    in
    here
    @ List.concat_map
        (fun e ->
          let lbls = if e.e_label = "" then labels else e.e_label :: labels in
          go e.e_dst lbls (vertex t e.e_dst :: visited))
        (succs id)
  in
  go root [] []

let to_dot (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph cmpt_deparser {\n  rankdir=TB;\n";
  Buffer.add_string buf "  root [shape=point];\n";
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  v%d [shape=box, label=\"emit(%s)\\n%s, %dB\"];\n" v.v_id
           v.v_emit
           (String.concat "," v.v_sem)
           v.v_size))
    t.vertices;
  List.iter
    (fun e ->
      let src = if e.e_src = root then "root" else Printf.sprintf "v%d" e.e_src in
      let label = if e.e_label = "" then "" else Printf.sprintf " [label=\"%s\"]" e.e_label in
      Buffer.add_string buf (Printf.sprintf "  %s -> v%d%s;\n" src e.e_dst label))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf (t : t) =
  Format.fprintf ppf "cfg: %d vertices, %d edges, leaves [%s]" (List.length t.vertices)
    (List.length t.edges)
    (String.concat ";" (List.map string_of_int t.leaves))
