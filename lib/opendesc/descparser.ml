type t = {
  d_index : int;
  d_extracts : (string * P4.Typecheck.header_def) list;
  d_layout : Path.layout;
  d_assignments : Opendesc_analysis.Context.assignment list;
}

let size t = t.d_layout.Path.size_bytes

let field_for t s =
  List.find_opt (fun (f : Path.lfield) -> f.l_semantic = Some s) t.d_layout.Path.fields

let enumerate tenv pd =
  match Opendesc_analysis.Tx_ir.enumerate tenv pd with
  | Error _ as e -> e
  | Ok fmts -> (
      match
        List.map
          (fun (f : Opendesc_analysis.Tx_ir.fmt) ->
            {
              d_index = f.t_index;
              d_extracts = f.t_extracts;
              d_layout = Path.layout_of_emits f.t_extracts;
              d_assignments = f.t_assignments;
            })
          fmts
      with
      | formats -> Ok formats
      | exception Path.Exec_error msg -> Error msg)

let pp ppf t =
  Format.fprintf ppf "desc#%d [%s] %dB cfgs=%d" t.d_index
    (String.concat "; " (List.map fst t.d_extracts))
    t.d_layout.Path.size_bytes
    (List.length t.d_assignments)
