type t = { d_fmt : Opendesc_analysis.Tx_ir.fmt; d_layout : Path.layout }

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
            { d_fmt = f; d_layout = Path.layout_of_emits f.t_extracts })
          fmts
      with
      | formats -> Ok formats
      | exception Path.Exec_error msg -> Error msg)

let pp ppf t =
  Format.fprintf ppf "desc#%d [%s] %dB cfgs=%d" t.d_fmt.t_index
    (String.concat "; " (List.map fst t.d_fmt.t_extracts))
    t.d_layout.Path.size_bytes
    (List.length t.d_fmt.t_assignments)
