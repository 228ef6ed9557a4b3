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

exception Exec_error of string

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

module Engine = Opendesc_analysis.Engine
module Dep_ir = Opendesc_analysis.Dep_ir

let of_catalogue (cat : Engine.catalogue) =
  let forked = List.find_map (fun (_, (r : Dep_ir.run), _) -> r.r_forked) cat.cat_runs in
  match (cat.cat_ctx_error, forked) with
  | Some msg, _ -> Error msg
  | None, Some cond ->
      Error
        (Printf.sprintf
           "branch %s is not decidable from the context; OpenDesc requires \
            completion layouts to be selected by configuration"
           (P4.Pretty.expr_to_string cond))
  | None, None -> (
      let path (g : Engine.group) =
        let emits =
          List.map
            (fun (x : Dep_ir.exec_emit) ->
              (x.x_emit.e_arg, x.x_emit.e_header))
            g.g_run.r_emits
        in
        {
          p_index = g.g_index;
          p_emits = emits;
          p_layout = layout_of_emits emits;
          p_prov = prov_of_emits emits;
          p_assignments = g.g_assigns;
        }
      in
      match List.map path (Engine.feasible_groups cat) with
      | paths -> Ok paths
      | exception Exec_error msg -> Error msg)

let pp ppf t =
  Format.fprintf ppf "path#%d [%s] %dB prov={%s} cfgs=%d" t.p_index
    (String.concat "; " (List.map fst t.p_emits))
    t.p_layout.size_bytes
    (String.concat "," t.p_prov)
    (List.length t.p_assignments)
