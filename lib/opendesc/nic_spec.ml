type kind = Fixed_function | Partially_programmable | Fully_programmable

let kind_to_string = function
  | Fixed_function -> "fixed-function"
  | Partially_programmable -> "partially-programmable"
  | Fully_programmable -> "fully-programmable"

type t = {
  nic_name : string;
  kind : kind;
  p4_source : string;
  tenv : P4.Typecheck.t;
  deparser : P4.Typecheck.control_def;
  ctx : (P4.Typecheck.cparam * P4.Typecheck.header_def) option;
  paths : Path.t list;
  catalogue : Opendesc_analysis.Engine.catalogue;
  desc_parser : P4.Typecheck.parser_def option;
  tx_formats : Descparser.t list;
  notes : string;
}

let find_deparser tenv ~requested =
  match requested with
  | Some name -> (
      match P4.Typecheck.find_control tenv name with
      | Some c when Opendesc_analysis.Dep_ir.out_param c <> None -> Ok c
      | Some _ -> Error (Printf.sprintf "control %s has no cmpt_out parameter" name)
      | None -> Error (Printf.sprintf "no control named %s" name))
  | None -> Opendesc_analysis.Engine.locate_deparser tenv

let load ~name ~kind ?deparser ?(notes = "") p4_source =
  match Prelude.check_result p4_source with
  | Error e -> Error (Printf.sprintf "%s: %s" name e)
  | Ok tenv -> (
      match find_deparser tenv ~requested:deparser with
      | Error e -> Error (Printf.sprintf "%s: %s" name e)
      | Ok dep -> (
          match
            Result.bind (Opendesc_analysis.Engine.catalogue tenv dep) (fun cat ->
                Result.map (fun paths -> (cat, paths)) (Path.of_catalogue cat))
          with
          | Error e -> Error (Printf.sprintf "%s: %s" name e)
          | Ok (catalogue, paths) -> (
              let desc_parser =
                List.find_opt Opendesc_analysis.Tx_ir.is_desc_parser
                  (P4.Typecheck.parsers tenv)
              in
              let tx_formats =
                match desc_parser with
                | None -> Ok []
                | Some pd -> Descparser.enumerate tenv pd
              in
              match tx_formats with
              | Error e -> Error (Printf.sprintf "%s: %s" name e)
              | Ok tx_formats ->
                  Ok
                    {
                      nic_name = name;
                      kind;
                      p4_source;
                      tenv;
                      deparser = dep;
                      ctx = catalogue.cat_ctx;
                      paths;
                      catalogue;
                      desc_parser;
                      tx_formats;
                      notes;
                    })))

let load_exn ~name ~kind ?deparser ?notes src =
  match load ~name ~kind ?deparser ?notes src with
  | Ok t -> t
  | Error e -> failwith e

let cfg t = Cfg.build t.tenv t.deparser

let analyze ?registry ?intent t =
  let registry = match registry with Some r -> r | None -> Semantic.default () in
  let intent =
    Option.map
      (fun (i : Intent.t) ->
        List.map (fun (f : Intent.field) -> (f.if_semantic, f.if_width)) i.fields)
      intent
  in
  Opendesc_analysis.Engine.analyze
    {
      Opendesc_analysis.Engine.in_tenv = t.tenv;
      in_catalogue = Some t.catalogue;
      in_desc_parser = t.desc_parser;
      in_tx_formats = Some (List.map (fun (d : Descparser.t) -> d.d_fmt) t.tx_formats);
      in_registry = registry;
      in_intent = intent;
      in_line_offset = Prelude.line_offset;
    }

let analyze_source ?registry ?intent src =
  let registry = match registry with Some r -> r | None -> Semantic.default () in
  let intent =
    Option.map
      (fun (i : Intent.t) ->
        List.map (fun (f : Intent.field) -> (f.if_semantic, f.if_width)) i.fields)
      intent
  in
  Opendesc_analysis.Engine.analyze_source
    ~registry
    ?intent ~prelude:Prelude.source src

let lint ?registry t =
  analyze ?registry t
  |> List.filter (fun (d : Opendesc_analysis.Diagnostic.t) ->
         d.d_severity <> Opendesc_analysis.Diagnostic.Info)
  |> List.map Opendesc_analysis.Diagnostic.to_string

let find_path t idx = List.find_opt (fun (p : Path.t) -> p.p_index = idx) t.paths

let pp ppf t =
  Format.fprintf ppf "%s (%s): %d completion path(s)%s%s" t.nic_name
    (kind_to_string t.kind) (List.length t.paths)
    (match t.tx_formats with
    | [] -> ""
    | fs -> Printf.sprintf ", %d TX format(s)" (List.length fs))
    (if t.notes = "" then "" else " — " ^ t.notes)

let fingerprint t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf t.nic_name;
  List.iter
    (fun (p : Path.t) ->
      Buffer.add_string buf (Printf.sprintf "|p%d:%dB[" p.p_index (Path.size p));
      List.iter
        (fun (f : Path.lfield) ->
          Buffer.add_string buf
            (Printf.sprintf "%s:%s@%d+%d;" f.l_name
               (Option.value ~default:"-" f.l_semantic)
               f.l_bit_off f.l_bits))
        p.p_layout.fields;
      Buffer.add_char buf ']')
    t.paths;
  List.iter
    (fun (f : Descparser.t) ->
      Buffer.add_string buf (Printf.sprintf "|tx%d:%dB" f.d_fmt.t_index (Descparser.size f)))
    t.tx_formats;
  Buffer.contents buf
