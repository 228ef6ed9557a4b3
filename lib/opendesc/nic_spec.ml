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
  layout_fingerprint : string;
  notes : string;
}

(* [Printf "%d"] for the fingerprint, without the format machinery. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

(* "|p<index>:<size>B[<name>:<semantic or ->@<bit_off>+<bits>;...]" per
   path, then "|tx<index>:<size>B" per TX format. *)
let layout_fingerprint_of paths tx_formats =
  let buf = Buffer.create 256 in
  List.iter
    (fun (p : Path.t) ->
      Buffer.add_string buf "|p";
      add_int buf p.p_index;
      Buffer.add_char buf ':';
      add_int buf (Path.size p);
      Buffer.add_string buf "B[";
      List.iter
        (fun (f : Path.lfield) ->
          Buffer.add_string buf f.l_name;
          Buffer.add_char buf ':';
          Buffer.add_string buf (Option.value ~default:"-" f.l_semantic);
          Buffer.add_char buf '@';
          add_int buf f.l_bit_off;
          Buffer.add_char buf '+';
          add_int buf f.l_bits;
          Buffer.add_char buf ';')
        p.p_layout.fields;
      Buffer.add_char buf ']')
    paths;
  List.iter
    (fun (f : Descparser.t) ->
      Buffer.add_string buf "|tx";
      add_int buf f.d_fmt.t_index;
      Buffer.add_char buf ':';
      add_int buf (Descparser.size f);
      Buffer.add_char buf 'B')
    tx_formats;
  Buffer.contents buf

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
                      layout_fingerprint = layout_fingerprint_of paths tx_formats;
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
    ?intent ~prelude:(Prelude.decls, Prelude.end_pos) src

let lint ?registry t =
  analyze ?registry t
  |> List.filter (fun (d : Opendesc_analysis.Diagnostic.t) ->
         d.d_severity <> Opendesc_analysis.Diagnostic.Info)
  |> List.map Opendesc_analysis.Diagnostic.to_string

let pp ppf t =
  Format.fprintf ppf "%s (%s): %d completion path(s)%s%s" t.nic_name
    (kind_to_string t.kind) (List.length t.paths)
    (match t.tx_formats with
    | [] -> ""
    | fs -> Printf.sprintf ", %d TX format(s)" (List.length fs))
    (if t.notes = "" then "" else " — " ^ t.notes)

let fingerprint t = t.nic_name ^ t.layout_fingerprint
