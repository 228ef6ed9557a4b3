type assignment = (string * int64) list

let max_enum_bits = 4
let max_assignments = 1024

let is_context_annotated (p : P4.Typecheck.cparam) =
  List.exists (fun (a : P4.Ast.annotation) -> a.aname = "context") p.c_annots

let name_contains_ctx name =
  let lower = String.lowercase_ascii name in
  let n = String.length lower in
  let rec go i = i + 3 <= n && (String.sub lower i 3 = "ctx" || go (i + 1)) in
  go 0

let find_in (params : P4.Typecheck.cparam list) =
  List.find_map
    (fun (p : P4.Typecheck.cparam) ->
      match (p.c_dir, p.c_typ) with
      | P4.Ast.DIn, P4.Typecheck.RHeader h
        when is_context_annotated p || name_contains_ctx p.c_name ->
          Some (p, h)
      | _ -> None)
    params

let find_param (c : P4.Typecheck.control_def) = find_in c.ct_params

let values_annotation (f : P4.Typecheck.field) =
  match P4.Ast.find_annotation "values" f.f_annots with
  | None -> None
  | Some a ->
      let ints =
        List.filter_map (function P4.Ast.AInt v -> Some v | _ -> None) a.args
      in
      if ints = [] then None else Some ints

let domains (h : P4.Typecheck.header_def) =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (f : P4.Typecheck.field) :: rest -> (
        match values_annotation f with
        | Some vs -> go ((f.f_name, vs) :: acc) rest
        | None ->
            if f.f_bits <= max_enum_bits then
              go ((f.f_name, List.init (1 lsl f.f_bits) Int64.of_int) :: acc) rest
            else
              Error
                (Printf.sprintf
                   "context field %s.%s is %d bits wide; annotate it with \
                    @values(...) to bound the configuration space"
                   h.h_name f.f_name f.f_bits))
  in
  go [] h.h_fields

let enumerate h =
  match domains h with
  | Error _ as e -> e
  | Ok doms ->
      let total =
        List.fold_left (fun acc (_, vs) -> acc * List.length vs) 1 doms
      in
      if total > max_assignments then
        Error
          (Printf.sprintf "context %s has %d configurations (cap %d)" h.h_name
             total max_assignments)
      else
        let rec product = function
          | [] -> [ [] ]
          | (name, vs) :: rest ->
              let tails = product rest in
              List.concat_map
                (fun v -> List.map (fun tl -> (name, v) :: tl) tails)
                vs
        in
        Ok (product doms)

let env_of ~param_name (a : assignment) : P4.Eval.env =
 fun path ->
  match path with
  | [ p; field ] when p = param_name ->
      Option.map P4.Eval.vint (List.assoc_opt field a)
  | _ -> None

let pp ppf (a : assignment) =
  match a with
  | [] -> Format.fprintf ppf "{}"
  | _ ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf (k, v) -> Format.fprintf ppf "%s=%Ld" k v))
        a

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && Int64.equal v1 v2) a b
