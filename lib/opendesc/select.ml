type scored = {
  s_path : Path.t;
  s_missing : string list;
  s_softnic_cost : float;
  s_dma_cost : float;
  s_total : float;
}

type outcome = { chosen : scored; ranked : scored list; alpha : float }

type error = No_paths | Unsatisfiable of string list

let error_to_string = function
  | No_paths -> "the NIC description exposes no completion path"
  | Unsatisfiable missing ->
      Printf.sprintf
        "unsatisfiable intent: no completion path provides {%s} and no software \
         implementation exists"
        (String.concat ", " missing)

let default_alpha = 2.0

let score registry ~alpha intent (p : Path.t) =
  let missing =
    List.filter (fun s -> not (Path.provides p s)) (Intent.required intent)
  in
  let softnic_cost =
    List.fold_left (fun acc s -> acc +. Semantic.rx_cost registry s) 0.0 missing
  in
  let dma_cost = alpha *. float_of_int (Path.size p) in
  {
    s_path = p;
    s_missing = missing;
    s_softnic_cost = softnic_cost;
    s_dma_cost = dma_cost;
    s_total = softnic_cost +. dma_cost;
  }

let choose ?(alpha = default_alpha) registry intent paths =
  match paths with
  | [] -> Error No_paths
  | _ ->
      let scored = List.map (score registry ~alpha intent) paths in
      let cmp a b =
        match compare a.s_total b.s_total with
        | 0 -> (
            match compare (Path.size a.s_path) (Path.size b.s_path) with
            | 0 -> compare a.s_path.p_index b.s_path.p_index
            | c -> c)
        | c -> c
      in
      let ranked = List.sort cmp scored in
      let best = List.hd ranked in
      if Float.is_finite best.s_total then Ok { chosen = best; ranked; alpha }
      else begin
        (* Unsatisfiable: report the semantics that are infinitely-costly
           in every path. *)
        let blocking =
          List.filter
            (fun s ->
              Semantic.rx_cost registry s = infinity
              && List.for_all (fun sc -> List.mem s sc.s_missing) scored)
            (Intent.required intent)
        in
        Error (Unsatisfiable blocking)
      end
