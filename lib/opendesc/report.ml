let fpf = Format.fprintf

let paths ppf (nic : Nic_spec.t) =
  fpf ppf "@[<v>completion paths of %s:@," nic.nic_name;
  List.iter
    (fun (p : Path.t) ->
      fpf ppf "  #%d  %2dB  prov={%s}  configs=%d  emits=[%s]@," p.p_index
        (Path.size p)
        (String.concat "," p.p_prov)
        (List.length p.p_assignments)
        (String.concat "; " (List.map fst p.p_emits)))
    nic.paths;
  fpf ppf "@]"

let scored_line ppf (s : Select.scored) =
  fpf ppf "#%d  size=%2dB  softnic=%s  dma=%.1f  total=%s  missing={%s}"
    s.s_path.p_index (Path.size s.s_path)
    (if Float.is_finite s.s_softnic_cost then Printf.sprintf "%.1f" s.s_softnic_cost
     else "inf")
    s.s_dma_cost
    (if Float.is_finite s.s_total then Printf.sprintf "%.1f" s.s_total else "inf")
    (String.concat "," s.s_missing)

let outcome ppf (c : Compile.t) =
  let chosen = Compile.path c in
  fpf ppf "@[<v>OpenDesc compilation report@,";
  fpf ppf "  nic     : %s (%s)@," c.nic.nic_name (Nic_spec.kind_to_string c.nic.kind);
  fpf ppf "  intent  : %a@," Intent.pp c.intent;
  fpf ppf "  alpha   : %.2f cycles/byte@," c.outcome.alpha;
  fpf ppf "  ranking :@,";
  List.iter (fun s -> fpf ppf "    %a@," scored_line s) c.outcome.ranked;
  fpf ppf "  chosen  : path #%d (%d bytes per completion)@," chosen.p_index
    (Path.size chosen);
  (match c.config with
  | [] -> fpf ppf "  config  : (no context; single-format NIC)@,"
  | cfg -> fpf ppf "  config  : %a@," Opendesc_analysis.Context.pp cfg);
  fpf ppf "  bindings:@,";
  List.iter
    (fun (sem, b) ->
      match b with
      | Compile.Hardware a ->
          fpf ppf "    %-16s hardware  %s.%s @@ bit %d, %d bits@," sem a.a_header
            a.a_name a.a_bit_off a.a_bits
      | Compile.Software f ->
          fpf ppf "    %-16s software  shim (~%.0f cycles/pkt)@," sem f.cost_cycles)
    c.bindings;
  (match c.tx_format with
  | Some f ->
      fpf ppf "  tx desc : format #%d, %d bytes%s@," f.d_fmt.t_index (Descparser.size f)
        (match c.tx_missing with
        | [] -> ""
        | ms -> Printf.sprintf " (host software: %s)" (String.concat "," ms))
  | None -> ());
  fpf ppf "@]"

let summary_line (c : Compile.t) =
  let hw = List.length (Compile.hardware c) in
  let sw = List.length (Compile.missing c) in
  Printf.sprintf "%-24s path #%d  %2dB cmpt  %d hw / %d sw" c.nic.nic_name
    (Compile.path c).p_index
    (Path.size (Compile.path c))
    hw sw

let to_string c = Format.asprintf "%a" outcome c
