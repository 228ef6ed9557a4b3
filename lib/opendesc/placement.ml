type operating_point = { pkt_bytes : int; cpu_hz : float; pcie_gbps : float }

let default_point = { pkt_bytes = 64; cpu_hz = 3.0e9; pcie_gbps = 64.0 }

type verdict = {
  v_path : Path.t;
  v_cpu_cycles : float;
  v_dma_bytes : float;
  v_cpu_pps : float;
  v_pcie_pps : float;
  v_sustained_pps : float;
  v_bottleneck : [ `Cpu | `Pcie ];
}

let costs = Opendesc_analysis.Costbound.default_table
let datapath_overhead_cycles = costs.tb_ring_advance +. costs.tb_refill

let evaluate ?(point = default_point) registry intent (p : Path.t) =
  let requested = Intent.required intent in
  let missing = List.filter (fun s -> not (Path.provides p s)) requested in
  let provided = List.filter (Path.provides p) requested in
  let cpu =
    datapath_overhead_cycles
    +. (float_of_int ((Path.size p + 63) / 64) *. costs.tb_cache_line_load)
    +. (float_of_int (List.length provided) *. costs.tb_accessor_read)
    +. List.fold_left (fun acc s -> acc +. Semantic.cost registry s) 0.0 missing
  in
  let dma = float_of_int (point.pkt_bytes + Path.size p) in
  let cpu_pps = point.cpu_hz /. cpu in
  let pcie_pps = point.pcie_gbps *. 1e9 /. 8.0 /. dma in
  {
    v_path = p;
    v_cpu_cycles = cpu;
    v_dma_bytes = dma;
    v_cpu_pps = cpu_pps;
    v_pcie_pps = pcie_pps;
    v_sustained_pps = Float.min cpu_pps pcie_pps;
    v_bottleneck = (if cpu_pps <= pcie_pps then `Cpu else `Pcie);
  }

let advise ?point registry intent (nic : Nic_spec.t) =
  (* Feasibility screening via Eq. 1 (drops hardware-only gaps). *)
  match Select.choose registry intent nic.paths with
  | Error _ as e -> e
  | Ok outcome ->
      let feasible =
        List.filter_map
          (fun (s : Select.scored) ->
            if Float.is_finite s.s_total then Some s.s_path else None)
          outcome.ranked
      in
      let verdicts = List.map (evaluate ?point registry intent) feasible in
      Ok
        (List.sort
           (fun a b -> compare b.v_sustained_pps a.v_sustained_pps)
           verdicts)

(* The low-rate winner is the path that costs the CPU least per packet
   (leaving the most headroom for the application); the high-rate winner
   is the path sustaining the highest rate. If they differ, leadership
   flips exactly where the low-rate winner saturates. *)
let crossover_pps ?point registry intent nic =
  match advise ?point registry intent nic with
  | Error _ -> None
  | Ok [] | Ok [ _ ] -> None
  | Ok verdicts -> (
      let by_cpu =
        List.sort (fun a b -> compare a.v_cpu_cycles b.v_cpu_cycles) verdicts
      in
      let best_high = List.hd verdicts in
      match by_cpu with
      | best_low :: _
        when best_low.v_path.p_index <> best_high.v_path.p_index
             && best_high.v_sustained_pps > best_low.v_sustained_pps ->
          Some (best_low.v_sustained_pps, best_low.v_path, best_high.v_path)
      | _ -> None)
