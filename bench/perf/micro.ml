(* Per-binding costs of a compiled intent: one constant-time accessor
   read per hardware binding, one software shim per software binding,
   each timed over real completions and packets of the workload. *)

module D = Driver

let bindings ~(compiled : Opendesc.Compile.t) ~(model : Nic_models.Model.t)
    (packets : Packet.Pkt.t array) =
  let dev = D.Device.create_exn ~config:compiled.config model in
  let n = min 32 (Array.length packets) in
  for i = 0 to n - 1 do
    ignore (D.Device.rx_inject dev packets.(i))
  done;
  let b = D.Device.burst_create ~capacity:32 dev in
  let got = D.Device.rx_consume_batch dev b in
  let pkts =
    Array.init got (fun i -> Packet.Pkt.sub b.bs_pkts.(i) ~len:b.bs_lens.(i))
  in
  let views = Array.map Packet.Pkt.parse pkts in
  let env = Softnic.Feature.make_env () in
  List.map
    (fun (sem, binding) ->
      match binding with
      | Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
          ( "accessor.read." ^ sem ^ ".ns",
            Rep.ns_per_call got (fun i -> a.a_get b.bs_cmpts.(i)) )
      | Opendesc.Compile.Software (f : Softnic.Feature.t) ->
          ( "shim." ^ sem ^ ".ns",
            Rep.ns_per_call got (fun i -> f.compute env pkts.(i) views.(i)) ))
    compiled.bindings
