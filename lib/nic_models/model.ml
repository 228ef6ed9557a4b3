type producer = Softnic.Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64

type t = {
  spec : Opendesc.Nic_spec.t;
  stage : Opendesc.Path.lfield -> producer;
  resolve :
    Softnic.Feature.env ->
    Packet.Pkt.t ->
    Packet.Pkt.view ->
    Opendesc.Path.lfield ->
    int64;
  constant : producer -> int64 option;
}

let hardware_registry () =
  let r = Softnic.Registry.builtin () in
  List.iter (Softnic.Registry.register r) Softnic.Registry.device_only;
  r

let default_constants =
  [ ("status", 1L); ("op_own", 1L); ("owner", 1L); ("dd", 1L); ("generation", 1L) ]

let zero _ _ _ = 0L

(* The lookups happen here, once per field; the producer returned is the
   registry's own [compute], one of the model's constant closures (made
   once, in [make]) or [zero], so running it per packet does no lookup
   and allocates no closure. *)
let make ?(constants = default_constants) ?registry spec =
  let registry = match registry with Some r -> r | None -> hardware_registry () in
  let staged = List.map (fun (name, v) -> (name, v, fun _ _ _ -> v)) constants in
  let stage (f : Opendesc.Path.lfield) =
    match f.l_semantic with
    | Some s -> (
        match Softnic.Registry.find registry s with
        | Some feature -> feature.compute
        | None -> zero)
    | None -> (
        match List.find_opt (fun (name, _, _) -> name = f.l_name) staged with
        | Some (_, _, p) -> p
        | None -> zero)
  in
  let constant p = List.find_map (fun (_, v, q) -> if q == p then Some v else None) staged in
  { spec; stage; resolve = (fun env pkt view f -> stage f env pkt view); constant }

let source t f =
  let p = t.stage f in
  if p == zero then Softnic.Codec.Const 0L
  else
    match Softnic.Registry.core_of p with
    | Some sem -> Softnic.Codec.Core sem
    | None -> (
        match t.constant p with
        | Some v -> Softnic.Codec.Const v
        | None -> Softnic.Codec.Boxed p)
