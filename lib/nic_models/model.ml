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

let feature semantic width_bits compute =
  { Softnic.Feature.semantic; width_bits; cost_cycles = 0.0; compute }

(* Device-side implementations of semantics the host cannot reproduce. *)
let wire_timestamp =
  (* A PHC reading: the env clock, read as the software timestamp reads
     it. Sharing its [compute] lets the device's encoder tick the clock
     as an int; what matters to experiments is monotonicity. *)
  feature "wire_timestamp" 64 Softnic.Registry.timestamp.compute

let inline_crypto_tag =
  (* Stand-in for an inline-crypto accelerator: a keyed digest of the
     payload the host-side shims have no key material to compute. *)
  feature "inline_crypto_tag" 64 (fun _ pkt _ ->
      let crc = Softnic.Crc32.of_pkt pkt in
      let lo = Int64.logand (Int64.of_int32 crc) 0xFFFFFFFFL in
      Int64.logor (Int64.shift_left lo 32) (Int64.logxor lo 0x5A5A5A5AL))

(* Whether [needle] occurs in [buf] between [i] and [stop], compared in
   place: top-level recursion so a search allocates nothing. *)
let rec matches_at buf i needle j =
  j = String.length needle
  || (Bytes.get buf (i + j) = String.get needle j && matches_at buf i needle (j + 1))

let rec occurs buf i ~stop needle =
  i + String.length needle <= stop
  && (matches_at buf i needle 0 || occurs buf (i + 1) ~stop needle)

let regex_match_id =
  (* Stand-in for a RegEx accelerator: rule 1 fires on payloads containing
     "GET", rule 2 on "POST", else 0. *)
  feature "regex_match_id" 32 (fun _ (pkt : Packet.Pkt.t) (v : Packet.Pkt.view) ->
      let off = v.payload_off and stop = pkt.len in
      if off < 0 || off >= stop then 0L
      else if occurs pkt.buf off ~stop "get " || occurs pkt.buf off ~stop "GET " then 1L
      else if occurs pkt.buf off ~stop "POST " then 2L
      else 0L)

let hardware_registry () =
  let r = Softnic.Registry.builtin () in
  Softnic.Registry.register r wire_timestamp;
  Softnic.Registry.register r inline_crypto_tag;
  Softnic.Registry.register r regex_match_id;
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
