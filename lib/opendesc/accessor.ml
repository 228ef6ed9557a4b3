type t = {
  a_name : string;
  a_header : string;
  a_semantic : string option;
  a_bit_off : int;
  a_bits : int;
  a_range : int64 * int64;
  a_shape : Softnic.Codec.shape;
  a_get : bytes -> int64;
}

(* Reads and writes are [Softnic.Codec]'s shape, as the device's
   encoder writes completions: host and device agree by construction. *)
let reader ~bit_off ~bits b = Softnic.Codec.(read_int64 b (shape ~bit_off ~bits))
let writer ~bit_off ~bits b v = Softnic.Codec.(write_int64 b (shape ~bit_off ~bits) v)

(* Certified value range: what the read can actually return. Wide
   reserved blobs read as 0; a field wider than its registry semantic is
   zero-padded above the registry width (the OD011 contract), so the
   range is bounded by the narrower of the two. Derived through the
   abstract domain so it agrees with the analysis engine's arithmetic. *)
let range_of ~bits ~registry_bits =
  if bits > 64 then (0L, 0L)
  else
    let eff =
      match registry_bits with Some r when r < bits -> r | _ -> bits
    in
    match Opendesc_analysis.Absdom.(range (of_width eff)) with
    | Some r -> r
    | None -> (0L, 0L)

let of_lfield ?registry_bits (f : Path.lfield) =
  let shape = Softnic.Codec.shape ~bit_off:f.l_bit_off ~bits:f.l_bits in
  {
    a_name = f.l_name;
    a_header = f.l_header;
    a_semantic = f.l_semantic;
    a_bit_off = f.l_bit_off;
    a_bits = f.l_bits;
    a_range = range_of ~bits:f.l_bits ~registry_bits;
    a_shape = shape;
    a_get = (fun b -> Softnic.Codec.read_int64 b shape);
  }

let of_layout ?registry_width (l : Path.layout) =
  List.map
    (fun (f : Path.lfield) ->
      let registry_bits =
        match (registry_width, f.l_semantic) with
        | Some w, Some s -> w s
        | _ -> None
      in
      of_lfield ?registry_bits f)
    l.fields

let read_all (l : Path.layout) b =
  List.map
    (fun (f : Path.lfield) ->
      (f.l_name, reader ~bit_off:f.l_bit_off ~bits:f.l_bits b))
    l.fields

let write_record (l : Path.layout) b resolve =
  assert (Bytes.length b >= l.size_bytes);
  List.iter
    (fun (f : Path.lfield) ->
      writer ~bit_off:f.l_bit_off ~bits:f.l_bits b (resolve f))
    l.fields
