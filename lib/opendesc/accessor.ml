type t = {
  a_name : string;
  a_header : string;
  a_semantic : string option;
  a_bit_off : int;
  a_bits : int;
  a_range : int64 * int64;
  a_get : bytes -> int64;
}

let of_int32 v = Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL

type shape =
  | Blob
  | Byte of int
  | Be16 of int
  | Be32 of int
  | Be64 of int
  | In_word of { word : int; shift : int; mask : int64 }
  | Walk

(* The read shape of a field; the device writer uses the same MSB-first
   convention, so reads and writes always agree. Fields that are neither
   byte-aligned power-of-two nor confined to one aligned 64-bit word take
   the generic per-byte bit walk. An [In_word] field is one big-endian
   load, a logical shift and a mask (MSB-first: bit 0 of the word is its
   top bit). *)
let shape ~bit_off ~bits =
  if bits > 64 then Blob (* reserved/padding blobs exceed an int64 *)
  else if bit_off mod 8 = 0 && (bits = 8 || bits = 16 || bits = 32 || bits = 64)
  then begin
    let byte = bit_off / 8 in
    match bits with 8 -> Byte byte | 16 -> Be16 byte | 32 -> Be32 byte | _ -> Be64 byte
  end
  else begin
    let word = bit_off / 64 * 8 in
    if bit_off + bits <= (word * 8) + 64 then
      In_word
        {
          word;
          shift = (word * 8) + 64 - (bit_off + bits);
          mask = Packet.Bitops.mask bits;
        }
    else Walk
  end

(* Buffers shorter than an [In_word] field's containing word (odd-size
   layouts) take the generic walk: the fast path must never read past
   the layout. *)
let reader_fn ~bit_off ~bits =
  match shape ~bit_off ~bits with
  | Blob -> fun _ -> 0L
  | Byte byte -> fun b -> Int64.of_int (Char.code (Bytes.get b byte))
  | Be16 byte -> fun b -> Int64.of_int (Bytes.get_uint16_be b byte)
  | Be32 byte -> fun b -> of_int32 (Bytes.get_int32_be b byte)
  | Be64 byte -> fun b -> Bytes.get_int64_be b byte
  | In_word { word; shift; mask } ->
      fun b ->
        if Bytes.length b >= word + 8 then
          Int64.logand (Int64.shift_right_logical (Bytes.get_int64_be b word) shift) mask
        else Packet.Bitops.get_bits b ~bit_off ~width:bits
  | Walk -> fun b -> Packet.Bitops.get_bits b ~bit_off ~width:bits

let reader ~bit_off ~bits b = (reader_fn ~bit_off ~bits) b

let writer ~bit_off ~bits =
  if bits > 64 then fun _ _ -> () (* reserved/padding blobs stay zero *)
  else if bit_off mod 8 = 0 then begin
    let byte = bit_off / 8 in
    match bits with
    | 8 -> fun b v -> Bytes.set b byte (Char.chr (Int64.to_int v land 0xff))
    | 16 -> fun b v -> Bytes.set_uint16_be b byte (Int64.to_int v land 0xffff)
    | 32 -> fun b v -> Bytes.set_int32_be b byte (Int64.to_int32 v)
    | 64 -> fun b v -> Bytes.set_int64_be b byte v
    | _ -> fun b v -> Packet.Bitops.set_bits b ~bit_off ~width:bits v
  end
  else fun b v -> Packet.Bitops.set_bits b ~bit_off ~width:bits v

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
  {
    a_name = f.l_name;
    a_header = f.l_header;
    a_semantic = f.l_semantic;
    a_bit_off = f.l_bit_off;
    a_bits = f.l_bits;
    a_range = range_of ~bits:f.l_bits ~registry_bits;
    a_get = reader_fn ~bit_off:f.l_bit_off ~bits:f.l_bits;
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
      (writer ~bit_off:f.l_bit_off ~bits:f.l_bits) b (resolve f))
    l.fields
