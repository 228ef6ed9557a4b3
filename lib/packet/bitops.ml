let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_u16_le = Bytes.get_uint16_le
let get_u16_be = Bytes.get_uint16_be
let set_u16_le = Bytes.set_uint16_le
let set_u16_be = Bytes.set_uint16_be

let get_u32_be = Bytes.get_int32_be
let set_u32_be = Bytes.set_int32_be

let get_u64_le = Bytes.get_int64_le
let set_u64_le = Bytes.set_int64_le

let mask w =
  assert (w >= 0 && w <= 64);
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let bytes_for_bits n = (n + 7) / 8

(* Bit fields are MSB-first within the byte stream: bit offset 0 is the top
   bit of byte 0, as in a P4 header definition read left to right. The
   accumulator collects exactly the field's bits per byte, so a 64-bit
   field spanning nine bytes cannot overflow the int64. *)
let get_bits b ~bit_off ~width =
  assert (width > 0 && width <= 64);
  let last_bit = bit_off + width - 1 in
  assert (bit_off >= 0 && last_bit < 8 * Bytes.length b);
  let first_byte = bit_off / 8 and last_byte = last_bit / 8 in
  let acc = ref 0L in
  for i = first_byte to last_byte do
    (* Field bits inside byte i, in stream coordinates. *)
    let hi = max bit_off (8 * i) and lo = min last_bit ((8 * i) + 7) in
    let nbits = lo - hi + 1 in
    let shift = 7 - (lo - (8 * i)) in
    let chunk = (get_u8 b i lsr shift) land ((1 lsl nbits) - 1) in
    acc := Int64.logor (Int64.shift_left !acc nbits) (Int64.of_int chunk)
  done;
  !acc

let set_bits b ~bit_off ~width v =
  assert (width > 0 && width <= 64);
  let last_bit = bit_off + width - 1 in
  assert (bit_off >= 0 && last_bit < 8 * Bytes.length b);
  let v = Int64.logand v (mask width) in
  let first_byte = bit_off / 8 and last_byte = last_bit / 8 in
  (* Write byte by byte, preserving bits outside the field. *)
  for i = first_byte to last_byte do
    (* Bits of [v] that land in byte [i]: byte i covers stream bits
       [8i, 8i+7]; stream bit k holds value bit (last_bit - k). *)
    let byte_lo_stream = (8 * i) + 7 in
    (* value bit index corresponding to the LSB of this byte (may be
       negative when the byte extends below the field). *)
    let v_at_byte_lsb = last_bit - byte_lo_stream in
    let chunk =
      if v_at_byte_lsb >= 0 then Int64.to_int (Int64.logand (Int64.shift_right_logical v v_at_byte_lsb) 0xffL)
      else Int64.to_int (Int64.logand (Int64.shift_left v (-v_at_byte_lsb)) 0xffL)
    in
    (* Mask of field bits inside this byte. *)
    let hi_in_byte = max (8 * i) bit_off - (8 * i) in
    let lo_in_byte = min byte_lo_stream last_bit - (8 * i) in
    let field_mask = ref 0 in
    for k = hi_in_byte to lo_in_byte do
      field_mask := !field_mask lor (1 lsl (7 - k))
    done;
    let old = get_u8 b i in
    set_u8 b i ((old land lnot !field_mask) lor (chunk land !field_mask))
  done

let hex_sub b ~pos ~len =
  let buf = Buffer.create (2 * len) in
  for i = pos to pos + len - 1 do
    Buffer.add_string buf (Printf.sprintf "%02x" (get_u8 b i))
  done;
  Buffer.contents buf

let hex b = hex_sub b ~pos:0 ~len:(Bytes.length b)
