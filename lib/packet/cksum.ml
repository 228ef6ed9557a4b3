(* Stdlib [Bytes] reads throughout: they inline, where a call through
   [Bitops] would not. *)
let rec sum_from acc b i stop =
  if i + 1 < stop then sum_from (acc + Bytes.get_uint16_be b i) b (i + 2) stop
  else if i < stop then acc + (Bytes.get_uint8 b i lsl 8)
  else acc

let ones_sum ?(acc = 0) b ~pos ~len = sum_from acc b pos (pos + len)

(* [finish] depends only on its argument modulo 0xFFFF and on whether it
   is 0. A 64-bit word's two 32-bit halves sum to its four 16-bit words
   modulo 0xFFFF (2^16 = 1 there) and are 0 exactly when they are, so the
   checksums below add 8 bytes per step; [ones_sum]'s raw sum stays in
   16-bit words. *)
let rec sum64 acc b i stop =
  if i + 8 <= stop then begin
    let w = Bytes.get_int64_be b i in
    sum64
      (acc + Int64.to_int (Int64.shift_right_logical w 32) + (Int64.to_int w land 0xFFFFFFFF))
      b (i + 8) stop
  end
  else sum_from acc b i stop

let finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

(* The sum of [start, stop) with the 16-bit checksum field at [field]
   (an even distance from [start]) counted as zero: the bytes on either
   side of it. *)
let sum_around acc b ~start ~field ~stop = sum64 (sum64 acc b start field) b (field + 2) stop

let header_sum b ~off ~ihl = finish (sum_around 0 b ~start:off ~field:(off + 10) ~stop:(off + ihl))

let ipv4_header b ~off = header_sum b ~off ~ihl:((Bytes.get_uint8 b off land 0x0f) * 4)

let ipv4_header_within b ~off ~len =
  let ihl = (Bytes.get_uint8 b off land 0x0f) * 4 in
  if ihl < Hdr.ipv4_min_len || off + ihl > len then -1 else header_sum b ~off ~ihl

let l4_sum b ~(v : Pkt.view) ~total_len =
  if (not v.is_ipv4) || v.l4_off < 0 then -1
  else begin
    let l4_len = total_len - v.l4_off in
    (* IPv4 pseudo-header: src, dst, zero+proto, L4 length. *)
    let pseudo = sum64 (v.l4_proto + l4_len) b (v.l3_off + 12) (v.l3_off + 20) in
    let field = if v.l4_proto = Hdr.Proto.tcp then v.l4_off + 16 else v.l4_off + 6 in
    finish (sum_around pseudo b ~start:v.l4_off ~field ~stop:total_len)
  end

let l4_of_header b ~l3_off ~l4_off ~hdr_len ~field ~proto ~l4_len ~payload_sum =
  let pseudo = sum64 (proto + l4_len + payload_sum) b (l3_off + 12) (l3_off + 20) in
  finish (sum_around pseudo b ~start:l4_off ~field ~stop:(l4_off + hdr_len))

(* A pair of equal bytes [c] is the 16-bit word [257 * c]; an odd last
   byte is padded into [256 * c]. *)
let fill_sum c ~len =
  let c = Char.code c in
  ((len / 2) * 257 * c) + ((len land 1) * 256 * c)

let l4 b ~v ~total_len =
  let c = l4_sum b ~v ~total_len in
  if c < 0 then None else Some c
