let header_bytes = 2
let per_packet_overhead = 2

let build ~cmpt_size rxs =
  let total =
    List.fold_left
      (fun acc (_, len, _) -> acc + per_packet_overhead + cmpt_size + len)
      header_bytes rxs
  in
  let frame = Bytes.create total in
  Bytes.set_uint16_le frame 0 (List.length rxs);
  let off = ref header_bytes in
  List.iter
    (fun ((pkt, len, cmpt) : bytes * int * bytes) ->
      assert (Bytes.length cmpt >= cmpt_size);
      Bytes.set_uint16_le frame !off len;
      Bytes.blit cmpt 0 frame (!off + 2) cmpt_size;
      Bytes.blit pkt 0 frame (!off + 2 + cmpt_size) len;
      off := !off + per_packet_overhead + cmpt_size + len)
    rxs;
  frame

let count frame =
  if Bytes.length frame < header_bytes then invalid_arg "Aggregator.count: short frame"
  else Bytes.get_uint16_le frame 0

let iter ~cmpt_size frame ~f =
  let n = count frame in
  let off = ref header_bytes in
  for _ = 1 to n do
    if !off + 2 > Bytes.length frame then invalid_arg "Aggregator.iter: truncated";
    let len = Bytes.get_uint16_le frame !off in
    let cmpt_off = !off + 2 in
    let pkt_off = cmpt_off + cmpt_size in
    if pkt_off + len > Bytes.length frame then invalid_arg "Aggregator.iter: truncated";
    f ~pkt_off ~len ~cmpt_off;
    off := pkt_off + len
  done
