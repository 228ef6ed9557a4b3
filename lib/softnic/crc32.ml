(* The CRC runs in a native int holding 32 bits, so a digest allocates
   nothing; the [int32] API wraps it. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let digest_int crc b ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest ?(crc = 0l) b ~pos ~len =
  Int32.of_int (digest_int (Int32.to_int crc land 0xFFFFFFFF) b ~pos ~len)

let of_pkt (p : Packet.Pkt.t) = digest p.buf ~pos:0 ~len:p.len
