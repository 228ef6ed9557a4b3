type t = { mem : bytes; mutable written : int; mutable read : int }

let create n = { mem = Bytes.make n '\x00'; written = 0; read = 0 }
let size t = Bytes.length t.mem
let mem t = t.mem

let dev_write t ~off src ~pos ~len =
  Bytes.blit src pos t.mem off len;
  t.written <- t.written + len

let dev_write_u16_le t ~off v =
  Bytes.set_uint16_le t.mem off v;
  t.written <- t.written + 2

let dev_read t ~off ~len =
  t.read <- t.read + len;
  Bytes.sub t.mem off len

let corrupt t ~off src ~pos ~len = Bytes.blit src pos t.mem off len

let dev_read_into t ~off ~buf ~pos ~len =
  Bytes.blit t.mem off buf pos len;
  t.read <- t.read + len

let dev_written_bytes t = t.written
let dev_read_bytes t = t.read

let reset_counters t =
  t.written <- 0;
  t.read <- 0
