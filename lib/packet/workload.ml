type profile =
  | Min_size
  | Imix
  | Large
  | Kvs of { key_len : int }
  | Raw_stream of { size : int }
  | Vlan_tagged
  | Ipv6_mix
  | Zipf of { alpha : float }

type t = {
  rng : Rng.t;
  profile : profile;
  flow_table : Fivetuple.t array;
  mutable seq : int;
  max_len : int;
  frame : bytes;  (** [next]'s scratch, [max_len] bytes *)
  zipf_cum : float array;
      (** [Zipf]: the cumulative weight of ranks [0..i], summed in rank
          order; empty otherwise *)
  src6 : bytes;  (** [Ipv6_mix]: the v6 source, rewritten per frame *)
  dst6 : bytes;
}

let gen_flow rng proto =
  (* 10.0.0.0/16 sources to 192.168.0.0/24 servers on a few service ports. *)
  let src_ip = Int32.logor 0x0a000000l (Int32.of_int (Rng.int rng 0x10000)) in
  let dst_ip = Int32.logor 0xc0a80000l (Int32.of_int (Rng.int rng 256)) in
  let src_port = Rng.int_in rng 1024 65535 in
  let dst_port = Rng.choice rng [| 80; 443; 11211; 53; 8080 |] in
  Fivetuple.make ~src_ip ~dst_ip ~src_port ~dst_port ~proto

let profile_name = function
  | Min_size -> "min-size-64B"
  | Imix -> "imix"
  | Large -> "large-1518B"
  | Kvs { key_len } -> Printf.sprintf "kvs-get-key%d" key_len
  | Raw_stream { size } -> Printf.sprintf "raw-stream-%dB" size
  | Vlan_tagged -> "vlan-tagged"
  | Ipv6_mix -> "ipv6-mix"
  | Zipf { alpha } -> Printf.sprintf "zipf-%.1f" alpha

let proto_of = function
  | Kvs _ -> Hdr.Proto.udp
  | Min_size | Imix | Large | Vlan_tagged | Raw_stream _ | Ipv6_mix | Zipf _ ->
      Hdr.Proto.tcp

(* Ethernet+IPv4+TCP is 54 B; the 'x' payload pads a frame to [frame]. *)
let tcp_payload frame = max 0 (frame - 54)
let vlan_payload = 74
let v6_mix_payload = 32

let max_len_of = function
  | Min_size -> 64
  | Imix | Large -> 1518
  | Vlan_tagged -> Builder.ipv4_len ~vlan:0 ~udp:false ~payload_len:vlan_payload
  | Kvs { key_len } -> Builder.kvs_get_len ~key_len
  | Raw_stream { size } -> size
  | Ipv6_mix ->
      max
        (Builder.ipv4_len ~vlan:(-1) ~udp:false ~payload_len:v6_mix_payload)
        (Builder.ipv6_len ~udp:false ~payload_len:v6_mix_payload)
  | Zipf _ -> Builder.ipv4_len ~vlan:(-1) ~udp:false ~payload_len:0

(* Stable v6 addresses derived from the v4 flow endpoints: 0x20, eleven
   zero bytes, then the v4 address. *)
let v6_scratch = function
  | Ipv6_mix ->
      let b = Bytes.make 16 '\x00' in
      Bytes.set b 0 '\x20';
      b
  | _ -> Bytes.empty

(* Zipf weights [1 / rank^alpha], summed in rank order: the order fixes
   every rounding of the sums, and so which rank a draw picks. *)
let zipf_cum n = function
  | Zipf { alpha } ->
      let cum = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) alpha);
        cum.(i) <- !acc
      done;
      cum
  | _ -> [||]

let make ?(seed = 42L) ?(flows = 64) profile =
  assert (flows > 0);
  (match profile with
  | Kvs { key_len } when key_len < 0 -> invalid_arg "Workload.make: negative KVS key length"
  | _ -> ());
  let rng = Rng.create seed in
  let proto = proto_of profile in
  let flow_table = Array.init flows (fun _ -> gen_flow rng proto) in
  let max_len = max_len_of profile in
  {
    rng;
    profile;
    flow_table;
    seq = 0;
    max_len;
    frame = Bytes.create max_len;
    zipf_cum = zipf_cum flows profile;
    src6 = v6_scratch profile;
    dst6 = v6_scratch profile;
  }

let flows t = Array.length t.flow_table
let max_len t = t.max_len

(* A TCP frame of [frame] bytes for a uniformly drawn flow, with its L4
   checksum: the payload is one repeated byte, so its sum is a formula
   and the payload is never read back. *)
let tcp_frame t b frame =
  let flow = Rng.choice t.rng t.flow_table in
  let payload_len = tcp_payload frame in
  t.seq <- t.seq + 1;
  let off =
    Builder.write_ipv4 b ~vlan:(-1) ~ttl:64 ~ip_id:(t.seq land 0xffff) ~flow ~udp:false
      ~seq:(t.seq * 1460) ~flags:0x10 ~l4_csum:true ~payload_len
      ~payload_sum:(Cksum.fill_sum 'x' ~len:payload_len)
  in
  Bytes.fill b off payload_len 'x';
  off + payload_len

(* Inverse-CDF sampling over the flow table's ranks: [Rng.float]'s draw
   scaled by the total weight, then the first rank below the last whose
   cumulative weight reaches it, else the last. That is the rank a walk
   down the ranks picks, found by binary search over the nondecreasing
   sums. *)
let zipf_rank t =
  let cum = t.zipf_cum in
  let last = Array.length cum - 1 in
  let u = float_of_int (Rng.bits53 t.rng) *. 0x1p-53 *. cum.(last) in
  let lo = ref 0 and hi = ref last in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let next_into t b =
  if Bytes.length b < t.max_len then
    invalid_arg
      (Printf.sprintf "Workload.next_into: a %d-byte buffer for %s frames of up to %d bytes"
         (Bytes.length b) (profile_name t.profile) t.max_len);
  match t.profile with
  | Min_size -> tcp_frame t b 64
  | Large -> tcp_frame t b 1518
  | Imix ->
      (* The 7:4:1 weights over one draw of 12. *)
      let pick = Rng.int t.rng 12 in
      tcp_frame t b (if pick < 7 then 64 else if pick < 11 then 594 else 1518)
  | Vlan_tagged ->
      let flow = Rng.choice t.rng t.flow_table in
      t.seq <- t.seq + 1;
      let off =
        Builder.write_ipv4 b ~vlan:(100 + (t.seq mod 16)) ~ttl:64 ~ip_id:0 ~flow ~udp:false
          ~seq:t.seq ~flags:0x10 ~l4_csum:true ~payload_len:vlan_payload
          ~payload_sum:(Cksum.fill_sum 'x' ~len:vlan_payload)
      in
      Bytes.fill b off vlan_payload 'x';
      off + vlan_payload
  | Kvs { key_len } ->
      let flow = Rng.choice t.rng t.flow_table in
      let off = Builder.write_kvs_get b ~flow ~key_len in
      for i = off to off + key_len - 1 do
        Bytes.set b i (Char.unsafe_chr (Char.code 'a' + Rng.int t.rng 26))
      done;
      Builder.kvs_get_len ~key_len
  | Raw_stream { size } ->
      Builder.write_raw b ~len:size ~fill:'r';
      size
  | Ipv6_mix ->
      let flow = Rng.choice t.rng t.flow_table in
      t.seq <- t.seq + 1;
      let off =
        if t.seq land 1 = 0 then
          Builder.write_ipv4 b ~vlan:(-1) ~ttl:64 ~ip_id:0 ~flow ~udp:false ~seq:t.seq
            ~flags:0x10 ~l4_csum:false ~payload_len:v6_mix_payload ~payload_sum:0
        else begin
          Bytes.set_int32_be t.src6 12 flow.src_ip;
          Bytes.set_int32_be t.dst6 12 flow.dst_ip;
          Builder.write_ipv6 b ~hop_limit:64 ~src:t.src6 ~dst:t.dst6 ~src_port:flow.src_port
            ~dst_port:flow.dst_port ~udp:false ~seq:t.seq ~flags:0x10
            ~payload_len:v6_mix_payload
        end
      in
      Bytes.fill b off v6_mix_payload 'x';
      off + v6_mix_payload
  | Zipf _ ->
      let flow = t.flow_table.(zipf_rank t) in
      t.seq <- t.seq + 1;
      Builder.write_ipv4 b ~vlan:(-1) ~ttl:64 ~ip_id:(t.seq land 0xffff) ~flow ~udp:false
        ~seq:t.seq ~flags:0x10 ~l4_csum:false ~payload_len:0 ~payload_sum:0

let next t =
  let len = next_into t t.frame in
  Pkt.create (Bytes.sub t.frame 0 len)

let batch t n = Array.init n (fun _ -> next t)
