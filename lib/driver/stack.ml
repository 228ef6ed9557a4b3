type burst_t = {
  bt_name : string;
  bt_consume : Cost.sink -> Softnic.Feature.env -> Device.burst -> int64;
}

(* Echo a harvested burst back out: build one TX descriptor per packet
   (buf_addr = in-burst index), post them with a single doorbell, and let
   the device drain. Models a forwarding application's TX side. *)
let tx_echo_burst sink device (b : Device.burst) =
  match Device.tx_format device with
  | None -> ()
  | Some fmt ->
      let size = Opendesc.Descparser.size fmt in
      let addr = Opendesc.Descparser.field_for fmt "buf_addr" in
      let descs =
        List.init b.bs_count (fun i ->
            let d = Bytes.make size '\x00' in
            (match addr with
            | Some f ->
                Opendesc.Accessor.writer ~bit_off:f.l_bit_off ~bits:f.l_bits d
                  (Int64.of_int i)
            | None -> ());
            Cost.charge sink "tx_desc_build" (Cost.K.field_move *. 2.0);
            d)
      in
      ignore (Device.tx_post_batch device descs);
      Cost.charge sink "doorbell" Cost.K.doorbell;
      ignore
        (Device.tx_process device ~fetch:(fun a ->
             let i = Int64.to_int a in
             if i >= 0 && i < b.bs_count then
               Some (Packet.Pkt.sub b.bs_pkts.(i) ~len:b.bs_lens.(i))
             else None))

(* Offer [pkts] frames in batches and drain the device after each one. A
   frame the device drops (a full ring, a frame longer than its buffers)
   counts in [drops] and is not offered again, so the run ends even when
   every frame is dropped. *)
let run ?(pkts = 4096) ?(batch = 32) ?(touch_payload = false) ?(tx_echo = false)
    ~device ~workload (stack : burst_t) =
  Device.reset_counters device;
  let ledger = Cost.create () in
  let sink = Cost.ledger ledger in
  let env = Softnic.Feature.make_env () in
  let burst = Device.burst_create ~capacity:batch device in
  let hist : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let bursts = ref 0 in
  let offered = ref 0 in
  let consumed = ref 0 in
  let fold = ref 0L in
  let frame = Bytes.create (Packet.Workload.max_len workload) in
  while !offered < pkts do
    let want = min batch (pkts - !offered) in
    for _ = 1 to want do
      let len = Packet.Workload.next_into workload frame in
      ignore (Device.rx_inject_raw device frame ~len)
    done;
    offered := !offered + want;
    let rec drain () =
      let n = Device.rx_consume_batch device burst in
      if n > 0 then begin
        incr bursts;
        Hashtbl.replace hist n
          (1 + Option.value ~default:0 (Hashtbl.find_opt hist n));
        fold := Int64.add !fold (stack.bt_consume sink env burst);
        if touch_payload then
          for i = 0 to n - 1 do
            let len = burst.bs_lens.(i) in
            Cost.charge sink "payload"
              (Cost.K.payload_touch_per_byte *. float_of_int len);
            (* actually read the bytes so the cost models real work *)
            let acc = ref 0 in
            for j = 0 to len - 1 do
              acc := !acc + Char.code (Bytes.get burst.bs_pkts.(i) j)
            done;
            fold := Int64.add !fold (Int64.of_int !acc)
          done;
        if tx_echo then tx_echo_burst sink device burst;
        consumed := !consumed + n;
        drain ()
      end
    in
    drain ()
  done;
  ignore !fold;
  let burst_hist = Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist [] in
  Stats.make ~name:stack.bt_name ~pkts:!consumed ~ledger
    ~dma_bytes:(Device.dma_bytes device) ~drops:(Device.drops device)
  |> Stats.with_bursts ~bursts:!bursts ~burst_hist
