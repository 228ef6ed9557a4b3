type rx = { pkt : bytes; len : int; cmpt : bytes }

type t = {
  st_name : string;
  st_consume : Cost.t -> Softnic.Feature.env -> rx -> int64;
}

let parse_cost = Opendesc_analysis.Costbound.default_table.tb_sw_parse

let charge_ring ?(amortize = 1) ledger =
  let f = float_of_int amortize in
  Cost.charge ledger "ring" (Cost.K.ring_advance /. f);
  Cost.charge ledger "refill" (Cost.K.refill /. f)

let parse_view ledger buf len =
  Cost.charge ledger "sw_parse" parse_cost;
  let pkt = Packet.Pkt.sub buf ~len in
  (pkt, Packet.Pkt.parse pkt)

let charge_shim ledger env pkt view (f : Softnic.Feature.t) =
  Cost.charge ledger ("soft_" ^ f.semantic) f.cost_cycles;
  f.compute env pkt view

let run ?(pkts = 4096) ?(batch = 32) ?(touch_payload = false) ~device ~workload stack =
  Device.reset_counters device;
  let ledger = Cost.create () in
  let env = Softnic.Feature.make_env () in
  let consumed = ref 0 in
  let sink = ref 0L in
  let frame = Bytes.create (Packet.Workload.max_len workload) in
  while !consumed < pkts do
    let want = min batch (pkts - !consumed) in
    for _ = 1 to want do
      let len = Packet.Workload.next_into workload frame in
      ignore (Device.rx_inject_raw device frame ~len)
    done;
    let rec drain () =
      match Device.rx_consume device with
      | None -> ()
      | Some (pkt, len, cmpt) ->
          sink := Int64.add !sink (stack.st_consume ledger env { pkt; len; cmpt });
          if touch_payload then begin
            Cost.charge ledger "payload"
              (Cost.K.payload_touch_per_byte *. float_of_int len);
            (* actually read the bytes so the cost models real work *)
            let acc = ref 0 in
            for i = 0 to len - 1 do
              acc := !acc + Char.code (Bytes.get pkt i)
            done;
            sink := Int64.add !sink (Int64.of_int !acc)
          end;
          incr consumed;
          drain ()
    in
    drain ()
  done;
  ignore !sink;
  Stats.make ~name:stack.st_name ~pkts:!consumed ~ledger
    ~dma_bytes:(Device.dma_bytes device) ~drops:(Device.drops device)

(* ------------------------------------------------------------------ *)
(* Batched datapath *)

type burst_t = {
  bt_name : string;
  bt_consume : Cost.sink -> Softnic.Feature.env -> Device.burst -> int64;
}

(* Echo a harvested burst back out: build one TX descriptor per packet
   (buf_addr = in-burst index), post them with a single doorbell, and let
   the device drain. Models a forwarding application's TX side. *)
let tx_echo_burst ledger device (b : Device.burst) =
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
            Cost.charge ledger "tx_desc_build" (Cost.K.field_move *. 2.0);
            d)
      in
      ignore (Device.tx_post_batch device descs);
      Cost.charge ledger "doorbell" Cost.K.doorbell;
      ignore
        (Device.tx_process device ~fetch:(fun a ->
             let i = Int64.to_int a in
             if i >= 0 && i < b.bs_count then
               Some (Packet.Pkt.sub b.bs_pkts.(i) ~len:b.bs_lens.(i))
             else None))

let run_batched ?(pkts = 4096) ?(batch = 32) ?(touch_payload = false)
    ?(tx_echo = false) ~device ~workload (bstack : burst_t) =
  Device.reset_counters device;
  let ledger = Cost.create () in
  let env = Softnic.Feature.make_env () in
  let burst = Device.burst_create ~capacity:batch device in
  let hist : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let bursts = ref 0 in
  let consumed = ref 0 in
  let sink = ref 0L in
  let frame = Bytes.create (Packet.Workload.max_len workload) in
  while !consumed < pkts do
    let want = min batch (pkts - !consumed) in
    for _ = 1 to want do
      let len = Packet.Workload.next_into workload frame in
      ignore (Device.rx_inject_raw device frame ~len)
    done;
    let rec drain () =
      let n = Device.rx_consume_batch device burst in
      if n > 0 then begin
        incr bursts;
        Hashtbl.replace hist n
          (1 + Option.value ~default:0 (Hashtbl.find_opt hist n));
        sink := Int64.add !sink (bstack.bt_consume (Cost.ledger ledger) env burst);
        if touch_payload then
          for i = 0 to n - 1 do
            let len = burst.bs_lens.(i) in
            Cost.charge ledger "payload"
              (Cost.K.payload_touch_per_byte *. float_of_int len);
            let acc = ref 0 in
            for j = 0 to len - 1 do
              acc := !acc + Char.code (Bytes.get burst.bs_pkts.(i) j)
            done;
            sink := Int64.add !sink (Int64.of_int !acc)
          done;
        if tx_echo then tx_echo_burst ledger device burst;
        consumed := !consumed + n;
        drain ()
      end
    in
    drain ()
  done;
  ignore !sink;
  let burst_hist = Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist [] in
  Stats.make ~name:bstack.bt_name ~pkts:!consumed ~ledger
    ~dma_bytes:(Device.dma_bytes device) ~drops:(Device.drops device)
  |> Stats.with_bursts ~bursts:!bursts ~burst_hist
