(* rx_min64_hw and fwd_imix_shim: the batched multi-queue RX datapath,
   measured two ways over the same packets.

   - The parallel leg is [Parallel.run ~domains:1 ~pregen:true
     ~account:false]: one producer and one worker domain, generation and
     steering done before its clock starts. It gives the packet rate and
     the allocation per packet.
   - The sequential leg is a closed loop of 32-packet bursts: steer,
     inject, harvest every queue, decode (and, forwarding, echo as TX).
     Each burst's wall time is one latency sample. The traced leg is the
     same loop with one span per layer per burst.

   Both legs decode with the same consumer, so their summed decode
   values must agree. *)

open Perf_core
module D = Driver

let queues = 4
let burst = 32
let pkts = 65536

(* The parallel leg runs [par_runs] runs of [par_pkts] per rep: a run
   must be short next to the host's quiet periods (a tenth of a second
   to seconds) for the gate to judge it. The worker probes its own core
   every [probe_every] consumer calls (about 6 times a run). *)
let par_pkts = 8192
let par_runs = 4
let probe_every = 64

type config = {
  model : unit -> Nic_models.Model.t;
  intent : Opendesc.Intent.t;
  alpha : float option;
  profile : Packet.Workload.profile;
  flows : int;
  forward : bool;  (** echo every harvested burst as TX descriptors *)
  property : Opendesc.Compile.t -> D.Mq.t -> (string * bool) list;
      (** the checks that keep the workload what it was chosen to be *)
}

let rx_min64_hw =
  {
    model = Nic_models.Mlx5.model;
    intent =
      Opendesc.Intent.make
        (List.map (fun s -> (s, 32)) [ "rss"; "pkt_len"; "vlan"; "csum_ok" ]);
    alpha = Some 0.05;
    profile = Packet.Workload.Min_size;
    flows = 64;
    forward = false;
    property =
      (fun c _ ->
        [ ("rx_min64_hw has no software bindings", Opendesc.Compile.missing c = []) ]);
  }

let fwd_imix_shim =
  {
    model = Nic_models.E1000.newer;
    intent = Nic_models.Catalog.fig1_intent;
    alpha = None;
    profile = Packet.Workload.Imix;
    flows = 65536;
    forward = true;
    property =
      (fun c mq ->
        [
          ( "fwd_imix_shim has >= 2 software shims",
            List.length (Opendesc.Compile.missing c) >= 2 );
          ( "fwd_imix_shim has a TX descriptor format",
            D.Device.tx_format (D.Mq.queue mq 0) <> None );
        ]);
  }

(* The forwarder's TX side: write each harvested packet's in-burst index
   into a preallocated descriptor's buf_addr, post the burst with one
   doorbell and let the device fetch. [sent] counts transmissions. *)
let tx_echo dev sent =
  match D.Device.tx_format dev with
  | None -> fun _ -> ()
  | Some fmt ->
      let size = Opendesc.Descparser.size fmt in
      let addr = Opendesc.Descparser.field_for fmt "buf_addr" in
      let descs = Array.init burst (fun _ -> Bytes.make size '\000') in
      let prefix = Array.init (burst + 1) (fun n -> List.init n (Array.get descs)) in
      fun (b : D.Device.burst) ->
        let n = b.bs_count in
        (match addr with
        | Some (f : Opendesc.Path.lfield) ->
            for i = 0 to n - 1 do
              Opendesc.Accessor.writer ~bit_off:f.l_bit_off ~bits:f.l_bits descs.(i)
                (Int64.of_int i)
            done
        | None -> ());
        ignore (D.Device.tx_post_batch dev prefix.(n));
        sent :=
          !sent
          + D.Device.tx_process dev ~fetch:(fun a ->
                let i = Int64.to_int a in
                if i >= 0 && i < n then
                  Some (Packet.Pkt.sub b.bs_pkts.(i) ~len:b.bs_lens.(i))
                else None)

type inst = {
  cfg : config;
  compiled : Opendesc.Compile.t;
  mq : D.Mq.t;
  decode : D.Stack.burst_t;
  echoes : (D.Device.burst -> unit) array;
  tx_sent : int ref array;
  bursts : D.Device.burst array;
}

(* Speed probes the parallel leg's worker domain takes in-band, from
   inside its consumer; read by the caller once the run has joined. *)
type inband = { mutable calls : int; mutable us : float list; mutable probe_ns : int }

(* The parallel leg's consumer of queue [q]: the sequential leg's
   decode (and echo), plus the worker's in-band probes. *)
let consumer inst ib q =
  let echo = inst.echoes.(q) in
  {
    D.Stack.bt_name = "opendesc-perf";
    bt_consume =
      (fun sink env b ->
        if ib.calls mod probe_every = 0 then begin
          let t0 = Trace.now_ns () in
          ib.us <- Speed.fastest () :: ib.us;
          ib.probe_ns <- ib.probe_ns + (Trace.now_ns () - t0)
        end;
        ib.calls <- ib.calls + 1;
        let v = inst.decode.bt_consume sink env b in
        if inst.cfg.forward then echo b;
        v);
  }

let tx_total inst = Array.fold_left (fun a r -> a + !r) 0 inst.tx_sent

(* Inputs and scratch shared by every rep. *)
type inputs = {
  seed : int;
  packets : Packet.Pkt.t array;
  sc : Layers.burst_scratch;
  ring : D.Parallel.Pktring.t;
}

(* Off-path probes, run after a burst's spans closed: the device's own
   work, then the handoff ring the parallel leg moves packets through. *)
let probes t inp inst ~lo ~n =
  Layers.device_probes t inp.sc inst.mq inp.packets ~lo ~n;
  let s = Trace.enter t Layers.handoff in
  for i = 0 to n - 1 do
    let p = inp.packets.(lo + i) in
    ignore (D.Parallel.Pktring.try_push inp.ring p.buf ~len:p.len ~qid:inp.sc.qs.(i))
  done;
  D.Parallel.Pktring.flush inp.ring;
  while D.Parallel.Pktring.peek inp.ring >= 0 do
    D.Parallel.Pktring.advance inp.ring
  done;
  Trace.leave t s

type seq = {
  ops : Rep.ops;
  readings : Gate.reading list;
  sink : int64;
  prefix_sink : int64;  (** decode sum of the first [par_pkts] packets *)
  delivered : int;
  drops : int;
  sent : int;
}

let sequential inp inst tr =
  let mq = inst.mq in
  let cache = D.Mq.make_steer_cache () in
  let env = Softnic.Feature.make_env () in
  let sink = ref 0L and prefix_sink = ref 0L and delivered = ref 0 and drops = ref 0 in
  Array.iter (fun r -> r := 0) inst.tx_sent;
  let op b =
    let lo = b * burst in
    let n = min burst (pkts - lo) in
    Layers.group tr b;
    let t0 = Trace.now_ns () in
    let root = Layers.enter tr Layers.burst in
    let s = Layers.enter tr Layers.steer in
    for i = 0 to n - 1 do
      inp.sc.qs.(i) <- D.Mq.steer_cached mq cache inp.packets.(lo + i)
    done;
    Layers.leave tr s;
    let s = Layers.enter tr Layers.inject in
    for i = 0 to n - 1 do
      if not (D.Device.rx_inject (D.Mq.queue mq inp.sc.qs.(i)) inp.packets.(lo + i))
      then incr drops
    done;
    Layers.leave tr s;
    (* One sweep drains every queue: a burst injects at most 32
       packets and each queue's burst buffer holds 32. *)
    let s = Layers.enter tr Layers.harvest in
    for q = 0 to queues - 1 do
      delivered := !delivered + D.Mq.rx_consume_batch mq q inst.bursts.(q)
    done;
    Layers.leave tr s;
    let s = Layers.enter tr Layers.decode in
    for q = 0 to queues - 1 do
      let bq = inst.bursts.(q) in
      if bq.bs_count > 0 then
        sink := Int64.add !sink (inst.decode.bt_consume D.Cost.Null env bq)
    done;
    Layers.leave tr s;
    if inst.cfg.forward then begin
      let s = Layers.enter tr Layers.tx in
      for q = 0 to queues - 1 do
        if inst.bursts.(q).bs_count > 0 then inst.echoes.(q) inst.bursts.(q)
      done;
      Layers.leave tr s
    end;
    Layers.leave tr root;
    let ns = Trace.now_ns () - t0 in
    if lo + n = par_pkts then prefix_sink := !sink;
    (match tr with Some t -> probes t inp inst ~lo ~n | None -> ());
    ns
  in
  let ops, readings = Rep.closed_loop ~chunk:8 ((pkts + burst - 1) / burst) op in
  {
    ops;
    readings;
    sink = !sink;
    prefix_sink = !prefix_sink;
    delivered = !delivered;
    drops = !drops;
    sent = tx_total inst;
  }

let seq_gates inst (s : seq) =
  [ ("sequential leg delivers every packet", s.delivered = pkts && s.drops = 0) ]
  @
  if inst.cfg.forward then [ ("sequential leg transmits every packet", s.sent = pkts) ]
  else []

type par = {
  timed : (Gate.reading * (string * float)) list;
  counts : (string * float) list;
  p_readings : Gate.reading list;
  p_failed : int;
  p_gates : (string * bool) list;
}

(* One [Parallel.run] over the first [par_pkts] packets of the
   workload. Its reading is the slowest of the worker's in-band probes;
   the time they took is taken off the wall clock. *)
let parallel inp inst ~prefix_sink =
  Array.iter (fun r -> r := 0) inst.tx_sent;
  let ib = { calls = 0; us = []; probe_ns = 0 } in
  let r =
    D.Parallel.run ~domains:1 ~batch:burst ~pregen:true ~account:false ~mq:inst.mq
      ~stack:(consumer inst ib) ~pkts:par_pkts
      ~workload:
        (Packet.Workload.make ~seed:(Int64.of_int inp.seed) ~flows:inst.cfg.flows
           inst.cfg.profile)
      ()
  in
  let readings = List.map (fun us -> { Gate.kind = Worker; us }) ib.us in
  let at =
    match readings with
    | r :: rest -> List.fold_left Gate.worse r rest
    | [] -> { Gate.kind = Worker; us = Float.infinity } (* delivered nothing: never quiet *)
  in
  let sent = tx_total inst in
  let fpkts = float_of_int r.pkts in
  {
    timed =
      [
        (at, ("ops_per_s", fpkts /. (r.wall_s -. (float_of_int ib.probe_ns /. 1e9))));
        (* Over Parallel's busy-time critical path instead of the wall. *)
        (at, ("parallel.busy_ops_per_s", fpkts /. r.eff_wall_s));
      ];
    counts =
      [
        ("minor_words_per_op", r.minor_words_per_pkt);
        ("parallel.worker_busy_frac", r.busy_s.(0) /. r.wall_s);
        ("parallel.producer_busy_frac", r.producer_busy_s /. r.wall_s);
        ("parallel.parks_per_kpkt", 1000.0 *. float_of_int r.stats.D.Stats.parks /. Float.max 1.0 fpkts);
      ];
    p_readings = readings;
    p_failed = par_pkts - r.pkts + r.stranded;
    p_gates =
      [
        ("parallel sink equals sequential decode sum", Int64.equal r.sink prefix_sink);
        ("parallel leg: stranded = drops = 0", r.stranded = 0 && r.drops = 0);
        ("parallel leg delivers every packet", r.pkts = par_pkts);
      ]
      @
      if inst.cfg.forward then [ ("parallel leg transmits every packet", sent = par_pkts) ]
      else [];
  }

let par_metrics g p = List.filter_map (fun (r, kv) -> Rep.timed g r kv) p.timed @ p.counts

let rep inp inst () =
  let s = sequential inp inst None in
  let par = List.init par_runs (fun _ -> parallel inp inst ~prefix_sink:s.prefix_sink) in
  {
    Rep.readings = s.readings @ List.concat_map (fun p -> p.p_readings) par;
    metrics = (fun g -> List.concat_map (par_metrics g) par @ Rep.latency g s.ops);
    latencies = (fun g -> Rep.kept g s.ops);
    attempted = pkts + (par_runs * par_pkts);
    failed = pkts - s.delivered + List.fold_left (fun a p -> a + p.p_failed) 0 par;
    gates =
      List.concat_map (fun p -> p.p_gates) par
      @ seq_gates inst s
      @ inst.cfg.property inst.compiled inst.mq;
  }

let traced inp inst () =
  let base = sequential inp inst None in
  Layers.start ();
  let s = sequential inp inst (Some Layers.buf) in
  let spans = Trace.copy Layers.buf in
  let micro, micro_at =
    Rep.bracket Speed.probe (fun () ->
        Micro.bindings ~compiled:inst.compiled ~model:(inst.cfg.model ()) inp.packets)
  in
  let p = parallel inp inst ~prefix_sink:base.prefix_sink in
  {
    Rep.readings = base.readings @ s.readings @ p.p_readings;
    metrics =
      (fun g ->
        Layers.metrics g ~per_group:burst ~untraced:base.ops ~traced:s.ops spans
        @ Rep.latency g base.ops
        @ List.filter_map (Rep.timed g micro_at) micro
        @ par_metrics g p);
    latencies = (fun g -> Rep.kept g base.ops);
    attempted = (2 * pkts) + par_pkts;
    failed = (2 * pkts) - base.delivered - s.delivered + p.p_failed;
    gates =
      [ ("traced leg decodes what the untraced leg decodes", Int64.equal s.sink base.sink) ]
      @ seq_gates inst s @ p.p_gates;
  }

let prepare cfg ~seed =
  let inp =
    {
      seed;
      packets =
        Packet.Workload.batch
          (Packet.Workload.make ~seed:(Int64.of_int seed) ~flows:cfg.flows cfg.profile)
          pkts;
      sc = Layers.burst_scratch burst;
      ring = D.Parallel.Pktring.create ~capacity:(2 * burst) ~slot_size:2048;
    }
  in
  fun () ->
    let lap, laps = Rep.stopwatch () in
    Opendesc.Cache.clear ();
    let model = cfg.model () in
    lap "model_load";
    let compiled = Opendesc.Cache.run_exn ?alpha:cfg.alpha ~intent:cfg.intent model.spec in
    lap "compile";
    let mq =
      D.Mq.create_exn
        ~configs:(Array.make queues compiled.config)
        cfg.model
    in
    lap "mq_create";
    let tx_sent = Array.init queues (fun _ -> ref 0) in
    let inst =
      {
        cfg;
        compiled;
        mq;
        decode = D.Hoststacks.opendesc_batched ~compiled;
        echoes = Array.init queues (fun q -> tx_echo (D.Mq.queue mq q) tx_sent.(q));
        tx_sent;
        bursts = D.Mq.bursts ~capacity:burst mq;
      }
    in
    lap "stack";
    ({ Rep.run = rep inp inst; traced = traced inp inst }, laps ())
