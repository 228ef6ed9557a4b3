(* upgrade_chaos: a live e1000 rev A -> rev B contract swap on a
   4-queue datapath under the default fault plan.

   - The end-to-end leg is [Upgrade.run ~domains:1] (the single-threaded
     engine), [runs] times over [run_pkts] IMIX packets with the swap at
     the midpoint. The compile cache is cleared before each, so every
     swap pays a cold recompile and certification on the pause.
   - The sequential leg streams all [pkts] packets through the fault
     layer in 32-packet bursts (steer, [Fault.rx_inject],
     [Fault.harvest], decode) and performs the same swap at the midpoint
     through public calls: drain dry, [Upgrade.dry_run] for the verdict
     and rev B's compilation, then [Device.upgrade] + [Fault.rebind] per
     queue. Each burst is one latency sample; the swap is not. *)

open Perf_core
module D = Driver

let queues = 4
let burst = 32
let pkts = 65536

(* Like the parallel leg of the RX workloads: runs short next to the
   host's quiet periods, so the gate can judge each. *)
let run_pkts = 8192
let runs = pkts / run_pkts
let intent = Opendesc.Intent.make [ ("rss", 32); ("pkt_len", 16) ]

let read_fixture name =
  let path = Filename.concat "examples/firmware" name in
  if not (Sys.file_exists path) then
    failwith (path ^ " not found: run the benchmark from the repository root");
  In_channel.with_open_bin path In_channel.input_all

type inputs = {
  seed : int;
  src_a : string;
  src_b : string;
  plan : D.Fault.plan;
  packets : Packet.Pkt.t array;
  sc : Layers.burst_scratch;
}

type inst = {
  old_spec : Opendesc.Nic_spec.t;
  new_spec : Opendesc.Nic_spec.t;
  compiled : Opendesc.Compile.t;  (* rev A under the served intent *)
  mutable mq : D.Mq.t;  (* rev A datapath for the next sequential leg *)
}

let load_spec name src =
  Opendesc.Nic_spec.load_exn ~name ~kind:Opendesc.Nic_spec.Fixed_function src

let fresh_mq ~(compiled : Opendesc.Compile.t) ~old_spec =
  D.Mq.create_exn
    ~configs:(Array.make queues compiled.config)
    (fun () -> Nic_models.Model.make old_spec)

type seq = {
  ops : Rep.ops;
  readings : Gate.reading list;
  counters : D.Fault.counters;
  decoded : int;
  drops : int;
  applied : bool;
  upgrade_errors : int;
}

let lost (c : D.Fault.counters) = c.rx_accepted + c.duplicates - c.delivered - c.quarantined

let sequential inp inst tr =
  let mq = inst.mq in
  (* The leg leaves the datapath on rev B; the next leg gets a fresh one,
     built here, off the clock. *)
  inst.mq <- fresh_mq ~compiled:inst.compiled ~old_spec:inst.old_spec;
  Opendesc.Cache.clear ();
  ignore (Opendesc.Cache.run ~intent inst.old_spec);
  let fqs = D.Mq.wrap_chaos ~plan:inp.plan mq in
  let bursts = D.Mq.bursts ~capacity:burst mq in
  let consumers = Array.make queues (D.Hoststacks.opendesc_batched ~compiled:inst.compiled) in
  let cache = D.Mq.make_steer_cache () in
  let env = Softnic.Feature.make_env () in
  let decoded = ref 0 in
  let sweep () =
    let s = Layers.enter tr Layers.fault_harvest in
    let got = ref 0 in
    for q = 0 to queues - 1 do
      got := !got + D.Fault.harvest fqs.(q) bursts.(q)
    done;
    Layers.leave tr s;
    let s = Layers.enter tr Layers.decode in
    for q = 0 to queues - 1 do
      let b = bursts.(q) in
      if b.bs_count > 0 then begin
        ignore (consumers.(q).bt_consume D.Cost.Null env b);
        decoded := !decoded + b.bs_count
      end
    done;
    Layers.leave tr s;
    !got
  in
  (* End of a stream (or the quiesce point): emit deferred reorders, then
     sweep until every ring is dry — a stuck queue or a fully
     quarantined burst can deliver nothing while work remains. *)
  let drain_dry () =
    Array.iter D.Fault.flush fqs;
    let pending () = Array.exists (fun fq -> D.Fault.rx_available fq > 0) fqs in
    while sweep () > 0 || pending () do
      ()
    done
  in
  let applied = ref false and upgrade_errors = ref 0 in
  let swap () =
    let root = Layers.enter tr Layers.swap in
    drain_dry ();
    let s = Layers.enter tr Layers.dry_run in
    let verdict = D.Upgrade.dry_run ~intent ~old_spec:inst.old_spec ~new_spec:inst.new_spec () in
    Layers.leave tr s;
    (match verdict with
    | Ok { o_action = D.Upgrade.Applied; o_compiled_new = Some c; _ } ->
        for q = 0 to queues - 1 do
          (match D.Device.upgrade (D.Mq.queue mq q) ~config:c.config (Nic_models.Model.make c.nic) with
          | Ok () -> ()
          | Error _ -> incr upgrade_errors);
          D.Fault.rebind fqs.(q);
          consumers.(q) <- D.Hoststacks.opendesc_batched ~compiled:c
        done;
        applied := true
    | Ok _ | Error _ -> ());
    Layers.leave tr root
  in
  let nb = (pkts + burst - 1) / burst in
  let drops = ref 0 in
  let op b =
    let lo = b * burst in
    let n = min burst (pkts - lo) in
    if lo = pkts / 2 then swap ();
    Layers.group tr b;
    let t0 = Trace.now_ns () in
    let root = Layers.enter tr Layers.burst in
    let s = Layers.enter tr Layers.steer in
    for i = 0 to n - 1 do
      inp.sc.qs.(i) <- D.Mq.steer_cached mq cache inp.packets.(lo + i)
    done;
    Layers.leave tr s;
    let s = Layers.enter tr Layers.fault_inject in
    for i = 0 to n - 1 do
      if not (D.Fault.rx_inject fqs.(inp.sc.qs.(i)) inp.packets.(lo + i)) then incr drops
    done;
    Layers.leave tr s;
    ignore (sweep ());
    Layers.leave tr root;
    let ns = Trace.now_ns () - t0 in
    (match tr with Some t -> Layers.device_probes t inp.sc mq inp.packets ~lo ~n | None -> ());
    ns
  in
  let ops, readings = Rep.closed_loop ~chunk:8 nb op in
  Layers.group tr nb;
  let root = Layers.enter tr Layers.burst in
  drain_dry ();
  Layers.leave tr root;
  (match tr with
  | Some t ->
      let s = Trace.enter t Layers.evolution in
      ignore (Opendesc.Nic_diff.check inst.old_spec inst.new_spec);
      Trace.leave t s
  | None -> ());
  {
    ops;
    readings;
    counters = D.Fault.counters_sum (Array.to_list (Array.map D.Fault.counters fqs));
    decoded = !decoded;
    drops = !drops;
    applied = !applied;
    upgrade_errors = !upgrade_errors;
  }

let seq_gates (s : seq) =
  [
    ( "sequential chaos leg: swap applied, lost = 0, counters reconcile",
      s.applied && s.upgrade_errors = 0 && lost s.counters = 0
      && D.Fault.reconciles s.counters
      && s.decoded = s.counters.delivered && s.drops = 0 );
  ]

let seq_failed (s : seq) = lost s.counters + s.drops

type upgrade = {
  timed : (Gate.reading * (string * float)) list;
  counts : (string * float) list;
  u_readings : Gate.reading list;
  u_attempted : int;
  u_failed : int;
  u_gates : (string * bool) list;
}

(* One [Upgrade.run] between two probes of this core (the engine runs
   on the calling domain). *)
let upgrade inp inst =
  Opendesc.Cache.clear ();
  let w0 = Gc.minor_words () in
  let o, at =
    Rep.bracket Speed.probe (fun () ->
        D.Upgrade.run ~queues ~domains:1 ~batch:burst ~pkts:run_pkts
          ~seed:(Int64.of_int inp.seed) ~plan:inp.plan ~intent ~old_spec:inst.old_spec
          ~new_spec:inst.new_spec ())
  in
  let words = Gc.minor_words () -. w0 in
  let o = match o with Ok o -> o | Error e -> failwith ("Upgrade.run: " ^ e) in
  let delivered = float_of_int (max 1 o.o_delivered) in
  {
    timed =
      [
        (at, ("ops_per_s", delivered /. o.o_wall_s));
        (at, ("swap_pause_ms", o.o_pause_s *. 1000.0));
      ];
    counts =
      [
        ("minor_words_per_op", words /. delivered);
        ("fault.quarantined_frac", float_of_int o.o_quarantined /. float_of_int (max 1 o.o_accepted));
        ("fault.retries_per_kpkt", 1000.0 *. float_of_int o.o_faults.retries /. float_of_int o.o_pkts);
      ];
    u_readings = [ at ];
    u_attempted = o.o_pkts;
    u_failed = o.o_lost + o.o_drops;
    u_gates =
      [
        ("upgrade_chaos is classified Recompile", o.o_class = Opendesc_analysis.Evolution.Recompile);
        ( "upgrade applied, reconciled, lost = torn = 0",
          o.o_action = D.Upgrade.Applied && o.o_reconciled && o.o_lost = 0 && o.o_torn = 0
          && o.o_upgrade_errors = 0 && o.o_drops = 0 );
      ];
  }

let up_metrics g u = List.filter_map (fun (r, kv) -> Rep.timed g r kv) u.timed @ u.counts

let rep inp inst () =
  let ups = List.init runs (fun _ -> upgrade inp inst) in
  let s = sequential inp inst None in
  {
    Rep.readings = s.readings @ List.concat_map (fun u -> u.u_readings) ups;
    metrics = (fun g -> List.concat_map (up_metrics g) ups @ Rep.latency g s.ops);
    latencies = (fun g -> Rep.kept g s.ops);
    attempted = pkts + List.fold_left (fun a u -> a + u.u_attempted) 0 ups;
    failed = seq_failed s + List.fold_left (fun a u -> a + u.u_failed) 0 ups;
    gates = List.concat_map (fun u -> u.u_gates) ups @ seq_gates s;
  }

let traced inp inst () =
  let base = sequential inp inst None in
  Layers.start ();
  let s = sequential inp inst (Some Layers.buf) in
  let spans = Trace.copy Layers.buf in
  let micro, micro_at =
    Rep.bracket Speed.probe (fun () ->
        Micro.bindings ~compiled:inst.compiled ~model:(Nic_models.Model.make inst.old_spec)
          inp.packets)
  in
  let u = upgrade inp inst in
  {
    Rep.readings = base.readings @ s.readings @ u.u_readings;
    metrics =
      (fun g ->
        Layers.metrics g ~per_group:burst ~untraced:base.ops ~traced:s.ops spans
        @ Rep.latency g base.ops
        @ List.filter_map (Rep.timed g micro_at) micro
        @ up_metrics g u);
    latencies = (fun g -> Rep.kept g base.ops);
    attempted = (2 * pkts) + u.u_attempted;
    failed = seq_failed base + seq_failed s + u.u_failed;
    gates = seq_gates base @ seq_gates s @ u.u_gates;
  }

let prepare ~seed =
  let inp =
    {
      seed;
      src_a = read_fixture "e1000_rev_a.p4";
      src_b = read_fixture "e1000_rev_b.p4";
      plan = D.Fault.default_plan (Int64.of_int seed);
      packets =
        Packet.Workload.batch
          (Packet.Workload.make ~seed:(Int64.of_int seed) Packet.Workload.Imix)
          pkts;
      sc = Layers.burst_scratch burst;
    }
  in
  fun () ->
    let lap, laps = Rep.stopwatch () in
    Opendesc.Cache.clear ();
    let old_spec = load_spec "e1000_rev_a" inp.src_a in
    let new_spec = load_spec "e1000_rev_b" inp.src_b in
    lap "model_load";
    let compiled = Opendesc.Cache.run_exn ~intent old_spec in
    lap "compile";
    let mq = fresh_mq ~compiled ~old_spec in
    lap "mq_create";
    let inst = { old_spec; new_spec; compiled; mq } in
    ({ Rep.run = rep inp inst; traced = traced inp inst }, laps ())
