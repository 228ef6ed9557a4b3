(* The span vocabulary of the traced leg and the per-layer metrics
   derived from it.

   Spans are recorded from the benchmark's own loops, around calls into
   each layer's public functions; nothing inside lib/ is instrumented.
   Three kinds of span:

   - loop roots ("burst", "request"): one per closed-loop operation.
     Their self time is the benchmark loop's own overhead.
   - pipeline layers: children of a root (plus the once-per-leg
     "upgrade.swap" root). Their self times partition the operation.
   - probes: root-level spans run off the critical path after an
     operation, re-doing one piece of work the pipeline did inside an
     opaque call — chiefly the device model's completion synthesis,
     which [Device.rx_inject] performs internally. *)

open Perf_core

let buf = Trace.create (1 lsl 16)
let id = Trace.intern buf

(* Loop roots *)
let burst = id "burst"
let request = id "request"

(* Datapath layers *)
let steer = id "mq.steer"
let inject = id "device.inject"
let harvest = id "device.harvest"
let decode = id "hoststack.decode"
let tx = id "device.tx"
let fault_inject = id "fault.inject"
let fault_harvest = id "fault.harvest"
let swap = id "upgrade.swap"
let dry_run = id "upgrade.dry_run"

(* Toolchain layers *)
let p4_load = id "p4.load"
let lint = id "analysis.lint"
let compile = id "compile.run"
let certify = id "certify.check"
let costbound = id "costbound.analyze"

(* Probes *)
let synth = id "model.synth"
let parse = id "pkt.parse"
let handoff = id "pktring.handoff"
let cache_run = id "cache.run"
let evolution = id "evolution.check"

let loop_roots = [ "burst"; "request" ]

let pipeline =
  [
    "mq.steer"; "device.inject"; "device.harvest"; "hoststack.decode";
    "device.tx"; "fault.inject"; "fault.harvest"; "upgrade.swap";
    "upgrade.dry_run"; "p4.load"; "analysis.lint"; "compile.run";
    "certify.check"; "costbound.analyze";
  ]

let probes =
  [ "model.synth"; "pkt.parse"; "pktring.handoff"; "cache.run"; "evolution.check" ]

(* The host-side share of a datapath operation: what the driver and
   application pay, as opposed to the simulated NIC (steering, device
   injection and its completion synthesis). *)
let host = [ "device.harvest"; "hoststack.decode"; "device.tx"; "fault.harvest" ]

(* Per-burst scratch of the datapath loops and their off-path probes. *)
type burst_scratch = {
  qs : int array;  (** queue of each packet of the current burst *)
  views : Packet.Pkt.view array;
  cmpt : bytes;  (** the completion record the synthesis probe writes *)
  env : Softnic.Feature.env;  (** probes never touch a device's env *)
}

let burst_scratch n =
  {
    qs = Array.make n 0;
    views = Array.make n (Packet.Pkt.parse (Packet.Pkt.create Bytes.empty));
    cmpt = Bytes.make 512 '\000';
    env = Softnic.Feature.make_env ();
  }

(* Off-path probes, run after a burst's spans closed: the header walk and
   the completion synthesis [Device.rx_inject] does internally, on the
   [n] packets from [lo] that went to queues [sc.qs]. *)
let device_probes t sc mq (packets : Packet.Pkt.t array) ~lo ~n =
  let s = Trace.enter t parse in
  for i = 0 to n - 1 do
    sc.views.(i) <- Packet.Pkt.parse packets.(lo + i)
  done;
  Trace.leave t s;
  let s = Trace.enter t synth in
  for i = 0 to n - 1 do
    let dev = Driver.Mq.queue mq sc.qs.(i) in
    let m = Driver.Device.model dev in
    Opendesc.Accessor.write_record (Driver.Device.active_path dev).p_layout sc.cmpt
      (m.resolve sc.env packets.(lo + i) sc.views.(i))
  done;
  Trace.leave t s

(* Start a traced leg with an empty buffer and, like the untraced leg
   before it, from a collected heap: otherwise it would pay for that
   leg's garbage and the difference would read as tracing overhead. *)
let start () =
  Gc.full_major ();
  Trace.clear buf

(* Zero-cost when untraced: the loops pass [None] and pay one branch. *)
let[@inline] enter tr i = match tr with None -> -1 | Some t -> Trace.enter t i
let[@inline] leave tr s = match tr with None -> () | Some t -> Trace.leave t s
let[@inline] group tr g = match tr with None -> () | Some t -> Trace.set_group t g

(* Per-layer metrics of one traced leg. Span group [b] is operation [b]
   of [traced], which holds [per_group] ops (packets or requests); a
   group past the last operation (a final drain) goes with the last.
   Only groups the gate keeps count, their times stated at nominal
   speed. Shares are of the pipeline time — the summed duration of every
   root that is not a probe. [untraced] is the same loop without spans:
   the difference of the two legs' median latency is the tracing
   overhead. Every layer is reported on every workload (0 where the
   workload does not touch it), so all workloads share one metric
   set. *)
let metrics g ~per_group ~(untraced : Rep.ops) ~(traced : Rep.ops) t =
  let n = Array.length traced.at in
  let weight b =
    let r = traced.at.(min b (n - 1)) in
    if Gate.ok g r then Gate.scale g r else 0.0
  in
  let kept = Array.fold_left (fun a r -> if Gate.ok g r then a + 1 else a) 0 traced.at in
  let aggs = Trace.aggregate ~weight t in
  let get name = List.find_opt (fun (a : Trace.agg) -> a.a_name = name) aggs in
  let self name = match get name with Some a -> a.a_self_ns | None -> 0.0 in
  let total name = match get name with Some a -> a.a_total_ns | None -> 0.0 in
  let words name = match get name with Some a -> a.a_self_words | None -> 0.0 in
  let sum f names = List.fold_left (fun acc n -> acc +. f n) 0.0 names in
  let pipeline_ns = sum total ("upgrade.swap" :: loop_roots) in
  let loop_ns = sum self loop_roots in
  let ops = float_of_int (max 1 (kept * per_group)) in
  let pct x = if pipeline_ns = 0.0 then 0.0 else 100.0 *. x /. pipeline_ns in
  let layer time name =
    [
      (name ^ ".self_pct", pct (time name));
      (name ^ ".ns_per_op", time name /. ops);
      (name ^ ".words_per_op", words name /. ops);
    ]
  in
  let host_ns = sum self host in
  let overhead_pct =
    let u = Rep.kept g untraced and tr = Rep.kept g traced in
    if Array.length u = 0 || Array.length tr = 0 then 0.0
    else
      let mu = Summary.median u in
      100.0 *. (Summary.median tr -. mu) /. mu
  in
  List.concat_map (layer self) pipeline
  @ List.concat_map (layer total) probes
  @ [
      ("host_path.self_pct", pct host_ns);
      ("host_path.ns_per_op", host_ns /. ops);
      ("sim.ns_per_op", total "model.synth" /. ops);
      ("loop.ns_per_op", loop_ns /. ops);
      ("trace.ns_per_op", pipeline_ns /. ops);
      ( "trace.coverage_pct",
        if pipeline_ns = 0.0 then 0.0 else 100.0 *. (1.0 -. (loop_ns /. pipeline_ns)) );
      ("trace.overhead_pct", overhead_pct);
      ("trace.dropped_spans", float_of_int (Trace.dropped t));
      ("trace.kept_pct", 100.0 *. float_of_int kept /. float_of_int (max 1 n));
    ]
