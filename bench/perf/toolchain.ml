(* toolchain: what an opendesc_cc user waits for. One request takes a
   catalog NIC's P4 source and an intent through load, static analysis,
   a cold compile, translation validation and the cost bound. The
   request mix is every catalog NIC x {fig1, rss+len} (16 requests),
   each rep running 64 rounds of the 16 in a seeded order. No datapath
   code runs. *)

open Perf_core
module A = Opendesc_analysis

let rounds = 64

let intents =
  [
    ("fig1", Nic_models.Catalog.fig1_intent);
    ("rss+len", Opendesc.Intent.make [ ("rss", 32); ("pkt_len", 16) ]);
  ]

type req = { label : string; intent : Opendesc.Intent.t; model : Nic_models.Model.t }

let no_errors diags =
  List.for_all (fun (d : A.Diagnostic.t) -> d.d_severity <> A.Diagnostic.Error) diags

(* One request, every step's output; [Error] names the step that
   failed. *)
let request tr r =
  let spec = r.model.spec in
  let root = Layers.enter tr Layers.request in
  let step id f =
    let s = Layers.enter tr id in
    let v = f () in
    Layers.leave tr s;
    v
  in
  let result =
    match
      step Layers.p4_load (fun () ->
          Opendesc.Nic_spec.load ~name:spec.nic_name ~kind:spec.kind ~notes:spec.notes
            spec.p4_source)
    with
    | Error e -> Error ("load: " ^ e)
    | Ok nic -> (
        let diags = step Layers.lint (fun () -> Opendesc.Nic_spec.analyze ~intent:r.intent nic) in
        match step Layers.compile (fun () -> Opendesc.Compile.run ~intent:r.intent nic) with
        | Error e -> Error ("compile: " ^ e)
        | Ok c -> (
            match step Layers.certify (fun () -> Opendesc.Compile.certify c) with
            | Error _ -> Error "certify: plan does not validate"
            | Ok cert ->
                let cost =
                  step Layers.costbound (fun () ->
                      A.Costbound.analyze (Opendesc.Compile.contract c)
                        (Opendesc.Compile.to_plan c))
                in
                Ok (nic, diags, cert, cost)))
  in
  Layers.leave tr root;
  result

(* The correctness gate on a request's outputs, off the clock. *)
let check = function
  | Error e -> Error e
  | Ok ((nic : Opendesc.Nic_spec.t), diags, (cert : A.Certify.certificate), cost) ->
      if not (no_errors diags) then Error "analysis: error-severity diagnostics"
      else if cert.c_contract <> Opendesc.Compile.contract_hash nic then
        Error "certify: certificate is not for this contract"
      else if not (no_errors cost.A.Costbound.r_diags) then
        Error "costbound: error-severity diagnostics"
      else Ok ()

type pass = { ops : Rep.ops; readings : Gate.reading list; words : float; failures : string list }

(* The requests of [order], four to a chunk between probes. *)
let pass reqs order tr =
  let failures = ref [] and words = ref 0.0 in
  let op k =
    let r = reqs.(order.(k)) in
    Layers.group tr k;
    let w0 = Gc.minor_words () in
    let t0 = Trace.now_ns () in
    let res = request tr r in
    let ns = Trace.now_ns () - t0 in
    words := !words +. (Gc.minor_words () -. w0);
    (match check res with
    | Error e -> failures := (r.model.spec.nic_name ^ " x " ^ r.label ^ ": " ^ e) :: !failures
    | Ok () -> ());
    ns
  in
  let ops, readings = Rep.closed_loop ~chunk:4 (Array.length order) op in
  { ops; readings; words = !words; failures = List.rev !failures }

(* Probe, after the traced pass: the compile cache's warm path, once per
   request (so its share is comparable), on a spec loaded and primed off
   the clock. *)
let probe_cache t reqs order =
  Array.iter
    (fun r ->
      let spec = r.model.spec in
      match
        Opendesc.Nic_spec.load ~name:spec.nic_name ~kind:spec.kind ~notes:spec.notes
          spec.p4_source
      with
      | Error _ -> ()
      | Ok nic ->
          ignore (Opendesc.Cache.run ~intent:r.intent nic);
          for _ = 1 to Array.length order / Array.length reqs do
            let s = Trace.enter t Layers.cache_run in
            ignore (Opendesc.Cache.run ~intent:r.intent nic);
            Trace.leave t s
          done)
    reqs

let gates p =
  [
    ( "every toolchain request is Ok with a fresh certificate and no error diagnostics",
      p.failures = [] );
  ]

let report_failures p =
  List.iter (fun f -> Printf.eprintf "toolchain request failed: %s\n%!" f) p.failures

let rep reqs order () =
  let p = pass reqs order None in
  report_failures p;
  let n = float_of_int (Array.length order) in
  {
    Rep.readings = p.readings;
    metrics =
      (fun g -> Rep.rate g p.ops @ [ ("minor_words_per_op", p.words /. n) ] @ Rep.latency g p.ops);
    latencies = (fun g -> Rep.kept g p.ops);
    attempted = Array.length order;
    failed = List.length p.failures;
    gates = gates p;
  }

let traced reqs order () =
  let base = pass reqs order None in
  Layers.start ();
  let p = pass reqs order (Some Layers.buf) in
  probe_cache Layers.buf reqs order;
  let spans = Trace.copy Layers.buf in
  report_failures p;
  {
    Rep.readings = base.readings @ p.readings;
    metrics =
      (fun g ->
        Layers.metrics g ~per_group:1 ~untraced:base.ops ~traced:p.ops spans
        @ Rep.latency g base.ops);
    latencies = (fun g -> Rep.kept g base.ops);
    attempted = 2 * Array.length order;
    failed = List.length base.failures + List.length p.failures;
    gates = gates base @ gates p;
  }

let prepare ~seed =
  let nreq = List.length intents * 8 in
  let rng = Random.State.make [| seed |] in
  let order =
    Array.concat
      (List.init rounds (fun _ ->
           let a = Array.init nreq Fun.id in
           for i = nreq - 1 downto 1 do
             let j = Random.State.int rng (i + 1) in
             let x = a.(i) in
             a.(i) <- a.(j);
             a.(j) <- x
           done;
           a))
  in
  fun () ->
    let lap, laps = Rep.stopwatch () in
    Opendesc.Cache.clear ();
    let reqs =
      Array.of_list
        (List.concat_map
           (fun (label, intent) ->
             List.map (fun model -> { label; intent; model }) (Nic_models.Catalog.all ~intent ()))
           intents)
    in
    lap "model_load";
    if Array.length reqs <> nreq then
      failwith (Printf.sprintf "toolchain: expected %d requests, catalog gives %d" nreq (Array.length reqs));
    ({ Rep.run = rep reqs order; traced = traced reqs order }, laps ())
