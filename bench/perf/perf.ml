(* The OpenDesc performance benchmark: four workloads through the
   library's public API, end-to-end metrics from untraced reps, per-layer
   metrics from traced reps, correctness gates on every rep. See
   bench/perf/README.md.

     perf.exe [--workload NAME | --workloads a,b] [--seed N] [--seconds S]
              [--trace 0|1] [--out results.json] [--trace-out trace.json]
     perf.exe --compare A.json B.json

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Perf_core

let workloads : (string * Rep.workload) list =
  [
    ("rx_min64_hw", Datapath.prepare Datapath.rx_min64_hw);
    ("fwd_imix_shim", Datapath.prepare Datapath.fwd_imix_shim);
    ("upgrade_chaos", Chaos.prepare);
    ("toolchain", Toolchain.prepare);
  ]

let setup_runs = 21
let min_reps = 3

type mode = E2e | Per_layer | Both

type slot = {
  name : string;
  idx : int;  (** position on the command line; the trace's pid *)
  inst : Rep.instance;
  setups : float array;  (** seconds *)
  steps : (string * float) list array;
  mutable reps : Rep.t list;  (** measured untraced reps, newest first *)
  mutable traced : Rep.t list;
  mutable gates : (string * bool) list;  (** every rep's, warm-ups included *)
  mutable attempted : int;
  mutable failed : int;
  mutable chrome : string option;  (** last traced rep's events, serialised *)
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* Set up [setup_runs] times, each from a collected heap, and keep the
   last instance. A set-up takes no reading of its own: it churns
   through megabytes of fresh memory, which leaves the probes around it
   reading slow, so [setup_s] is scaled by the run's quiet level. *)
let set_up ~seed idx name =
  let prepare = (List.assoc name workloads) ~seed in
  let runs =
    Array.init setup_runs (fun _ ->
        Gc.full_major ();
        let t0 = Trace.now_ns () in
        let inst, laps = prepare () in
        (inst, laps, float_of_int (Trace.now_ns () - t0) /. 1e9))
  in
  let inst, _, _ = runs.(setup_runs - 1) in
  Gc.full_major ();
  {
    name;
    idx;
    inst;
    setups = Array.map (fun (_, _, s) -> s) runs;
    steps = Array.map (fun (_, l, _) -> l) runs;
    reps = [];
    traced = [];
    gates = [];
    attempted = 0;
    failed = 0;
    chrome = None;
  }

(* Round-robin over the slots, rotating the start each round, until the
   budget is spent and every slot has [min_reps]. *)
let rounds slots ~budget_s f =
  let n = Array.length slots in
  let start = Trace.now_ns () in
  let elapsed () = float_of_int (Trace.now_ns () - start) /. 1e9 in
  let r = ref 0 in
  while !r < min_reps || elapsed () < budget_s do
    for i = 0 to n - 1 do
      f slots.((i + !r) mod n)
    done;
    incr r
  done

(* Every rep starts from a collected heap, so no rep pays on its clock
   for the previous rep's garbage. Warm-up reps count towards the gates
   and the totals but report no metric. *)
let once s kind run =
  Gc.full_major ();
  let r = run () in
  s.gates <- s.gates @ r.Rep.gates;
  s.attempted <- s.attempted + r.attempted;
  s.failed <- s.failed + r.failed;
  Printf.eprintf "[perf] %s %s rep\n%!" s.name kind;
  r

let run_e2e slots ~budget_s =
  Array.iter (fun s -> ignore (once s "warm-up" s.inst.run)) slots;
  rounds slots ~budget_s (fun s -> s.reps <- once s "e2e" s.inst.run :: s.reps)

let traced_rep ~chrome s =
  s.traced <- once s "traced" s.inst.traced :: s.traced;
  if chrome then
    s.chrome <-
      Some
        (String.concat ",\n"
           (List.map Json.to_string
              (Trace.chrome_events ~pid:(s.idx + 1) ~process:s.name Layers.buf)))

let run_per_layer slots ~budget_s ~chrome =
  Array.iter (fun s -> ignore (once s "traced warm-up" s.inst.traced)) slots;
  rounds slots ~budget_s (traced_rep ~chrome)

(* ------------------------------------------------------------------ *)
(* Aggregation *)

(* Every sample of every metric of one pool of reps, under the run's
   gate. A metric none of whose samples passed the gate falls back to
   all its samples, at nominal speed; [relaxed] names those. *)
type pool = { samples : (string * float array) list; relaxed : string list }

let pool gate ?(extra = fun _ -> []) reps =
  let eval g =
    List.concat_map (fun (r : Rep.t) -> r.metrics g) (List.rev reps)
    @ Rep.tail (List.map (fun (r : Rep.t) -> r.latencies g) reps)
    @ extra g
  in
  let strict = eval gate and loose = eval (Gate.relax gate) in
  let names =
    List.fold_left (fun acc (k, _) -> if List.mem k acc then acc else k :: acc) [] loose |> List.rev
  in
  let of_ l k = List.filter_map (fun (k', v) -> if k = k' then Some v else None) l |> Array.of_list in
  List.fold_right
    (fun k p ->
      let xs = of_ strict k in
      if Array.length xs > 0 then { p with samples = (k, xs) :: p.samples }
      else { samples = (k, of_ loose k) :: p.samples; relaxed = k :: p.relaxed })
    names { samples = []; relaxed = [] }

let setup_metric slot g =
  Array.to_list slot.setups |> List.map (fun s -> ("setup_s", s *. Gate.scale_quiet g Gate.Main))

let summary_json ?(extra = []) unit_ xs =
  let s = Summary.of_samples xs in
  Json.Obj
    ([ ("unit", Json.Str unit_) ]
    @ extra
    @ [
        ("median", Json.Num s.median);
        ("p25", Json.Num s.p25);
        ("p75", Json.Num s.p75);
        ("n", Json.Num (float_of_int s.n));
        ("samples", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) xs)));
      ])

let failed_gates slot =
  List.sort_uniq compare
    (List.filter_map (fun (g, ok) -> if ok then None else Some g) slot.gates)

let slot_json (spec : Spec.t) slot ~e2e ~per_layer =
  let declared = List.map (fun (m : Spec.metric) -> m.name) spec.e2e in
  let e2e_json =
    List.filter_map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.name e2e.samples with
        | None -> None
        | Some xs ->
            let extra =
              [
                ("better", Json.Str (match m.better with Verdict.Lower -> "lower" | Higher -> "higher"));
                ("bound", match m.bound with Some b -> Json.Num b | None -> Json.Null);
                ("gated", Json.Bool (not (List.mem m.name e2e.relaxed)));
              ]
            in
            Some (m.name, summary_json ~extra m.unit_ xs))
      spec.e2e
  in
  let group p =
    Json.Obj
      (List.filter_map
         (fun (k, xs) ->
           if List.mem k declared then None else Some (k, summary_json (Spec.unit_of_name k) xs))
         p.samples)
  in
  let steps =
    match slot.steps.(0) with
    | [] -> []
    | first ->
        List.map
          (fun (k, _) ->
            let xs = Array.map (fun l -> List.assoc k l) slot.steps in
            (k ^ "_ms", summary_json "ms" xs))
          first
  in
  Json.Obj
    [
      ("reps", Json.Num (float_of_int (List.length slot.reps)));
      ("traced_reps", Json.Num (float_of_int (List.length slot.traced)));
      ("attempted", Json.Num (float_of_int slot.attempted));
      ("failed", Json.Num (float_of_int slot.failed));
      ("error_frac", Json.Num (float_of_int slot.failed /. float_of_int (max 1 slot.attempted)));
      ("e2e", Json.Obj e2e_json);
      ("detail", group e2e);
      ("per_layer", group per_layer);
      ("setup", Json.Obj steps);
      ( "gates",
        Json.Obj
          (List.map
             (fun (g, _) -> (g, Json.Bool (not (List.mem g (failed_gates slot)))))
             (List.sort_uniq compare slot.gates)) );
    ]

let print_slot slot ~e2e ~per_layer =
  let line name xs =
    if Array.length xs > 0 then
      let s = Summary.of_samples xs in
      Printf.printf "  %-36s %14.6g %-8s [p25 %.6g, p75 %.6g, n=%d]\n" name s.median
        (Spec.unit_of_name name) s.p25 s.p75 s.n
  in
  Printf.printf "%s: %d reps, %d traced, %d attempted, %d failed\n" slot.name
    (List.length slot.reps) (List.length slot.traced) slot.attempted slot.failed;
  List.iter (fun (k, xs) -> line k xs) e2e.samples;
  List.iter (fun (k, xs) -> line k xs) per_layer.samples;
  List.iter (fun k -> Printf.printf "  (no quiet sample of %s: every sample used)\n" k)
    (e2e.relaxed @ per_layer.relaxed);
  List.iter (fun g -> Printf.printf "  GATE FAILED: %s\n" g) (failed_gates slot)

(* ------------------------------------------------------------------ *)
(* --compare *)

let compare_files (spec : Spec.t) a_file b_file =
  let load f =
    match Json.parse (In_channel.with_open_bin f In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "%s: %s" f e
    | exception Sys_error e -> die "%s" e
  in
  let a = load a_file and b = load b_file in
  let ( >>= ) = Option.bind in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        print_endline s)
      fmt
  in
  Printf.printf "%-14s %-20s %14s %14s %8s %9s  %s\n" "workload" "metric" "A median" "B median"
    "B/A" "worse by" "verdict";
  List.iter
    (fun w ->
      let wa = Json.member "workloads" a >>= Json.member w
      and wb = Json.member "workloads" b >>= Json.member w in
      match (wa, wb) with
      | None, None -> ()
      | None, Some _ | Some _, None -> fail "%-14s missing from one side" w
      | Some wa, Some wb ->
          List.iter
            (fun side ->
              match Json.member "error_frac" side >>= Json.to_num with
              | Some 0.0 -> ()
              | _ -> fail "%-14s error_frac is not 0" w)
            [ wa; wb ];
          List.iter
            (fun (m : Spec.metric) ->
              let med side =
                Json.member "e2e" side >>= Json.member m.name >>= Json.member "median"
                >>= Json.to_num
              in
              match (med wa, med wb, m.bound) with
              | Some x, Some y, Some bound ->
                  let v = Verdict.judge ~better:m.better ~bound ~baseline:x ~candidate:y in
                  let line =
                    Printf.sprintf "%-14s %-20s %14.6g %14.6g %8.4f %8.2f%%  %s (bound %.0f%%)" w
                      m.name x y v.ratio (100.0 *. v.worse_by)
                      (if v.within then "within" else "OUTSIDE")
                      (100.0 *. bound)
                  in
                  if v.within then print_endline line else fail "%s" line
              | _ -> fail "%-14s %-20s missing" w m.name)
            spec.e2e)
    spec.workloads;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  let spec = match Spec.load () with Ok s -> s | Error e -> die "%s" e in
  let chosen = ref [] and seed = ref 1 and seconds = ref 15.0 in
  let mode = ref Both and out = ref None and trace_out = ref None and compare = ref None in
  let split s = String.split_on_char ',' s |> List.filter (( <> ) "") in
  let args =
    [
      ("--workload", Arg.String (fun s -> chosen := !chosen @ [ s ]), "NAME run one workload");
      ("--workloads", Arg.String (fun s -> chosen := !chosen @ split s), "A,B run these workloads");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring budget per workload (default 15)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> mode := E2e
          | 1 -> mode := Per_layer
          | n -> die "--trace takes 0 or 1, not %d" n),
        "0|1 end-to-end metrics only (0) or per-layer metrics only (1); default both" );
      ("--out", Arg.String (fun f -> out := Some f), "FILE write every metric as JSON");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE write the traced spans (Chrome trace format)");
      ( "--compare",
        Arg.Tuple
          (let a = ref "" in
           [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ]),
        "A.json B.json compare two results files against the end-to-end bounds" );
    ]
  in
  Arg.parse args (fun a -> die "unexpected argument %s" a) "perf.exe [options]";
  (match !compare with Some (a, b) -> compare_files spec a b | None -> ());
  let chosen = if !chosen = [] then spec.workloads else !chosen in
  List.iter
    (fun w ->
      if not (List.mem_assoc w workloads && List.mem w spec.workloads) then
        die "unknown workload %s (known: %s)" w (String.concat ", " spec.workloads))
    chosen;
  let slots = Array.of_list (List.mapi (set_up ~seed:!seed) chosen) in
  let budget_s = !seconds *. float_of_int (Array.length slots) in
  let chrome = !trace_out <> None in
  (match !mode with
  | E2e -> run_e2e slots ~budget_s
  | Per_layer -> run_per_layer slots ~budget_s ~chrome
  | Both ->
      run_e2e slots ~budget_s;
      Array.iter (traced_rep ~chrome) slots);
  (* The gate's quiet level comes from every reading of the run. *)
  let readings =
    Array.to_list slots
    |> List.concat_map (fun s -> List.concat_map (fun (r : Rep.t) -> r.readings) (s.reps @ s.traced))
  in
  let gate = Gate.make ~nominal:Speed.nominal readings in
  let pools =
    Array.map
      (fun s -> (s, pool gate ~extra:(setup_metric s) s.reps, pool gate s.traced))
      slots
  in
  Array.iter (fun (s, e2e, per_layer) -> print_slot s ~e2e ~per_layer) pools;
  let kept = List.length (List.filter (Gate.ok gate) readings) in
  let host =
    Json.Obj
      [
        ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("os_type", Json.Str Sys.os_type);
        ("probe_limit_us_main", Json.Num (gate.limit Gate.Main));
        ("probe_limit_us_worker", Json.Num (gate.limit Gate.Worker));
        ("probe_quiet_frac", Json.Num (float_of_int kept /. float_of_int (max 1 (List.length readings))));
      ]
  in
  let all_failed = Array.to_list slots |> List.concat_map failed_gates in
  let attempted = Array.fold_left (fun a s -> a + s.attempted) 0 slots in
  let failed = Array.fold_left (fun a s -> a + s.failed) 0 slots in
  let correct = all_failed = [] && failed = 0 in
  (match !out with
  | None -> ()
  | Some f ->
      let doc =
        Json.Obj
          [
            ("schema", Json.Str "opendesc-perf-2");
            ("seed", Json.Num (float_of_int !seed));
            ("seconds", Json.Num !seconds);
            ("mode", Json.Str (match !mode with E2e -> "e2e" | Per_layer -> "per_layer" | Both -> "both"));
            ("host", host);
            ("correct", Json.Bool correct);
            ( "workloads",
              Json.Obj
                (Array.to_list
                   (Array.map (fun (s, e2e, per_layer) -> (s.name, slot_json spec s ~e2e ~per_layer)) pools))
            );
          ]
      in
      Out_channel.with_open_bin f (fun oc ->
          output_string oc (Json.to_string ~indent:true doc);
          output_char oc '\n'));
  (match !trace_out with
  | None -> ()
  | Some f ->
      let events = Array.to_list slots |> List.filter_map (fun s -> s.chrome) in
      Out_channel.with_open_bin f (fun oc ->
          output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
          output_string oc (String.concat ",\n" events);
          output_string oc "\n]}\n"));
  let declared, which =
    match !mode with
    | E2e -> (spec.e2e, fun (_, e2e, _) -> e2e)
    | Per_layer -> (spec.per_layer, fun (_, _, p) -> p)
    | Both -> (spec.e2e @ spec.per_layer, fun (_, e2e, p) -> { e2e with samples = e2e.samples @ p.samples })
  in
  let multi = Array.length slots > 1 in
  (* A layer a workload never touches reads 0; an end-to-end metric
     must be measured. *)
  let value s pool (m : Spec.metric) =
    match List.assoc_opt m.name pool.samples with
    | Some xs when Array.length xs > 0 -> Summary.median xs
    | _ when List.memq m spec.per_layer -> 0.0
    | _ -> die "%s did not produce %s" s.name m.name
  in
  let metrics =
    Array.to_list pools
    |> List.concat_map (fun ((s, _, _) as p) ->
           List.map
             (fun (m : Spec.metric) ->
               ( (if multi then s.name ^ "/" ^ m.name else m.name),
                 Json.Obj [ ("value", Json.Num (value s (which p) m)); ("unit", Json.Str m.unit_) ] ))
             declared)
  in
  List.iter (fun g -> Printf.printf "correctness check failed: %s\n" g) all_failed;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1
