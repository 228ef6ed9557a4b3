(* opendesc_cc: the OpenDesc compiler command line.

   Subcommands:
     list                      catalogue of built-in NIC models and semantics
     paths    --nic ...        enumerate a NIC's completion paths
     cfg      --nic ...        Graphviz CFG of the completion deparser
     compile  --nic ... --semantics ... | --intent file.p4
                               run the compiler; optionally emit C/eBPF *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A NIC argument is either a built-in model name or a path to a P4
   description file. *)
let load_nic ~intent name =
  let models = Nic_models.Catalog.all ~intent () in
  match Nic_models.Catalog.find name models with
  | Some m -> Ok m.spec
  | None ->
      if Sys.file_exists name then
        Opendesc.Nic_spec.load ~name:(Filename.remove_extension (Filename.basename name))
          ~kind:Opendesc.Nic_spec.Fixed_function (read_file name)
      else
        Error
          (Printf.sprintf
             "unknown NIC %S (not a built-in model and no such file); try \
              'opendesc_cc list'"
             name)

let intent_of_args ~semantics ~intent_file registry =
  match (semantics, intent_file) with
  | Some sems, None ->
      let fields =
        List.map
          (fun s ->
            match Opendesc.Semantic.width registry s with
            | Some w -> (s, w)
            | None -> (s, 32))
          (String.split_on_char ',' sems)
      in
      Ok (Opendesc.Intent.make fields)
  | None, Some path -> (
      let src = read_file path in
      match Opendesc.Prelude.check_result src with
      | Error e -> Error e
      | Ok tenv -> (
          match Opendesc.Intent.of_program tenv with
          | Error e -> Error e
          | Ok intent -> (
              (* register any custom @cost semantics from the intent *)
              match P4.Typecheck.find_header tenv intent.name with
              | Some h -> (
                  match Opendesc.Intent.register_custom_semantics registry h with
                  | Ok () -> Ok intent
                  | Error e -> Error e)
              | None -> Ok intent)))
  | Some _, Some _ -> Error "pass either --semantics or --intent, not both"
  | None, None -> Error "an intent is required: --semantics rss,vlan or --intent file.p4"

let nic_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "nic" ] ~docv:"NIC" ~doc:"Built-in NIC model name or P4 description file.")

let semantics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "semantics"; "s" ] ~docv:"S1,S2,..."
        ~doc:"Comma-separated requested semantics.")

let intent_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "intent"; "i" ] ~docv:"FILE"
        ~doc:"P4 file declaring the intent header (Figure 5 style).")

let alpha_arg =
  Arg.(
    value
    & opt float Opendesc.Select.default_alpha
    & info [ "alpha" ] ~docv:"CYCLES_PER_BYTE"
        ~doc:"DMA footprint weight of Eq. 1 (default 2.0).")

(* Run sizes: --domains, --batch and --queues take positive integers,
   --pkts a non-negative one; anything else is a usage error. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (Printf.sprintf "expected an integer >= %d, got '%s'" lo s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0

let fail fmt = Printf.ksprintf (fun s -> `Error (false, s)) fmt

(* --- list ---------------------------------------------------------- *)

let list_cmd =
  let run () =
    let registry = Opendesc.Semantic.default () in
    let intent = Nic_models.Catalog.fig1_intent in
    print_endline "Built-in NIC models:";
    List.iter
      (fun (m : Nic_models.Model.t) ->
        Format.printf "  %a@." Opendesc.Nic_spec.pp m.spec)
      (Nic_models.Catalog.all ~intent ());
    print_endline "";
    print_endline "Known semantics (name, width, software cost in cycles):";
    List.iter
      (fun name ->
        match Opendesc.Semantic.find registry name with
        | Some info ->
            Format.printf "  %-18s %3d bits  %-8s %s@." info.name info.width_bits
              (if Float.is_finite info.sw_cost then
                 Printf.sprintf "%.0f" info.sw_cost
               else "hw-only")
              info.descr
        | None -> ())
      (Opendesc.Semantic.names registry);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List built-in NIC models and known semantics.")
    Term.(ret (const run $ const ()))

(* --- paths --------------------------------------------------------- *)

let paths_cmd =
  let run nic =
    let intent = Nic_models.Catalog.fig1_intent in
    match load_nic ~intent nic with
    | Error e -> fail "%s" e
    | Ok spec ->
        Format.printf "%a@." Opendesc.Report.paths spec;
        let pr = spec.pruning in
        Format.printf
          "feasibility: %d syntactic leaves, %d feasible, %d proved \
           infeasible; %d configurations covered by %d deparser runs@."
          pr.pr_syntactic pr.pr_feasible pr.pr_pruned pr.pr_configs pr.pr_runs;
        (match spec.tx_formats with
        | [] -> ()
        | fs ->
            Format.printf "TX descriptor formats:@.";
            List.iter (fun f -> Format.printf "  %a@." Opendesc.Descparser.pp f) fs);
        (match Opendesc.Nic_spec.lint spec with
        | [] -> ()
        | ws ->
            Format.printf "lint warnings:@.";
            List.iter (Format.printf "  - %s@.") ws);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Enumerate the completion paths of a NIC description.")
    Term.(ret (const run $ nic_arg))

(* --- cfg ----------------------------------------------------------- *)

let cfg_cmd =
  let run nic =
    let intent = Nic_models.Catalog.fig1_intent in
    match load_nic ~intent nic with
    | Error e -> fail "%s" e
    | Ok spec ->
        print_string (Opendesc.Cfg.to_dot (Opendesc.Nic_spec.cfg spec));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "cfg"
       ~doc:"Print the completion deparser's control-flow graph as Graphviz dot.")
    Term.(ret (const run $ nic_arg))

(* --- compile ------------------------------------------------------- *)

let compile_cmd =
  let emit_c_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-c" ] ~docv:"FILE" ~doc:"Write the generated C header to FILE.")
  in
  let emit_ebpf_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-ebpf" ] ~docv:"FILE" ~doc:"Write the generated XDP program to FILE.")
  in
  let emit_datapath_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-datapath" ] ~docv:"FILE"
          ~doc:"Write the complete generated C driver datapath to FILE.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Bypass the memoized compile cache and run the full pipeline. The \
             cache is also bypassed (automatically) when --intent registers \
             custom semantics, which the cache key cannot see.")
  in
  let run nic semantics intent_file alpha no_cache emit_c emit_ebpf emit_datapath =
    let registry = Opendesc.Semantic.default () in
    match intent_of_args ~semantics ~intent_file registry with
    | Error e -> fail "%s" e
    | Ok intent -> (
        match load_nic ~intent nic with
        | Error e -> fail "%s" e
        | Ok spec -> (
            (* An --intent file may have registered custom semantics into
               [registry]; the cache memoizes default-registry runs only. *)
            let use_cache = (not no_cache) && intent_file = None in
            match
              if use_cache then Opendesc.Cache.run ~alpha ~intent spec
              else Opendesc.Compile.run ~alpha ~registry ~intent spec
            with
            | Error e -> fail "%s" e
            | Ok compiled ->
                print_endline (Opendesc.Report.to_string compiled);
                print_endline
                  (if use_cache then Opendesc.Cache.stats_line ()
                   else "compile cache: bypassed");
                let write path contents =
                  let oc = open_out path in
                  output_string oc contents;
                  close_out oc;
                  Printf.printf "wrote %s\n" path
                in
                Option.iter
                  (fun p -> write p (Opendesc.Compile.c_source compiled))
                  emit_c;
                Option.iter
                  (fun p -> write p (Opendesc.Compile.ebpf_source compiled))
                  emit_ebpf;
                Option.iter
                  (fun p -> write p (Opendesc.Compile.datapath_source compiled))
                  emit_datapath;
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Select the fittest completion path for an intent and synthesize host \
          accessors.")
    Term.(
      ret
        (const run $ nic_arg $ semantics_arg $ intent_arg $ alpha_arg
       $ no_cache_arg $ emit_c_arg $ emit_ebpf_arg $ emit_datapath_arg))

(* --- placement ------------------------------------------------------ *)

let placement_cmd =
  let pcie_arg =
    Arg.(
      value
      & opt float Opendesc.Placement.default_point.pcie_gbps
      & info [ "pcie" ] ~docv:"GBPS" ~doc:"Usable PCIe bandwidth toward the host.")
  in
  let size_arg =
    Arg.(
      value
      & opt int Opendesc.Placement.default_point.pkt_bytes
      & info [ "pkt-size" ] ~docv:"BYTES" ~doc:"Average packet size.")
  in
  let run nic semantics intent_file pcie_gbps pkt_bytes =
    let registry = Opendesc.Semantic.default () in
    match intent_of_args ~semantics ~intent_file registry with
    | Error e -> fail "%s" e
    | Ok intent -> (
        match load_nic ~intent nic with
        | Error e -> fail "%s" e
        | Ok spec -> (
            let point =
              { Opendesc.Placement.default_point with pcie_gbps; pkt_bytes }
            in
            match Opendesc.Placement.advise ~point registry intent spec with
            | Error e -> fail "%s" (Opendesc.Select.error_to_string e)
            | Ok verdicts ->
                Printf.printf "%-6s %6s %10s %10s %12s %12s %6s\n" "path" "cmpt"
                  "cpu c/pkt" "dma B/pkt" "cpu Mpps" "pcie Mpps" "bound";
                List.iter
                  (fun (v : Opendesc.Placement.verdict) ->
                    Printf.printf "#%-5d %5dB %10.1f %10.0f %12.1f %12.1f %6s\n"
                      v.v_path.p_index
                      (Opendesc.Path.size v.v_path)
                      v.v_cpu_cycles v.v_dma_bytes (v.v_cpu_pps /. 1e6)
                      (v.v_pcie_pps /. 1e6)
                      (match v.v_bottleneck with `Cpu -> "cpu" | `Pcie -> "pcie"))
                  verdicts;
                (match
                   Opendesc.Placement.crossover_pps ~point registry intent spec
                 with
                | Some (pps, low, high) ->
                    Printf.printf
                      "below %.1f Mpps prefer path #%d (least CPU); above it path #%d\n"
                      (pps /. 1e6) low.p_index high.p_index
                | None -> print_endline "one path dominates at every rate");
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "placement"
       ~doc:
         "Rate-aware offload placement: sustainable rate per completion path \
          under CPU and PCIe budgets.")
    Term.(ret (const run $ nic_arg $ semantics_arg $ intent_arg $ pcie_arg $ size_arg))

(* --- diff ------------------------------------------------------------ *)

let diff_cmd =
  let module Ev = Opendesc_analysis.Evolution in
  let against_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "against" ] ~docv:"NIC" ~doc:"The newer revision to compare against.")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "werror" ]
          ~doc:"Exit non-zero when the upgrade is classified as breaking.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable JSON report (schema opendesc-diff-1).")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Demand a fresh translation-validation certificate for \
             recompile-class changes: the newer revision is recompiled and \
             certified, and the report says whether the stored certificate \
             covers its contract hash.")
  in
  let run nic against werror json certify =
    let intent = Nic_models.Catalog.fig1_intent in
    match (load_nic ~intent nic, load_nic ~intent against) with
    | Error e, _ | _, Error e -> fail "%s" e
    | Ok old_spec, Ok new_spec ->
        (* Per-revision worst-case decode bounds (Costbound): lets the
           report flag a Transparent-but-slower bump. Omitted when a
           revision does not compile against the intent — the entries
           themselves already explain why. *)
        let bound_of spec =
          match Opendesc.Compile.run ~intent spec with
          | Ok compiled ->
              Some
                (Opendesc_analysis.Costbound.plan_bound
                   (Opendesc.Compile.to_plan compiled))
          | Error _ -> None
        in
        let cost =
          match (bound_of old_spec, bound_of new_spec) with
          | Some o, Some n -> Some (o, n)
          | _ -> None
        in
        let report, cert_result =
          if certify then
            Opendesc.Nic_diff.check_certified ?cost ~intent old_spec new_spec
          else (Opendesc.Nic_diff.check ?cost old_spec new_spec, None)
        in
        let regression =
          match cost with Some (o, n) -> n > o +. 1e-9 | None -> false
        in
        if json then print_endline (Ev.report_to_json report)
        else begin
          Format.printf "%a" Ev.pp report;
          if regression then
            match cost with
            | Some (o, n) ->
                Format.printf
                  "OD026: cost regression: worst-case decode cost rose from \
                   %.1f to %.1f cycles/pkt (%.2fx)@."
                  o n
                  (n /. if o > 0.0 then o else 1.0)
            | None -> ()
        end;
        (match cert_result with
        | Some (Error (Opendesc.Cache.Cert_compile_error e)) ->
            prerr_endline
              ("opendesc_cc: re-certification failed to compile: " ^ e);
            exit 1
        | Some (Error (Opendesc.Cache.Cert_failed ds)) ->
            prerr_endline "opendesc_cc: re-certification rejected the plan:";
            List.iter
              (fun d ->
                prerr_endline
                  ("  " ^ Opendesc_analysis.Diagnostic.to_string d))
              ds;
            exit 1
        | Some (Ok _) | None -> ());
        if werror && Ev.breaking report then begin
          prerr_endline "opendesc_cc: breaking interface change (--werror)";
          exit 1
        end
        else if werror && regression then begin
          prerr_endline "opendesc_cc: decode cost regression, OD026 (--werror)";
          exit 1
        end
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Evolution check between two NIC description revisions: every \
          change a firmware upgrade makes, classified transparent / \
          recompile / breaking, with a concrete configuration witness for \
          each breaking entry.")
    Term.(
      ret
        (const run $ nic_arg $ against_arg $ werror_arg $ json_arg
       $ certify_arg))

(* --- validate -------------------------------------------------------- *)

let validate_cmd =
  let probes_arg =
    Arg.(value & opt int 64 & info [ "probes" ] ~docv:"N" ~doc:"Probe packets.")
  in
  let run nic semantics intent_file probes =
    let registry = Opendesc.Semantic.default () in
    match intent_of_args ~semantics ~intent_file registry with
    | Error e -> fail "%s" e
    | Ok intent -> (
        let models = Nic_models.Catalog.all ~intent () in
        match Nic_models.Catalog.find nic models with
        | None ->
            fail
              "validation drives the simulated device, so NIC must be a \
               built-in model; try 'opendesc_cc list'"
        | Some model -> (
            match Opendesc.Compile.run ~registry ~intent model.spec with
            | Error e -> fail "%s" e
            | Ok compiled -> (
                match
                  Driver.Device.create ~config:compiled.config model
                with
                | Error e -> fail "%s" e
                | Ok device ->
                    let report =
                      Driver.Validate.run ~probes ~device ~compiled ()
                    in
                    Format.printf "%a@." Driver.Validate.pp report;
                    if Driver.Validate.conforms report then `Ok ()
                    else fail "device does not conform to its description")))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Probe a simulated device and verify its completions against the \
          software reference (contract conformance).")
    Term.(ret (const run $ nic_arg $ semantics_arg $ intent_arg $ probes_arg))

(* --- parallel ------------------------------------------------------- *)

let parallel_cmd =
  let domains_arg =
    Arg.(
      value & opt positive_int 2
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains (one per queue group).")
  in
  let queues_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "queues" ] ~docv:"N" ~doc:"Queue count of the multi-queue device.")
  in
  let pkts_arg =
    Arg.(
      value & opt non_negative_int 16384
      & info [ "pkts" ] ~docv:"N" ~doc:"Packets to inject.")
  in
  let batch_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "batch" ] ~docv:"N" ~doc:"Harvest burst capacity per queue.")
  in
  let hot_arg =
    Arg.(
      value & flag
      & info [ "hot" ]
          ~doc:
            "Hot-path mode: pregenerate the workload and disable cost-model \
             accounting, so the run measures the allocation-free byte path \
             (wall clock, GC, idle counters) rather than modelled cycles.")
  in
  let run nic semantics intent_file alpha domains queues pkts batch hot =
    let registry = Opendesc.Semantic.default () in
    match intent_of_args ~semantics ~intent_file registry with
    | Error e -> fail "%s" e
    | Ok intent -> (
        let models = Nic_models.Catalog.all ~intent () in
        match Nic_models.Catalog.find nic models with
        | None ->
            fail
              "the parallel runtime drives the simulated device, so NIC must \
               be a built-in model; try 'opendesc_cc list'"
        | Some model -> (
            match Opendesc.Compile.run ~alpha ~registry ~intent model.spec with
            | Error e -> fail "%s" e
            | Ok compiled -> (
                let mq =
                  Driver.Mq.create ~queue_depth:1024
                    ~configs:(Array.make queues compiled.config)
                    (fun () ->
                      Option.get
                        (Nic_models.Catalog.find nic
                           (Nic_models.Catalog.all ~intent ())))
                in
                match mq with
                | Error e -> fail "%s" e
                | Ok mq ->
                    let r =
                      Driver.Parallel.run ~domains ~batch ~account:(not hot)
                        ~pregen:hot ~mq
                        ~stack:(fun _ ->
                          Driver.Hoststacks.opendesc_batched ~compiled)
                        ~pkts
                        ~workload:
                          (Packet.Workload.make ~seed:61L
                             Packet.Workload.Min_size)
                        ()
                    in
                    Format.printf "%a@." Driver.Stats.pp_table
                      (Array.to_list r.domain_stats @ [ r.stats ]);
                    Array.iter
                      (fun s ->
                        Format.printf "%s %a@." s.Driver.Stats.name
                          Driver.Stats.pp_idle s)
                      r.domain_stats;
                    Printf.printf
                      "per-queue: %s\nwall: %.3f s (%.2f Mpps)  eff wall: \
                       %.3f s (%.2f Mpps; producer busy %.3f s, worker busy \
                       max %.3f s)\nminor words/pkt: %.1f  stranded: %d  \
                       device drops: %d\n"
                      (String.concat " "
                         (Array.to_list (Array.map string_of_int r.per_queue)))
                      r.wall_s
                      (float_of_int r.pkts /. r.wall_s /. 1e6)
                      r.eff_wall_s
                      (float_of_int r.pkts /. r.eff_wall_s /. 1e6)
                      r.producer_busy_s
                      (Array.fold_left Float.max 0.0 r.busy_s)
                      r.minor_words_per_pkt r.stranded r.drops;
                    if r.stranded <> 0 then
                      fail "%d packets stranded in handoff rings" r.stranded
                    else `Ok ())))
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:
         "Run the domain-parallel multi-queue datapath: worker domains own \
          queue groups, fed over SPSC handoff rings; prints per-domain stat \
          shards and the merged view.")
    Term.(
      ret
        (const run $ nic_arg $ semantics_arg $ intent_arg $ alpha_arg
       $ domains_arg $ queues_arg $ pkts_arg $ batch_arg $ hot_arg))

(* --- chaos ---------------------------------------------------------- *)

let chaos_cmd =
  let module F = Driver.Fault in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Fault-plan seed: the whole run is replayable from this one integer.")
  in
  let queues_arg =
    Arg.(
      value & opt positive_int 2
      & info [ "queues" ] ~docv:"N" ~doc:"Queue count of the multi-queue device.")
  in
  let domains_arg =
    Arg.(
      value & opt positive_int 2
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains. The summary is identical for any value: faults \
             are a per-queue function of the seed.")
  in
  let pkts_arg =
    Arg.(
      value & opt non_negative_int 4096
      & info [ "pkts" ] ~docv:"N" ~doc:"Packets to inject.")
  in
  let batch_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "batch" ] ~docv:"N" ~doc:"Harvest burst capacity per queue.")
  in
  let tx_arg =
    Arg.(
      value & opt int 256
      & info [ "tx" ] ~docv:"N"
          ~doc:
            "TX descriptors per queue for the doorbell-loss phase (0 skips \
             it).")
  in
  let intensity_arg =
    Arg.(
      value & opt float 1.0
      & info [ "intensity" ] ~docv:"K"
          ~doc:"Scale every default fault rate by K (clamped to 1).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable summary (schema opendesc-chaos-1); only \
             deterministic fields, so pinned-seed output is bit-reproducible.")
  in
  let rate name doc =
    Arg.(value & opt (some float) None & info [ name ] ~docv:"P" ~doc)
  in
  let flip_arg = rate "flip" "Random bit-flip rate (overrides the default plan)."
  and field_arg = rate "field-corrupt" "Targeted @semantic field corruption rate."
  and torn_arg = rate "torn" "Torn/partial completion write rate."
  and dup_arg = rate "dup" "Duplicated completion rate."
  and reorder_arg = rate "reorder" "Reordered completion rate."
  and stale_arg = rate "stale" "Spurious ring-wraparound (stale slot) rate."
  and stuck_arg = rate "stuck" "Stuck-queue rate."
  and dbl_arg = rate "doorbell-loss" "Lost TX doorbell rate (per posted burst)." in
  let kicks_arg =
    Arg.(
      value & opt int 2
      & info [ "stuck-kicks" ] ~docv:"N"
          ~doc:"Doorbell re-rings needed to unstick a stuck queue.")
  in
  let burst_len_arg =
    Arg.(
      value & opt int 0
      & info [ "burst-len" ] ~docv:"N"
          ~doc:"Faults fire only on the first N injections of every window.")
  in
  let burst_period_arg =
    Arg.(
      value & opt int 0
      & info [ "burst-period" ] ~docv:"N" ~doc:"Burst schedule window length.")
  in
  let plan_term =
    let mk seed intensity flip field torn dup reorder stale stuck dbl kicks blen
        bper =
      let p = F.scale intensity (F.default_plan (Int64.of_int seed)) in
      let ov v d = Option.value v ~default:d in
      {
        p with
        F.flip_rate = ov flip p.F.flip_rate;
        semantic_rate = ov field p.F.semantic_rate;
        torn_rate = ov torn p.F.torn_rate;
        duplicate_rate = ov dup p.F.duplicate_rate;
        reorder_rate = ov reorder p.F.reorder_rate;
        stale_rate = ov stale p.F.stale_rate;
        stuck_rate = ov stuck p.F.stuck_rate;
        doorbell_loss_rate = ov dbl p.F.doorbell_loss_rate;
        stuck_kicks = kicks;
        burst_len = blen;
        burst_period = bper;
      }
    in
    Term.(
      const mk $ seed_arg $ intensity_arg $ flip_arg $ field_arg $ torn_arg
      $ dup_arg $ reorder_arg $ stale_arg $ stuck_arg $ dbl_arg $ kicks_arg
      $ burst_len_arg $ burst_period_arg)
  in
  let digest_of_pkts bs =
    List.fold_left
      (fun crc b -> Softnic.Crc32.digest ~crc b ~pos:0 ~len:(Bytes.length b))
      0xFFFFFFFFl bs
  in
  let run nic semantics intent_file alpha plan queues domains pkts batch tx json
      =
    let registry = Opendesc.Semantic.default () in
    match intent_of_args ~semantics ~intent_file registry with
    | Error e -> fail "%s" e
    | Ok intent -> (
        let models = Nic_models.Catalog.all ~intent () in
        match Nic_models.Catalog.find nic models with
        | None ->
            fail
              "chaos drives the simulated device, so NIC must be a built-in \
               model; try 'opendesc_cc list'"
        | Some model -> (
            match Opendesc.Compile.run ~alpha ~registry ~intent model.spec with
            | Error e -> fail "%s" e
            | Ok compiled -> (
                let mq =
                  Driver.Mq.create ~queue_depth:1024
                    ~configs:(Array.make queues compiled.config)
                    (fun () ->
                      Option.get
                        (Nic_models.Catalog.find nic
                           (Nic_models.Catalog.all ~intent ())))
                in
                match mq with
                | Error e -> fail "%s" e
                | Ok mq ->
                    let r =
                      Driver.Parallel.run ~domains ~batch ~collect:true ~plan
                        ~mq
                        ~stack:(fun _ ->
                          Driver.Hoststacks.opendesc_batched ~compiled)
                        ~pkts
                        ~workload:
                          (Packet.Workload.make ~seed:plan.F.seed
                             Packet.Workload.Imix)
                        ()
                    in
                    let per_queue_faults = Option.get r.faults in
                    let totals =
                      F.counters_sum (Array.to_list per_queue_faults)
                    in
                    let qdigests =
                      Array.map digest_of_pkts (Option.get r.delivered)
                    in
                    let combined =
                      Array.fold_left
                        (fun crc d ->
                          let b = Bytes.create 4 in
                          Bytes.set_int32_le b 0 d;
                          Softnic.Crc32.digest ~crc b ~pos:0 ~len:4)
                        0xFFFFFFFFl qdigests
                    in
                    (* TX phase: sequential per queue, exercising lost
                       doorbells and the bounded kick-retry recovery. *)
                    let tx_counters =
                      Array.init queues (fun q ->
                          let dev = Driver.Mq.queue mq q in
                          let fq = F.wrap ~qid:q plan dev in
                          (match Driver.Device.tx_format dev with
                          | None -> ()
                          | Some fmt ->
                              let addr =
                                Opendesc.Descparser.field_for fmt "buf_addr"
                              in
                              let body =
                                Packet.Builder.raw ~len:64 ~fill:'t'
                              in
                              let remaining = ref tx in
                              while !remaining > 0 do
                                let n = min batch !remaining in
                                let descs =
                                  List.init n (fun i ->
                                      let d =
                                        Bytes.make
                                          (Opendesc.Descparser.size fmt)
                                          '\x00'
                                      in
                                      (match addr with
                                      | Some a ->
                                          Opendesc.Accessor.writer
                                            ~bit_off:a.l_bit_off ~bits:a.l_bits
                                            d
                                            (Int64.of_int (tx - !remaining + i))
                                      | None -> ());
                                      d)
                                in
                                let posted = F.tx_post_batch fq descs in
                                ignore
                                  (F.tx_drain fq ~fetch:(fun _ -> Some body));
                                remaining := !remaining - max 1 posted
                              done);
                          F.counters fq)
                    in
                    let txt = F.counters_sum (Array.to_list tx_counters) in
                    let ok =
                      F.reconciles totals && r.stranded = 0
                      && txt.F.tx_sent = txt.F.tx_posted
                    in
                    if json then begin
                      let by_kind =
                        String.concat ", "
                          (List.map
                             (fun k ->
                               Printf.sprintf "\"%s\": %d" (F.kind_name k)
                                 totals.F.by_kind.(F.kind_index k))
                             F.kinds)
                      in
                      let pq =
                        String.concat ",\n    "
                          (List.init queues (fun q ->
                               let c = per_queue_faults.(q) in
                               Printf.sprintf
                                 "{\"queue\": %d, \"delivered\": %d, \
                                  \"quarantined\": %d, \"digest\": \
                                  \"0x%08lx\"}"
                                 q c.F.delivered c.F.quarantined qdigests.(q)))
                      in
                      Printf.printf
                        "{\n\
                        \  \"schema\": \"opendesc-chaos-1\",\n\
                        \  \"nic\": \"%s\",\n\
                        \  \"seed\": %Ld,\n\
                        \  \"pkts\": %d,\n\
                        \  \"queues\": %d,\n\
                        \  \"plan\": {\"flip\": %g, \"field_corrupt\": %g, \
                         \"torn\": %g, \"duplicate\": %g, \"reorder\": %g, \
                         \"stale_wrap\": %g, \"stuck_queue\": %g, \
                         \"doorbell_loss\": %g, \"stuck_kicks\": %d, \
                         \"burst_len\": %d, \"burst_period\": %d},\n\
                        \  \"rx\": {\"injected\": %d, \"by_kind\": {%s}, \
                         \"contract_violating\": %d, \"detected\": %d, \
                         \"quarantined\": %d, \"quarantine_drops\": %d, \
                         \"delivered\": %d, \"accepted\": %d, \"duplicates\": \
                         %d, \"retries\": %d, \"drops\": %d},\n\
                        \  \"per_queue\": [\n\
                        \    %s\n\
                        \  ],\n\
                        \  \"tx\": {\"posted\": %d, \"sent\": %d, \
                         \"doorbells_lost\": %d, \"retries\": %d},\n\
                        \  \"digest\": \"0x%08lx\",\n\
                        \  \"reconciled\": %b\n\
                         }\n"
                        model.spec.nic_name plan.F.seed pkts queues
                        plan.F.flip_rate plan.F.semantic_rate plan.F.torn_rate
                        plan.F.duplicate_rate plan.F.reorder_rate
                        plan.F.stale_rate plan.F.stuck_rate
                        plan.F.doorbell_loss_rate plan.F.stuck_kicks
                        plan.F.burst_len plan.F.burst_period totals.F.injected
                        by_kind totals.F.contract_violating totals.F.detected
                        totals.F.quarantined totals.F.quarantine_drops
                        totals.F.delivered totals.F.rx_accepted
                        totals.F.duplicates totals.F.retries r.drops pq
                        txt.F.tx_posted txt.F.tx_sent txt.F.doorbells_lost
                        txt.F.retries combined ok
                    end
                    else begin
                      Format.printf "plan: %a@." F.pp_plan plan;
                      Format.printf "%a@." Driver.Stats.pp_table
                        (Array.to_list r.domain_stats @ [ r.stats ]);
                      Printf.printf
                        "faults: %d injected (%s)\n\
                         detection: %d contract-violating, %d detected, %d \
                         quarantined (%d ring drops)\n\
                         delivered: %d (+%d duplicates, %d accepted)  \
                         retries: %d  drops: %d\n\
                         tx: %d posted, %d sent, %d doorbells lost, %d kicks\n\
                         digest: 0x%08lx  reconciled: %b\n"
                        totals.F.injected
                        (String.concat ", "
                           (List.filter_map
                              (fun k ->
                                let n = totals.F.by_kind.(F.kind_index k) in
                                if n = 0 then None
                                else Some (Printf.sprintf "%s %d" (F.kind_name k) n))
                              F.kinds))
                        totals.F.contract_violating totals.F.detected
                        totals.F.quarantined totals.F.quarantine_drops
                        totals.F.delivered totals.F.duplicates
                        totals.F.rx_accepted totals.F.retries r.drops
                        txt.F.tx_posted txt.F.tx_sent txt.F.doorbells_lost
                        txt.F.retries combined ok
                    end;
                    if not ok then
                      fail
                        "chaos run failed to reconcile (stranded=%d, see \
                         summary)"
                        r.stranded
                    else `Ok ())))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-injected datapath: a seeded deterministic plan of \
          descriptor corruption, torn writes, duplicates, reorders, stale \
          wraparounds, stuck queues and lost doorbells, with per-descriptor \
          contract validation and quarantine on the recovery path.")
    Term.(
      ret
        (const run $ nic_arg $ semantics_arg $ intent_arg $ alpha_arg
       $ plan_term $ queues_arg $ domains_arg $ pkts_arg $ batch_arg $ tx_arg
       $ json_arg))

(* --- lint ----------------------------------------------------------- *)

let lint_cmd =
  let module Dg = Opendesc_analysis.Diagnostic in
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NIC|FILE"
          ~doc:
            "Built-in NIC model names or P4 description files (vendor \
             descriptions or intent headers). Default: the whole built-in \
             catalogue.")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "werror" ] ~doc:"Exit non-zero on warnings, not only on errors.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable JSON report (schema opendesc-lint-1).")
  in
  let sarif_arg =
    Arg.(
      value & flag
      & info [ "sarif" ] ~doc:"SARIF 2.1.0 report (for code-review tooling).")
  in
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Also translation-validate the compiled artifacts (OD021–OD023); \
             targets that do not compile are linted as usual and skipped \
             here.")
  in
  let run targets semantics intent_file werror json sarif certify =
    let registry = Opendesc.Semantic.default () in
    let intent =
      match (semantics, intent_file) with
      | None, None -> Ok None
      | _ -> Result.map Option.some (intent_of_args ~semantics ~intent_file registry)
    in
    match intent with
    | Error e -> fail "%s" e
    | Ok intent -> (
        let cat_intent =
          match intent with Some i -> i | None -> Nic_models.Catalog.fig1_intent
        in
        let models = Nic_models.Catalog.all ~intent:cat_intent () in
        (* --certify: append translation-validation findings to a target's
           lints. Best-effort by design — a target that doesn't even load
           or compile already reports its source-level lints above. *)
        let certify_diags name spec_opt =
          if not certify then []
          else
            let spec =
              match spec_opt with
              | Some s -> Some s
              | None ->
                  if Sys.file_exists name then
                    Result.to_option
                      (Opendesc.Nic_spec.load
                         ~name:
                           (Filename.remove_extension (Filename.basename name))
                         ~kind:Opendesc.Nic_spec.Fixed_function
                         (read_file name))
                  else None
            in
            match spec with
            | None -> []
            | Some spec -> (
                match
                  Opendesc.Compile.run ~registry ~intent:cat_intent spec
                with
                | Error _ -> []
                | Ok compiled -> (
                    match Opendesc.Compile.certify compiled with
                    | Ok _ -> []
                    | Error ds -> ds))
        in
        let analyze_target name =
          match Nic_models.Catalog.find name models with
          | Some m ->
              Ok
                ( m.Nic_models.Model.spec.nic_name,
                  Opendesc.Nic_spec.analyze ~registry ?intent m.spec
                  @ certify_diags name (Some m.spec) )
          | None ->
              if Sys.file_exists name then
                Ok
                  ( Filename.remove_extension (Filename.basename name),
                    Opendesc.Nic_spec.analyze_source ~registry ?intent
                      (read_file name)
                    @ certify_diags name None )
              else
                Error
                  (Printf.sprintf
                     "unknown NIC %S (not a built-in model and no such file); \
                      try 'opendesc_cc list'"
                     name)
        in
        let targets =
          match targets with
          | [] ->
              List.map
                (fun (m : Nic_models.Model.t) -> m.spec.nic_name)
                models
          | ts -> ts
        in
        let rec collect acc = function
          | [] -> Ok (List.rev acc)
          | t :: rest -> (
              match analyze_target t with
              | Error e -> Error e
              | Ok r -> collect (r :: acc) rest)
        in
        match collect [] targets with
        | Error e -> fail "%s" e
        | Ok results ->
            let count sev =
              List.fold_left
                (fun n (_, ds) ->
                  n
                  + List.length
                      (List.filter (fun (d : Dg.t) -> d.d_severity = sev) ds))
                0 results
            in
            let errors = count Dg.Error
            and warnings = count Dg.Warning
            and infos = count Dg.Info in
            if sarif then
              print_string
                (Opendesc_analysis.Sarif.of_results
                   ~tool_name:"opendesc_cc lint" results)
            else if json then begin
              let target_json (name, ds) =
                Printf.sprintf "    {\"name\": \"%s\", \"diagnostics\": [%s]}"
                  (Dg.json_escape name)
                  (match ds with
                  | [] -> ""
                  | ds ->
                      "\n      "
                      ^ String.concat ",\n      " (List.map Dg.to_json ds)
                      ^ "\n    ")
              in
              Printf.printf
                "{\n\
                \  \"schema\": \"opendesc-lint-1\",\n\
                \  \"targets\": [\n\
                 %s\n\
                \  ],\n\
                \  \"summary\": {\"errors\": %d, \"warnings\": %d, \"infos\": \
                 %d}\n\
                 }\n"
                (String.concat ",\n" (List.map target_json results))
                errors warnings infos
            end
            else begin
              List.iter
                (fun (name, ds) ->
                  if ds <> [] then begin
                    Printf.printf "%s:\n" name;
                    List.iter
                      (fun d -> Printf.printf "  %s\n" (Dg.to_string d))
                      ds
                  end)
                results;
              Printf.printf
                "checked %d target(s): %d error(s), %d warning(s), %d info(s)\n"
                (List.length results) errors warnings infos
            end;
            if
              Opendesc_analysis.Engine.failing ~werror
                (List.concat_map snd results)
            then exit 1
            else `Ok ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the descriptor-contract verifier: layout safety, path \
          feasibility, contract consistency against the semantic registry, \
          and codegen verification, with structured located diagnostics.")
    Term.(
      ret
        (const run $ targets_arg $ semantics_arg $ intent_arg $ werror_arg
       $ json_arg $ sarif_arg $ certify_arg))

(* --- certify ------------------------------------------------------- *)

let certify_cmd =
  let module Dg = Opendesc_analysis.Diagnostic in
  let module Cert = Opendesc_analysis.Certify in
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NIC|FILE"
          ~doc:
            "Built-in NIC model names or P4 description files. Default: the \
             whole built-in catalogue.")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "werror" ] ~doc:"Exit non-zero on warnings, not only on errors.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable JSON report (schema opendesc-certify-1).")
  in
  let sarif_arg =
    Arg.(
      value & flag
      & info [ "sarif" ] ~doc:"SARIF 2.1.0 report (for code-review tooling).")
  in
  let emit_arg =
    Arg.(
      value & opt (some string) None
      & info [ "emit-certificate" ] ~docv:"FILE"
          ~doc:
            "Write the certificate (format opendesc-cert-1) to $(docv); \
             requires exactly one target.")
  in
  let check_arg =
    Arg.(
      value & opt (some string) None
      & info [ "check-certificate" ] ~docv:"FILE"
          ~doc:
            "Validate a stored certificate against the target's current \
             contract hash (OD024 on mismatch); requires exactly one target.")
  in
  let inject_arg =
    let kinds = List.map Cert.mutation_name Cert.mutations in
    Arg.(
      value & opt (some string) None
      & info [ "inject" ] ~docv:"MUTATION"
          ~doc:
            (Printf.sprintf
               "Inject a miscompilation into the plan before validation and \
                require the validator to reject it (one of %s)."
               (String.concat ", " kinds)))
  in
  (* One certification attempt. [spec_of] so catalog targets go through
     the cache (certificates are memoized and recorded for Evolution)
     while file targets and custom-registry intents go to the compiler
     directly. *)
  let certify_target ~registry ~alpha ~intent ~via_cache spec =
    if via_cache then
      match Opendesc.Cache.certify ~alpha ~intent spec with
      | Ok cert -> Ok cert
      | Error (Opendesc.Cache.Cert_compile_error e) -> Error (`Compile e)
      | Error (Opendesc.Cache.Cert_failed ds) -> Error (`Failed ds)
    else
      match Opendesc.Compile.run ~alpha ~registry ~intent spec with
      | Error e -> Error (`Compile e)
      | Ok compiled -> (
          match Opendesc.Compile.certify compiled with
          | Ok cert -> Ok cert
          | Error ds -> Error (`Failed ds))
  in
  let run targets semantics intent_file alpha werror json sarif emit check
      inject =
    let registry = Opendesc.Semantic.default () in
    let custom_intent = intent_file <> None || semantics <> None in
    let intent =
      if custom_intent then intent_of_args ~semantics ~intent_file registry
      else Ok Nic_models.Catalog.fig1_intent
    in
    match intent with
    | Error e -> fail "%s" e
    | Ok intent -> (
        let models = Nic_models.Catalog.all ~intent () in
        let targets =
          match targets with
          | [] ->
              List.map (fun (m : Nic_models.Model.t) -> m.spec.nic_name) models
          | ts -> ts
        in
        let mutation =
          match inject with
          | None -> Ok None
          | Some k -> (
              match Cert.mutation_of_string k with
              | Some m -> Ok (Some m)
              | None ->
                  Error
                    (Printf.sprintf "unknown mutation %S (one of %s)" k
                       (String.concat ", "
                          (List.map Cert.mutation_name Cert.mutations))))
        in
        match mutation with
        | Error e -> fail "%s" e
        | Ok mutation -> (
            let spec_of name =
              match Nic_models.Catalog.find name models with
              | Some m -> Ok (m.Nic_models.Model.spec, not custom_intent)
              | None ->
                  Result.map
                    (fun s -> (s, false))
                    (load_nic ~intent name)
            in
            let certify_one name =
              match spec_of name with
              | Error e -> Error e
              | Ok (spec, via_cache) -> (
                  match mutation with
                  | None ->
                      Ok
                        ( spec,
                          certify_target ~registry ~alpha ~intent ~via_cache
                            spec )
                  | Some m -> (
                      (* Miscompilation drill: corrupt the plan the way a
                         codegen bug would and demand rejection. *)
                      match Opendesc.Compile.run ~alpha ~registry ~intent spec with
                      | Error e -> Ok (spec, Error (`Compile e))
                      | Ok compiled ->
                          let plan =
                            Cert.inject m (Opendesc.Compile.to_plan compiled)
                          in
                          Ok
                            ( spec,
                              match
                                Cert.check
                                  (Opendesc.Compile.contract compiled)
                                  plan
                              with
                              | Ok cert -> Ok cert
                              | Error ds -> Error (`Failed ds) )))
            in
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | t :: rest -> (
                  match certify_one t with
                  | Error e -> Error e
                  | Ok (spec, r) -> collect ((t, spec, r) :: acc) rest)
            in
            match collect [] targets with
            | Error e -> fail "%s" e
            | Ok results -> (
                match (mutation, emit, check) with
                | Some m, _, _ ->
                    (* Every injected plan must be rejected, with one of the
                       mutation's expected codes among the diagnostics. *)
                    let expected = Cert.expected_codes m in
                    let bad =
                      List.filter_map
                        (fun (name, _, r) ->
                          match r with
                          | Ok _ ->
                              Some
                                (Printf.sprintf
                                   "%s: injected %s was NOT caught" name
                                   (Cert.mutation_name m))
                          | Error (`Compile e) ->
                              Some (Printf.sprintf "%s: compile error: %s" name e)
                          | Error (`Failed ds) ->
                              if
                                List.exists
                                  (fun (d : Dg.t) ->
                                    List.mem d.d_code expected)
                                  ds
                              then None
                              else
                                Some
                                  (Printf.sprintf
                                     "%s: rejected, but none of [%s] fired \
                                      (got %s)"
                                     name
                                     (String.concat "; " expected)
                                     (String.concat ", "
                                        (List.sort_uniq Stdlib.compare
                                           (List.map
                                              (fun (d : Dg.t) -> d.d_code)
                                              ds)))))
                        results
                    in
                    if bad = [] then begin
                      List.iter
                        (fun (name, _, r) ->
                          let codes =
                            match r with
                            | Error (`Failed ds) ->
                                List.sort_uniq Stdlib.compare
                                  (List.map (fun (d : Dg.t) -> d.d_code) ds)
                            | _ -> []
                          in
                          Printf.printf "%s: injected %s rejected (%s)\n" name
                            (Cert.mutation_name m)
                            (String.concat ", " codes))
                        results;
                      `Ok ()
                    end
                    else fail "%s" (String.concat "\n" bad)
                | None, Some path, _ -> (
                    match results with
                    | [ (_, _, Ok cert) ] ->
                        let oc = open_out path in
                        Fun.protect
                          ~finally:(fun () -> close_out oc)
                          (fun () -> output_string oc (Cert.to_text cert));
                        Printf.printf
                          "wrote certificate for %s (contract %s) to %s\n"
                          cert.c_nic
                          (String.sub cert.c_contract 0 12)
                          path;
                        `Ok ()
                    | [ (name, _, Error (`Compile e)) ] ->
                        fail "%s: %s" name e
                    | [ (name, _, Error (`Failed ds)) ] ->
                        List.iter
                          (fun d -> Printf.printf "%s\n" (Dg.to_string d))
                          ds;
                        fail "%s: certification failed; no certificate to emit"
                          name
                    | _ ->
                        fail "--emit-certificate requires exactly one target")
                | None, None, Some path -> (
                    match results with
                    | [ (name, spec, _) ] -> (
                        match Cert.of_text (read_file path) with
                        | Error e -> fail "%s: %s" path e
                        | Ok cert -> (
                            let current = Opendesc.Compile.contract_hash spec in
                            match Cert.validate cert ~contract_hash:current with
                            | [] ->
                                Printf.printf
                                  "%s: certificate fresh (contract %s, path \
                                   #%d, %d obligation(s))\n"
                                  name
                                  (String.sub cert.c_contract 0 12)
                                  cert.c_path_index cert.c_obligations;
                                `Ok ()
                            | ds ->
                                List.iter
                                  (fun d ->
                                    Printf.printf "%s\n" (Dg.to_string d))
                                  ds;
                                exit 1))
                    | _ ->
                        fail "--check-certificate requires exactly one target")
                | None, None, None ->
                    let diags_of = function
                      | Ok _ | Error (`Compile _) -> []
                      | Error (`Failed ds) -> ds
                    in
                    let all_diags =
                      List.concat_map (fun (_, _, r) -> diags_of r) results
                    in
                    if sarif then
                      print_string
                        (Opendesc_analysis.Sarif.of_results
                           ~tool_name:"opendesc_cc certify"
                           (List.map
                              (fun (name, _, r) -> (name, diags_of r))
                              results))
                    else if json then begin
                      let target_json (name, _, r) =
                        match r with
                        | Ok (cert : Cert.certificate) ->
                            Printf.sprintf
                              "    {\"name\": \"%s\", \"status\": \
                               \"certified\", \"certificate\": %s}"
                              (Dg.json_escape name)
                              (Cert.certificate_json cert)
                        | Error (`Compile e) ->
                            Printf.sprintf
                              "    {\"name\": \"%s\", \"status\": \
                               \"compile_error\", \"error\": \"%s\"}"
                              (Dg.json_escape name) (Dg.json_escape e)
                        | Error (`Failed ds) ->
                            Printf.sprintf
                              "    {\"name\": \"%s\", \"status\": \"failed\", \
                               \"diagnostics\": [%s]}"
                              (Dg.json_escape name)
                              (String.concat ", " (List.map Dg.to_json ds))
                      in
                      let certified =
                        List.length
                          (List.filter
                             (fun (_, _, r) -> Result.is_ok r)
                             results)
                      in
                      Printf.printf
                        "{\n\
                        \  \"schema\": \"opendesc-certify-1\",\n\
                        \  \"targets\": [\n\
                         %s\n\
                        \  ],\n\
                        \  \"summary\": {\"certified\": %d, \"failed\": %d}\n\
                         }\n"
                        (String.concat ",\n" (List.map target_json results))
                        certified
                        (List.length results - certified)
                    end
                    else
                      List.iter
                        (fun (name, _, r) ->
                          match r with
                          | Ok (cert : Cert.certificate) ->
                              Printf.printf
                                "%s: certified path #%d (%dB, %d \
                                 obligation(s), %d read(s), contract %s)\n"
                                name cert.c_path_index cert.c_size_bytes
                                cert.c_obligations
                                (List.length cert.c_reads)
                                (String.sub cert.c_contract 0 12)
                          | Error (`Compile e) ->
                              Printf.printf "%s: compile error: %s\n" name e
                          | Error (`Failed ds) ->
                              Printf.printf "%s: certification FAILED\n" name;
                              List.iter
                                (fun d ->
                                  Printf.printf "  %s\n" (Dg.to_string d))
                                ds)
                        results;
                    let compile_errors =
                      List.exists
                        (fun (_, _, r) ->
                          match r with Error (`Compile _) -> true | _ -> false)
                        results
                    in
                    if
                      Opendesc_analysis.Engine.failing ~werror all_diags
                      || compile_errors
                    then exit 1
                    else `Ok ())))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Translation-validate compiled artifacts: prove each accessor plan \
          and the shim schedule agree byte-for-byte with the deparser \
          contract on every feasible completion path, and mint a certificate \
          keyed by the contract hash."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "For every target the compiler's output — per-path accessor \
              offset/mask/shift chains and the SoftNIC shim schedule chosen \
              by the cost model — is lifted into a small codegen IR and \
              symbolically executed against the deparser on every feasible \
              completion run the programmed configuration selects. \
              Violations are located lints: OD021 (plan/deparser value \
              mismatch), OD022 (uncovered required semantic), OD023 \
              (cross-path accessor confusion), OD024 (stale certificate). \
              See docs/CERTIFICATION.md.";
         ])
    Term.(
      ret
        (const run $ targets_arg $ semantics_arg $ intent_arg $ alpha_arg
       $ werror_arg $ json_arg $ sarif_arg $ emit_arg $ check_arg $ inject_arg))

(* --- cost ---------------------------------------------------------- *)

let cost_cmd =
  let module Dg = Opendesc_analysis.Diagnostic in
  let module Cb = Opendesc_analysis.Costbound in
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NIC|FILE"
          ~doc:
            "Built-in NIC model names or P4 description files. Default: the \
             whole built-in catalogue.")
  in
  let werror_arg =
    Arg.(
      value & flag
      & info [ "werror" ] ~doc:"Exit non-zero on warnings, not only on errors.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable JSON report (schema opendesc-cost-1).")
  in
  let sarif_arg =
    Arg.(
      value & flag
      & info [ "sarif" ] ~doc:"SARIF 2.1.0 report (for code-review tooling).")
  in
  let budget_arg =
    Arg.(
      value & opt (some float) None
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:
            "Decode-cost budget in cycles/pkt; overrides any \
             @budget(<cycles>) on the intent header (OD025 when the \
             provable bound exceeds it).")
  in
  let table_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cost-table" ] ~docv:"JSON"
          ~doc:
            "Cost-table file (schema opendesc-cost-table-1); known keys \
             override the built-in mirror of the driver cost model.")
  in
  let inject_arg =
    let kinds = List.map Cb.mutation_name Cb.mutations in
    Arg.(
      value & opt (some string) None
      & info [ "inject" ] ~docv:"MUTATION"
          ~doc:
            (Printf.sprintf
               "Inject a cost regression into the deployment before analysis \
                and require the expected code to fire (one of %s)."
               (String.concat ", " kinds)))
  in
  let run targets semantics intent_file alpha budget table_file werror json
      sarif inject =
    let registry = Opendesc.Semantic.default () in
    let custom_intent = intent_file <> None || semantics <> None in
    let intent =
      if custom_intent then intent_of_args ~semantics ~intent_file registry
      else Ok Nic_models.Catalog.fig1_intent
    in
    let table =
      match table_file with
      | None -> Ok Cb.default_table
      | Some f -> (
          match Cb.table_of_json (read_file f) with
          | Ok t -> Ok t
          | Error e -> Error (Printf.sprintf "%s: %s" f e))
    in
    match (intent, table) with
    | Error e, _ | _, Error e -> fail "%s" e
    | Ok intent, Ok table -> (
        let models = Nic_models.Catalog.all ~intent () in
        let targets =
          match targets with
          | [] ->
              List.map (fun (m : Nic_models.Model.t) -> m.spec.nic_name) models
          | ts -> ts
        in
        let mutation =
          match inject with
          | None -> Ok None
          | Some k -> (
              match Cb.mutation_of_string k with
              | Some m -> Ok (Some m)
              | None ->
                  Error
                    (Printf.sprintf "unknown mutation %S (one of %s)" k
                       (String.concat ", "
                          (List.map Cb.mutation_name Cb.mutations))))
        in
        match mutation with
        | Error e -> fail "%s" e
        | Ok mutation -> (
            let spec_of name =
              match Nic_models.Catalog.find name models with
              | Some m -> Ok m.Nic_models.Model.spec
              | None -> load_nic ~intent name
            in
            (* The budget the analysis gates against: the CLI bound wins,
               else the intent's own @budget(<cycles>). *)
            let declared_budget =
              match budget with
              | Some _ -> budget
              | None -> intent.Opendesc.Intent.budget
            in
            let cost_one name =
              match spec_of name with
              | Error e -> Error e
              | Ok spec -> (
                  match Opendesc.Compile.run ~alpha ~registry ~intent spec with
                  | Error e -> Ok (name, Error e)
                  | Ok compiled ->
                      let contract = Opendesc.Compile.contract compiled in
                      let plan = Opendesc.Compile.to_plan compiled in
                      let report =
                        match mutation with
                        | None ->
                            Cb.analyze ~table ?budget:declared_budget contract
                              plan
                        | Some m ->
                            let drill = Cb.inject ~table m plan in
                            let budget =
                              match drill.Cb.dr_budget with
                              | Some _ as b -> b
                              | None -> declared_budget
                            in
                            Cb.analyze ~table ?budget
                              ?baseline:drill.Cb.dr_baseline contract
                              drill.Cb.dr_plan
                      in
                      Ok (name, Ok report))
            in
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | t :: rest -> (
                  match cost_one t with
                  | Error e -> Error e
                  | Ok r -> collect (r :: acc) rest)
            in
            match collect [] targets with
            | Error e -> fail "%s" e
            | Ok results -> (
                match mutation with
                | Some m ->
                    (* Every drilled deployment must raise one of the
                       mutation's expected codes (code presence, not exit
                       status: OD027 is informational by design). *)
                    let expected = Cb.expected_codes m in
                    let bad =
                      List.filter_map
                        (fun (name, r) ->
                          match r with
                          | Error e ->
                              Some (Printf.sprintf "%s: compile error: %s" name e)
                          | Ok (report : Cb.report) ->
                              if
                                List.exists
                                  (fun (d : Dg.t) -> List.mem d.d_code expected)
                                  report.r_diags
                              then None
                              else
                                Some
                                  (Printf.sprintf
                                     "%s: injected %s did NOT raise any of \
                                      [%s] (got %s)"
                                     name (Cb.mutation_name m)
                                     (String.concat "; " expected)
                                     (match report.r_diags with
                                     | [] -> "no findings"
                                     | ds ->
                                         String.concat ", "
                                           (List.sort_uniq Stdlib.compare
                                              (List.map
                                                 (fun (d : Dg.t) -> d.d_code)
                                                 ds)))))
                        results
                    in
                    if bad = [] then begin
                      List.iter
                        (fun (name, r) ->
                          let codes =
                            match r with
                            | Ok (report : Cb.report) ->
                                List.sort_uniq Stdlib.compare
                                  (List.map
                                     (fun (d : Dg.t) -> d.d_code)
                                     report.r_diags)
                            | Error _ -> []
                          in
                          Printf.printf "%s: injected %s flagged (%s)\n" name
                            (Cb.mutation_name m)
                            (String.concat ", " codes))
                        results;
                      `Ok ()
                    end
                    else fail "%s" (String.concat "\n" bad)
                | None ->
                    let diags_of = function
                      | Error _ -> []
                      | Ok (r : Cb.report) -> r.r_diags
                    in
                    let all_diags =
                      List.concat_map (fun (_, r) -> diags_of r) results
                    in
                    if sarif then
                      print_string
                        (Opendesc_analysis.Sarif.of_results
                           ~tool_name:"opendesc_cc cost"
                           (List.map
                              (fun (name, r) -> (name, diags_of r))
                              results))
                    else if json then begin
                      let opt_float key = function
                        | None -> ""
                        | Some v -> Printf.sprintf ", \"%s\": %.1f" key v
                      in
                      let path_json (p : Cb.path_cost) =
                        Printf.sprintf
                          "{\"path\": %d, \"size_bytes\": %d, \"lines\": %d, \
                           \"serves\": %b, \"hw\": [%s], \"shimmed\": [%s], \
                           \"bound\": %.1f}"
                          p.pc_index p.pc_size_bytes p.pc_lines p.pc_serves
                          (String.concat ", "
                             (List.map
                                (fun s -> Printf.sprintf "\"%s\"" (Dg.json_escape s))
                                p.pc_hw))
                          (String.concat ", "
                             (List.map
                                (fun s -> Printf.sprintf "\"%s\"" (Dg.json_escape s))
                                p.pc_shimmed))
                          p.pc_bound
                      in
                      let target_json (name, r) =
                        match r with
                        | Error e ->
                            Printf.sprintf
                              "    {\"name\": \"%s\", \"status\": \
                               \"compile_error\", \"error\": \"%s\"}"
                              (Dg.json_escape name) (Dg.json_escape e)
                        | Ok (report : Cb.report) ->
                            let c = report.r_cost in
                            Printf.sprintf
                              "    {\"name\": \"%s\", \"status\": \"%s\", \
                               \"cost\": {\"path\": %d, \"size_bytes\": %d, \
                               \"lines\": %d, \"distinct_lines\": %d, \
                               \"hw_reads\": %d, \"shim_cycles\": %.1f, \
                               \"bound\": %.1f%s%s}, \"paths\": [%s], \
                               \"diagnostics\": [%s]}"
                              (Dg.json_escape name)
                              (if
                                 Opendesc_analysis.Engine.failing ~werror:false
                                   report.r_diags
                               then "over_budget"
                               else "bounded")
                              c.co_path_index c.co_size_bytes c.co_lines
                              c.co_distinct_lines c.co_hw_reads
                              c.co_shim_cycles c.co_bound
                              (opt_float "budget" c.co_budget)
                              (opt_float "baseline" c.co_baseline)
                              (String.concat ", "
                                 (List.map path_json report.r_paths))
                              (String.concat ", "
                                 (List.map Dg.to_json report.r_diags))
                      in
                      let bounded =
                        List.length
                          (List.filter
                             (fun (_, r) ->
                               match r with
                               | Ok (rep : Cb.report) ->
                                   not
                                     (Opendesc_analysis.Engine.failing
                                        ~werror:false rep.r_diags)
                               | Error _ -> false)
                             results)
                      in
                      Printf.printf
                        "{\n\
                        \  \"schema\": \"opendesc-cost-1\",\n\
                        \  \"targets\": [\n\
                         %s\n\
                        \  ],\n\
                        \  \"summary\": {\"bounded\": %d, \"flagged\": %d}\n\
                         }\n"
                        (String.concat ",\n" (List.map target_json results))
                        bounded
                        (List.length results - bounded)
                    end
                    else
                      List.iter
                        (fun (name, r) ->
                          match r with
                          | Error e ->
                              Printf.printf "%s: compile error: %s\n" name e
                          | Ok (report : Cb.report) ->
                              let c = report.Cb.r_cost in
                              Printf.printf
                                "%s: path #%d bound %.1f cycles/pkt (%dB, %d \
                                 line(s), %d distinct, %d hw read(s), %.1f \
                                 shim cycles)%s\n"
                                name c.Cb.co_path_index c.Cb.co_bound
                                c.Cb.co_size_bytes c.Cb.co_lines
                                c.Cb.co_distinct_lines c.Cb.co_hw_reads
                                c.Cb.co_shim_cycles
                                (match c.Cb.co_budget with
                                | Some b -> Printf.sprintf " budget %.1f" b
                                | None -> "");
                              List.iter
                                (fun (p : Cb.path_cost) ->
                                  Printf.printf
                                    "  path #%d: %.1f cycles/pkt%s hw={%s} \
                                     shims={%s}\n"
                                    p.pc_index p.pc_bound
                                    (if p.pc_serves then "" else " (cannot serve)")
                                    (String.concat "," p.pc_hw)
                                    (String.concat "," p.pc_shimmed))
                                report.Cb.r_paths;
                              List.iter
                                (fun d ->
                                  Printf.printf "  %s\n" (Dg.to_string d))
                                report.Cb.r_diags)
                        results;
                    let compile_errors =
                      List.exists
                        (fun (_, r) -> Result.is_error r)
                        results
                    in
                    if
                      Opendesc_analysis.Engine.failing ~werror all_diags
                      || compile_errors
                    then exit 1
                    else `Ok ())))
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:
         "Static worst-case decode cost certification: a provable cycles/pkt \
          upper bound per feasible completion path and served intent, priced \
          against a serializable mirror of the driver cost model and gated \
          against declared budgets."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "For every target the compiled accessor plans and SoftNIC shim \
              schedule are priced over the feasibility-pruned completion \
              catalogue: cache-line loads from the record footprint, op \
              costs from the cost table, worst case maximized over the runs \
              the programmed configuration selects. Findings: OD025 (bound \
              over budget), OD026 (cost regression vs a baseline), OD027 \
              (another feasible path serves the intent strictly cheaper), \
              OD028 (bitwalk with no static bound). The cost_bound bench \
              cross-validates the bound against the runtime ledger. See \
              docs/COSTMODEL.md.";
         ])
    Term.(
      ret
        (const run $ targets_arg $ semantics_arg $ intent_arg $ alpha_arg
       $ budget_arg $ table_arg $ werror_arg $ json_arg $ sarif_arg
       $ inject_arg))

(* --- fuzz ---------------------------------------------------------- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Campaign seed. Every spec, every random descriptor and every \
                shrink replays bit-for-bit from it.")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of specs to generate.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable JSON report (schema opendesc-fuzz-1).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write every generated spec to $(docv)/<name>.p4 (how \
                corpus fixtures are minted).")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 200
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Oracle evaluations the shrinker may spend per failure.")
  in
  let negative_arg =
    Arg.(
      value & flag
      & info [ "negative" ]
          ~doc:
            "Near-miss mode: mutate each generated spec just past a \
             contract boundary (duplicate emit, undersized slot, unknown \
             or over-wide semantic, budget below the proved cost bound) \
             and assert the specific OD code fires.")
  in
  let run seed count json out shrink_budget negative =
    if negative then begin
      let report =
        Opendesc_fuzz.Negative.run ~seed:(Int64.of_int seed) ~count ()
      in
      if json then print_endline (Opendesc_fuzz.Negative.to_json report)
      else print_string (Opendesc_fuzz.Negative.summary report);
      match Opendesc_fuzz.Negative.failed report with
      | [] -> `Ok ()
      | fs ->
          `Error
            ( false,
              Printf.sprintf
                "%d of %d near-miss mutations did not raise their expected \
                 lint"
                (List.length fs)
                (List.length report.ng_cases) )
    end
    else
    let on_spec =
      Option.map
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          fun _ (sp : Opendesc_fuzz.Spec.t) src ->
            let path = Filename.concat dir (sp.sp_name ^ ".p4") in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc src))
        out
    in
    let report =
      Opendesc_fuzz.Campaign.run ?on_spec ~shrink_budget
        ~seed:(Int64.of_int seed) ~count ()
    in
    if json then print_endline (Opendesc_fuzz.Campaign.to_json report)
    else print_string (Opendesc_fuzz.Campaign.summary report);
    if report.cp_failures = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%d of %d fuzzed specs failed the differential property"
            (List.length report.cp_failures) count )
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential-fuzz the toolchain with generated deparser specs."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generates random-but-valid NIC descriptions from a seeded \
              grammar and pushes each through the full stack: typecheck, \
              lint, symbolic-execution soundness, compile, translation \
              validation of the compiled plan, and a three-way \
              byte-identical decode of random and device-emitted completion \
              records, plus a pretty-print/reparse fixpoint. Failing specs \
              are greedily shrunk to minimal counterexamples. With \
              $(b,--negative), each spec is instead mutated just past a \
              contract boundary and the analyzer must raise the matching \
              lint.";
         ])
    Term.(
      ret
        (const run $ seed_arg $ count_arg $ json_arg $ out_arg
       $ shrink_budget_arg $ negative_arg))

(* --- upgrade ------------------------------------------------------- *)

let upgrade_cmd =
  let module U = Driver.Upgrade in
  let old_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NIC"
          ~doc:"The running revision: built-in model name or P4 file.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW"
          ~doc:"The candidate revision: built-in model name or P4 file.")
  in
  let queues_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "queues" ] ~docv:"N" ~doc:"Queue count of the multi-queue device.")
  in
  let domains_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains. 1 (the default) runs the deterministic \
             interleaved engine whose output is bit-reproducible from the \
             seed; >1 runs the domain-parallel epoch protocol.")
  in
  let pkts_arg =
    Arg.(
      value & opt non_negative_int 4096
      & info [ "pkts" ] ~docv:"N" ~doc:"Packets to stream across the swap.")
  in
  let at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"N"
          ~doc:"Packet count at which the swap is requested (default pkts/2).")
  in
  let batch_arg =
    Arg.(
      value & opt positive_int 32
      & info [ "batch" ] ~docv:"N" ~doc:"Harvest burst capacity per queue.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Workload and fault-plan seed: the run replays from this integer.")
  in
  let intensity_arg =
    Arg.(
      value & opt float 1.0
      & info [ "intensity" ] ~docv:"K"
          ~doc:"Scale every default chaos fault rate by K (clamped to 1).")
  in
  let no_chaos_arg =
    Arg.(
      value & flag
      & info [ "no-chaos" ]
          ~doc:"Stream fault-free (the fault layer still accounts packets).")
  in
  let dry_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Classification and certificate gate only: report what the swap \
             would do without standing up a datapath.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable outcome (schema opendesc-upgrade-2); \
             deterministic fields plus the measured producer quiesce pause \
             (pause_s), so pinned-seed output is bit-reproducible once \
             pause_s is filtered.")
  in
  let drill_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "drill" ] ~docv:"D"
          ~doc:
            "Certificate-gate failure drill: $(b,stale) (only the old \
             revision's certificate is held), $(b,missing) (no certificate \
             at all), or $(b,inject:MUT) (mutate the regenerated plan so \
             certification fails; MUT as in 'certify --inject').")
  in
  let run old_name new_name semantics intent_file alpha queues domains pkts at
      batch seed intensity no_chaos dry json drill_s =
    let registry = Opendesc.Semantic.default () in
    (* The canonical deployment intent: an RSS consumer. *)
    let semantics =
      match (semantics, intent_file) with
      | None, None -> Some "rss,pkt_len"
      | _ -> semantics
    in
    match intent_of_args ~semantics ~intent_file registry with
    | Error e -> fail "%s" e
    | Ok intent -> (
        let drill =
          match drill_s with
          | None -> Ok None
          | Some s -> (
              match U.drill_of_string s with
              | Some d -> Ok (Some d)
              | None ->
                  Error
                    (Printf.sprintf
                       "unknown drill %S (stale | missing | inject:<mutation>)"
                       s))
        in
        match drill with
        | Error e -> fail "%s" e
        | Ok drill -> (
            match
              (load_nic ~intent old_name, load_nic ~intent new_name)
            with
            | Error e, _ | _, Error e -> fail "%s" e
            | Ok old_spec, Ok new_spec -> (
                let outcome =
                  if dry then
                    U.dry_run ~alpha ?drill ~intent ~old_spec ~new_spec ()
                  else
                    let seed64 = Int64.of_int seed in
                    let plan =
                      if no_chaos then Driver.Fault.zero_plan seed64
                      else
                        Driver.Fault.scale intensity
                          (Driver.Fault.default_plan seed64)
                    in
                    U.run ~queues ~domains ~batch ~pkts ?at ~seed:seed64
                      ~plan ~alpha ?drill ~intent ~old_spec ~new_spec ()
                in
                match outcome with
                | Error e -> fail "%s" e
                | Ok o ->
                    if json then print_endline (U.to_json o)
                    else Format.printf "%a" U.pp o;
                    let clean =
                      o.U.o_lost = 0 && o.U.o_reconciled && o.U.o_torn = 0
                      && o.U.o_upgrade_errors = 0
                    in
                    if o.U.o_dry then `Ok ()
                    else (
                      match o.U.o_action with
                      | U.Applied when clean -> `Ok ()
                      | U.Applied ->
                          prerr_endline
                            "opendesc_cc: swap applied but packet accounting \
                             failed";
                          exit 1
                      | U.Refused r ->
                          prerr_endline ("opendesc_cc: swap refused: " ^ r);
                          exit 1
                      | U.Quarantined ->
                          Printf.eprintf
                            "opendesc_cc: breaking change quarantined: %d \
                             delivered, %d quarantined, %d withheld, lost %d\n"
                            o.U.o_delivered o.U.o_quarantined o.U.o_withheld
                            o.U.o_lost;
                          exit 1))))
  in
  Cmd.v
    (Cmd.info "upgrade"
       ~doc:
         "Live contract hot-swap: stream packets through a running datapath \
          on the old revision, classify the new revision's diff against the \
          deployment's served intent, and apply / refuse / quarantine the \
          swap at a quiescent point with every packet accounted."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Transparent changes apply immediately; recompile-class changes \
              recompile in the background and swap only under a \
              translation-validation certificate that is fresh against the \
              new contract hash (stale or missing certificates refuse the \
              swap, leaving the datapath on the old revision); breaking \
              changes drain in-flight completions and quarantine the \
              transition. Exit status is non-zero unless the swap applied \
              with zero packet loss and exact counter reconciliation.";
         ])
    Term.(
      ret
        (const run $ old_arg $ new_arg $ semantics_arg $ intent_arg
       $ alpha_arg $ queues_arg $ domains_arg $ pkts_arg $ at_arg $ batch_arg
       $ seed_arg $ intensity_arg $ no_chaos_arg $ dry_arg $ json_arg
       $ drill_arg))

(* --- shims --------------------------------------------------------- *)

let shims_cmd =
  let run () =
    print_endline
      "Reference P4 implementations (interpreted as SoftNIC shims when a\n\
       semantic is missing from the selected completion path):\n";
    let flow =
      Packet.Fivetuple.make ~src_ip:0x0a000001l ~dst_ip:0xc0a80001l ~src_port:1042
        ~dst_port:80 ~proto:6
    in
    let pkt =
      Packet.Builder.ipv4 ~vlan:100 ~ip_id:7 ~flow
        (Packet.Builder.Tcp { seq = 1l; flags = 0x10 })
    in
    Printf.printf "%-12s %-10s (on a sample vlan-tagged TCP packet)\n" "semantic"
      "value";
    List.iter
      (fun sem ->
        match Opendesc.Refimpl.interpret sem with
        | Ok f -> Printf.printf "%-12s %-10Ld\n" sem (f pkt)
        | Error e -> Printf.printf "%-12s error: %s\n" sem e)
      Opendesc.Refimpl.p4_semantics;
    print_endline "\nReference P4 source:";
    print_string Opendesc.Refimpl.source;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "shims"
       ~doc:"Show the reference P4 feature implementations and interpret them.")
    Term.(ret (const run $ const ()))

let main =
  let doc = "the OpenDesc prototype compiler" in
  Cmd.group
    (Cmd.info "opendesc_cc" ~version:"0.1.0" ~doc)
    [
      list_cmd; paths_cmd; cfg_cmd; compile_cmd; placement_cmd; validate_cmd;
      diff_cmd; parallel_cmd; chaos_cmd; lint_cmd; certify_cmd; cost_cmd;
      fuzz_cmd; upgrade_cmd; shims_cmd;
    ]

let () = exit (Cmd.eval main)
