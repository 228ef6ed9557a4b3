(* Hitless contract evolution: the control plane over the epoch-based
   hot-swap. Classification and the certificate gate run here; the
   datapath mechanics (quiescent points, in-place device upgrade, fault
   rebinding) live in Parallel.hot_swap, Parallel.install and the
   sequential interleaved engine below. See docs/UPGRADE.md. *)

module Ev = Opendesc_analysis.Evolution
module Certify = Opendesc_analysis.Certify

(* ------------------------------------------------------------------ *)
(* Drills                                                             *)

type drill = Drill_stale | Drill_missing | Drill_inject of Certify.mutation

let drill_of_string s =
  match s with
  | "stale" -> Some Drill_stale
  | "missing" -> Some Drill_missing
  | _ ->
      if String.length s > 7 && String.sub s 0 7 = "inject:" then
        match
          Certify.mutation_of_string
            (String.sub s 7 (String.length s - 7))
        with
        | Some m -> Some (Drill_inject m)
        | None -> None
      else None

(* ------------------------------------------------------------------ *)
(* Verdicts                                                           *)

type cert_verdict =
  | Cv_not_required
  | Cv_fresh of string
  | Cv_stale of { held : string; current : string }
  | Cv_missing of string
  | Cv_failed of string list

let cert_verdict_name = function
  | Cv_not_required -> "not_required"
  | Cv_fresh _ -> "fresh"
  | Cv_stale _ -> "stale"
  | Cv_missing _ -> "missing"
  | Cv_failed _ -> "failed"

type action = Applied | Refused of string | Quarantined

let action_name = function
  | Applied -> "applied"
  | Refused _ -> "refused"
  | Quarantined -> "quarantined"

type outcome = {
  o_nic : string;
  o_from : string;
  o_to : string;
  o_intent : string list;
  o_full_class : Ev.klass;
  o_class : Ev.klass;
  o_entries : int;
  o_effective : int;
  o_active_path : int;
  o_cert : cert_verdict;
  o_action : action;
  o_dry : bool;
  o_epoch : int;
  o_domains : int;
  o_queues : int;
  o_pkts : int;
  o_at : int;
  o_inflight : int;
  o_pre_delivered : int;
  o_post_delivered : int;
  o_delivered : int;
  o_quarantined : int;
  o_accepted : int;
  o_duplicates : int;
  o_withheld : int;
  o_drops : int;
  o_lost : int;
  o_reconciled : bool;
  o_torn : int;
  o_upgrade_errors : int;
  o_wall_s : float;
  o_latency_s : float;
  o_pause_s : float;
  o_faults : Fault.counters;
  o_post_pairs : (bytes * bytes) list array option;
  o_compiled_new : Opendesc.Compile.t option;
}

(* ------------------------------------------------------------------ *)
(* Classification: the deployment filter                              *)

let effective_entries ~served ~active (report : Ev.report) =
  List.filter
    (fun (e : Ev.entry) ->
      (match e.e_old_path with None -> true | Some p -> p = active)
      && match e.e_semantic with None -> true | Some s -> List.mem s served)
    report.r_entries

(* ------------------------------------------------------------------ *)
(* The decision pipeline                                              *)

type decision = {
  dc_full : Ev.klass;
  dc_class : Ev.klass;
  dc_entries : int;
  dc_effective : int;
  dc_cert : cert_verdict;
  dc_verdict : [ `Apply | `Refuse of string | `Quarantine ];
  dc_compiled : Opendesc.Compile.t option;
  dc_branded : Opendesc.Nic_spec.t;
}

let codes diags =
  List.sort_uniq compare
    (List.map
       (fun (d : Opendesc_analysis.Diagnostic.t) -> d.d_code)
       diags)

let decide ?alpha ?drill ~intent ~(old_spec : Opendesc.Nic_spec.t)
    ~(new_spec : Opendesc.Nic_spec.t) ~active () =
  (* Certificate identity is deployment identity: queries run against
     the new contract under the running device's name, so the held
     certificate (proved for rev A) is judged against rev B's hash. *)
  let branded = { new_spec with nic_name = old_spec.nic_name } in
  let report = Opendesc.Nic_diff.check old_spec new_spec in
  let full = Ev.worst report in
  let served = List.sort_uniq compare (Opendesc.Intent.required intent) in
  let eff = effective_entries ~served ~active report in
  let klass =
    List.fold_left
      (fun a (e : Ev.entry) ->
        if Ev.class_rank e.e_class > Ev.class_rank a then e.e_class else a)
      Ev.Transparent eff
  in
  (* Drills force the held-certificate state to be a pure function of
     the drill, independent of what earlier compilations in this
     process may have certified. *)
  (match drill with
  | Some Drill_stale ->
      Opendesc.Cache.clear ();
      ignore (Opendesc.Cache.certify ?alpha ~intent old_spec)
  | Some Drill_missing -> Opendesc.Cache.clear ()
  | Some (Drill_inject _) | None -> ());
  let compiled =
    match Opendesc.Cache.run ?alpha ~intent branded with
    | Ok c -> Some c
    | Error _ -> None
  in
  let current = Opendesc.Cache.contract_hash_of branded in
  let cert, verdict =
    match (klass, compiled) with
    | Ev.Breaking, _ -> (Cv_not_required, `Quarantine)
    | _, None ->
        ( (if klass = Ev.Recompile then Cv_missing current
           else Cv_not_required),
          `Refuse "new revision does not compile under the served intent" )
    | Ev.Transparent, Some _ -> (Cv_not_required, `Apply)
    | Ev.Recompile, Some c -> (
        match drill with
        | Some (Drill_stale | Drill_missing) -> (
            match Opendesc.Cache.certificate_status ?alpha ~intent branded with
            | Opendesc.Cache.Cert_fresh cert ->
                (Cv_fresh cert.Certify.c_contract, `Apply)
            | Opendesc.Cache.Cert_stale held ->
                ( Cv_stale { held = held.Certify.c_contract; current },
                  `Refuse
                    "certificate is stale: proved against the old contract" )
            | Opendesc.Cache.Cert_missing ->
                ( Cv_missing current,
                  `Refuse "no certificate held for the new contract" ))
        | Some (Drill_inject m) -> (
            let plan = Certify.inject m (Opendesc.Compile.to_plan c) in
            match Certify.check (Opendesc.Compile.contract c) plan with
            | Ok cert -> (Cv_fresh cert.Certify.c_contract, `Apply)
            | Error diags ->
                ( Cv_failed (codes diags),
                  `Refuse
                    "certification failed: the regenerated accessor plan \
                     does not validate" ))
        | None -> (
            match Opendesc.Cache.certify ?alpha ~intent branded with
            | Ok cert -> (Cv_fresh cert.Certify.c_contract, `Apply)
            | Error (Opendesc.Cache.Cert_compile_error e) ->
                (Cv_missing current, `Refuse ("recompile failed: " ^ e))
            | Error (Opendesc.Cache.Cert_failed diags) ->
                ( Cv_failed (codes diags),
                  `Refuse
                    "certification failed: the regenerated accessor plan \
                     does not validate" )))
  in
  {
    dc_full = full;
    dc_class = klass;
    dc_entries = List.length report.r_entries;
    dc_effective = List.length eff;
    dc_cert = cert;
    dc_verdict = verdict;
    dc_compiled = compiled;
    dc_branded = branded;
  }

let cmd_of_decision d =
  match d.dc_verdict with
  | `Apply ->
      let c =
        match d.dc_compiled with Some c -> c | None -> assert false
      in
      Parallel.Swap_apply
        {
          sc_config = c.Opendesc.Compile.config;
          sc_model = (fun () -> Nic_models.Model.make d.dc_branded);
          sc_stack = (fun _ -> Hoststacks.opendesc_batched ~compiled:c);
        }
  | `Refuse _ -> Parallel.Swap_refuse
  | `Quarantine -> Parallel.Swap_quarantine

(* ------------------------------------------------------------------ *)
(* Engines                                                            *)

(* The deterministic engine: one thread of control interleaves
   injection and harvest (a sweep every [batch] injections), so the
   whole run — including how many completions are in flight when the
   swap lands — is a pure function of (seed, plan, at). This is the
   engine the CLI golden pins byte-for-byte. It reports like
   {!Parallel.hot_swap}, plus the per-queue fault counters. *)
let run_seq ~mq ~plan ~batch ~pkts ~at ~workload ~collect_post ~stack0
    ~decide_cmd () =
  let nq = Mq.queues mq in
  let fqs = Mq.wrap_chaos ~plan mq in
  let bursts = Mq.bursts ~capacity:batch mq in
  let env = Softnic.Feature.make_env () in
  let consumers = Array.init nq stack0 in
  let epoch = ref 0 in
  let post_pairs = if collect_post then Some (Array.make nq []) else None in
  let delivered = ref 0 in
  let handle q (b : Device.burst) =
    ignore (consumers.(q).Stack.bt_consume Cost.Null env b);
    delivered := !delivered + b.Device.bs_count;
    match post_pairs with
    | Some arr when !epoch = 1 ->
        for j = 0 to b.Device.bs_count - 1 do
          arr.(q) <-
            ( Bytes.sub b.Device.bs_pkts.(j) 0 b.Device.bs_lens.(j),
              Bytes.sub b.Device.bs_cmpts.(j) 0 b.Device.bs_cmpt_lens.(j) )
            :: arr.(q)
        done
    | _ -> ()
  in
  let injected = ref 0 in
  (* Every packet is generated into one frame, which steering and the
     fault layer read in place (a deferred frame is copied into the
     fault wrapper's stash). *)
  let frame = Bytes.create (Packet.Workload.max_len workload) in
  let inject_n n =
    for _ = 1 to n do
      let len = Packet.Workload.next_into workload frame in
      let q = Mq.steer_raw mq frame ~len in
      ignore (Fault.rx_inject_raw fqs.(q) frame ~len);
      incr injected;
      if !injected mod batch = 0 then
        ignore (Mq.drain_chaos mq fqs bursts ~f:handle)
    done
  in
  inject_n at;
  (* Quiesce: flush deferred reorders, measure what is in flight, then
     drain every queue dry — the quiescent point the epoch flip
     requires (same measurement point as the parallel workers'). *)
  let t_swap = Unix.gettimeofday () in
  Array.iter Fault.flush fqs;
  let inflight =
    Array.fold_left (fun a fq -> a + Fault.rx_available fq) 0 fqs
  in
  ignore (Mq.drain_chaos_all mq fqs bursts ~f:handle);
  let pre = !delivered in
  let cmd = decide_cmd () in
  let torn = ref 0 in
  let upgrade_errors = ref 0 in
  let action =
    match cmd with
    | Parallel.Swap_apply { sc_config; sc_model; sc_stack } ->
        (* Torn-plan oracle: the flip must land on a dry datapath. *)
        Array.iter
          (fun fq -> if Fault.rx_available fq > 0 then incr torn)
          fqs;
        if !torn > 0 then
          ignore (Mq.drain_chaos_all mq fqs bursts ~f:handle);
        upgrade_errors :=
          Parallel.install ~config:sc_config ~model:sc_model ~stack:sc_stack
            ~queue_ids:(Array.init nq Fun.id)
            (Array.map Fault.device fqs)
            (Some fqs) consumers;
        epoch := 1;
        Parallel.Sw_applied
    | Parallel.Swap_refuse -> Parallel.Sw_refused
    | Parallel.Swap_quarantine -> Parallel.Sw_quarantined
  in
  let latency = Unix.gettimeofday () -. t_swap in
  (* The producer quiesce pause: injection halted from the quiesce
     request until the post-swap stream resumes (for a quarantine,
     until the verdict withheld the remainder) — the bound ROADMAP
     item 4 asks the live_upgrade bench to keep under 100 ms. *)
  let withheld, pause_s =
    match cmd with
    | Parallel.Swap_quarantine -> (pkts - at, latency)
    | _ ->
        let pause_s = Unix.gettimeofday () -. t_swap in
        inject_n (pkts - at);
        (0, pause_s)
  in
  Array.iter Fault.flush fqs;
  ignore (Mq.drain_chaos_all mq fqs bursts ~f:handle);
  ( {
      Parallel.sw_action = action;
      sw_at = at;
      sw_inflight = inflight;
      sw_pre_pkts = pre;
      sw_post_pkts = !delivered - pre;
      sw_withheld = withheld;
      sw_torn = !torn;
      sw_upgrade_errors = !upgrade_errors;
      sw_latency_s = latency;
      sw_pause_s = pause_s;
      sw_post_pairs = Option.map (Array.map List.rev) post_pairs;
    },
    Array.map Fault.counters fqs )

(* ------------------------------------------------------------------ *)
(* Outcome assembly                                                   *)

(* A dry run turns no epoch: every datapath figure is zero. *)
let no_swap =
  {
    Parallel.sw_action = Sw_refused;
    sw_at = 0;
    sw_inflight = 0;
    sw_pre_pkts = 0;
    sw_post_pkts = 0;
    sw_withheld = 0;
    sw_torn = 0;
    sw_upgrade_errors = 0;
    sw_latency_s = 0.;
    sw_pause_s = 0.;
    sw_post_pairs = None;
  }

let mk_outcome ~(old_spec : Opendesc.Nic_spec.t)
    ~(new_spec : Opendesc.Nic_spec.t) ~intent ~active ~queues ~domains ~pkts
    ~dry ~drops ~wall_s (d : decision) (c : Fault.counters)
    (sw : Parallel.swap_outcome) =
  let action =
    match d.dc_verdict with
    | `Apply -> Applied
    | `Refuse r -> Refused r
    | `Quarantine -> Quarantined
  in
  {
    o_nic = old_spec.nic_name;
    o_from = old_spec.nic_name;
    o_to = new_spec.nic_name;
    o_intent = List.sort_uniq compare (Opendesc.Intent.required intent);
    o_full_class = d.dc_full;
    o_class = d.dc_class;
    o_entries = d.dc_entries;
    o_effective = d.dc_effective;
    o_active_path = active;
    o_cert = d.dc_cert;
    o_action = action;
    o_dry = dry;
    o_epoch = (if sw.sw_action = Sw_applied then 1 else 0);
    o_domains = domains;
    o_queues = queues;
    o_pkts = pkts;
    o_at = sw.sw_at;
    o_inflight = sw.sw_inflight;
    o_pre_delivered = sw.sw_pre_pkts;
    o_post_delivered = sw.sw_post_pkts;
    o_delivered = c.Fault.delivered;
    o_quarantined = c.quarantined;
    o_accepted = c.rx_accepted;
    o_duplicates = c.duplicates;
    o_withheld = sw.sw_withheld;
    o_drops = drops;
    o_lost = c.rx_accepted + c.duplicates - c.delivered - c.quarantined;
    o_reconciled = Fault.reconciles c;
    o_torn = sw.sw_torn;
    o_upgrade_errors = sw.sw_upgrade_errors;
    o_wall_s = wall_s;
    o_latency_s = sw.sw_latency_s;
    o_pause_s = sw.sw_pause_s;
    o_faults = c;
    o_post_pairs = sw.sw_post_pairs;
    o_compiled_new = d.dc_compiled;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)

let run ?(queues = 4) ?(domains = 1) ?(batch = 32) ?(pkts = 4096) ?at
    ?(seed = 42L) ?plan ?alpha ?drill ?(collect_post = false) ~intent
    ~(old_spec : Opendesc.Nic_spec.t) ~(new_spec : Opendesc.Nic_spec.t) () =
  Parallel.check_sizes "Upgrade.run" ~domains ~batch ~pkts;
  let at =
    match at with Some a -> max 0 (min a pkts) | None -> pkts / 2
  in
  match Opendesc.Cache.run ?alpha ~intent old_spec with
  | Error e ->
      Error (Printf.sprintf "old revision %s: %s" old_spec.nic_name e)
  | Ok compiled_old -> (
      let active = (Opendesc.Compile.path compiled_old).Opendesc.Path.p_index in
      let configs = Array.make queues compiled_old.Opendesc.Compile.config in
      match
        Mq.create ~queue_depth:1024 ~configs (fun () ->
            Nic_models.Model.make old_spec)
      with
      | Error e -> Error e
      | Ok mq ->
          let fplan =
            match plan with Some p -> p | None -> Fault.zero_plan seed
          in
          let decision = ref None in
          let decide_cmd () =
            let d =
              decide ?alpha ?drill ~intent ~old_spec ~new_spec ~active ()
            in
            decision := Some d;
            cmd_of_decision d
          in
          let stack0 _ = Hoststacks.opendesc_batched ~compiled:compiled_old in
          let workload = Packet.Workload.make ~seed Packet.Workload.Imix in
          let t0 = Unix.gettimeofday () in
          let sw, counters =
            if domains = 1 then
              run_seq ~mq ~plan:fplan ~batch ~pkts ~at ~workload
                ~collect_post ~stack0 ~decide_cmd ()
            else
              let r, sw =
                Parallel.hot_swap ~domains ~batch ~collect_post ~plan:fplan
                  ~mq ~stack:stack0 ~pkts ~at ~swap:decide_cmd ~workload ()
              in
              (sw, Option.get r.faults)
          in
          let wall_s = Unix.gettimeofday () -. t0 in
          let devices = Array.init queues (Mq.queue mq) in
          let drops =
            Array.fold_left (fun a d -> a + Device.drops d) 0 devices
          in
          Ok
            (mk_outcome ~old_spec ~new_spec ~intent ~active ~queues ~domains
               ~pkts ~dry:false ~drops ~wall_s (Option.get !decision)
               (Fault.counters_sum (Array.to_list counters))
               sw))

let dry_run ?alpha ?drill ~intent ~(old_spec : Opendesc.Nic_spec.t)
    ~(new_spec : Opendesc.Nic_spec.t) () =
  match Opendesc.Cache.run ?alpha ~intent old_spec with
  | Error e ->
      Error (Printf.sprintf "old revision %s: %s" old_spec.nic_name e)
  | Ok compiled_old ->
      let active = (Opendesc.Compile.path compiled_old).Opendesc.Path.p_index in
      let d = decide ?alpha ?drill ~intent ~old_spec ~new_spec ~active () in
      Ok
        (mk_outcome ~old_spec ~new_spec ~intent ~active ~queues:0 ~domains:0
           ~pkts:0 ~dry:true ~drops:0 ~wall_s:0. d (Fault.counters_zero ())
           no_swap)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let to_json (o : outcome) =
  let b = Buffer.create 512 in
  let field name f =
    Buffer.add_string b ",\"";
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    f ()
  in
  let str s =
    Buffer.add_string b
      ("\"" ^ Opendesc_analysis.Diagnostic.json_escape s ^ "\"")
  in
  let int i = Buffer.add_string b (string_of_int i) in
  let bool v = Buffer.add_string b (if v then "true" else "false") in
  Buffer.add_string b "{\"schema\":\"opendesc-upgrade-2\"";
  field "nic" (fun () -> str o.o_nic);
  field "from" (fun () -> str o.o_from);
  field "to" (fun () -> str o.o_to);
  field "intent" (fun () ->
      Buffer.add_char b '[';
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_char b ',';
          str s)
        o.o_intent;
      Buffer.add_char b ']');
  field "class" (fun () -> str (Ev.class_to_string o.o_class));
  field "full_class" (fun () -> str (Ev.class_to_string o.o_full_class));
  field "entries" (fun () -> int o.o_entries);
  field "effective_entries" (fun () -> int o.o_effective);
  field "active_path" (fun () -> int o.o_active_path);
  field "certificate" (fun () -> str (cert_verdict_name o.o_cert));
  (match o.o_cert with
  | Cv_not_required -> ()
  | Cv_fresh h -> field "cert_hash" (fun () -> str h)
  | Cv_stale { held; current } ->
      field "cert_held" (fun () -> str held);
      field "cert_current" (fun () -> str current)
  | Cv_missing h -> field "cert_current" (fun () -> str h)
  | Cv_failed cs ->
      field "cert_codes" (fun () ->
          Buffer.add_char b '[';
          List.iteri
            (fun i c ->
              if i > 0 then Buffer.add_char b ',';
              str c)
            cs;
          Buffer.add_char b ']'));
  field "action" (fun () -> str (action_name o.o_action));
  (match o.o_action with
  | Refused r -> field "reason" (fun () -> str r)
  | Applied | Quarantined -> ());
  field "dry_run" (fun () -> bool o.o_dry);
  field "epoch" (fun () -> int o.o_epoch);
  field "domains" (fun () -> int o.o_domains);
  field "queues" (fun () -> int o.o_queues);
  field "pkts" (fun () -> int o.o_pkts);
  field "at" (fun () -> int o.o_at);
  field "inflight" (fun () -> int o.o_inflight);
  field "pre_delivered" (fun () -> int o.o_pre_delivered);
  field "post_delivered" (fun () -> int o.o_post_delivered);
  field "delivered" (fun () -> int o.o_delivered);
  field "quarantined" (fun () -> int o.o_quarantined);
  field "accepted" (fun () -> int o.o_accepted);
  field "duplicates" (fun () -> int o.o_duplicates);
  field "withheld" (fun () -> int o.o_withheld);
  field "drops" (fun () -> int o.o_drops);
  field "lost" (fun () -> int o.o_lost);
  field "reconciled" (fun () -> bool o.o_reconciled);
  field "torn" (fun () -> int o.o_torn);
  field "upgrade_errors" (fun () -> int o.o_upgrade_errors);
  (* Wall clock and swap latency stay out of the JSON (nondeterministic,
     goldens pin it byte-for-byte); the pause is the one timing the
     interface promises, so it is emitted and the golden rules filter
     it. Dry runs report a deterministic 0. *)
  field "pause_s" (fun () ->
      Buffer.add_string b (Printf.sprintf "%.6f" o.o_pause_s));
  Buffer.add_char b '}';
  Buffer.contents b

let pp ppf (o : outcome) =
  let cert_detail () =
    match o.o_cert with
    | Cv_not_required -> ""
    | Cv_fresh h -> Printf.sprintf " (%s)" h
    | Cv_stale { held; current } ->
        Printf.sprintf " (held %s, current %s)" held current
    | Cv_missing h -> Printf.sprintf " (current %s)" h
    | Cv_failed cs -> Printf.sprintf " (%s)" (String.concat ", " cs)
  in
  Format.fprintf ppf "upgrade %s: %s -> %s%s@."
    (if o.o_dry then "(dry run)" else "")
    o.o_from o.o_to
    (match o.o_action with
    | Applied -> ""
    | Refused r -> " REFUSED: " ^ r
    | Quarantined -> " QUARANTINED");
  Format.fprintf ppf "  class       %s (full interface: %s, %d/%d entries effective)@."
    (Ev.class_to_string o.o_class)
    (Ev.class_to_string o.o_full_class)
    o.o_effective o.o_entries;
  Format.fprintf ppf "  intent      %s on path %d@."
    (String.concat "," o.o_intent)
    o.o_active_path;
  Format.fprintf ppf "  certificate %s%s@."
    (cert_verdict_name o.o_cert)
    (cert_detail ());
  Format.fprintf ppf "  action      %s (epoch %d)@." (action_name o.o_action)
    o.o_epoch;
  if not o.o_dry then begin
    Format.fprintf ppf
      "  datapath    %d queue(s), %d domain(s), %d pkts, swap at %d \
       (%d in flight)@."
      o.o_queues o.o_domains o.o_pkts o.o_at o.o_inflight;
    Format.fprintf ppf
      "  accounting  pre %d + post %d delivered, %d quarantined, %d \
       withheld, %d drops, lost %d%s@."
      o.o_pre_delivered o.o_post_delivered o.o_quarantined o.o_withheld
      o.o_drops o.o_lost
      (if o.o_reconciled then " (reconciled)" else " (NOT RECONCILED)");
    Format.fprintf ppf "  oracle      torn %d, upgrade errors %d@." o.o_torn
      o.o_upgrade_errors;
    Format.fprintf ppf
      "  timing      swap latency %.6f s, producer pause %.6f s, wall \
       %.6f s@."
      o.o_latency_s o.o_pause_s o.o_wall_s
  end
