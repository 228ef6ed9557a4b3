(* Static worst-case decode cost: lift every certified accessor plan and
   Eq. 1 shim schedule into Certify's codegen IR and price it against the
   cost table, per feasible completion path of the shared catalogue
   (Engine.catalogue). The bound is provable, not profiled: cache-line
   traffic comes from the record footprint, op costs from the table,
   and the worst case is maximized over the runs
   the plan's configuration can actually select — so a firmware bump
   that stays Transparent on values but regresses cycles is caught
   statically (OD026), and the dynamic ledger cross-validates the bound
   end to end (the cost_bound bench and the fuzz cost stage assert
   measured <= bound on every packet). *)

module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* The cost table. [default_table] is the one copy of these constants:
   the driver's [Cost.K] and [Stack.parse_cost] and the compiler's
   [Placement] read them from here, so the bound is in the units the
   runtime ledger charges. *)

type table = {
  tb_cache_line_load : float;  (** one 64B completion line from DMA memory *)
  tb_accessor_read : float;  (** one compiled hardware accessor chain *)
  tb_ring_advance : float;  (** ring bookkeeping, amortized per burst *)
  tb_refill : float;  (** descriptor refill, amortized per burst *)
  tb_doorbell : float;  (** doorbell write, amortized per burst *)
  tb_sw_parse : float;  (** one software header parse (shims present) *)
  tb_clock_ghz : float;  (** cycles -> ns conversion for messages *)
}

let default_table =
  {
    tb_cache_line_load = 18.0;
    tb_accessor_read = 2.5;
    tb_ring_advance = 6.0;
    tb_refill = 8.0;
    tb_doorbell = 40.0;
    tb_sw_parse = 22.0;
    tb_clock_ghz = 3.0;
  }

let table_fields =
  [
    ("cache_line_load", fun t v -> { t with tb_cache_line_load = v });
    ("accessor_read", fun t v -> { t with tb_accessor_read = v });
    ("ring_advance", fun t v -> { t with tb_ring_advance = v });
    ("refill", fun t v -> { t with tb_refill = v });
    ("doorbell", fun t v -> { t with tb_doorbell = v });
    ("sw_parse", fun t v -> { t with tb_sw_parse = v });
    ("clock_ghz", fun t v -> { t with tb_clock_ghz = v });
  ]

(* Tolerant flat-object reader: each known key overrides the default;
   unknown keys are ignored so the format can grow. *)
let table_of_json src =
  let value_after key =
    let pat = "\"" ^ key ^ "\"" in
    let pl = String.length pat and sl = String.length src in
    let rec find i =
      if i + pl > sl then None
      else if String.sub src i pl = pat then Some (i + pl)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
        let rec skip j =
          if j < sl && (src.[j] = ':' || src.[j] = ' ' || src.[j] = '\t') then
            skip (j + 1)
          else j
        in
        let start = skip i in
        let rec stop j =
          if j < sl && src.[j] <> ',' && src.[j] <> '}' && src.[j] <> '\n' then
            stop (j + 1)
          else j
        in
        float_of_string_opt
          (String.trim (String.sub src start (stop start - start)))
  in
  let hits = ref 0 in
  let t =
    List.fold_left
      (fun t (k, set) ->
        match value_after k with
        | Some v ->
            incr hits;
            set t v
        | None -> t)
      default_table table_fields
  in
  if !hits = 0 then
    Error
      (Printf.sprintf "no cost-table keys found (expected any of %s)"
         (String.concat ", " (List.map fst table_fields)))
  else Ok t

(* ------------------------------------------------------------------ *)
(* The bound. Per burst of [burst] completions the datapath pays ring
   bookkeeping + refill + one doorbell and streams ceil(burst * size /
   64) cache lines; per packet it runs one accessor chain per
   hardware-bound semantic and, iff any shim is scheduled, one software
   parse plus the scheduled shim cycles. Amortized per packet this is an
   upper bound on what [Driver.Hoststacks.opendesc]/[opendesc_batched]
   can charge to the ledger for any descriptor contents: the per-packet
   stack never pays the doorbell and the batched stack pays exactly the
   amortized shares, so bound(1) dominates both. *)

let lines_of_bytes bytes = (bytes + 63) / 64

let bound_of ?(table = default_table) ?(burst = 1) ~size_bytes ~hw_reads ~shims
    () =
  let n = max 1 burst in
  let b = float_of_int n in
  let per_burst = table.tb_ring_advance +. table.tb_refill +. table.tb_doorbell in
  let lines = lines_of_bytes (n * size_bytes) in
  per_burst /. b
  +. (float_of_int lines *. table.tb_cache_line_load /. b)
  +. (table.tb_accessor_read *. float_of_int hw_reads)
  +.
  match shims with
  | [] -> 0.0
  | cs -> table.tb_sw_parse +. List.fold_left ( +. ) 0.0 cs

let plan_bound ?(table = default_table) ?(burst = 1) (plan : Certify.plan) =
  bound_of ~table ~burst ~size_bytes:plan.Certify.pl_size_bytes
    ~hw_reads:(List.length plan.Certify.pl_hw)
    ~shims:
      (List.map (fun (s : Certify.shim_plan) -> s.Certify.sh_cost)
         plan.Certify.pl_shims)
    ()

(* Distinct 64B lines the plan's reads actually touch (footprint
   analysis over the step chains) — reported for decomposition; the
   bound itself streams the whole record, which is what the driver's
   descriptor load charges. *)
let distinct_lines step_lists =
  let lines = Hashtbl.create 8 in
  List.iter
    (fun steps ->
      match Certify.footprint steps with
      | Some (lo, hi) when hi > lo ->
          for l = lo / 512 to (hi - 1) / 512 do
            Hashtbl.replace lines l ()
          done
      | _ -> ())
    step_lists;
  Hashtbl.length lines

(* A bitwalk is bounded by construction (the compiler walks only a
   field of at most 64 bits inside the slot); a walk whose length
   escapes the slot width has no static iteration bound the driver can
   trust. *)
let unbounded_walk ~size_bytes steps =
  List.exists
    (function
      | Certify.SBitwalk { bit; bits } ->
          bits > 64 || bit + bits > size_bytes * 8
      | _ -> false)
    steps

(* ------------------------------------------------------------------ *)
(* Per-path idealized costs over the feasible catalogue: what serving
   the same intent from each other feasible completion layout would
   cost with every missing semantic shimmed at its registry price. This
   is the ranking ROADMAP item 2's specializer wants, and the data
   behind OD027 (dominated configuration). *)

type path_cost = {
  pc_index : int;  (** feasible path index, encounter order *)
  pc_size_bytes : int;
  pc_lines : int;  (** ceil(size / 64): record cache lines *)
  pc_hw : string list;  (** intent semantics the layout carries *)
  pc_shimmed : string list;  (** missing semantics priced as shims *)
  pc_serves : bool;  (** every missing semantic is shimmable *)
  pc_bound : float;  (** idealized cycles/pkt at burst 1 *)
}

type cost = {
  co_nic : string;
  co_path_index : int;
  co_size_bytes : int;
  co_lines : int;
  co_distinct_lines : int;  (** distinct lines the hw accessors touch *)
  co_hw_reads : int;
  co_shim_cycles : float;
  co_bound : float;  (** provable worst case, cycles/pkt at burst 1 *)
  co_budget : float option;
  co_baseline : float option;
}

type report = { r_cost : cost; r_paths : path_cost list; r_diags : D.t list }

let path_cost_of ~table ~registry ~intent index
    (fields : Engine.afield list) bits =
  let carried s =
    List.exists
      (fun (af : Engine.afield) -> af.Engine.af_semantic = Some s)
      fields
  in
  let hw = List.filter (fun (s, _) -> carried s) intent |> List.map fst in
  let missing =
    List.filter (fun (s, _) -> not (carried s)) intent |> List.map fst
  in
  let priced =
    List.filter_map
      (fun s ->
        let c = Softnic.Semantic.rx_cost registry s in
        if c < infinity then Some (s, c) else None)
      missing
  in
  let size = (bits + 7) / 8 in
  {
    pc_index = index;
    pc_size_bytes = size;
    pc_lines = lines_of_bytes size;
    pc_hw = hw;
    pc_shimmed = List.map fst priced;
    pc_serves = List.length priced = List.length missing;
    pc_bound =
      bound_of ~table ~burst:1 ~size_bytes:size ~hw_reads:(List.length hw)
        ~shims:(List.map snd priced) ();
  }

let analyze ?(table = default_table) ?budget ?baseline
    (cf : Certify.contract) (plan : Certify.plan) : report =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let span = cf.Certify.cf_catalogue.Engine.cat_ctrl.P4.Typecheck.ct_span in
  let shim_cycles =
    List.fold_left
      (fun a (s : Certify.shim_plan) -> a +. s.Certify.sh_cost)
      0.0 plan.Certify.pl_shims
  in
  let bound = plan_bound ~table plan in
  (* OD028 first: an unbounded walk poisons the bound itself. [what]
     names the accessor, and is built only when the diagnostic is. *)
  let walk_check what (ap : Certify.accessor_plan) =
    if unbounded_walk ~size_bytes:plan.Certify.pl_size_bytes ap.Certify.ap_steps
    then
      add
        (D.make ~span ~code:"OD028" ~severity:D.Error
           "unbounded cost: accessor for %s bit-walks past the %dB slot — \
            the walk length is path-dependent beyond the slot width, so no \
            per-packet cycle bound exists"
           (what ()) plan.Certify.pl_size_bytes)
  in
  List.iter
    (fun (s, ap) -> walk_check (fun () -> Printf.sprintf "semantic %S" s) ap)
    plan.Certify.pl_hw;
  List.iter
    (fun (ap : Certify.accessor_plan) ->
      walk_check
        (fun () -> Printf.sprintf "field %s.%s" ap.Certify.ap_header ap.Certify.ap_name)
        ap)
    plan.Certify.pl_fields;
  (match budget with
  | Some b when bound > b ->
      add
        (D.make ~span ~code:"OD025" ~severity:D.Error
           "path #%d decode costs up to %.1f cycles/pkt (%.0f ns at %.1f \
            GHz), over the declared budget of %.1f"
           plan.Certify.pl_path_index bound
           (bound /. table.tb_clock_ghz)
           table.tb_clock_ghz b)
  | _ -> ());
  (match baseline with
  | Some old when bound > old +. 1e-9 ->
      add
        (D.make ~span ~code:"OD026" ~severity:D.Warning
           "cost regression: worst-case decode cost rose from %.1f to %.1f \
            cycles/pkt (%.2fx) across revisions"
           old bound
           (bound /. (if old > 0.0 then old else 1.0)))
  | _ -> ());
  let paths =
    List.map
      (fun (g : Engine.group) ->
        path_cost_of ~table ~registry:cf.Certify.cf_registry
          ~intent:plan.Certify.pl_intent g.Engine.g_index
          (Engine.fields_of_run g.Engine.g_run)
          g.Engine.g_run.Dep_ir.r_total_bits)
      cf.Certify.cf_catalogue.Engine.cat_feasible
  in
  List.iter
    (fun pc ->
      if
        pc.pc_serves
        && pc.pc_index <> plan.Certify.pl_path_index
        && pc.pc_bound +. 1e-9 < bound
      then
        add
          (D.make ~span ~code:"OD027" ~severity:D.Info
             "dominated configuration: path #%d serves the same intent at \
              %.1f cycles/pkt, %.1f cheaper than deployed path #%d (%.1f)"
             pc.pc_index pc.pc_bound (bound -. pc.pc_bound)
             plan.Certify.pl_path_index bound))
    paths;
  {
    r_cost =
      {
        co_nic = plan.Certify.pl_nic;
        co_path_index = plan.Certify.pl_path_index;
        co_size_bytes = plan.Certify.pl_size_bytes;
        co_lines = lines_of_bytes plan.Certify.pl_size_bytes;
        co_distinct_lines =
          distinct_lines
            (List.map
               (fun (_, (ap : Certify.accessor_plan)) -> ap.Certify.ap_steps)
               plan.Certify.pl_hw);
        co_hw_reads = List.length plan.Certify.pl_hw;
        co_shim_cycles = shim_cycles;
        co_bound = bound;
        co_budget = budget;
        co_baseline = baseline;
      };
    r_paths = paths;
    r_diags =
      List.rev !diags
      |> List.map (D.relocate ~lines:cf.Certify.cf_line_offset)
      |> List.sort_uniq D.compare;
  }

(* ------------------------------------------------------------------ *)
(* Seeded cost bugs: each drill corrupts the deployment the way a real
   regression would, and the analysis must flag it with the expected
   code ([opendesc_cc cost --inject], and the seeded mutation tests).
   Over_budget and Cost_regression are parameter injections (the plan
   itself is already the provable floor), so a drill carries the
   budget/baseline overrides alongside the mutated plan. *)

type mutation = Over_budget | Cost_regression | Dominated_config | Unbounded_walk

let mutations = [ Over_budget; Cost_regression; Dominated_config; Unbounded_walk ]

let mutation_name = function
  | Over_budget -> "over-budget"
  | Cost_regression -> "cost-regression"
  | Dominated_config -> "dominated-config"
  | Unbounded_walk -> "unbounded-walk"

let expected_codes = function
  | Over_budget -> [ "OD025" ]
  | Cost_regression -> [ "OD026" ]
  | Dominated_config -> [ "OD027" ]
  | Unbounded_walk -> [ "OD028" ]

type drill = {
  dr_plan : Certify.plan;
  dr_budget : float option;
  dr_baseline : float option;
}

let inject ?(table = default_table) m (plan : Certify.plan) : drill =
  let bound = plan_bound ~table plan in
  match m with
  | Over_budget ->
      (* A budget strictly below the provable floor: OD025 must fire. *)
      { dr_plan = plan; dr_budget = Some (bound /. 2.0); dr_baseline = None }
  | Cost_regression ->
      (* Pretend the previous revision cost half as much. *)
      { dr_plan = plan; dr_budget = None; dr_baseline = Some (bound /. 2.0) }
  | Dominated_config ->
      (* Demote every hardware read to an absurdly priced shim, leaving
         the schedule semantically complete — some other feasible path
         now serves the intent strictly cheaper (multi-path NICs). *)
      let demoted =
        List.map
          (fun (s, (ap : Certify.accessor_plan)) ->
            {
              Certify.sh_semantic = s;
              sh_width = ap.Certify.ap_bits;
              sh_cost = 1000.0;
            })
          plan.Certify.pl_hw
      in
      {
        dr_plan =
          {
            plan with
            Certify.pl_hw = [];
            pl_shims = plan.Certify.pl_shims @ demoted;
          };
        dr_budget = None;
        dr_baseline = None;
      }
  | Unbounded_walk ->
      (* Replace the first accessor's chain with a walk one byte past
         the slot — a chain the compiler can never emit. *)
      let walk =
        Certify.SBitwalk { bit = 0; bits = (plan.Certify.pl_size_bytes * 8) + 8 }
      in
      let plan' =
        match plan.Certify.pl_hw with
        | (s, ap) :: rest ->
            {
              plan with
              Certify.pl_hw = (s, { ap with Certify.ap_steps = [ walk ] }) :: rest;
            }
        | [] -> (
            match plan.Certify.pl_fields with
            | ap :: rest ->
                {
                  plan with
                  Certify.pl_fields = { ap with Certify.ap_steps = [ walk ] } :: rest;
                }
            | [] -> plan)
      in
      { dr_plan = plan'; dr_budget = None; dr_baseline = None }
