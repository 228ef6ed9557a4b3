type binding = Hardware of Accessor.t | Software of Softnic.Feature.t

type t = {
  nic : Nic_spec.t;
  intent : Intent.t;
  outcome : Select.outcome;
  bindings : (string * binding) list;
  field_accessors : Accessor.t list;
  config : Opendesc_analysis.Context.assignment;
  tx_format : Descparser.t option;
  tx_missing : string list;
  registry : Semantic.t;
}

let path t = t.outcome.chosen.s_path

let missing t =
  List.filter_map
    (fun (s, b) -> match b with Software _ -> Some s | Hardware _ -> None)
    t.bindings

let hardware t =
  List.filter_map
    (fun (s, b) -> match b with Hardware _ -> Some s | Software _ -> None)
    t.bindings

let shims t =
  List.filter_map
    (fun (_, b) -> match b with Software f -> Some f | Hardware _ -> None)
    t.bindings

let software_pipeline ?env t = Softnic.Pipeline.create ?env (shims t)

let c_source t =
  let missing_costs =
    List.map (fun s -> (s, Semantic.cost t.registry s)) (missing t)
  in
  Codegen_c.generate ~nic:t.nic.nic_name ~path:(path t) ~missing:missing_costs
    ~config:t.config

let datapath_source t =
  let missing_costs = List.map (fun s -> (s, Semantic.cost t.registry s)) (missing t) in
  Codegen_c.datapath ~nic:t.nic.nic_name ~path:(path t)
    ~requested:(Intent.required t.intent) ~missing:missing_costs ~config:t.config
    ~tx_format:t.tx_format

let ebpf_source t =
  Codegen_ebpf.generate ~nic:t.nic.nic_name ~path:(path t)
    ~requested:(Intent.required t.intent)

let smallest_tx_format (nic : Nic_spec.t) =
  match nic.tx_formats with
  | [] -> None
  | fs ->
      Some
        (List.fold_left
           (fun best f -> if Descparser.size f < Descparser.size best then f else best)
           (List.hd fs) (List.tl fs))

(* TX side of the selection: among the NIC's accepted descriptor formats,
   prefer full coverage of the TX intent, then the smallest descriptor —
   the host-to-NIC mirror of Eq. 1 (posting bytes is the DMA cost; an
   inexpressible offload hint means host software must pre-apply it). *)
let choose_tx_format (nic : Nic_spec.t) = function
  | None -> (smallest_tx_format nic, [])
  | Some tx_intent -> (
      let wanted = Intent.required tx_intent in
      let missing_of f =
        List.filter (fun s -> Descparser.field_for f s = None) wanted
      in
      let ranked =
        List.sort
          (fun a b ->
            match
              compare (List.length (missing_of a)) (List.length (missing_of b))
            with
            | 0 -> compare (Descparser.size a) (Descparser.size b)
            | c -> c)
          nic.tx_formats
      in
      match ranked with
      | [] -> (None, wanted)
      | best :: _ -> (Some best, missing_of best))

let run ?alpha ?registry ?softnic ?tx_intent ~intent (nic : Nic_spec.t) =
  let registry = match registry with Some r -> r | None -> Semantic.default () in
  let softnic = match softnic with Some r -> r | None -> Softnic.Registry.builtin () in
  match Select.choose ?alpha registry intent nic.paths with
  | Error e -> Error (Printf.sprintf "%s: %s" nic.nic_name (Select.error_to_string e))
  | Ok outcome -> (
      let chosen = outcome.chosen.s_path in
      let bind sem =
        match Path.field_for chosen sem with
        | Some f ->
            Ok
              ( sem,
                Hardware
                  (Accessor.of_lfield ?registry_bits:(Semantic.width registry sem) f) )
        | None -> (
            match Softnic.Registry.find softnic sem with
            | Some feature -> Ok (sem, Software feature)
            | None ->
                Error
                  (Printf.sprintf
                     "%s: semantic %s has finite cost %.0f but no software \
                      implementation is registered"
                     nic.nic_name sem
                     (Semantic.cost registry sem)))
      in
      let rec bind_all acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
            match bind s with Ok b -> bind_all (b :: acc) rest | Error e -> Error e)
      in
      match bind_all [] (Intent.required intent) with
      | Error e -> Error e
      | Ok bindings ->
          let tx_format, tx_missing = choose_tx_format nic tx_intent in
          Ok
            {
              nic;
              intent;
              outcome;
              bindings;
              field_accessors =
                Accessor.of_layout
                  ~registry_width:(Semantic.width registry) chosen.p_layout;
              config =
                (match chosen.p_assignments with a :: _ -> a | [] -> []);
              tx_format;
              tx_missing;
              registry;
            })

(* ------------------------------------------------------------------ *)
(* Certified compilation: lift this compilation into the analysis
   layer's plan IR and translation-validate it against the deparser
   contract (docs/CERTIFICATION.md). *)

let contract_hash (nic : Nic_spec.t) =
  Digest.to_hex (Digest.string (Nic_spec.fingerprint nic))

(* The chain the runtime reads a field with: its [Softnic.Codec] shape,
   as certify steps. *)
let steps_of (a : Accessor.t) =
  let open Opendesc_analysis.Certify in
  match a.a_shape with
  | U8 byte -> [ SLoad { byte; bytes = 1 } ]
  | U16 byte -> [ SLoad { byte; bytes = 2 } ]
  | U32 byte -> [ SLoad { byte; bytes = 4 } ]
  | U64 byte -> [ SLoad { byte; bytes = 8 } ]
  | Bits { first; nbytes; shift; mask } ->
      [ SLoad { byte = first; bytes = nbytes }; SShr shift; SAnd (Int64.of_int mask) ]
  | Wide { bit_off; bits } -> [ SBitwalk { bit = bit_off; bits } ]
  | Skip -> [ SConst 0L ]

let to_plan (t : t) : Opendesc_analysis.Certify.plan =
  let plan_of_accessor (a : Accessor.t) =
    {
      Opendesc_analysis.Certify.ap_name = a.a_name;
      ap_header = a.a_header;
      ap_semantic = a.a_semantic;
      ap_bits = a.a_bits;
      ap_steps = steps_of a;
      ap_range = a.a_range;
    }
  in
  let chosen = path t in
  {
    Opendesc_analysis.Certify.pl_nic = t.nic.nic_name;
    pl_contract = contract_hash t.nic;
    pl_intent =
      List.map (fun (f : Intent.field) -> (f.if_semantic, f.if_width))
        t.intent.fields;
    pl_path_index = chosen.p_index;
    pl_size_bytes = Path.size chosen;
    pl_config = t.config;
    pl_hw =
      List.filter_map
        (fun (s, b) ->
          match b with
          | Hardware a -> Some (s, plan_of_accessor a)
          | Software _ -> None)
        t.bindings;
    pl_shims =
      List.filter_map
        (fun (_, b) ->
          match b with
          | Software (f : Softnic.Feature.t) ->
              Some
                {
                  Opendesc_analysis.Certify.sh_semantic = f.semantic;
                  sh_width = f.width_bits;
                  sh_cost = f.cost_cycles;
                }
          | Hardware _ -> None)
        t.bindings;
    pl_fields = List.map plan_of_accessor t.field_accessors;
  }

let contract (t : t) : Opendesc_analysis.Certify.contract =
  {
    Opendesc_analysis.Certify.cf_catalogue = t.nic.catalogue;
    cf_registry = t.registry;
    cf_line_offset = Prelude.line_offset;
  }

let certify t = Opendesc_analysis.Certify.check (contract t) (to_plan t)

let tx_writer t sem =
  match t.tx_format with
  | None -> None
  | Some fmt -> (
      match Descparser.field_for fmt sem with
      | Some f ->
          let shape = Softnic.Codec.shape ~bit_off:f.l_bit_off ~bits:f.l_bits in
          Some (fun b v -> Softnic.Codec.write_int64 b shape v)
      | None -> None)

let run_exn ?alpha ?registry ?softnic ?tx_intent ~intent nic =
  match run ?alpha ?registry ?softnic ?tx_intent ~intent nic with
  | Ok t -> t
  | Error e -> failwith e
