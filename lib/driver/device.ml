type t = {
  mutable model : Nic_models.Model.t;
  env : Softnic.Feature.env;
  mutable config : Opendesc_analysis.Context.assignment;
  mutable active_path : Opendesc.Path.t;
  mutable encoder : Softnic.Codec.encoder;
      (** the active path's completion encoder, staged by {!encoder_of} *)
  cmpt_ring : Ring.t;
  pkt_ring : Ring.t;
  tx_ring : Ring.t;
  tx_scratch : bytes;  (** reusable TX descriptor-fetch buffer *)
  inj_cmpt : bytes;  (** reusable RX completion-record buffer *)
  inj_view : Packet.Pkt.view;  (** the last injected frame's parse *)
  buf_size : int;
  mutable tx_format : Opendesc.Descparser.t option;
  mutable tx_addr : Softnic.Codec.shape option;
      (** the TX format's [buf_addr] shape, staged with the format *)
  mutable rx_count : int;
  mutable tx_count : int;
  mutable drops : int;
  mutable tx_pkt_bytes_read : int;
  mutable doorbells : int;
}

type burst = {
  bs_pkts : bytes array;
  bs_lens : int array;
  bs_cmpts : bytes array;
  bs_cmpt_lens : int array;
  mutable bs_count : int;
}

let normalize a = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) a

let assignment_matches config a =
  Opendesc_analysis.Context.equal (normalize config) (normalize a)

let path_for_config (spec : Opendesc.Nic_spec.t) config =
  List.find_opt
    (fun (p : Opendesc.Path.t) ->
      List.exists (assignment_matches config) p.p_assignments)
    spec.paths

let max_cmpt_size (spec : Opendesc.Nic_spec.t) =
  List.fold_left (fun acc p -> max acc (Opendesc.Path.size p)) 1 spec.paths

let smallest_tx (spec : Opendesc.Nic_spec.t) =
  match spec.tx_formats with
  | [] -> None
  | f :: rest ->
      Some
        (List.fold_left
           (fun best g ->
             if Opendesc.Descparser.size g < Opendesc.Descparser.size best then g
             else best)
           f rest)

let addr_shape fmt =
  Option.map
    (fun (f : Opendesc.Path.lfield) -> Softnic.Codec.shape ~bit_off:f.l_bit_off ~bits:f.l_bits)
    (Opendesc.Descparser.field_for fmt "buf_addr")

let stage_tx t fmt =
  t.tx_format <- fmt;
  t.tx_addr <- Option.bind fmt addr_shape

(* Staged once per selected path, at [create], [configure] and
   [upgrade]: the registry and constant lookups, the identity check that
   picks each field's int core, and the write shapes are resolved here,
   so injection runs one straight loop. *)
let encoder_of (model : Nic_models.Model.t) (path : Opendesc.Path.t) =
  Softnic.Codec.encoder ~size_bytes:path.p_layout.size_bytes
    (List.map
       (fun (f : Opendesc.Path.lfield) ->
         (f.l_bit_off, f.l_bits, Nic_models.Model.source model f))
       path.p_layout.fields)

let create ?(queue_depth = 512) ?(buf_size = 2048) ~config (model : Nic_models.Model.t)
    =
  match path_for_config model.spec config with
  | None ->
      Error
        (Format.asprintf "%s: context %a selects no completion path"
           model.spec.nic_name Opendesc_analysis.Context.pp config)
  | Some path ->
      let tx_ring =
        Ring.create ~slots:queue_depth
          ~slot_size:
            (List.fold_left
               (fun acc f -> max acc (Opendesc.Descparser.size f))
               16 model.spec.tx_formats)
      in
      let cmpt_ring =
        Ring.create ~slots:queue_depth ~slot_size:(max_cmpt_size model.spec)
      in
      let pkt_ring = Ring.create ~slots:queue_depth ~slot_size:(buf_size + 2) in
      let tx_format = smallest_tx model.spec in
      Ok
        {
          model;
          env = Softnic.Feature.make_env ();
          config;
          active_path = path;
          encoder = encoder_of model path;
          cmpt_ring;
          pkt_ring;
          tx_ring;
          tx_scratch = Bytes.create (Ring.slot_size tx_ring);
          inj_cmpt = Bytes.create (Ring.slot_size cmpt_ring);
          inj_view = Packet.Pkt.view ();
          buf_size;
          tx_format;
          tx_addr = Option.bind tx_format addr_shape;
          rx_count = 0;
          tx_count = 0;
          drops = 0;
          tx_pkt_bytes_read = 0;
          doorbells = 0;
        }

let create_exn ?queue_depth ?buf_size ~config model =
  match create ?queue_depth ?buf_size ~config model with
  | Ok t -> t
  | Error e -> failwith e

let configure t config =
  match path_for_config t.model.spec config with
  | None ->
      Error
        (Format.asprintf "%s: context %a selects no completion path"
           t.model.spec.nic_name Opendesc_analysis.Context.pp config)
  | Some path ->
      t.config <- config;
      t.active_path <- path;
      t.encoder <- encoder_of t.model path;
      Ok ()

let active_path t = t.active_path

(* Live firmware swap: replace the behavioural model (the "flashed"
   contract) in place, keeping the rings, the DMA counters and the
   feature environment — so the RSS key, clock and installed flow marks
   survive and steering decisions are unchanged. Only legal at a
   quiescent point: outstanding completions were serialised under the
   old layout and would be trimmed to the new one on harvest. *)
let upgrade t ~config (model : Nic_models.Model.t) =
  match path_for_config model.spec config with
  | None ->
      Error
        (Format.asprintf "%s: context %a selects no completion path"
           model.spec.nic_name Opendesc_analysis.Context.pp config)
  | Some path ->
      if Ring.available t.cmpt_ring > 0 then
        Error
          (Printf.sprintf "%s: %d completion(s) in flight — drain before upgrade"
             t.model.spec.nic_name
             (Ring.available t.cmpt_ring))
      else if max_cmpt_size model.spec > Ring.slot_size t.cmpt_ring then
        Error
          (Printf.sprintf
             "%s: new completion layout (%dB) exceeds the provisioned ring slot \
              (%dB)"
             model.spec.nic_name (max_cmpt_size model.spec)
             (Ring.slot_size t.cmpt_ring))
      else if
        List.exists
          (fun f -> Opendesc.Descparser.size f > Ring.slot_size t.tx_ring)
          model.spec.tx_formats
      then
        Error
          (Printf.sprintf
             "%s: a new TX descriptor format exceeds the provisioned ring slot \
              (%dB)"
             model.spec.nic_name (Ring.slot_size t.tx_ring))
      else begin
        t.model <- model;
        t.config <- config;
        t.active_path <- path;
        t.encoder <- encoder_of model path;
        stage_tx t (smallest_tx model.spec);
        Ok ()
      end

let install_mark t flow mark = Hashtbl.replace t.env.flow_marks flow mark
let model t = t.model
let env t = t.env
let cmpt_ring t = t.cmpt_ring
let pkt_ring t = t.pkt_ring
let tx_ring t = t.tx_ring
let buf_size t = t.buf_size

(* The pooled injection primitive: the payload lives in the first [len]
   bytes of [buf] (which may be a reusable scratch buffer longer than the
   packet). The frame goes straight into the packet ring's slot, is
   parsed into the device's one view, and the path's encoder writes the
   completion from [buf] into the preallocated [inj_cmpt]. Injecting a
   packet allocates nothing, unless the encoder holds a boxed producer.
   A bad length is refused before either ring moves, so the two rings
   never fall out of step. A frame longer than [buf_size] is a counted
   drop whose bytes are never read, so [buf] may hold it truncated (as
   [Parallel.Pktring] stages an oversize frame). *)
let rx_inject_raw t buf ~len =
  if len < 0 || (len > Bytes.length buf && len <= t.buf_size) then
    invalid_arg
      (Printf.sprintf "Device.rx_inject_raw: frame length %d outside the %d-byte buffer"
         len (Bytes.length buf));
  if len > t.buf_size || Ring.is_full t.pkt_ring || Ring.is_full t.cmpt_ring then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    let ok1 = Ring.produce_frame t.pkt_ring buf ~len in
    Packet.Pkt.parse_into t.inj_view buf ~len;
    Softnic.Codec.encode t.encoder t.env buf ~len t.inj_view t.inj_cmpt;
    let ok2 =
      Ring.produce_dev t.cmpt_ring t.inj_cmpt
        ~len:(Softnic.Codec.size_bytes t.encoder)
    in
    assert (ok1 && ok2);
    t.rx_count <- t.rx_count + 1;
    true
  end

let rx_inject t pkt =
  rx_inject_raw t pkt.Packet.Pkt.buf ~len:pkt.Packet.Pkt.len

let rx_available t = Ring.available t.cmpt_ring

(* Harvest copies what the device wrote and nothing more: the active
   layout's completion bytes and the frame's [len] data bytes, each to
   offset 0 of the host buffer. *)
let rx_consume t =
  if Ring.is_empty t.cmpt_ring then None
  else begin
    let size = t.active_path.p_layout.size_bytes in
    let cmpt = Bytes.create size in
    let ok = Ring.consume_host_prefix_into t.cmpt_ring cmpt ~len:size in
    match (ok, Ring.consume_frame t.pkt_ring) with
    | true, Some pkt -> Some (pkt, Bytes.length pkt, cmpt)
    | _ -> assert false (* rings advance in lockstep *)
  end

let burst_create ?(capacity = 64) t =
  assert (capacity > 0);
  {
    bs_pkts = Array.init capacity (fun _ -> Bytes.create (Ring.slot_size t.pkt_ring));
    bs_lens = Array.make capacity 0;
    bs_cmpts = Array.init capacity (fun _ -> Bytes.create (Ring.slot_size t.cmpt_ring));
    bs_cmpt_lens = Array.make capacity 0;
    bs_count = 0;
  }

let burst_capacity b = Array.length b.bs_pkts

let rx_consume_batch t (b : burst) =
  b.bs_count <- 0;
  let n = min (burst_capacity b) (Ring.available t.cmpt_ring) in
  let cmpt_len = t.active_path.p_layout.size_bytes in
  for i = 0 to n - 1 do
    let ok = Ring.consume_host_prefix_into t.cmpt_ring b.bs_cmpts.(i) ~len:cmpt_len in
    let len = Ring.consume_frame_into t.pkt_ring b.bs_pkts.(i) in
    assert (ok && len >= 0);
    b.bs_lens.(i) <- len;
    b.bs_cmpt_lens.(i) <- cmpt_len
  done;
  b.bs_count <- n;
  n

let tx_format t = t.tx_format
let set_tx_format t f = stage_tx t (Some f)

let tx_post t desc =
  let ok = Ring.produce_host t.tx_ring desc in
  if ok then t.doorbells <- t.doorbells + 1;
  ok

let tx_post_batch t descs =
  let posted = Ring.produce_host_batch t.tx_ring descs in
  if posted > 0 then t.doorbells <- t.doorbells + 1;
  posted

let tx_process t ~fetch =
  match t.tx_format with
  | None -> 0
  | Some _ ->
      let sent = ref 0 in
      (* The descriptor fetch reuses one scratch buffer: consuming a TX
         slot per packet must not allocate on the hot path. *)
      while Ring.consume_dev_into t.tx_ring t.tx_scratch do
        match t.tx_addr with
        | Some addr -> (
            match fetch (Softnic.Codec.read_int64 t.tx_scratch addr) with
            | Some pkt ->
                (* Device fetches the packet body over DMA. *)
                t.tx_pkt_bytes_read <- t.tx_pkt_bytes_read + Packet.Pkt.len pkt;
                t.tx_count <- t.tx_count + 1;
                incr sent
            | None -> t.drops <- t.drops + 1)
        | None -> t.drops <- t.drops + 1
      done;
      !sent

let rx_count t = t.rx_count
let tx_count t = t.tx_count
let drops t = t.drops
let doorbells t = t.doorbells

let dma_bytes t =
  Dma.dev_written_bytes (Ring.dma t.pkt_ring)
  + Dma.dev_written_bytes (Ring.dma t.cmpt_ring)
  + Dma.dev_read_bytes (Ring.dma t.tx_ring)
  + t.tx_pkt_bytes_read

let reset_counters t =
  t.rx_count <- 0;
  t.tx_count <- 0;
  t.drops <- 0;
  t.tx_pkt_bytes_read <- 0;
  t.doorbells <- 0;
  Dma.reset_counters (Ring.dma t.pkt_ring);
  Dma.reset_counters (Ring.dma t.cmpt_ring);
  Dma.reset_counters (Ring.dma t.tx_ring)
