(* ------------------------------------------------------------------ *)
(* Charging helpers *)

let parse_cost = Opendesc_analysis.Costbound.default_table.tb_sw_parse

(* Per-packet ring advance and buffer refill, divided by the
   amortisation factor (lanes of descriptors, multi-packet
   notifications). *)
let charge_ring ?(amortize = 1) sink =
  let f = float_of_int amortize in
  Cost.charge sink "ring" (Cost.K.ring_advance /. f);
  Cost.charge sink "refill" (Cost.K.refill /. f)

let charge_desc_load ?(amortize = 1) sink (path : Opendesc.Path.t) =
  Cost.charge sink "desc_load"
    (float_of_int ((path.p_layout.size_bytes + 63) / 64)
     *. Cost.K.cache_line_load /. float_of_int amortize)

(* One software header walk, for the shims that need a view. *)
let parse_view sink buf len =
  Cost.charge sink "sw_parse" parse_cost;
  let pkt = Packet.Pkt.sub buf ~len in
  (pkt, Packet.Pkt.parse pkt)

let charge_shim sink env pkt view (f : Softnic.Feature.t) =
  Cost.charge sink ("soft_" ^ f.semantic) f.cost_cycles;
  f.compute env pkt view

(* Software fallback for one semantic; parses at most once per packet via
   the [view] lazy cell. *)
let soft_read sink env softnic view sem =
  match Softnic.Registry.find softnic sem with
  | None -> 0L (* nothing to compute with; callers treat the value as absent *)
  | Some f ->
      let pkt, v = Lazy.force view in
      charge_shim sink env pkt v f

(* A per-packet coordination model as a burst consumer: it walks the
   burst in order and charges each packet as a per-packet driver would.
   [consume sink env pkt len cmpt] decodes one packet. *)
let per_packet name consume =
  {
    Stack.bt_name = name;
    bt_consume =
      (fun sink env (b : Device.burst) ->
        let acc = ref 0L in
        for i = 0 to b.bs_count - 1 do
          acc :=
            Int64.add !acc (consume sink env b.bs_pkts.(i) b.bs_lens.(i) b.bs_cmpts.(i))
        done;
        !acc);
  }

(* ------------------------------------------------------------------ *)

let skbuff ~(path : Opendesc.Path.t) ~requested ~softnic =
  let accessors = Opendesc.Accessor.of_layout path.p_layout in
  let consume sink env pkt len cmpt =
    charge_ring sink;
    charge_desc_load sink path;
    Cost.charge sink "alloc" Cost.K.skbuff_alloc;
    (* The driver extracts everything the descriptor has, requested or
       not — that's the sk_buff model. *)
    let extracted = ref [] in
    List.iter
      (fun (a : Opendesc.Accessor.t) ->
        Cost.charge sink "extract" (Cost.K.field_branch +. Cost.K.field_move);
        let v = a.a_get cmpt in
        match a.a_semantic with
        | Some s -> extracted := (s, v) :: !extracted
        | None -> ())
      accessors;
    let view = lazy (parse_view sink pkt len) in
    List.fold_left
      (fun acc sem ->
        match List.assoc_opt sem !extracted with
        | Some v ->
            Cost.charge sink "app_read" 1.0;
            Int64.add acc v
        | None -> Int64.add acc (soft_read sink env softnic view sem))
      0L requested
  in
  per_packet "skbuff" consume

(* ------------------------------------------------------------------ *)

let dpdk ~(path : Opendesc.Path.t) ~requested ~softnic =
  let accessors = Opendesc.Accessor.of_layout path.p_layout in
  (* Offloads outside the standard mbuf fields must be enabled by the
     application; only enabled ones are copied through mbuf_dyn. *)
  let mbuf_field = Softnic.Semantic.has Mbuf_field in
  let enabled_dyn s = List.mem s requested && not (mbuf_field s) in
  let consume sink env pkt len cmpt =
    charge_ring sink;
    charge_desc_load sink path;
    Cost.charge sink "alloc" Cost.K.mbuf_alloc;
    let standard = ref [] and dyn = ref [] in
    List.iter
      (fun (a : Opendesc.Accessor.t) ->
        match a.a_semantic with
        | Some s when mbuf_field s ->
            (* dedicated rte_mbuf field, filled unconditionally *)
            Cost.charge sink "extract" (Cost.K.field_branch +. Cost.K.field_move);
            standard := (s, a.a_get cmpt) :: !standard
        | Some s when enabled_dyn s ->
            (* mbuf_dyn: offset lookup + guarded copy *)
            Cost.charge sink "dyn_extract" (Cost.K.mbuf_dyn_lookup +. Cost.K.field_move);
            dyn := (s, a.a_get cmpt) :: !dyn
        | Some _ | None ->
            (* offload disabled: the driver still tests its flag *)
            Cost.charge sink "extract" Cost.K.field_branch)
      accessors;
    let view = lazy (parse_view sink pkt len) in
    List.fold_left
      (fun acc sem ->
        match List.assoc_opt sem !standard with
        | Some v ->
            Cost.charge sink "app_read" 1.0;
            Int64.add acc v
        | None -> (
            match List.assoc_opt sem !dyn with
            | Some v ->
                Cost.charge sink "app_read_dyn" Cost.K.mbuf_dyn_lookup;
                Int64.add acc v
            | None -> Int64.add acc (soft_read sink env softnic view sem)))
      0L requested
  in
  per_packet "dpdk-mbuf" consume

(* ------------------------------------------------------------------ *)

let xdp ~(path : Opendesc.Path.t) ~requested ~softnic =
  let exposed =
    List.filter
      (fun (a : Opendesc.Accessor.t) ->
        match a.a_semantic with
        | Some s -> Softnic.Semantic.has Xdp_hint s
        | None -> false)
      (Opendesc.Accessor.of_layout path.p_layout)
  in
  let consume sink env pkt len cmpt =
    charge_ring sink;
    Cost.charge sink "xdp_prologue" Cost.K.xdp_prologue;
    charge_desc_load sink path;
    let view = lazy (parse_view sink pkt len) in
    List.fold_left
      (fun acc sem ->
        match
          List.find_opt
            (fun (a : Opendesc.Accessor.t) -> a.a_semantic = Some sem)
            exposed
        with
        | Some a ->
            Cost.charge sink "accessor" Cost.K.accessor_read;
            Int64.add acc (a.a_get cmpt)
        | None -> Int64.add acc (soft_read sink env softnic view sem))
      0L requested
  in
  per_packet "xdp" consume

(* ------------------------------------------------------------------ *)

let streaming ~requested ~softnic =
  let consume sink env pkt len _cmpt =
    (* ENSO-style: multi-packet notifications (ring work amortises over a
       large aggregate), no descriptor parsed; the inline copy into the
       stream is the per-byte price. *)
    charge_ring ~amortize:8 sink;
    Cost.charge sink "stream" (Cost.K.stream_copy_per_byte *. float_of_int len);
    let view = lazy (parse_view sink pkt len) in
    List.fold_left
      (fun acc sem -> Int64.add acc (soft_read sink env softnic view sem))
      0L requested
  in
  per_packet "streaming" consume

(* ------------------------------------------------------------------ *)

(* Read the compiled bindings of one packet: the accessor for a hardware
   semantic, the shim (on a view parsed at most once) for the rest.
   [read] is where a hardware field's accessor reads. *)
let decode sink env (bindings : (string * Opendesc.Compile.binding) list) ~read view =
  List.fold_left
    (fun acc (_, binding) ->
      match binding with
      | Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
          Cost.charge sink "accessor" Cost.K.accessor_read;
          Int64.add acc (read a)
      | Opendesc.Compile.Software f ->
          let pkt, v = Lazy.force view in
          Int64.add acc (charge_shim sink env pkt v f))
    0L bindings

(* The generated runtime, one packet at a time — what a hand-written
   minimal (TinyNF-style) driver reads. [lanes] > 1 processes
   descriptors in lanes of that width (the §5 SIMD ablation): ring work
   and descriptor loads amortise over the lanes. *)
let generated ~name ~lanes ~(compiled : Opendesc.Compile.t) =
  let path = Opendesc.Compile.path compiled in
  let consume sink env pkt len cmpt =
    charge_ring ~amortize:lanes sink;
    charge_desc_load ~amortize:lanes sink path;
    if lanes > 1 then Cost.charge sink "simd_swizzle" 1.5;
    decode sink env compiled.bindings
      ~read:(fun (a : Opendesc.Accessor.t) -> a.a_get cmpt)
      (lazy (parse_view sink pkt len))
  in
  per_packet name consume

let opendesc ~compiled = generated ~name:"opendesc" ~lanes:1 ~compiled
let opendesc_simd ~compiled = generated ~name:"opendesc-simd4" ~lanes:4 ~compiled

(* A software binding on the byte path: a builtin's int core, or the
   feature's own [compute] (custom registries, [kvs_key]). *)
type shim = Core of Softnic.Codec.sem | Compute of Softnic.Feature.t

(* Stand-ins for the view and the packet when no shim will read them. *)
let no_view = Packet.Pkt.view ()
let no_pkt = Packet.Pkt.create Bytes.empty

(* Burst-at-a-time generated runtime: one ring advance, one refill, one
   doorbell and one contiguous completion-array load for the whole
   harvest, then the same constant-time accessor reads / software shims
   per packet. The amortised terms shrink as 1/n with the burst size
   while the per-packet work is unchanged — the batching win every real
   driver hand-writes and OpenDesc can generate. *)
let opendesc_batched ~(compiled : Opendesc.Compile.t) =
  let path = Opendesc.Compile.path compiled in
  let size = path.p_layout.size_bytes in
  (* The decoder, staged from the bindings: hardware fields by shape,
     software ones by core. *)
  let hw =
    Array.of_list
      (List.filter_map
         (function
           | _, Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
               Some (a.a_shape, a.a_bits > 62)
           | _, Opendesc.Compile.Software _ -> None)
         compiled.bindings)
  in
  let software =
    List.filter_map
      (function
        | _, Opendesc.Compile.Hardware _ -> None
        | _, Opendesc.Compile.Software (f : Softnic.Feature.t) -> Some f)
      compiled.bindings
  in
  let shims =
    Array.of_list
      (List.map
         (fun (f : Softnic.Feature.t) ->
           match Softnic.Registry.core_of f.compute with
           | Some sem -> Core sem
           | None -> Compute f)
         software)
  in
  let nshim = Array.length shims in
  (* What one packet adds to the ledger: an accessor read per [hw]
     field, and one software parse plus each shim's cost when there are
     shims. *)
  let per_pkt =
    let nhw = Array.length hw in
    (if nhw = 0 then [] else [ ("accessor", float_of_int nhw *. Cost.K.accessor_read) ])
    @
    if software = [] then []
    else
      ("sw_parse", parse_cost)
      :: List.map
           (fun (f : Softnic.Feature.t) -> ("soft_" ^ f.semantic, f.cost_cycles))
           software
  in
  let needs fact =
    Array.exists (function Core sem -> fact sem | Compute _ -> false) shims
  in
  let need_ipsum = needs Softnic.Codec.needs_ipsum in
  let need_l4sum = needs Softnic.Codec.needs_l4sum in
  let need_pkt = Array.exists (function Compute _ -> true | Core _ -> false) shims in
  let consume sink env (b : Device.burst) =
    let n = b.Device.bs_count in
    if n = 0 then 0L
    else begin
      (match sink with
      | Cost.Null -> ()
      | Cost.Ledger _ ->
          (* Once per burst, and not at all under [Null], which skips the
             arithmetic too. Each per-packet entry is charged as n times
             its cost, which equals n additions of it: every constant
             here is a small dyadic. *)
          Cost.charge sink "ring" Cost.K.ring_advance;
          Cost.charge sink "refill" Cost.K.refill;
          Cost.charge sink "doorbell" Cost.K.doorbell;
          (* Completion records are consecutive ring slots: the burst
             loads ceil(n*size/64) cache lines, not n*ceil(size/64). *)
          Cost.charge sink "desc_load"
            (float_of_int (((n * size) + 63) / 64) *. Cost.K.cache_line_load);
          List.iter (fun (k, c) -> Cost.charge sink k (float_of_int n *. c)) per_pkt);
      (* The byte path, under either sink: the values [opendesc] reads,
         with nothing boxed per packet. Hardware fields of up to 62 bits
         are read as ints; the sum is order-free, and shims keep their
         binding order, so stateful ones tick once per packet. Shims
         parse each packet into one view per call and share the checksum
         facts; a [Pkt.t] is built only for a boxed [compute]. The view
         is not kept in the closure: one stack may serve several queues,
         on several domains at once. *)
      let acc = ref 0L in
      let view = if nshim > 0 then Packet.Pkt.view () else no_view in
      for i = 0 to n - 1 do
        let cmpt = b.Device.bs_cmpts.(i) in
        for j = 0 to Array.length hw - 1 do
          let shape, wide = Array.unsafe_get hw j in
          acc :=
            Int64.add !acc
              (if wide then Softnic.Codec.read_int64 cmpt shape
               else Int64.of_int (Softnic.Codec.read_int cmpt shape))
        done;
        if nshim > 0 then begin
          let buf = b.Device.bs_pkts.(i) and len = b.Device.bs_lens.(i) in
          Packet.Pkt.parse_into view buf ~len;
          let ipsum = if need_ipsum then Softnic.Codec.ipv4_sum buf ~len view else -1 in
          let l4sum = if need_l4sum then Softnic.Codec.l4_sum buf ~len view else -1 in
          let pkt = if need_pkt then { Packet.Pkt.buf; len } else no_pkt in
          for j = 0 to nshim - 1 do
            match Array.unsafe_get shims j with
            | Core sem ->
                acc :=
                  Int64.add !acc
                    (Int64.of_int
                       (Softnic.Codec.value sem env buf ~len view ~ipsum ~l4sum))
            | Compute f -> acc := Int64.add !acc (f.compute env pkt view)
          done
        end
      done;
      !acc
    end
  in
  { Stack.bt_name = "opendesc-batched"; bt_consume = consume }

(* ASNI-style aggregation, with real frames: the "NIC" (a programmable
   one — the only kind that can do this, as the paper notes) packs the
   harvested burst — packets and their completion metadata — into one
   superframe via {!Aggregator}; the host walks the frame in place. Ring
   housekeeping amortises over the frame and there is no separate
   descriptor-ring load — the metadata rides payload cache lines. The
   metadata layout is fixed by the NIC program (the compiled path), with
   no per-queue negotiation: the paper's criticism of ASNI. *)
let asni ~(compiled : Opendesc.Compile.t) =
  let cmpt_size = (Opendesc.Compile.path compiled).p_layout.size_bytes in
  let consume sink env (b : Device.burst) =
    let frame =
      Aggregator.build ~cmpt_size
        (List.init b.bs_count (fun i -> (b.bs_pkts.(i), b.bs_lens.(i), b.bs_cmpts.(i))))
    in
    (* Host side: one ring/refill for the whole frame, then walk it. *)
    charge_ring sink;
    let acc = ref 0L in
    Aggregator.iter ~cmpt_size frame ~f:(fun ~pkt_off ~len ~cmpt_off ->
        Cost.charge sink "inline_md" (float_of_int cmpt_size *. 0.10);
        acc :=
          Int64.add !acc
            (decode sink env compiled.bindings
               ~read:(fun (a : Opendesc.Accessor.t) ->
                 (* in place, at the field's offset within the frame *)
                 Opendesc.Accessor.reader
                   ~bit_off:((8 * cmpt_off) + a.a_bit_off)
                   ~bits:a.a_bits frame)
               (lazy (parse_view sink (Bytes.sub frame pkt_off len) len))));
    !acc
  in
  { Stack.bt_name = "asni-aggregated"; bt_consume = consume }
