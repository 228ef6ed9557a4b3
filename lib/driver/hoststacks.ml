let desc_load_cost size_bytes =
  float_of_int ((size_bytes + 63) / 64) *. Cost.K.cache_line_load

let charge_desc_load ?(amortize = 1) ledger (path : Opendesc.Path.t) =
  Cost.charge ledger "desc_load"
    (desc_load_cost path.p_layout.size_bytes /. float_of_int amortize)

(* Software fallback for one semantic; parses at most once per packet via
   the [view] lazy cell. *)
let soft_read ledger env softnic view sem =
  match Softnic.Registry.find softnic sem with
  | None -> 0L (* nothing to compute with; callers treat the value as absent *)
  | Some f ->
      let pkt, v = Lazy.force view in
      Stack.charge_shim ledger env pkt v f

let lazy_view ledger (rx : Stack.rx) = lazy (Stack.parse_view ledger rx.pkt rx.len)

(* ------------------------------------------------------------------ *)

let skbuff ~(path : Opendesc.Path.t) ~requested ~softnic =
  let accessors = Opendesc.Accessor.of_layout path.p_layout in
  let consume ledger env (rx : Stack.rx) =
    Stack.charge_ring ledger;
    charge_desc_load ledger path;
    Cost.charge ledger "alloc" Cost.K.skbuff_alloc;
    (* The driver extracts everything the descriptor has, requested or
       not — that's the sk_buff model. *)
    let extracted = ref [] in
    List.iter
      (fun (a : Opendesc.Accessor.t) ->
        Cost.charge ledger "extract" (Cost.K.field_branch +. Cost.K.field_move);
        let v = a.a_get rx.cmpt in
        match a.a_semantic with
        | Some s -> extracted := (s, v) :: !extracted
        | None -> ())
      accessors;
    let view = lazy_view ledger rx in
    List.fold_left
      (fun acc sem ->
        match List.assoc_opt sem !extracted with
        | Some v ->
            Cost.charge ledger "app_read" 1.0;
            Int64.add acc v
        | None -> Int64.add acc (soft_read ledger env softnic view sem))
      0L requested
  in
  { Stack.st_name = "skbuff"; st_consume = consume }

(* ------------------------------------------------------------------ *)

let dpdk ~(path : Opendesc.Path.t) ~requested ~softnic =
  let accessors = Opendesc.Accessor.of_layout path.p_layout in
  (* Offloads outside the standard mbuf fields must be enabled by the
     application; only enabled ones are copied through mbuf_dyn. *)
  let mbuf_field = Softnic.Semantic.has Mbuf_field in
  let enabled_dyn s = List.mem s requested && not (mbuf_field s) in
  let consume ledger env (rx : Stack.rx) =
    Stack.charge_ring ledger;
    charge_desc_load ledger path;
    Cost.charge ledger "alloc" Cost.K.mbuf_alloc;
    let standard = ref [] and dyn = ref [] in
    List.iter
      (fun (a : Opendesc.Accessor.t) ->
        match a.a_semantic with
        | Some s when mbuf_field s ->
            (* dedicated rte_mbuf field, filled unconditionally *)
            Cost.charge ledger "extract" (Cost.K.field_branch +. Cost.K.field_move);
            standard := (s, a.a_get rx.cmpt) :: !standard
        | Some s when enabled_dyn s ->
            (* mbuf_dyn: offset lookup + guarded copy *)
            Cost.charge ledger "dyn_extract"
              (Cost.K.mbuf_dyn_lookup +. Cost.K.field_move);
            dyn := (s, a.a_get rx.cmpt) :: !dyn
        | Some _ | None ->
            (* offload disabled: the driver still tests its flag *)
            Cost.charge ledger "extract" Cost.K.field_branch)
      accessors;
    let view = lazy_view ledger rx in
    List.fold_left
      (fun acc sem ->
        match List.assoc_opt sem !standard with
        | Some v ->
            Cost.charge ledger "app_read" 1.0;
            Int64.add acc v
        | None -> (
            match List.assoc_opt sem !dyn with
            | Some v ->
                Cost.charge ledger "app_read_dyn" Cost.K.mbuf_dyn_lookup;
                Int64.add acc v
            | None -> Int64.add acc (soft_read ledger env softnic view sem)))
      0L requested
  in
  { Stack.st_name = "dpdk-mbuf"; st_consume = consume }

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
  let consume ledger env (rx : Stack.rx) =
    Stack.charge_ring ledger;
    Cost.charge ledger "xdp_prologue" Cost.K.xdp_prologue;
    charge_desc_load ledger path;
    let view = lazy_view ledger rx in
    List.fold_left
      (fun acc sem ->
        match
          List.find_opt
            (fun (a : Opendesc.Accessor.t) -> a.a_semantic = Some sem)
            exposed
        with
        | Some a ->
            Cost.charge ledger "accessor" Cost.K.accessor_read;
            Int64.add acc (a.a_get rx.cmpt)
        | None -> Int64.add acc (soft_read ledger env softnic view sem))
      0L requested
  in
  { Stack.st_name = "xdp"; st_consume = consume }

(* ------------------------------------------------------------------ *)

let streaming ~requested ~softnic =
  let consume ledger env (rx : Stack.rx) =
    (* ENSO-style: multi-packet notifications (ring work amortises over a
       large aggregate), no descriptor parsed; the inline copy into the
       stream is the per-byte price. *)
    Stack.charge_ring ~amortize:8 ledger;
    Cost.charge ledger "stream" (Cost.K.stream_copy_per_byte *. float_of_int rx.len);
    let view = lazy_view ledger rx in
    List.fold_left
      (fun acc sem -> Int64.add acc (soft_read ledger env softnic view sem))
      0L requested
  in
  { Stack.st_name = "streaming"; st_consume = consume }

(* ------------------------------------------------------------------ *)

let direct_reads ~name ~amortize ~(path : Opendesc.Path.t) ~requested ~softnic =
  (* Shared by the hand-written minimal driver and the generated runtime:
     read exactly the requested fields, shim the rest. With [amortize] >
     1 descriptors are processed in lanes of that width (the §5 SIMD
     ablation) and the loads amortise. *)
  let bound =
    List.map
      (fun sem ->
        match Opendesc.Path.field_for path sem with
        | Some f -> (sem, Some (Opendesc.Accessor.of_lfield f))
        | None -> (sem, None))
      requested
  in
  let consume ledger env (rx : Stack.rx) =
    Stack.charge_ring ~amortize ledger;
    charge_desc_load ~amortize ledger path;
    if amortize > 1 then Cost.charge ledger "simd_swizzle" 1.5;
    let view = lazy_view ledger rx in
    List.fold_left
      (fun acc (sem, accessor) ->
        match accessor with
        | Some (a : Opendesc.Accessor.t) ->
            Cost.charge ledger "accessor" Cost.K.accessor_read;
            Int64.add acc (a.a_get rx.cmpt)
        | None -> Int64.add acc (soft_read ledger env softnic view sem))
      0L bound
  in
  { Stack.st_name = name; st_consume = consume }

let minimal ~path ~requested ~softnic =
  direct_reads ~name:"minimal-tinynf" ~amortize:1 ~path ~requested ~softnic

let opendesc ~(compiled : Opendesc.Compile.t) =
  let path = Opendesc.Compile.path compiled in
  let consume ledger env (rx : Stack.rx) =
    Stack.charge_ring ledger;
    charge_desc_load ledger path;
    let view = lazy_view ledger rx in
    List.fold_left
      (fun acc (_, binding) ->
        match binding with
        | Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
            Cost.charge ledger "accessor" Cost.K.accessor_read;
            Int64.add acc (a.a_get rx.cmpt)
        | Opendesc.Compile.Software f ->
            let pkt, v = Lazy.force view in
            Int64.add acc (Stack.charge_shim ledger env pkt v f))
      0L compiled.bindings
  in
  { Stack.st_name = "opendesc"; st_consume = consume }

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
  (* Bind once at stack-construction time: an array walks without the
     list's pointer chasing. *)
  let bindings = Array.of_list (List.map snd compiled.bindings) in
  let nbind = Array.length bindings in
  (* The byte path's decoder, staged from the same bindings: hardware
     fields by shape, software ones by core. *)
  let hw =
    Array.of_list
      (List.filter_map
         (function
           | _, Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
               Some (a.a_shape, a.a_bits > 62)
           | _, Opendesc.Compile.Software _ -> None)
         compiled.bindings)
  in
  let shims =
    Array.of_list
      (List.filter_map
         (function
           | _, Opendesc.Compile.Hardware _ -> None
           | _, Opendesc.Compile.Software (f : Softnic.Feature.t) ->
               Some
                 (match Softnic.Registry.core_of f.compute with
                 | Some sem -> Core sem
                 | None -> Compute f))
         compiled.bindings)
  in
  let nshim = Array.length shims in
  let needs fact =
    Array.exists (function Core sem -> fact sem | Compute _ -> false) shims
  in
  let need_ipsum = needs Softnic.Codec.needs_ipsum in
  let need_l4sum = needs Softnic.Codec.needs_l4sum in
  let need_pkt = Array.exists (function Compute _ -> true | Core _ -> false) shims in
  let consume sink env (b : Device.burst) =
    let n = b.Device.bs_count in
    if n = 0 then 0L
    else
      match sink with
      | Cost.Ledger ledger ->
          (* The accounting path: charge structure (and float addition
             order) identical to the historical inline path, so ledgers
             and model throughputs are bit-for-bit unchanged. *)
          Cost.charge ledger "ring" Cost.K.ring_advance;
          Cost.charge ledger "refill" Cost.K.refill;
          Cost.charge ledger "doorbell" Cost.K.doorbell;
          (* Completion records are consecutive ring slots: the burst loads
             ceil(n*size/64) cache lines, not n*ceil(size/64). *)
          Cost.charge ledger "desc_load"
            (float_of_int (((n * size) + 63) / 64) *. Cost.K.cache_line_load);
          let acc = ref 0L in
          for i = 0 to n - 1 do
            let cmpt = b.Device.bs_cmpts.(i) in
            let view =
              lazy (Stack.parse_view ledger b.Device.bs_pkts.(i) b.Device.bs_lens.(i))
            in
            for j = 0 to nbind - 1 do
              match bindings.(j) with
              | Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
                  Cost.charge ledger "accessor" Cost.K.accessor_read;
                  acc := Int64.add !acc (a.a_get cmpt)
              | Opendesc.Compile.Software f ->
                  let pkt, v = Lazy.force view in
                  acc := Int64.add !acc (Stack.charge_shim ledger env pkt v f)
            done
          done;
          !acc
      | Cost.Null ->
          (* The byte path: same values, no bookkeeping, nothing boxed
             per packet. Hardware fields of up to 62 bits are read as
             ints; the sum is order-free, and shims keep their binding
             order, so stateful ones tick as on the accounting path.
             Shims parse each packet into one view per call and share
             the checksum facts; a [Pkt.t] is built only for a boxed
             [compute]. The view is not kept in the closure: one stack
             may serve several queues, on several domains at once. *)
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
              let ipsum =
                if need_ipsum then Softnic.Codec.ipv4_sum buf ~len view else -1
              in
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
  in
  { Stack.bt_name = "opendesc-batched"; bt_consume = consume }

(* ASNI-style aggregation, with real frames: the "NIC" (a programmable
   one — the only kind that can do this, as the paper notes) packs
   packets and their completion metadata into superframes via
   {!Aggregator}; the host walks each frame in place. Ring housekeeping
   amortises over the frame and there is no separate descriptor-ring
   load — the metadata rides payload cache lines. The metadata layout is
   fixed by the NIC program (the compiled path), with no per-queue
   negotiation: the paper's criticism of ASNI. *)
let run_asni ?(pkts = 4096) ?(frame_pkts = 32) ~device
    ~(workload : Packet.Workload.t) ~(compiled : Opendesc.Compile.t) () =
  Device.reset_counters device;
  let path = Opendesc.Compile.path compiled in
  let cmpt_size = path.p_layout.size_bytes in
  let ledger = Cost.create () in
  let env = Softnic.Feature.make_env () in
  let values = ref [] in
  let consumed = ref 0 in
  let wire = Bytes.create (Packet.Workload.max_len workload) in
  while !consumed < pkts do
    let want = min frame_pkts (pkts - !consumed) in
    for _ = 1 to want do
      let len = Packet.Workload.next_into workload wire in
      ignore (Device.rx_inject_raw device wire ~len)
    done;
    (* On-card aggregation: drain the queue into one superframe. *)
    let rec drain acc =
      match Device.rx_consume device with
      | Some rx -> drain (rx :: acc)
      | None -> List.rev acc
    in
    let rxs = drain [] in
    let frame = Aggregator.build ~cmpt_size rxs in
    (* Host side: one ring/refill for the whole frame, then walk it. *)
    Stack.charge_ring ledger;
    Aggregator.iter ~cmpt_size frame ~f:(fun ~pkt_off ~len ~cmpt_off ->
        Cost.charge ledger "inline_md" (float_of_int cmpt_size *. 0.10);
        let view =
          lazy
            (let buf = Bytes.sub frame pkt_off len in
             Stack.parse_view ledger buf len)
        in
        let v =
          List.fold_left
            (fun acc (_, binding) ->
              match binding with
              | Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
                  Cost.charge ledger "accessor" Cost.K.accessor_read;
                  (* read in place, at the field's offset within the frame *)
                  Int64.add acc
                    (Opendesc.Accessor.reader
                       ~bit_off:((8 * cmpt_off) + a.a_bit_off)
                       ~bits:a.a_bits frame)
              | Opendesc.Compile.Software f ->
                  let pkt, vw = Lazy.force view in
                  Int64.add acc (Stack.charge_shim ledger env pkt vw f))
            0L compiled.bindings
        in
        values := v :: !values;
        incr consumed)
  done;
  let stats =
    Stats.make ~name:"asni-aggregated" ~pkts:!consumed ~ledger
      ~dma_bytes:(Device.dma_bytes device) ~drops:(Device.drops device)
  in
  (stats, List.rev !values)

let opendesc_simd ~(compiled : Opendesc.Compile.t) =
  let path = Opendesc.Compile.path compiled in
  let requested = Opendesc.Intent.required compiled.intent in
  let softnic = Softnic.Registry.builtin () in
  let s = direct_reads ~name:"opendesc-simd4" ~amortize:4 ~path ~requested ~softnic in
  s
