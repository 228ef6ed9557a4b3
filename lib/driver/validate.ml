type mismatch = {
  mm_semantic : string;
  mm_expected : int64;
  mm_got : int64;
  mm_probe : string;
}

type report = {
  probes : int;
  checked : string list;
  unchecked : string list;
  mismatches : mismatch list;
}

let conforms r = r.mismatches = []

(* A checked field's reference value: a builtin's int core, picked by
   identity with [Registry.core_of], or the feature's own boxed
   [compute] (custom registries, [kvs_key]). *)
type reference =
  | Core of Softnic.Codec.sem
  | Compute of (Softnic.Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64)

(* One checked field, staged once per path as {!Device} stages its
   encoder: the reference, the read shape and the mask are resolved
   here, not per packet. *)
type check = {
  c_field : Opendesc.Path.lfield;
  c_ref : reference;
  c_shape : Softnic.Codec.shape;
  c_mask : int64;
}

type checker = {
  ck_env : Softnic.Feature.env;
  ck_checks : check array;
  ck_ipsum : bool;  (** some core needs the IPv4 header sum *)
  ck_l4sum : bool;  (** some core needs the L4 sum *)
  ck_pkt : bool;  (** some reference is a [compute], which takes a [Pkt.t] *)
  ck_view : Packet.Pkt.view;
      (** the checker's own parse: the host must not trust the NIC's *)
}

let checker_of_path ~env ~softnic (path : Opendesc.Path.t) =
  let checks =
    List.filter_map
      (fun (f : Opendesc.Path.lfield) ->
        match f.l_semantic with
        | Some sem
          when f.l_bits <= 64
               && (not (Softnic.Semantic.has Nondeterministic sem))
               && not (Softnic.Semantic.has Stateful sem) ->
            Option.map
              (fun (feature : Softnic.Feature.t) ->
                {
                  c_field = f;
                  c_ref =
                    (match Softnic.Registry.core_of feature.compute with
                    | Some sem -> Core sem
                    | None -> Compute feature.compute);
                  c_shape = Softnic.Codec.shape ~bit_off:f.l_bit_off ~bits:f.l_bits;
                  c_mask = Packet.Bitops.mask f.l_bits;
                })
              (Softnic.Registry.find softnic sem)
        | _ -> None)
      path.p_layout.fields
  in
  let needs fact =
    List.exists (fun c -> match c.c_ref with Core sem -> fact sem | Compute _ -> false) checks
  in
  {
    ck_env = env;
    ck_checks = Array.of_list checks;
    ck_ipsum = needs Softnic.Codec.needs_ipsum;
    ck_l4sum = needs Softnic.Codec.needs_l4sum;
    ck_pkt =
      List.exists (fun c -> match c.c_ref with Compute _ -> true | Core _ -> false) checks;
    ck_view = Packet.Pkt.view ();
  }

let checker_of_device device =
  checker_of_path ~env:(Device.env device)
    ~softnic:(Softnic.Registry.builtin ())
    (Device.active_path device)

let checker_fields ck = Array.to_list (Array.map (fun c -> c.c_field) ck.ck_checks)

(* Does one field hold its reference value? Up to 62 bits the value and
   the read are ints, so nothing is boxed; a 63- or 64-bit field is
   compared on all 64 bits, so a flipped bit 63 is caught. *)
let holds env buf ~len pkt view ~ipsum ~l4sum cmpt c =
  if c.c_field.l_bits <= 62 then
    let expected =
      match c.c_ref with
      | Core sem -> Softnic.Codec.value sem env buf ~len view ~ipsum ~l4sum
      | Compute compute -> Int64.to_int (compute env pkt view)
    in
    expected land Int64.to_int c.c_mask = Softnic.Codec.read_int cmpt c.c_shape
  else
    let expected =
      match c.c_ref with
      | Core sem -> Int64.of_int (Softnic.Codec.value sem env buf ~len view ~ipsum ~l4sum)
      | Compute compute -> compute env pkt view
    in
    Int64.equal (Int64.logand expected c.c_mask) (Softnic.Codec.read_int64 cmpt c.c_shape)

(* Stands in for the packet when no reference will read it. *)
let no_pkt = Packet.Pkt.create Bytes.empty

(* One parse per packet into the checker's view, each shared sum once,
   only when a core needs it, and a [Pkt.t] only for a boxed reference;
   then the fields in layout order up to the first mismatch. *)
let check_desc ck buf ~len ~cmpt =
  let view = ck.ck_view in
  Packet.Pkt.parse_into view buf ~len;
  let ipsum = if ck.ck_ipsum then Softnic.Codec.ipv4_sum buf ~len view else -1 in
  let l4sum = if ck.ck_l4sum then Softnic.Codec.l4_sum buf ~len view else -1 in
  let pkt = if ck.ck_pkt then { Packet.Pkt.buf; len } else no_pkt in
  let checks = ck.ck_checks in
  let i = ref 0 in
  while
    !i < Array.length checks
    && holds ck.ck_env buf ~len pkt view ~ipsum ~l4sum cmpt (Array.unsafe_get checks !i)
  do
    incr i
  done;
  if !i = Array.length checks then None else checks.(!i).c_field.l_semantic

let probe_workloads seed =
  Packet.Workload.
    [
      make ~seed Min_size;
      make ~seed:(Int64.add seed 1L) Vlan_tagged;
      make ~seed:(Int64.add seed 2L) (Kvs { key_len = 9 });
      make ~seed:(Int64.add seed 3L) Ipv6_mix;
      make ~seed:(Int64.add seed 4L) Imix;
      make ~seed:(Int64.add seed 5L) (Raw_stream { size = 96 });
    ]

let run ?(probes = 64) ~device ~(compiled : Opendesc.Compile.t) () =
  let softnic = Softnic.Registry.builtin () in
  (* Reference environment shares the device's RSS key so hashes are
     comparable; everything else starts clean. *)
  let ref_env = Softnic.Feature.make_env ~rss_key:(Device.env device).rss_key () in
  (* Only hardware bindings are validated: software shims ARE the
     reference. Hardware semantics without a deterministic reference are
     reported unchecked. *)
  let hardware =
    List.filter
      (fun (_, b) -> match b with Opendesc.Compile.Hardware _ -> true | _ -> false)
      compiled.bindings
  in
  let checkable, unchecked =
    List.partition
      (fun (sem, _) ->
        Softnic.Registry.mem softnic sem
        && not (Softnic.Semantic.has Nondeterministic sem))
      hardware
    |> fun (yes, no) -> (yes, List.map fst no)
  in
  let workloads = probe_workloads 4242L in
  let mismatches = ref [] in
  for i = 0 to probes - 1 do
    let w = List.nth workloads (i mod List.length workloads) in
    let pkt = Packet.Workload.next w in
    (* every fifth probe carries a corrupted IPv4 checksum *)
    let pkt =
      if i mod 5 = 4 then Packet.Builder.corrupt_ipv4_checksum pkt else pkt
    in
    if Device.rx_inject device pkt then
      match Device.rx_consume device with
      | None -> ()
      | Some (_, _, cmpt) ->
          let view = Packet.Pkt.parse pkt in
          List.iter
            (fun (sem, binding) ->
              match binding with
              | Opendesc.Compile.Hardware (a : Opendesc.Accessor.t) ->
                  let feature = Option.get (Softnic.Registry.find softnic sem) in
                  let expected =
                    Int64.logand
                      (feature.compute ref_env pkt view)
                      (Packet.Bitops.mask (min a.a_bits 64))
                  in
                  let got = a.a_get cmpt in
                  if not (Int64.equal expected got) then
                    mismatches :=
                      {
                        mm_semantic = sem;
                        mm_expected = expected;
                        mm_got = got;
                        mm_probe = Packet.Bitops.hex_sub pkt.buf ~pos:0 ~len:(min pkt.len 48);
                      }
                      :: !mismatches
              | Opendesc.Compile.Software _ -> ())
            checkable
  done;
  {
    probes;
    checked = List.map fst checkable;
    unchecked;
    mismatches = List.rev !mismatches;
  }

let pp ppf r =
  Format.fprintf ppf "@[<v>validation: %d probes, %d semantics checked%s@,"
    r.probes (List.length r.checked)
    (match r.unchecked with
    | [] -> ""
    | u -> Printf.sprintf " (unchecked: %s)" (String.concat "," u));
  (match r.mismatches with
  | [] -> Format.fprintf ppf "device conforms to its description@,"
  | ms ->
      List.iter
        (fun m ->
          Format.fprintf ppf "MISMATCH %s: expected 0x%Lx, device wrote 0x%Lx (probe %s...)@,"
            m.mm_semantic m.mm_expected m.mm_got
            (String.sub m.mm_probe 0 (min 24 (String.length m.mm_probe))))
        ms);
  Format.fprintf ppf "@]"
