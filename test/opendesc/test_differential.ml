(* Differential tests over the whole NIC catalog.

   Three independent decoders must agree on every completion record:
   the P4 interpreter parsing the record with a parser generated from
   the path layout, the synthesized OCaml accessors, and a bit-by-bit
   MSB-first reference reader written here from the layout definition
   alone. Random descriptor bytes exercise every field boundary; the
   device-driven legs then check that hardware-resolved semantics match
   the reference P4 implementations end to end, and that batched
   harvesting is byte-identical to the one-at-a-time path. *)

open Opendesc

let check = Alcotest.check
let ai = Alcotest.int
let ai64 = Alcotest.int64
let abytes = Alcotest.bytes

(* ------------------------------------------------------------------ *)
(* Leg 3: an independent reference reader. Deliberately the dumbest
   possible implementation — one bit at a time, MSB first — sharing no
   code with Accessor's specialised fast paths. Fields wider than 64
   bits read as 0, matching both Accessor.reader and P4.Interp. *)

let ref_read buf ~bit_off ~bits =
  if bits > 64 then 0L
  else begin
    let v = ref 0L in
    for i = bit_off to bit_off + bits - 1 do
      let byte = Char.code (Bytes.get buf (i / 8)) in
      let bit = (byte lsr (7 - (i mod 8))) land 1 in
      v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int bit)
    done;
    !v
  end

(* ------------------------------------------------------------------ *)
(* Layout -> generated P4 parser. The layout's fields are flattened into
   one header (synthetic pad fields fill any uncovered bits) and a
   single-state parser extracts it, so P4.Interp decodes the record with
   none of the accessor machinery involved. *)

(* (original field if any, bit_off, bits) covering every bit of the
   record in order. *)
let covering_fields (layout : Path.layout) =
  let total = 8 * layout.size_bytes in
  let rec go acc off = function
    | [] -> List.rev (if off < total then (None, off, total - off) :: acc else acc)
    | (f : Path.lfield) :: rest ->
        let acc = if f.l_bit_off > off then (None, off, f.l_bit_off - off) :: acc else acc in
        go ((Some f, f.l_bit_off, f.l_bits) :: acc) (f.l_bit_off + f.l_bits) rest
  in
  go [] 0 layout.fields

let interp_source_of_layout layout =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "header diff_t {\n";
  List.iteri
    (fun i (_, _, bits) -> Buffer.add_string buf (Printf.sprintf "  bit<%d> f%d;\n" bits i))
    (covering_fields layout);
  Buffer.add_string buf
    "}\nstruct diff_hs_t { diff_t d; }\n\
     parser DiffParser(packet_in pkt, out diff_hs_t hdrs) {\n\
     \  state start { pkt.extract(hdrs.d); transition accept; }\n}\n";
  Buffer.contents buf

let descriptors_per_nic = 1024

let test_decode_differential (m : Nic_models.Model.t) () =
  let nic = m.spec.nic_name in
  let paths = m.spec.paths in
  let reps = (descriptors_per_nic + List.length paths - 1) / List.length paths in
  let rng = Random.State.make [| 0xD1FF; Hashtbl.hash nic |] in
  List.iter
    (fun (p : Path.t) ->
      let fields = covering_fields p.p_layout in
      let tenv = Prelude.check (interp_source_of_layout p.p_layout) in
      let parser = Option.get (P4.Typecheck.find_parser tenv "DiffParser") in
      let size = p.p_layout.size_bytes in
      for _ = 1 to reps do
        let desc =
          Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256))
        in
        let store = P4.Interp.create tenv in
        P4.Interp.run_parser store parser ~packet:desc ~len:size ~param:"pkt";
        List.iteri
          (fun i (orig, bit_off, bits) ->
            let label =
              Printf.sprintf "%s/p%d bits %d+%d" nic p.p_index bit_off bits
            in
            let reference = ref_read desc ~bit_off ~bits in
            let interpreted =
              match P4.Interp.get_int store [ "hdrs"; "d"; Printf.sprintf "f%d" i ] with
              | Some v -> v
              | None -> Alcotest.fail (label ^ ": interp did not bind the field")
            in
            let synthesized = Accessor.reader ~bit_off ~bits desc in
            check ai64 (label ^ " interp=ref") reference interpreted;
            check ai64 (label ^ " accessor=ref") reference synthesized;
            match orig with
            | Some f ->
                check ai64
                  (label ^ " of_lfield=ref")
                  reference
                  ((Accessor.of_lfield f).a_get desc)
            | None -> ())
          fields
      done)
    paths

(* ------------------------------------------------------------------ *)
(* Device leg: inject real traffic, harvest completions, and check that
   every P4-expressible semantic the path carries decodes to exactly
   what the reference P4 implementation computes on the same packet. *)

let test_device_vs_refimpl (m : Nic_models.Model.t) () =
  let nic = m.spec.nic_name in
  let mask bits v =
    if bits >= 64 then v
    else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)
  in
  List.iter
    (fun (p : Path.t) ->
      match p.p_assignments with
      | [] -> ()
      | config :: _ ->
          let refs =
            List.filter_map
              (fun (f : Path.lfield) ->
                match f.l_semantic with
                | Some s when List.mem s Refimpl.p4_semantics -> (
                    match Refimpl.interpret s with
                    | Ok run -> Some (f, s, run)
                    | Error _ -> None)
                | _ -> None)
              p.p_layout.fields
          in
          if refs <> [] then
            List.iter
              (fun profile ->
                let device = Driver.Device.create_exn ~config m in
                let w = Packet.Workload.make ~seed:7L profile in
                for _ = 1 to 128 do
                  ignore (Driver.Device.rx_inject device (Packet.Workload.next w))
                done;
                let rec drain () =
                  match Driver.Device.rx_consume device with
                  | None -> ()
                  | Some (buf, len, cmpt) ->
                      let pkt = Packet.Pkt.sub buf ~len in
                      List.iter
                        (fun ((f : Path.lfield), s, run) ->
                          check ai64
                            (Printf.sprintf "%s/p%d %s" nic p.p_index s)
                            (mask f.l_bits (run pkt))
                            (Accessor.reader ~bit_off:f.l_bit_off ~bits:f.l_bits
                               cmpt))
                        refs;
                      drain ()
                in
                drain ())
              Packet.Workload.[ Imix; Vlan_tagged ])
    m.spec.paths

(* ------------------------------------------------------------------ *)
(* Batched harvesting changes nothing observable: two identical devices
   fed the same traffic, one drained with rx_consume and one with
   rx_consume_batch (deliberately ragged: burst capacity coprime with
   the injection chunk), yield byte-identical (packet, length,
   completion) streams. *)

let test_batched_equals_unbatched (m : Nic_models.Model.t) () =
  let nic = m.spec.nic_name in
  let paths = m.spec.paths in
  let per_path = (descriptors_per_nic + List.length paths - 1) / List.length paths in
  List.iter
    (fun (p : Path.t) ->
      match p.p_assignments with
      | [] -> ()
      | config :: _ ->
          let d_one = Driver.Device.create_exn ~config m in
          let d_batch = Driver.Device.create_exn ~config m in
          let w_one = Packet.Workload.make ~seed:42L Packet.Workload.Imix in
          let w_batch = Packet.Workload.make ~seed:42L Packet.Workload.Imix in
          let burst = Driver.Device.burst_create ~capacity:13 d_batch in
          let compared = ref 0 in
          let rec drain_compare () =
            let n = Driver.Device.rx_consume_batch d_batch burst in
            if n > 0 then begin
              for i = 0 to n - 1 do
                match Driver.Device.rx_consume d_one with
                | None -> Alcotest.fail (nic ^ ": unbatched stream ran dry first")
                | Some (buf, len, cmpt) ->
                    let label =
                      Printf.sprintf "%s/p%d pkt %d" nic p.p_index !compared
                    in
                    check ai (label ^ " len") len burst.Driver.Device.bs_lens.(i);
                    check abytes (label ^ " payload") buf
                      (Bytes.sub burst.Driver.Device.bs_pkts.(i) 0 len);
                    check ai (label ^ " cmpt len") (Bytes.length cmpt)
                      burst.Driver.Device.bs_cmpt_lens.(i);
                    check abytes (label ^ " cmpt") cmpt
                      (Bytes.sub burst.Driver.Device.bs_cmpts.(i) 0
                         burst.Driver.Device.bs_cmpt_lens.(i));
                    incr compared
              done;
              drain_compare ()
            end
          in
          let remaining = ref per_path in
          while !remaining > 0 do
            let chunk = min 29 !remaining in
            for _ = 1 to chunk do
              let a = Driver.Device.rx_inject d_one (Packet.Workload.next w_one) in
              let b = Driver.Device.rx_inject d_batch (Packet.Workload.next w_batch) in
              check Alcotest.bool (nic ^ " inject outcome") a b
            done;
            remaining := !remaining - chunk;
            drain_compare ()
          done;
          (match Driver.Device.rx_consume d_one with
          | Some _ -> Alcotest.fail (nic ^ ": batched stream ran dry first")
          | None -> ());
          check ai (nic ^ " total packets compared") per_path !compared)
    m.spec.paths

(* ------------------------------------------------------------------ *)
(* Chaos leg: under corruption-only fault plans the recovery path's
   accepted stream stays decodable — the P4 interpreter, the compiled
   accessors and the bit-by-bit reference reader agree on every
   validator-accepted completion — and every contract-violating
   descriptor is quarantined, on every NIC in the catalog. *)

let test_chaos_differential (m : Nic_models.Model.t) () =
  let nic = m.spec.nic_name in
  List.iter
    (fun (p : Path.t) ->
      match p.p_assignments with
      | [] -> ()
      | config :: _ ->
          let fields = covering_fields p.p_layout in
          let tenv = Prelude.check (interp_source_of_layout p.p_layout) in
          let parser = Option.get (P4.Typecheck.find_parser tenv "DiffParser") in
          let size = p.p_layout.size_bytes in
          let device = Driver.Device.create_exn ~config m in
          let plan =
            {
              (Driver.Fault.zero_plan
                 (Int64.of_int (Hashtbl.hash (nic, p.p_index))))
              with
              Driver.Fault.flip_rate = 0.15;
              Driver.Fault.semantic_rate = 0.15;
              Driver.Fault.torn_rate = 0.1;
            }
          in
          let fq = Driver.Fault.wrap plan device in
          let w = Packet.Workload.make ~seed:29L Packet.Workload.Imix in
          for _ = 1 to 128 do
            ignore (Driver.Fault.rx_inject fq (Packet.Workload.next w))
          done;
          Driver.Fault.flush fq;
          let burst = Driver.Device.burst_create ~capacity:16 device in
          let accepted = ref 0 in
          let again = ref true in
          while !again do
            let n = Driver.Fault.harvest fq burst in
            for i = 0 to n - 1 do
              let cmpt =
                Bytes.sub burst.Driver.Device.bs_cmpts.(i) 0
                  burst.Driver.Device.bs_cmpt_lens.(i)
              in
              check ai
                (Printf.sprintf "%s/p%d cmpt size" nic p.p_index)
                size (Bytes.length cmpt);
              let store = P4.Interp.create tenv in
              P4.Interp.run_parser store parser ~packet:cmpt ~len:size
                ~param:"pkt";
              List.iteri
                (fun j (_, bit_off, bits) ->
                  let label =
                    Printf.sprintf "%s/p%d chaos desc %d bits %d+%d" nic
                      p.p_index !accepted bit_off bits
                  in
                  let reference = ref_read cmpt ~bit_off ~bits in
                  (match
                     P4.Interp.get_int store
                       [ "hdrs"; "d"; Printf.sprintf "f%d" j ]
                   with
                  | Some v -> check ai64 (label ^ " interp=ref") reference v
                  | None ->
                      Alcotest.fail (label ^ ": interp did not bind the field"));
                  check ai64 (label ^ " accessor=ref") reference
                    (Accessor.reader ~bit_off ~bits cmpt))
                fields;
              incr accepted
            done;
            again := n > 0 || Driver.Fault.rx_available fq > 0
          done;
          let c = Driver.Fault.counters fq in
          check ai
            (nic ^ " every violation quarantined")
            c.Driver.Fault.contract_violating c.Driver.Fault.quarantined;
          check ai
            (nic ^ " detected = violating")
            c.Driver.Fault.contract_violating c.Driver.Fault.detected;
          check ai
            (nic ^ " accepted + quarantined accounts for the stream")
            c.Driver.Fault.rx_accepted
            (!accepted + c.Driver.Fault.quarantined);
          check Alcotest.bool (nic ^ " reconciles") true
            (Driver.Fault.reconciles c))
    m.spec.paths

(* ------------------------------------------------------------------ *)
(* Synthesis leg: the device's staged per-path plan writes exactly the
   completion the model's unstaged [resolve] gives through
   [Accessor.write_record], for the same packets in the same order from
   a fresh feature environment (so the clock and per-flow counters tick
   alike) — on the path chosen at [create], after [configure] to every
   other path, and after a firmware [upgrade]. *)

let synthesis_traffic () =
  let draw profile =
    let w = Packet.Workload.make ~seed:11L profile in
    List.init 24 (fun _ -> Packet.Workload.next w)
  in
  let inner =
    Packet.Builder.ipv4
      ~flow:
        (Packet.Fivetuple.make ~src_ip:1l ~dst_ip:2l ~src_port:10 ~dst_port:20
           ~proto:Packet.Hdr.Proto.tcp)
      (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  let vxlan =
    List.init 8 (fun i ->
        Packet.Builder.vxlan ~vni:(0x100 + i)
          ~outer_flow:
            (Packet.Fivetuple.make ~src_ip:3l ~dst_ip:4l ~src_port:(40000 + i)
               ~dst_port:4789 ~proto:Packet.Hdr.Proto.udp)
          ~inner)
  in
  List.concat_map draw
    Packet.Workload.[ Min_size; Imix; Ipv6_mix; Vlan_tagged; Raw_stream { size = 96 } ]
  @ vxlan

(* [env] must have seen the same packets as the device's own. *)
let check_synthesis ~label device (m : Nic_models.Model.t) env pkts =
  let layout = (Driver.Device.active_path device).p_layout in
  List.iteri
    (fun i pkt ->
      check Alcotest.bool (label ^ " injected") true (Driver.Device.rx_inject device pkt);
      match Driver.Device.rx_consume device with
      | None -> Alcotest.fail (label ^ ": no completion")
      | Some (_, _, cmpt) ->
          let expected = Bytes.make layout.size_bytes '\000' in
          Accessor.write_record layout expected
            (m.resolve env pkt (Packet.Pkt.parse pkt));
          check abytes (Printf.sprintf "%s pkt %d" label i) expected cmpt)
    pkts

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

let test_device_synthesis (m : Nic_models.Model.t) () =
  let traffic = synthesis_traffic () in
  match List.filter (fun (p : Path.t) -> p.p_assignments <> []) m.spec.paths with
  | [] -> ()
  | first :: _ as paths ->
      let device = Driver.Device.create_exn ~config:(List.hd first.p_assignments) m in
      let env = Softnic.Feature.make_env () in
      List.iteri
        (fun i (p : Path.t) ->
          if i > 0 then ok_or_fail (Driver.Device.configure device (List.hd p.p_assignments));
          check ai (m.spec.nic_name ^ " active path") p.p_index
            (Driver.Device.active_path device).p_index;
          check_synthesis
            ~label:(Printf.sprintf "%s/p%d" m.spec.nic_name p.p_index)
            device m env traffic)
        paths

(* Harvest leg: each harvest copies what the device wrote, to offset 0,
   and nothing else. Burst buffers are filled with 0xA5 before every
   harvest, so a frame or completion copied short, long or from the
   wrong place shows. Every path is visited after [configure], on a
   small ring so slots are reused; one frame fills the packet buffer
   exactly and one a byte longer is dropped. *)
let harvest_traffic buf_size =
  let draw profile =
    let w = Packet.Workload.make ~seed:13L profile in
    List.init 12 (fun _ -> Packet.Workload.next w)
  in
  List.concat_map draw Packet.Workload.[ Min_size; Imix; Vlan_tagged; Ipv6_mix ]
  @ [ Packet.Builder.raw ~len:buf_size ~fill:'f' ]

let test_harvest_copies_what_was_written (m : Nic_models.Model.t) () =
  let paths = List.filter (fun (p : Path.t) -> p.p_assignments <> []) m.spec.paths in
  match paths with
  | [] -> ()
  | first :: _ ->
      let device =
        Driver.Device.create_exn ~queue_depth:16 ~config:(List.hd first.p_assignments) m
      in
      let buf_size = Driver.Device.buf_size device in
      let traffic = harvest_traffic buf_size in
      let oversize = Packet.Builder.raw ~len:(buf_size + 1) ~fill:'o' in
      let env = Softnic.Feature.make_env () in
      let burst = Driver.Device.burst_create ~capacity:8 device in
      (* Inject a chunk, remembering each packet and the completion
         [resolve] gives for it in injection order. *)
      let inject layout chunk =
        List.map
          (fun pkt ->
            check Alcotest.bool "injected" true (Driver.Device.rx_inject device pkt);
            let expected = Bytes.make layout.Path.size_bytes '\000' in
            Accessor.write_record layout expected
              (m.resolve env pkt (Packet.Pkt.parse pkt));
            (pkt, expected))
          chunk
      in
      let rec chunks = function
        | [] -> []
        | l -> List.filteri (fun i _ -> i < 8) l :: chunks (List.filteri (fun i _ -> i >= 8) l)
      in
      List.iteri
        (fun pi (p : Path.t) ->
          if pi > 0 then ok_or_fail (Driver.Device.configure device (List.hd p.p_assignments));
          let layout = (Driver.Device.active_path device).p_layout in
          let size = layout.size_bytes in
          let label i = Printf.sprintf "%s/p%d pkt %d" m.spec.nic_name p.p_index i in
          let check_one i (pkt : Packet.Pkt.t) expected ~got_pkt ~len ~got_cmpt =
            check ai (label i ^ " len") pkt.len len;
            check abytes (label i ^ " frame") (Bytes.sub pkt.buf 0 pkt.len)
              (Bytes.sub got_pkt 0 len);
            check abytes (label i ^ " completion") expected (Bytes.sub got_cmpt 0 size)
          in
          List.iter
            (fun chunk ->
              let sent = inject layout chunk in
              Array.iter (fun b -> Bytes.fill b 0 (Bytes.length b) '\xA5') burst.bs_pkts;
              Array.iter (fun b -> Bytes.fill b 0 (Bytes.length b) '\xA5') burst.bs_cmpts;
              let n = Driver.Device.rx_consume_batch device burst in
              check ai "whole chunk harvested" (List.length sent) n;
              List.iteri
                (fun i (pkt, expected) ->
                  check ai (label i ^ " cmpt len") size burst.bs_cmpt_lens.(i);
                  check_one i pkt expected ~got_pkt:burst.bs_pkts.(i)
                    ~len:burst.bs_lens.(i) ~got_cmpt:burst.bs_cmpts.(i))
                sent;
              (* The same chunk again, one packet at a time. *)
              List.iteri
                (fun i (pkt, expected) ->
                  match Driver.Device.rx_consume device with
                  | None -> Alcotest.fail (label i ^ ": no completion")
                  | Some (got_pkt, len, got_cmpt) ->
                      check ai (label i ^ " exact frame") len (Bytes.length got_pkt);
                      check ai (label i ^ " exact completion") size (Bytes.length got_cmpt);
                      check_one i pkt expected ~got_pkt ~len ~got_cmpt)
                (inject layout chunk))
            (chunks traffic);
          let drops = Driver.Device.drops device in
          check Alcotest.bool "oversize frame refused" false
            (Driver.Device.rx_inject device oversize);
          check ai "oversize frame counted as a drop" (drops + 1) (Driver.Device.drops device);
          check ai "nothing left behind" 0 (Driver.Device.rx_available device))
        paths

let firmware name =
  let ic = open_in_bin (Filename.concat "../../examples/firmware" name) in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Nic_models.Model.make
    (Nic_spec.load_exn ~name:(Filename.remove_extension name)
       ~kind:Nic_spec.Fixed_function src)

let test_upgrade_synthesis () =
  let rev_a = firmware "e1000_rev_a.p4" and rev_b = firmware "e1000_rev_b.p4" in
  let config_of (p : Path.t) = List.hd p.p_assignments in
  let traffic = synthesis_traffic () in
  let device =
    Driver.Device.create_exn ~config:(config_of (List.hd rev_a.spec.paths)) rev_a
  in
  let env = Softnic.Feature.make_env () in
  check_synthesis ~label:"rev A" device rev_a env traffic;
  List.iter
    (fun (p : Path.t) ->
      ok_or_fail (Driver.Device.upgrade device ~config:(config_of p) rev_b);
      check_synthesis
        ~label:(Printf.sprintf "rev B/p%d" p.p_index)
        device rev_b env traffic)
    rev_b.spec.paths

(* ------------------------------------------------------------------ *)
(* Oracle leg: every semantic field of every catalog path, as P4.Interp
   decodes the emitted completion, against a value from reference
   formulas written here from the semantics' definitions: a header walk
   of its own, an RFC 1071 sum over explicitly assembled bytes, a bitwise
   CRC-32, [Fivetuple.hash_fold] and [Toeplitz.hash] over the assembled
   tuple bytes. Nothing here calls the completion codec, the registry or
   [Pkt.parse]. The clock (1e9 ns, +100 per reading) and the per-flow
   counters are modelled, since a fresh device starts them alike. *)

let u8 b i = Char.code (Bytes.get b i)
let u16 b i = (u8 b i lsl 8) lor u8 b (i + 1)

type hdrs = {
  h_len : int;
  h_tci : int;  (** outermost 802.1Q TCI, 0 untagged *)
  h_l3 : int;  (** -1 when neither IP header fits *)
  h_v4 : bool;
  h_v6 : bool;
  h_ihl_ok : bool;  (** IPv4 with 20 <= IHL×4 and the header inside the frame *)
  h_proto : int;  (** -1 when unknown *)
  h_l4 : int;  (** -1 unless a whole TCP or UDP header is present *)
  h_payload : int;
  h_sport : int;
  h_dport : int;
}

let walk b len =
  let none =
    {
      h_len = len; h_tci = 0; h_l3 = -1; h_v4 = false; h_v6 = false; h_ihl_ok = false;
      h_proto = -1; h_l4 = -1; h_payload = -1; h_sport = 0; h_dport = 0;
    }
  in
  if len < 14 then none
  else begin
    let rec tags off et n tci =
      if et = 0x8100 && n < 2 && off + 4 <= len then
        tags (off + 4) (u16 b (off + 2)) (n + 1) (if n = 0 then u16 b off else tci)
      else (off, et, tci)
    in
    let off, et, tci = tags 14 (u16 b 12) 0 0 in
    let none = { none with h_tci = tci } in
    let l4 h proto l4 =
      if proto = 6 && l4 + 20 <= len then
        {
          h with
          h_l4 = l4;
          h_payload = min len (l4 + (4 * (u8 b (l4 + 12) lsr 4)));
          h_sport = u16 b l4;
          h_dport = u16 b (l4 + 2);
        }
      else if proto = 17 && l4 + 8 <= len then
        { h with h_l4 = l4; h_payload = l4 + 8; h_sport = u16 b l4; h_dport = u16 b (l4 + 2) }
      else h
    in
    if et = 0x0800 && off + 20 <= len then begin
      let ihl = 4 * (u8 b off land 0xf) in
      let h = { none with h_l3 = off; h_v4 = true } in
      if ihl >= 20 && off + ihl <= len then
        let proto = u8 b (off + 9) in
        l4 { h with h_ihl_ok = true; h_proto = proto } proto (off + ihl)
      else h
    end
    else if et = 0x86dd && off + 40 <= len then
      let proto = u8 b (off + 6) in
      l4 { none with h_l3 = off; h_v6 = true; h_proto = proto } proto (off + 40)
    else none
  end

let rfc1071 parts =
  let b = Bytes.concat Bytes.empty parts in
  let s = ref 0 in
  for i = 0 to (Bytes.length b / 2) - 1 do
    s := !s + u16 b (2 * i)
  done;
  if Bytes.length b mod 2 = 1 then s := !s + (u8 b (Bytes.length b - 1) lsl 8);
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let zeroed b ~pos ~len ~field =
  let c = Bytes.sub b pos len in
  Bytes.fill c (field - pos) 2 '\000';
  c

let ref_ip_checksum b h =
  if not h.h_ihl_ok then None
  else
    let ihl = 4 * (u8 b h.h_l3 land 0xf) in
    Some (rfc1071 [ zeroed b ~pos:h.h_l3 ~len:ihl ~field:(h.h_l3 + 10) ])

let l4_field h = if h.h_proto = 6 then h.h_l4 + 16 else h.h_l4 + 6

let ref_l4_checksum b h =
  if not (h.h_v4 && h.h_l4 >= 0) then None
  else
    let seg = h.h_len - h.h_l4 in
    let pseudo = Bytes.make 12 '\000' in
    Bytes.blit b (h.h_l3 + 12) pseudo 0 8;
    Bytes.set pseudo 9 (Char.chr h.h_proto);
    Bytes.set pseudo 10 (Char.chr (seg lsr 8));
    Bytes.set pseudo 11 (Char.chr (seg land 0xff));
    Some (rfc1071 [ pseudo; zeroed b ~pos:h.h_l4 ~len:seg ~field:(l4_field h) ])

let ref_crc b len =
  let c = ref 0xFFFFFFFF in
  for i = 0 to len - 1 do
    c := !c lxor u8 b i;
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let ref_flow b h =
  if h.h_v4 && h.h_l4 >= 0 then
    Some
      (Packet.Fivetuple.make
         ~src_ip:(Bytes.get_int32_be b (h.h_l3 + 12))
         ~dst_ip:(Bytes.get_int32_be b (h.h_l3 + 16))
         ~src_port:h.h_sport ~dst_port:h.h_dport ~proto:h.h_proto)
  else None

let ref_rss b h =
  let ports = Bytes.create 4 in
  Bytes.set_uint16_be ports 0 h.h_sport;
  Bytes.set_uint16_be ports 2 h.h_dport;
  let input =
    if h.h_v4 && h.h_l4 >= 0 then Some [ Bytes.sub b (h.h_l3 + 12) 8; ports ]
    else if h.h_v4 then Some [ Bytes.sub b (h.h_l3 + 12) 8 ]
    else if h.h_v6 && h.h_l4 >= 0 then Some [ Bytes.sub b (h.h_l3 + 8) 32; ports ]
    else None
  in
  match input with
  | None -> 0
  | Some parts ->
      Int32.to_int (Softnic.Toeplitz.hash (Bytes.concat Bytes.empty parts)) land 0xFFFFFFFF

let ref_kvs_key b h =
  let p = h.h_payload in
  if h.h_proto <> 17 || p < 0 || h.h_len - p < 4 || Bytes.sub_string b p 4 <> "get " then 0L
  else begin
    let stop = ref (p + 4) in
    while !stop < h.h_len && not (List.mem (Bytes.get b !stop) [ ' '; '\r'; '\n' ]) do
      incr stop
    done;
    let key = Bytes.sub_string b (p + 4) (!stop - p - 4) in
    let v = ref 0L in
    for i = 0 to 7 do
      let c = if i < String.length key then Char.code key.[i] else 0 in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int c)
    done;
    !v
  end

type oracle_state = {
  mutable ticks : int;
  counts : (Packet.Fivetuple.t, int) Hashtbl.t;
  marks : (Packet.Fivetuple.t * int) list;
}

(* The reference value of [sem] for the frame in [b]; [None] for a
   semantic this oracle has no formula for. *)
let reference st b h sem =
  let i = Int64.of_int in
  let flow = ref_flow b h in
  match sem with
  | "rss" -> Some (i (ref_rss b h))
  | "rss_type" ->
      Some
        (if not h.h_v4 then 0L
         else if h.h_l4 >= 0 then if h.h_proto = 6 then 2L else 3L
         else 1L)
  | "ip_checksum" -> Some (i (Option.value ~default:0 (ref_ip_checksum b h)))
  | "csum_ok" ->
      let l3_ok =
        match ref_ip_checksum b h with
        | Some c -> c = u16 b (h.h_l3 + 10)
        | None -> false
      in
      let l4_ok =
        match ref_l4_checksum b h with
        | None -> true
        | Some c ->
            let stored = u16 b (l4_field h) in
            stored = 0 || stored = c
      in
      Some (if l3_ok && l4_ok then 1L else 0L)
  | "l4_checksum" -> Some (i (Option.value ~default:0 (ref_l4_checksum b h)))
  | "vlan" -> Some (i h.h_tci)
  | "timestamp" | "wire_timestamp" ->
      st.ticks <- st.ticks + 1;
      Some (i (1_000_000_000 + (100 * st.ticks)))
  | "flow_id" ->
      Some (match flow with Some f -> i (Packet.Fivetuple.hash_fold f) | None -> 0L)
  | "mark" ->
      Some
        (match Option.bind flow (fun f -> List.assoc_opt f st.marks) with
        | Some m -> i m
        | None -> 0L)
  | "pkt_len" -> Some (i h.h_len)
  | "l3_type" -> Some (if h.h_v4 then 1L else if h.h_v6 then 2L else 0L)
  | "l4_type" ->
      Some
        (if h.h_l4 >= 0 then if h.h_proto = 6 then 1L else 2L
         else if h.h_proto >= 0 then 3L
         else 0L)
  | "ip_id" -> Some (if h.h_v4 then i (u16 b (h.h_l3 + 4)) else 0L)
  | "lro_num_seg" -> Some (if h.h_len > 0 then 1L else 0L)
  | "kvs_key" -> Some (ref_kvs_key b h)
  | "crc" -> Some (i (ref_crc b h.h_len))
  | "tunnel_vni" ->
      let p = h.h_payload in
      Some
        (if h.h_proto = 17 && h.h_dport = 4789 && p >= 0 && p + 8 <= h.h_len
            && u8 b p land 0x08 <> 0
         then i ((u8 b (p + 4) lsl 16) lor u16 b (p + 5))
         else 0L)
  | "flow_pkts" ->
      Some
        (match flow with
        | None -> 0L
        | Some f ->
            let n = 1 + Option.value ~default:0 (Hashtbl.find_opt st.counts f) in
            Hashtbl.replace st.counts f n;
            i (n land 0xFFFF))
  | _ -> None

(* Every packet kind the codec distinguishes: the profiles, VXLAN, bad
   IPv4 and L4 checksums, a UDP checksum of 0, a truncated L4 header and
   an IHL that runs past the frame. *)
let oracle_traffic () =
  let draw profile =
    let w = Packet.Workload.make ~seed:23L profile in
    List.init 6 (fun _ -> Packet.Workload.next w)
  in
  let flow proto =
    Packet.Fivetuple.make ~src_ip:0xC0A80001l ~dst_ip:0x8A000002l ~src_port:4321
      ~dst_port:80 ~proto
  in
  let tcp = Packet.Builder.Tcp { seq = 7l; flags = 0x18 } in
  let payload = Bytes.of_string "GET /index.html HTTP/1.1" in
  let good_tcp = Packet.Builder.ipv4 ~l4_csum:true ~payload ~flow:(flow 6) tcp in
  let good_udp = Packet.Builder.ipv4 ~l4_csum:true ~payload ~flow:(flow 17) Packet.Builder.Udp in
  let flip (p : Packet.Pkt.t) =
    let b = Bytes.copy p.buf in
    Bytes.set_uint8 b (p.len - 1) (u8 b (p.len - 1) lxor 0x5A);
    Packet.Pkt.create b
  in
  let cut (p : Packet.Pkt.t) len = Packet.Pkt.create (Bytes.sub p.buf 0 len) in
  let ihl_overrun =
    let b = Bytes.sub (Packet.Builder.ipv4 ~payload ~flow:(flow 17) Packet.Builder.Udp).buf 0 40 in
    Bytes.set_uint8 b 14 0x4F;
    Packet.Pkt.create b
  in
  let vxlan vni =
    Packet.Builder.vxlan ~vni ~outer_flow:(flow 17) ~inner:good_tcp
  in
  List.concat_map draw
    Packet.Workload.
      [ Min_size; Imix; Ipv6_mix; Vlan_tagged; Raw_stream { size = 96 }; Kvs { key_len = 9 } ]
  @ [
      vxlan 0x123456; vxlan 1; good_tcp; good_udp;
      Packet.Builder.corrupt_ipv4_checksum good_tcp;
      flip good_tcp; flip good_udp;
      Packet.Builder.ipv4 ~payload ~flow:(flow 17) Packet.Builder.Udp;
      cut good_tcp (14 + 20 + 10); cut good_udp (14 + 20 + 4); ihl_overrun;
    ]

let test_semantics_oracle (m : Nic_models.Model.t) () =
  let nic = m.spec.nic_name in
  let traffic = oracle_traffic () in
  let marked =
    Packet.Fivetuple.make ~src_ip:0xC0A80001l ~dst_ip:0x8A000002l ~src_port:4321
      ~dst_port:80 ~proto:6
  in
  let hardware = Nic_models.Model.hardware_registry () in
  List.iter
    (fun (p : Path.t) ->
      match p.p_assignments with
      | [] -> ()
      | config :: _ ->
          let fields = covering_fields p.p_layout in
          let tenv = Prelude.check (interp_source_of_layout p.p_layout) in
          let parser = Option.get (P4.Typecheck.find_parser tenv "DiffParser") in
          let size = p.p_layout.size_bytes in
          let device = Driver.Device.create_exn ~config m in
          Driver.Device.install_mark device marked 0xC0FFEEl;
          let st = { ticks = 0; counts = Hashtbl.create 16; marks = [ (marked, 0xC0FFEE) ] } in
          List.iteri
            (fun k (pkt : Packet.Pkt.t) ->
              check Alcotest.bool "injected" true (Driver.Device.rx_inject device pkt);
              match Driver.Device.rx_consume device with
              | None -> Alcotest.fail (nic ^ ": no completion")
              | Some (_, _, cmpt) ->
                  let store = P4.Interp.create tenv in
                  P4.Interp.run_parser store parser ~packet:cmpt ~len:size ~param:"pkt";
                  let h = walk pkt.buf pkt.len in
                  List.iteri
                    (fun j (orig, _, bits) ->
                      match orig with
                      | Some ({ l_semantic = Some sem; _ } : Path.lfield) ->
                          let label = Printf.sprintf "%s/p%d pkt %d %s" nic p.p_index k sem in
                          let expected =
                            match reference st pkt.buf h sem with
                            | Some v ->
                                if bits >= 64 then v
                                else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)
                            | None when not (Softnic.Registry.mem hardware sem) ->
                                0L (* the model writes 0 for what it cannot compute *)
                            | None -> Alcotest.fail (label ^ ": no reference formula")
                          in
                          check ai64 label expected
                            (Option.get
                               (P4.Interp.get_int store [ "hdrs"; "d"; Printf.sprintf "f%d" j ]))
                      | _ -> ())
                    fields)
            traffic)
    m.spec.paths

(* ------------------------------------------------------------------ *)
(* Completion paths against an independent executable semantics: P4.Interp
   runs the deparser under every configuration, sharing no code with the
   catalogue's Dep_ir walk. Its emits, grouped by emitted sequence in
   first-encounter order, must be the spec's paths: the same emits,
   layout, Prov and configurations, in the same order. *)

let check_paths_against_interp (spec : Nic_spec.t) =
  let scope = P4.Typecheck.scope_of_control spec.tenv spec.deparser in
  let assignments, set_ctx =
    match spec.ctx with
    | None -> ([ [] ], fun _ _ -> ())
    | Some (p, h) ->
        let width f =
          (List.find (fun (fd : P4.Typecheck.field) -> fd.f_name = f) h.h_fields)
            .f_bits
        in
        ( Result.get_ok (Opendesc_analysis.Context.enumerate h),
          fun store a ->
            List.iter
              (fun (f, v) -> P4.Interp.set_int store [ p.c_name; f ] ~width:(width f) v)
              a )
  in
  let emits_of a =
    let store = P4.Interp.create spec.tenv in
    set_ctx store a;
    List.map
      (fun arg ->
        match P4.Typecheck.type_of_expr spec.tenv scope arg with
        | P4.Typecheck.RHeader h -> (P4.Pretty.expr_to_string arg, h)
        | _ -> Alcotest.failf "%s: emit of a non-header" spec.nic_name)
      (P4.Interp.run_control store spec.deparser)
  in
  (* (emitted sequence, its configurations newest first), newest first *)
  let groups =
    List.fold_left
      (fun acc a ->
        let e = emits_of a in
        let names = List.map fst e in
        match List.find_opt (fun (e', _) -> List.map fst e' = names) acc with
        | Some (_, assigns) ->
            assigns := a :: !assigns;
            acc
        | None -> (e, ref [ a ]) :: acc)
      [] assignments
    |> List.rev
  in
  check ai (spec.nic_name ^ ": path count") (List.length groups) (List.length spec.paths);
  List.iteri
    (fun i ((emits, assigns), (p : Path.t)) ->
      let what = Printf.sprintf "%s path #%d" spec.nic_name i in
      let header_names =
        List.map (fun (e, (h : P4.Typecheck.header_def)) -> (e, h.h_name))
      in
      check Alcotest.(list (pair string string)) (what ^ ": emits") (header_names emits)
        (header_names p.p_emits);
      check Alcotest.bool (what ^ ": layout") true
        (Stdlib.compare (Path.layout_of_emits emits) p.p_layout = 0);
      check Alcotest.(list string) (what ^ ": Prov")
        (List.concat_map
           (fun (_, (h : P4.Typecheck.header_def)) ->
             List.filter_map (fun (f : P4.Typecheck.field) -> f.f_semantic) h.h_fields)
           emits
        |> List.sort_uniq String.compare)
        p.p_prov;
      check Alcotest.bool (what ^ ": configurations") true
        (List.equal Opendesc_analysis.Context.equal (List.rev !assigns) p.p_assignments))
    (List.combine groups spec.paths)

let test_paths_oracle_catalog () =
  List.iter
    (fun (m : Nic_models.Model.t) -> check_paths_against_interp m.spec)
    (Nic_models.Catalog.all ())

let test_paths_oracle_firmware () =
  List.iter
    (fun name -> check_paths_against_interp (firmware name).spec)
    [ "e1000_rev_a.p4"; "e1000_rev_b.p4"; "e1000_rev_broken.p4" ]

let test_paths_oracle_generated () =
  for index = 0 to 299 do
    let name = Printf.sprintf "fz%04d" index in
    let seed = Opendesc_fuzz.Gen.spec_seed ~seed:7L ~index in
    let sp = Opendesc_fuzz.Gen.generate ~seed ~name () in
    check_paths_against_interp
      (Nic_spec.load_exn ~name ~kind:Nic_spec.Fully_programmable
         (Opendesc_fuzz.Spec.render sp))
  done

(* ------------------------------------------------------------------ *)

let () =
  let per_nic name f =
    List.map
      (fun (m : Nic_models.Model.t) ->
        Alcotest.test_case m.spec.nic_name `Quick (f m))
      (Nic_models.Catalog.all ())
    |> fun cases -> (name, cases)
  in
  Alcotest.run "differential"
    [
      per_nic "decode: interp vs accessor vs reference" (fun m ->
          test_decode_differential m);
      per_nic "device: hardware vs reference P4" (fun m ->
          test_device_vs_refimpl m);
      per_nic "harvest: batched vs unbatched" (fun m ->
          test_batched_equals_unbatched m);
      per_nic "chaos: accepted stream decodes identically" (fun m ->
          test_chaos_differential m);
      per_nic "synthesis: staged plan vs resolve" (fun m -> test_device_synthesis m);
      per_nic "harvest: copies what the device wrote" (fun m ->
          test_harvest_copies_what_was_written m);
      per_nic "oracle: semantics vs reference formulas" (fun m ->
          test_semantics_oracle m);
      ( "synthesis: across a firmware upgrade",
        [ Alcotest.test_case "e1000 rev A -> rev B" `Quick test_upgrade_synthesis ] );
      ( "paths: interp oracle",
        [
          Alcotest.test_case "catalog" `Quick test_paths_oracle_catalog;
          Alcotest.test_case "firmware fixtures" `Quick test_paths_oracle_firmware;
          Alcotest.test_case "300 seed-7 specs" `Quick test_paths_oracle_generated;
        ] );
    ]
