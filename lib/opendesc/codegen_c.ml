let ctype_for bits =
  if bits <= 8 then "uint8_t"
  else if bits <= 16 then "uint16_t"
  else if bits <= 32 then "uint32_t"
  else "uint64_t"

let sanitize s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') s

let accessor_name ~nic field = Printf.sprintf "opendesc_%s_rx_%s" (sanitize nic) (sanitize field)

(* A byte-aligned field becomes explicit shifted loads (MSB-first, matching
   the P4 header order the device serialises with). *)
let aligned_body ~byte ~bytes_n =
  let loads =
    List.init bytes_n (fun i ->
        let shift = 8 * (bytes_n - 1 - i) in
        if shift = 0 then Printf.sprintf "(uint64_t)cmpt[%d]" (byte + i)
        else Printf.sprintf "((uint64_t)cmpt[%d] << %d)" (byte + i) shift)
  in
  String.concat " | " loads

let field_accessor ~nic (f : Path.lfield) =
  let name = accessor_name ~nic f.l_name in
  let ret = ctype_for f.l_bits in
  let sem =
    match f.l_semantic with
    | Some s -> Printf.sprintf " /* @semantic(%s) */" s
    | None -> ""
  in
  if f.l_bit_off mod 8 = 0 && f.l_bits mod 8 = 0 then
    Printf.sprintf
      "static inline %s %s(const uint8_t *cmpt)%s {\n    return (%s)(%s);\n}\n" ret name
      sem ret
      (aligned_body ~byte:(f.l_bit_off / 8) ~bytes_n:(f.l_bits / 8))
  else
    Printf.sprintf
      "static inline %s %s(const uint8_t *cmpt)%s {\n\
      \    return (%s)opendesc_get_bits(cmpt, %d, %d);\n\
       }\n"
      ret name sem ret f.l_bit_off f.l_bits

let get_bits_helper =
  {|/* Generic MSB-first bit-field extractor for unaligned fields. */
static inline uint64_t opendesc_get_bits(const uint8_t *p, unsigned bit_off,
                                         unsigned width) {
    uint64_t acc = 0;
    unsigned first = bit_off / 8, last = (bit_off + width - 1) / 8;
    for (unsigned i = first; i <= last; i++)
        acc = (acc << 8) | p[i];
    unsigned slack = (last + 1) * 8 - (bit_off + width);
    acc >>= slack;
    return width == 64 ? acc : (acc & ((1ULL << width) - 1));
}
|}

let datapath ~nic ~(path : Path.t) ~requested ~missing ~config ~tx_format =
  let n = sanitize nic in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "/* Generated minimalist driver datapath — OpenDesc compiler output.\n";
  add " * NIC: %s. Only the variable portion of the driver is generated;\n" nic;
  add " * ring setup, IRQ handling and device bring-up stay in the base\n";
  add " * driver, as the paper prescribes (§2 end).\n */\n";
  add "#include <stdint.h>\n#include <stddef.h>\n#include <string.h>\n\n";
  add "#define OPENDESC_%s_CMPT_SIZE %d\n" n path.p_layout.size_bytes;
  (match tx_format with
  | Some f -> add "#define OPENDESC_%s_TXDESC_SIZE %d\n" n (Descparser.size f)
  | None -> ());
  List.iter
    (fun (k, v) ->
      add "#define OPENDESC_%s_CTX_%s %Ld\n" n (String.uppercase_ascii (sanitize k)) v)
    config;
  add "\n%s\n" get_bits_helper;
  (* Field accessors for the hardware-provided requested semantics. *)
  let hw_fields =
    List.filter_map
      (fun sem ->
        match Path.field_for path sem with Some f -> Some (sem, f) | None -> None)
      requested
  in
  List.iter (fun (_, f) -> add "%s\n" (field_accessor ~nic f)) hw_fields;
  (* Software shim prototypes. *)
  List.iter
    (fun (s, w) ->
      add "uint64_t opendesc_soft_%s(const uint8_t *pkt, uint16_t len); /* ~%.0f cycles */\n"
        (sanitize s) w)
    missing;
  (* The per-packet metadata struct the application consumes. *)
  add "\nstruct opendesc_%s_meta {\n" n;
  List.iter
    (fun sem -> add "    uint64_t %s;\n" (sanitize sem))
    requested;
  add "};\n\n";
  (* Ring view: the base driver owns allocation; we only need indices. *)
  add "struct opendesc_%s_rxq {\n" n;
  add "    const uint8_t *cmpt_ring;   /* completion records, slot-sized */\n";
  add "    uint8_t      **pkt_bufs;    /* packet buffer per slot */\n";
  add "    uint16_t      *pkt_lens;\n";
  add "    uint32_t       mask;        /* slots - 1 */\n";
  add "    uint32_t       head;\n";
  add "};\n\n";
  add "/* Consume up to n completions; returns packets delivered. */\n";
  add "static inline int opendesc_%s_rx_burst(struct opendesc_%s_rxq *q,\n" n n;
  add "        struct opendesc_%s_meta *meta, const uint8_t **pkts,\n" n;
  add "        uint16_t *lens, int budget) {\n";
  let status_field =
    List.find_opt
      (fun (f : Path.lfield) ->
        f.l_semantic = None
        && List.mem f.l_name [ "status"; "op_own"; "dd"; "validity"; "generation" ])
      path.p_layout.fields
  in
  add "    int got = 0;\n";
  add "    while (got < budget) {\n";
  add "        uint32_t idx = (q->head + got) & q->mask;\n";
  add "        const uint8_t *cmpt = q->cmpt_ring + (size_t)idx * OPENDESC_%s_CMPT_SIZE;\n" n;
  (match status_field with
  | Some f ->
      add "        if (!(cmpt[%d] & 0x1)) /* %s: completion not ready */\n"
        ((f.l_bit_off + f.l_bits - 1) / 8)
        f.l_name;
      add "            break;\n"
  | None -> add "        /* availability signalled out of band on this NIC */\n");
  add "        const uint8_t *pkt = q->pkt_bufs[idx];\n";
  add "        uint16_t len = q->pkt_lens[idx];\n";
  List.iter
    (fun (sem, (f : Path.lfield)) ->
      ignore f;
      add "        meta[got].%s = %s(cmpt);\n" (sanitize sem)
        (accessor_name ~nic f.l_name))
    hw_fields;
  List.iter
    (fun (s, _) ->
      if List.mem s requested then
        add "        meta[got].%s = opendesc_soft_%s(pkt, len); /* SoftNIC shim */\n"
          (sanitize s) (sanitize s))
    missing;
  add "        pkts[got] = pkt;\n        lens[got] = len;\n        got++;\n";
  add "    }\n    q->head += got;\n    return got;\n}\n\n";
  (* TX prepare in the selected descriptor format. *)
  (match tx_format with
  | None -> ()
  | Some fmt ->
      add "/* Build one TX descriptor (format #%d, %d bytes). */\n" fmt.d_fmt.t_index
        (Descparser.size fmt);
      add "static inline void opendesc_%s_tx_prepare(uint8_t *desc,\n" n;
      add "        uint64_t buf_addr, uint16_t len) {\n";
      add "    memset(desc, 0, OPENDESC_%s_TXDESC_SIZE);\n" n;
      (* MSB-first store of [src] into a byte-aligned field. *)
      let emit_store ~byte ~bytes_n ~src =
        add "    for (int i = 0; i < %d; i++)\n" bytes_n;
        add "        desc[%d + i] = (uint8_t)((uint64_t)%s >> (8 * (%d - i)));\n" byte
          src (bytes_n - 1)
      in
      let is_len_field (f : Path.lfield) =
        (match f.l_semantic with Some ("tx_len" | "pkt_len") -> true | _ -> false)
        || (f.l_semantic = None
           && List.mem f.l_name [ "length"; "len"; "byte_count"; "byte_cnt" ])
      in
      let wrote_len = ref false in
      List.iter
        (fun (f : Path.lfield) ->
          if f.l_bit_off mod 8 = 0 && f.l_bits mod 8 = 0 then
            if f.l_semantic = Some "buf_addr" && f.l_bits = 64 then
              emit_store ~byte:(f.l_bit_off / 8) ~bytes_n:8 ~src:"buf_addr"
            else if is_len_field f && not !wrote_len then begin
              wrote_len := true;
              emit_store ~byte:(f.l_bit_off / 8) ~bytes_n:(f.l_bits / 8) ~src:"len"
            end)
        fmt.d_layout.Path.fields;
      if not !wrote_len then
        add "    (void)len; /* no length field in this descriptor format */\n";
      add "}\n");
  Buffer.contents buf

let generate ~nic ~(path : Path.t) ~missing ~config =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "/* Generated by the OpenDesc compiler — do not edit.\n";
  add " * NIC: %s, completion path #%d (%d bytes)\n" nic path.p_index
    path.p_layout.size_bytes;
  add " * Provides: {%s}\n" (String.concat ", " path.p_prov);
  add " */\n#ifndef OPENDESC_%s_H\n#define OPENDESC_%s_H\n\n" (sanitize nic)
    (sanitize nic);
  add "#include <stdint.h>\n\n";
  add "#define OPENDESC_%s_CMPT_SIZE %d\n\n" (sanitize nic) path.p_layout.size_bytes;
  (match config with
  | [] -> ()
  | cfg ->
      add "/* Program these queue-context values over the control channel\n";
      add " * to select this completion path: */\n";
      List.iter (fun (k, v) -> add "#define OPENDESC_%s_CTX_%s %Ld\n" (sanitize nic) (String.uppercase_ascii (sanitize k)) v) cfg;
      add "\n");
  let needs_generic =
    List.exists
      (fun (f : Path.lfield) -> f.l_bit_off mod 8 <> 0 || f.l_bits mod 8 <> 0)
      path.p_layout.fields
  in
  if needs_generic then add "%s\n" get_bits_helper;
  List.iter (fun f -> add "%s\n" (field_accessor ~nic f)) path.p_layout.fields;
  (match missing with
  | [] -> ()
  | ms ->
      add "/* SoftNIC shims — semantics this path does not provide.\n";
      add " * Link an implementation for each (reference implementations ship\n";
      add " * with OpenDesc); cost estimates are per packet. */\n";
      List.iter
        (fun (s, w) ->
          add "uint64_t opendesc_soft_%s(const uint8_t *pkt, uint16_t len); /* ~%.0f cycles */\n"
            (sanitize s) w)
        ms;
      add "\n");
  add "#endif\n";
  Buffer.contents buf
