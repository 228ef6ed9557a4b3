let source =
  {|
/* NVIDIA ConnectX (mlx5): full 64-byte CQE with 12 metadata fields, or
   8-byte compressed mini-CQEs carrying hash or checksum. */
header mlx5_ctx_t {
  bit<1> cqe_comp;     /* CQE compression enabled */
  bit<1> mini_fmt;     /* 0 = hash, 1 = checksum */
}

header mlx5_tx_desc_t {              /* simplified WQE data segment */
  bit<32> ctrl;
  @semantic("tx_flags") bit<32> flags;
  bit<32> lkey;
  @semantic("buf_addr") bit<64> addr;
  bit<32> byte_count;
}

header mlx5_full_cqe_t {
  @semantic("flow_id")       bit<32> flow_tag;       /* 1 */
  @semantic("mark")          bit<32> mark;           /* 2 */
  @semantic("rss")           bit<32> rx_hash;        /* 3 */
  @semantic("rss_type")      bit<8>  rx_hash_type;   /* 4 */
  @semantic("l3_type")       bit<4>  l3_hdr_type;    /* 5 */
  @semantic("l4_type")       bit<4>  l4_hdr_type;    /* 6 */
  @semantic("lro_num_seg")   bit<8>  lro_num_seg;    /* 7 */
  @semantic("csum_ok")       bit<8>  hds_ip_ext;     /* 8 */
  @semantic("vlan")          bit<16> vlan_info;      /* 9 */
  @semantic("l4_checksum")   bit<16> check_sum;      /* 10 */
  @semantic("pkt_len")       bit<32> byte_cnt;       /* 11 */
  @semantic("wire_timestamp") bit<64> timestamp;     /* 12 */
  bit<64> signature_rsvd;
  bit<16> wqe_counter;
  bit<8>  validity;
  bit<8>  op_own;
  bit<160> rsvd_inline;  /* inline scatter / reserved area: pads to 64 B */
}

header mlx5_mini_hash_cqe_t {
  @semantic("rss")     bit<32> rx_hash;
  @semantic("pkt_len") bit<32> byte_cnt;
}

header mlx5_mini_csum_cqe_t {
  @semantic("l4_checksum") bit<16> check_sum;
  bit<16> stride_idx;
  @semantic("pkt_len")     bit<32> byte_cnt;
}

struct mlx5_meta_t {
  mlx5_full_cqe_t      full;
  mlx5_mini_hash_cqe_t mini_hash;
  mlx5_mini_csum_cqe_t mini_csum;
}

parser Mlx5DescParser(desc_in d, in mlx5_ctx_t h2c_ctx,
                      out mlx5_tx_desc_t desc_hdr) {
  state start {
    d.extract(desc_hdr);
    transition accept;
  }
}

@cmpt_deparser @cmpt_slot(64)
control Mlx5CmptDeparser(cmpt_out o, in mlx5_ctx_t ctx,
                         in mlx5_tx_desc_t desc_hdr,
                         in mlx5_meta_t pipe_meta) {
  apply {
    if (ctx.cqe_comp == 0) {
      o.emit(pipe_meta.full);
    } else {
      if (ctx.mini_fmt == 0) {
        o.emit(pipe_meta.mini_hash);
      } else {
        o.emit(pipe_meta.mini_csum);
      }
    }
  }
}
|}

let full_cqe_semantics =
  [
    "flow_id"; "mark"; "rss"; "rss_type"; "l3_type"; "l4_type"; "lro_num_seg";
    "csum_ok"; "vlan"; "l4_checksum"; "pkt_len"; "wire_timestamp";
  ]

let xdp_exposed = List.filter (Softnic.Semantic.has Xdp_hint) full_cqe_semantics

let model () =
  Model.make
    (Opendesc.Nic_spec.load_exn ~name:"mlx5-connectx"
       ~kind:Opendesc.Nic_spec.Partially_programmable
       ~notes:"64B CQE with 12 metadata fields; 8B compressed mini-CQEs" source)
