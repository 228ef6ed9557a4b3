type t = (string, float) Hashtbl.t

(* The accounting sink: cost-model bookkeeping as an optional observer.
   Every charge goes through a sink and does nothing under [Null]; the
   hot datapath also matches on the sink once per burst to skip the
   float computations feeding its charges. The bench and the
   model-throughput experiments pass [Ledger]. *)
type sink = Null | Ledger of t

let create () : t = Hashtbl.create 16
let null = Null
let ledger t = Ledger t

let charge sink name cycles =
  match sink with
  | Null -> ()
  | Ledger t ->
      let cur = match Hashtbl.find_opt t name with Some c -> c | None -> 0.0 in
      Hashtbl.replace t name (cur +. cycles)

let total t = Hashtbl.fold (fun _ c acc -> acc +. c) t 0.0

let breakdown t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let reset = Hashtbl.reset

module K = struct
  let table = Opendesc_analysis.Costbound.default_table
  let cache_line_load = table.tb_cache_line_load
  let field_move = 3.0
  let field_branch = 2.0
  let accessor_read = table.tb_accessor_read
  let skbuff_alloc = 110.0
  let mbuf_alloc = 24.0
  let mbuf_dyn_lookup = 14.0
  let xdp_prologue = 12.0
  let ring_advance = table.tb_ring_advance
  let refill = table.tb_refill
  let doorbell = table.tb_doorbell
  let payload_touch_per_byte = 0.55
  let stream_copy_per_byte = 0.22
  let pipeline_fixed = 140.0
  let clock_ghz = table.tb_clock_ghz
end

let pps_of_cycles cycles = K.clock_ghz *. 1e9 /. cycles

let latency_ns_of_cycles cycles = (K.pipeline_fixed +. cycles) /. K.clock_ghz
