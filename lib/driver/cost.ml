type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 16

let charge t name cycles =
  let cur = match Hashtbl.find_opt t name with Some c -> c | None -> 0.0 in
  Hashtbl.replace t name (cur +. cycles)

let total t = Hashtbl.fold (fun _ c acc -> acc +. c) t 0.0

let breakdown t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let reset = Hashtbl.reset

(* The accounting sink: cost-model bookkeeping as an optional observer.
   The hot datapath matches on the sink once per burst and skips every
   charge (including the float computations feeding them) under [Null];
   the bench and the model-throughput experiments pass [Ledger] and get
   exactly the charges the inline path used to make. *)
type sink = Null | Ledger of t

let null = Null
let ledger t = Ledger t
let enabled = function Null -> false | Ledger _ -> true

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
