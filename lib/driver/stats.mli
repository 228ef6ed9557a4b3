(** Experiment result records and table printing. *)

type t = {
  name : string;
  pkts : int;
  cycles_per_pkt : float;
  pps_m : float;  (** million packets/second at the nominal clock *)
  latency_ns : float;
  dma_bytes_per_pkt : float;
  drops : int;
  breakdown : (string * float) list;  (** cycles by component, descending *)
  bursts : int;  (** harvest bursts (0 for the unbatched harness) *)
  burst_hist : (int * int) list;
      (** (burst size, occurrences), ascending by size *)
  faults_injected : int;  (** fault events applied by {!Fault} (0 otherwise) *)
  faults_detected : int;  (** descriptors the recovery path flagged *)
  descs_quarantined : int;  (** descriptors withheld from the host stack *)
  retries : int;  (** doorbell re-rings issued for stuck queues *)
  spins : int;  (** busy-poll iterations spent waiting for work *)
  parks : int;  (** times the worker gave up the core ([sleepf]) while idle *)
  wakes : int;  (** times work arrived after at least one park *)
}

val make :
  name:string ->
  pkts:int ->
  ledger:Cost.t ->
  dma_bytes:int ->
  drops:int ->
  t
(** [bursts]/[burst_hist] start at zero/empty; the batched harness fills
    them via {!with_bursts}. *)

val with_bursts : bursts:int -> burst_hist:(int * int) list -> t -> t
(** Attach the harvest-burst accounting (histogram is sorted). *)

val with_faults :
  injected:int -> detected:int -> quarantined:int -> retries:int -> t -> t
(** Attach the fault-injection accounting (all four default to 0 in
    {!make}; {!merge} sums them across shards, so the merged counters
    reconcile exactly with the per-domain fault counters). *)

val with_idle : spins:int -> parks:int -> wakes:int -> t -> t
(** Attach the adaptive-backoff idle counters (all zero in {!make});
    {!merge} sums them across shards, so backoff behaviour is observable
    per domain and in aggregate rather than guessed. *)

val merge : name:string -> t list -> t
(** Aggregate per-domain stat shards into one view: packet counts, drops
    and bursts sum; per-packet averages (cycles, DMA bytes, breakdown
    components) are packet-weighted; burst histograms merge per size.
    The sharded-stats half of the parallel datapath — each domain keeps
    its own ledger race-free, and this recovers the aggregate on
    demand. *)

val pp_table : Format.formatter -> t list -> unit
(** Header + one row per entry. *)

val pp_burst_hist : Format.formatter -> t -> unit
(** One-line burst-size histogram ("Nxsize" pairs). *)

val pp_idle : Format.formatter -> t -> unit
(** One-line spin/park/wake idle-counter summary. *)

val ratio : t -> t -> float
(** [ratio a b] = throughput of [a] over [b]. *)
