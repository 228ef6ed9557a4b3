(* Domain-parallel multi-queue datapath.

   One worker domain per queue group owns its devices outright: the
   worker performs both the device-side injection (completion write-out)
   and the host-side burst harvest for its queues, so no device state is
   ever shared between domains. A steering/injection domain parses each
   packet once, steers it by its Toeplitz hash ({!Mq.steer}) and hands
   the packet BYTES to the owning worker over a bounded SPSC byte ring
   ({!Pktring}) whose slots are preallocated — the handoff neither
   allocates nor publishes an index per packet. Stats are sharded: each
   worker charges a domain-local ledger and the shards merge on demand
   (Stats.merge), so counters stay race-free without hot-path atomics.

   Cost accounting is an optional observer ({!Cost.sink}): with
   [~account:false] workers pass [Cost.Null] to their consumers and the
   byte path runs with no ledger traffic at all, which is the
   configuration the wall-clock measurements use. *)

module Pktring = struct
  (* The datapath handoff ring: a Lamport SPSC ring whose slots are
     preallocated byte buffers (payload at offset 0) plus a length and a
     queue id, so handing a packet to a worker is one [Bytes.blit] into
     a pooled slot — no option/tuple boxing, no per-packet allocation.

     Two standard SPSC refinements cut the cross-domain cache traffic:

     - cached opposite indices: the producer re-reads the atomic [head]
       only when its cached copy says the ring is full, the consumer
       re-reads [tail] only when its cached copy says it is empty;
     - batched index publication: each side publishes its own index
       every [publish_batch] operations (and on full/empty/flush)
       instead of per packet, so the shared lines bounce once per batch.

     Publication remains the seq-cst [Atomic.set] message-passing idiom,
     so every slot write before a publish is visible after the matching
     atomic read. Late publication is always conservative: the other
     side sees the ring as at most fuller (producer view) or emptier
     (consumer view) than it really is. *)

  let publish_batch = 16

  type t = {
    bufs : bytes array;
    lens : int array;  (** true packet length (may exceed the slot) *)
    qids : int array;
    mask : int;
    head : int Atomic.t;  (** published consumer index, free-running *)
    tail : int Atomic.t;  (** published producer index, free-running *)
    mutable p_tail : int;  (** producer-private true tail *)
    mutable p_published : int;
    mutable p_head_cache : int;
    mutable c_head : int;  (** consumer-private true head *)
    mutable c_published : int;
    mutable c_tail_cache : int;
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create ~capacity ~slot_size =
    if capacity < 1 then invalid_arg "Pktring.create: capacity must be >= 1";
    if slot_size < 1 then invalid_arg "Pktring.create: slot_size must be >= 1";
    let cap = next_pow2 capacity in
    {
      bufs = Array.init cap (fun _ -> Bytes.create slot_size);
      lens = Array.make cap 0;
      qids = Array.make cap 0;
      mask = cap - 1;
      head = Atomic.make 0;
      tail = Atomic.make 0;
      p_tail = 0;
      p_published = 0;
      p_head_cache = 0;
      c_head = 0;
      c_published = 0;
      c_tail_cache = 0;
    }

  let capacity t = t.mask + 1
  let slot_size t = Bytes.length t.bufs.(0)
  let length t = Atomic.get t.tail - Atomic.get t.head

  (* -- producer side -- *)

  let flush t =
    if t.p_published <> t.p_tail then begin
      Atomic.set t.tail t.p_tail;
      t.p_published <- t.p_tail
    end

  let try_push t src ~len ~qid =
    if t.p_tail - t.p_head_cache > t.mask then
      t.p_head_cache <- Atomic.get t.head;
    if t.p_tail - t.p_head_cache > t.mask then begin
      (* Genuinely full: publish anything staged so the consumer can
         drain and make space, then report failure. *)
      flush t;
      false
    end
    else begin
      let i = t.p_tail land t.mask in
      (* Oversize packets (longer than the slot) are staged truncated
         with their true length: every device's [buf_size] is <= the
         slot size, so the consumer's inject drops them on the length
         check before reading the payload — same drop accounting as
         handing over the full bytes. *)
      Bytes.blit src 0 t.bufs.(i) 0 (min len (Bytes.length t.bufs.(i)));
      t.lens.(i) <- len;
      t.qids.(i) <- qid;
      t.p_tail <- t.p_tail + 1;
      if t.p_tail - t.p_published >= publish_batch then flush t;
      true
    end

  (* -- consumer side -- *)

  let publish_head t =
    if t.c_published <> t.c_head then begin
      Atomic.set t.head t.c_head;
      t.c_published <- t.c_head
    end

  let peek t =
    if t.c_head < t.c_tail_cache then t.c_head land t.mask
    else begin
      t.c_tail_cache <- Atomic.get t.tail;
      if t.c_head < t.c_tail_cache then t.c_head land t.mask
      else begin
        (* Observed empty: let the producer see every slot freed so
           far, otherwise a full-looking ring could deadlock against a
           sleeping consumer. *)
        publish_head t;
        -1
      end
    end

  let buf t i = t.bufs.(i)
  let len t i = t.lens.(i)
  let qid t i = t.qids.(i)

  let advance t =
    t.c_head <- t.c_head + 1;
    if t.c_head - t.c_published >= publish_batch then publish_head t
end

type result = {
  pkts : int;
  per_queue : int array;
  stats : Stats.t;
  domain_stats : Stats.t array;
  domain_cycles : float array;
  wall_s : float;
  busy_s : float array;
  producer_busy_s : float;
  eff_wall_s : float;
  minor_words_per_pkt : float;
  stranded : int;
  drops : int;
  sink : int64;
  delivered : bytes list array option;
  faults : Fault.counters array option;
}

(* Live hot-swap support (Driver.Upgrade): the producer requests
   quiescence, every worker drains its handoff ring and its devices dry,
   then the verdict — computed concurrently on the producer domain
   (classification, recompile, certification) — is published through one
   atomic cell and each worker applies it at its own quiescent point
   before acknowledging the new epoch. No worker ever holds a completion
   serialised under one contract while reading it with the other's
   accessors. *)
type swap_cmd =
  | Swap_apply of {
      sc_config : Opendesc_analysis.Context.assignment;
      sc_model : unit -> Nic_models.Model.t;
          (** fresh model per queue (models are stateful) *)
      sc_stack : int -> Stack.burst_t;  (** epoch-1 consumer per queue *)
    }
  | Swap_refuse  (** keep serving the old contract *)
  | Swap_quarantine  (** breaking: stop the datapath, withhold the rest *)

type swap_action = Sw_applied | Sw_refused | Sw_quarantined

type swap_outcome = {
  sw_action : swap_action;
  sw_at : int;  (** packets offered before the swap point *)
  sw_inflight : int;  (** completions pending at the quiesce point *)
  sw_pre_pkts : int;  (** packets delivered under epoch 0 *)
  sw_post_pkts : int;  (** packets delivered under epoch 1 *)
  sw_withheld : int;  (** packets never offered to the device *)
  sw_torn : int;  (** non-quiescent epoch flips observed — must be 0 *)
  sw_upgrade_errors : int;  (** Device.upgrade refusals — must be 0 *)
  sw_latency_s : float;  (** quiesce request until every worker acked *)
  sw_pause_s : float;
      (** producer quiesce pause: injection halted from the quiesce
          request until the stream resumed (or, quarantined, until the
          verdict withheld the remainder) — ROADMAP item 4's bound *)
  sw_post_pairs : (bytes * bytes) list array option;
      (** per queue: (packet, completion) pairs delivered under epoch 1,
          delivery order — the rev-B reference-decode evidence *)
}

type swap_ctl = {
  ctl_quiesce : bool Atomic.t;
  ctl_cmd : swap_cmd option Atomic.t;
  ctl_quiesced : int Atomic.t;
  ctl_acks : int Atomic.t;
  ctl_inflight : int Atomic.t;
  ctl_pre_pkts : int Atomic.t;
  ctl_torn : int Atomic.t;
  ctl_upgrade_errors : int Atomic.t;
  ctl_post_pairs : (bytes * bytes) list array option;
      (** indexed by queue id; only the owning worker writes *)
}

(* What one worker reports back to the engine at the end of its job. *)
type report = {
  rp_pkts : int;
  rp_cycles : float;
  rp_stats : Stats.t;
  rp_sink : int64;
  rp_busy_s : float;
  rp_minor_words : float;
}

(* Adaptive busy-poll backoff: spin with [Domain.cpu_relax] while the
   wait is likely short, then park in exponentially growing [sleepf]
   naps so an idle domain yields its core (essential on machines with
   fewer cores than domains). Progress resets both phases. *)
let spin_limit = 128
let park_min_s = 2e-6
let park_max_s = 256e-6

(* The same ladder for the control waits (verdict, quiesce and ack
   counts). The producer's full-ring wait runs it inline, where its
   counters stay off the heap. *)
let wait_until ready =
  let idle = ref 0 and park = ref park_min_s in
  while not (ready ()) do
    if !idle < spin_limit then Domain.cpu_relax ()
    else begin
      Unix.sleepf !park;
      park := Float.min park_max_s (!park *. 2.0)
    end;
    incr idle
  done

(* Preemption-robust busy time from per-chunk timings. Each domain
   clocks contiguous work chunks (a pop/inject run plus its harvest; a
   run of ring pushes) as (seconds, packets). On a machine with fewer
   cores than domains a chunk's wall span can include another domain's
   timeslice, so the raw sum overstates on-CPU work arbitrarily; the
   packet-weighted MEDIAN per-packet cost is immune to those outliers
   (preemption hits a minority of chunks). Busy time is then
   median-cost x packets — an estimate of the time this domain's work
   would take on its own core. *)
let robust_busy ~chunk_s ~chunk_n ~nchunks ~extra_s =
  let total = ref 0 in
  for i = 0 to nchunks - 1 do
    total := !total + chunk_n.(i)
  done;
  if !total = 0 then extra_s
  else begin
    let idx = Array.init nchunks Fun.id in
    Array.sort
      (fun a b ->
        Float.compare
          (chunk_s.(a) /. float_of_int chunk_n.(a))
          (chunk_s.(b) /. float_of_int chunk_n.(b)))
      idx;
    let half = !total / 2 in
    let acc = ref 0 and k = ref 0 in
    while !acc <= half && !k < nchunks do
      acc := !acc + chunk_n.(idx.(!k));
      incr k
    done;
    let m = idx.(max 0 (!k - 1)) in
    (chunk_s.(m) /. float_of_int chunk_n.(m) *. float_of_int !total) +. extra_s
  end

(* The worker pool: one process-wide set of worker domains. A run hands
   each worker's job to an idle pooled domain and a domain is spawned
   only when none is idle, so the pool grows to the most workers in use
   at once and is never torn down. Between runs a pooled domain blocks
   on its condition variable. *)
module Pool = struct
  type member = {
    lock : Mutex.t;
    cond : Condition.t;
        (** signalled when a job is handed over and when it reports; at
            most one side waits at a time *)
    mutable job : (unit -> unit) option;
    mutable reported : bool;
  }

  (* A job records its own result and failure; a job that raises all
     the same reports, and its domain goes back to the pool. *)
  let serve m =
    while true do
      Mutex.lock m.lock;
      while Option.is_none m.job do
        Condition.wait m.cond m.lock
      done;
      let job = Option.get m.job in
      m.job <- None;
      Mutex.unlock m.lock;
      (try job () with _ -> ());
      Mutex.protect m.lock (fun () ->
          m.reported <- true;
          Condition.broadcast m.cond)
    done

  let lock = Mutex.create ()
  let idle = ref []  (* guarded by [lock] *)

  (* [n] members taken off the idle list, spawning any that are
     missing; on a failed spawn the ones taken go back. *)
  let acquire n =
    Mutex.protect lock (fun () ->
        let taken = ref [] in
        match
          for _ = 1 to n do
            let m =
              match !idle with
              | m :: rest ->
                  idle := rest;
                  m
              | [] ->
                  let m =
                    {
                      lock = Mutex.create ();
                      cond = Condition.create ();
                      job = None;
                      reported = false;
                    }
                  in
                  ignore (Domain.spawn (fun () -> serve m));
                  m
            in
            taken := m :: !taken
          done
        with
        | () -> Array.of_list (List.rev !taken)
        | exception e ->
            idle := List.rev_append !taken !idle;
            raise e)

  let release ms = Mutex.protect lock (fun () -> idle := Array.to_list ms @ !idle)

  let start m job =
    Mutex.protect m.lock (fun () ->
        m.job <- Some job;
        Condition.broadcast m.cond)

  (* Block until the job handed to [m] has reported. *)
  let await m =
    Mutex.protect m.lock (fun () ->
        while not m.reported do
          Condition.wait m.cond m.lock
        done;
        m.reported <- false)
end

(* One queue group's datapath: the devices one domain owns (injected and
   harvested through their fault wrappers when the run has a plan),
   their bursts and consumers, and what the group has delivered. A
   worker domain drives a group from its handoff ring; a one-domain hot
   swap drives the only group from the calling domain. Nothing below
   allocates per burst unless the run collects what it delivers. *)
type group = {
  queue_ids : int array;
  devices : Device.t array;
  faults : Fault.t array option;
  bursts : Device.burst array;
  consumers : Stack.burst_t array;
  env : Softnic.Feature.env;
  ledger : Cost.t;
  acct : Cost.sink;
  hist : int array;  (** bursts by size: a harvest returns at most [batch] *)
  per_queue : int array;  (** the run's, indexed by queue id *)
  delivered : bytes list array option;  (** the run's, indexed by queue id *)
  post_pairs : (bytes * bytes) list array option;  (** the swap's, likewise *)
  sink : bytes;
      (** the consumers' digests, summed as one int64 in place: a boxed
          ref would allocate one per burst *)
  mutable nbursts : int;
  mutable consumed : int;
  mutable epoch : int;
}

let inject g i buf len =
  match g.faults with
  | None -> ignore (Device.rx_inject_raw g.devices.(i) buf ~len)
  | Some fqs -> ignore (Fault.rx_inject_raw fqs.(i) buf ~len)

(* One harvest sweep over the group's queues; returns packets taken. A
   [for] loop, not [Array.iteri]: a closure per sweep would allocate. *)
let sweep g =
  let total = ref 0 in
  for i = 0 to Array.length g.devices - 1 do
    let b = g.bursts.(i) in
    let n =
      match g.faults with
      | None -> Device.rx_consume_batch g.devices.(i) b
      | Some fqs -> Fault.harvest fqs.(i) b
    in
    if n > 0 then begin
      g.nbursts <- g.nbursts + 1;
      g.hist.(n) <- g.hist.(n) + 1;
      let digest = g.consumers.(i).Stack.bt_consume g.acct g.env b in
      Bytes.set_int64_ne g.sink 0 (Int64.add (Bytes.get_int64_ne g.sink 0) digest);
      let q = g.queue_ids.(i) in
      g.per_queue.(q) <- g.per_queue.(q) + n;
      (match g.delivered with
      | Some arr ->
          for j = 0 to n - 1 do
            arr.(q) <- Bytes.sub b.Device.bs_pkts.(j) 0 b.Device.bs_lens.(j) :: arr.(q)
          done
      | None -> ());
      (match g.post_pairs with
      | Some arr when g.epoch = 1 ->
          for j = 0 to n - 1 do
            arr.(q) <-
              ( Bytes.sub b.Device.bs_pkts.(j) 0 b.Device.bs_lens.(j),
                Bytes.sub b.Device.bs_cmpts.(j) 0 b.Device.bs_cmpt_lens.(j) )
              :: arr.(q)
          done
      | _ -> ());
      g.consumed <- g.consumed + n;
      total := !total + n
    end
  done;
  !total

let in_flight g = Array.fold_left (fun a d -> a + Device.rx_available d) 0 g.devices

let harvest_all g =
  while sweep g > 0 do () done;
  (* Under fault injection a sweep can deliver nothing while the rings
     still hold work (stuck queues burn bounded kicks per call;
     fully-quarantined bursts count 0) — keep sweeping until dry. *)
  if Option.is_some g.faults then
    while in_flight g > 0 do
      ignore (sweep g)
    done

(* Emit each deferred (reordered) completion: nothing is left to swap
   it with on this side of a swap or the end of the stream. *)
let flush_faults g = Option.iter (Array.iter Fault.flush) g.faults

(* The quiescent point: emit deferred completions, count what is in
   flight, then harvest the group dry. *)
let quiesce g ctl =
  flush_faults g;
  ignore (Atomic.fetch_and_add ctl.ctl_inflight (in_flight g));
  harvest_all g;
  ignore (Atomic.fetch_and_add ctl.ctl_pre_pkts g.consumed);
  Atomic.incr ctl.ctl_quiesced

(* Apply the published verdict at the group's quiescent point, then
   acknowledge it. [backlog ()] injects what reached the group after it
   quiesced (a worker's handoff ring) and tells whether there was any. *)
let apply g ctl ~backlog cmd =
  (match cmd with
  | Swap_apply { sc_config; sc_model; sc_stack } ->
      (* Torn-plan oracle: the epoch flip is only legal at a dry point —
         a completion serialised under the old contract must never be
         read with the new accessors. *)
      if backlog () || in_flight g > 0 then begin
        Atomic.incr ctl.ctl_torn;
        harvest_all g
      end;
      (* Install: each device upgrades in place, its fault wrapper
         rebinds to the new contract and its queue gets the epoch-1
         consumer. *)
      Array.iteri
        (fun i q ->
          (match Device.upgrade g.devices.(i) ~config:sc_config (sc_model ()) with
          | Ok () -> ()
          | Error _ -> Atomic.incr ctl.ctl_upgrade_errors);
          Option.iter (fun fqs -> Fault.rebind fqs.(i)) g.faults;
          g.consumers.(i) <- sc_stack q)
        g.queue_ids;
      g.epoch <- 1
  | Swap_refuse | Swap_quarantine -> ());
  Atomic.incr ctl.ctl_acks

let report g ~w ~busy_s ~minor_words ~spins ~parks ~wakes =
  let dma = Array.fold_left (fun a d -> a + Device.dma_bytes d) 0 g.devices in
  let drops = Array.fold_left (fun a d -> a + Device.drops d) 0 g.devices in
  let stats =
    Stats.make
      ~name:(Printf.sprintf "domain%d" w)
      ~pkts:g.consumed ~ledger:g.ledger ~dma_bytes:dma ~drops
    |> Stats.with_bursts ~bursts:g.nbursts
         ~burst_hist:
           (List.filter
              (fun (_, c) -> c > 0)
              (List.init (Array.length g.hist) (fun n -> (n, g.hist.(n)))))
    |> Stats.with_idle ~spins ~parks ~wakes
  in
  let stats =
    match g.faults with
    | None -> stats
    | Some fqs ->
        let c =
          Fault.counters_sum (Array.to_list (Array.map Fault.counters fqs))
        in
        Stats.with_faults ~injected:c.Fault.injected ~detected:c.Fault.detected
          ~quarantined:c.Fault.quarantined ~retries:c.Fault.retries stats
  in
  {
    rp_pkts = g.consumed;
    rp_cycles = Cost.total g.ledger;
    rp_stats = stats;
    rp_sink = Bytes.get_int64_ne g.sink 0;
    rp_busy_s = busy_s;
    rp_minor_words = minor_words;
  }

(* A worker domain's job: drive its group from its handoff ring. *)
let worker g ~w ~batch ~ring ~stop ~pkts_hint ~swap =
  let local = Array.make (Array.length g.per_queue) (-1) in
  Array.iteri (fun i q -> local.(q) <- i) g.queue_ids;
  let spins = ref 0 and parks = ref 0 and wakes = ref 0 in
  (* Chunk timing buffers, preallocated so the loop never grows them. *)
  let cap = pkts_hint + 2 in
  let chunk_s = Array.make cap 0.0 in
  let chunk_n = Array.make cap 0 in
  let nchunks = ref 0 in
  let tail_s = ref 0.0 in
  let record_chunk s n =
    if n > 0 && !nchunks < cap then begin
      chunk_s.(!nchunks) <- s;
      chunk_n.(!nchunks) <- n;
      incr nchunks
    end
    else if n = 0 then tail_s := !tail_s +. s
  in
  (* Inject up to [limit] packets off the ring; returns how many. *)
  let pop limit =
    let pops = ref 0 in
    let slot = ref (Pktring.peek ring) in
    while !slot >= 0 do
      inject g local.(Pktring.qid ring !slot) (Pktring.buf ring !slot)
        (Pktring.len ring !slot);
      Pktring.advance ring;
      incr pops;
      slot := if !pops < limit then Pktring.peek ring else -1
    done;
    !pops
  in
  (* Pop/inject in runs of up to a full batch per owned queue, then
     harvest — keeps bursts near capacity, so the amortised per-burst
     charges match the sequential batched path. Each run+harvest is one
     timed chunk. *)
  let threshold = batch * Array.length g.devices in
  let mw0 = Gc.minor_words () in
  let running = ref true in
  let swapped = ref false in
  let idle = ref 0 in
  let park_s = ref park_min_s in
  let parked = ref false in
  while !running do
    if Pktring.peek ring >= 0 then begin
      let t0 = Unix.gettimeofday () in
      if !parked then begin
        incr wakes;
        parked := false
      end;
      idle := 0;
      park_s := park_min_s;
      let pops = pop threshold in
      harvest_all g;
      record_chunk (Unix.gettimeofday () -. t0) pops
    end
    else if
      match swap with
      | Some ctl -> (not !swapped) && Atomic.get ctl.ctl_quiesce
      | None -> false
    then begin
      let ctl = Option.get swap in
      let t0 = Unix.gettimeofday () in
      (* The quiesce flag was raised after the producer's final pre-swap
         flush, so the empty peek above may predate that flush: drain the
         handoff ring dry before the quiescent point. *)
      let pops = pop max_int in
      quiesce g ctl;
      (* Wait for the verdict — classification, recompile and
         certification run concurrently on the producer domain. *)
      wait_until (fun () -> Option.is_some (Atomic.get ctl.ctl_cmd));
      let cmd = Option.get (Atomic.get ctl.ctl_cmd) in
      apply g ctl cmd ~backlog:(fun () -> pop max_int > 0);
      (match cmd with
      | Swap_quarantine -> running := false
      | Swap_apply _ | Swap_refuse -> ());
      swapped := true;
      record_chunk (Unix.gettimeofday () -. t0) pops
    end
    else if Atomic.get stop && Pktring.peek ring < 0 then begin
      (* End of stream (the re-peek runs after the stop read, so the
         producer's final flush is visible). *)
      let t0 = Unix.gettimeofday () in
      flush_faults g;
      harvest_all g;
      record_chunk (Unix.gettimeofday () -. t0) 0;
      running := false
    end
    else begin
      if !idle < spin_limit then begin
        Domain.cpu_relax ();
        incr spins
      end
      else begin
        Unix.sleepf !park_s;
        incr parks;
        parked := true;
        park_s := Float.min park_max_s (!park_s *. 2.0)
      end;
      incr idle
    end
  done;
  let minor_words = Gc.minor_words () -. mw0 in
  report g ~w
    ~busy_s:(robust_busy ~chunk_s ~chunk_n ~nchunks:!nchunks ~extra_s:!tail_s)
    ~minor_words ~spins:!spins ~parks:!parks ~wakes:!wakes

let check_sizes fn ~domains ~batch ~pkts =
  if domains < 1 then invalid_arg (fn ^ ": domains must be >= 1");
  if batch < 1 then invalid_arg (fn ^ ": batch must be >= 1");
  if pkts < 0 then invalid_arg (fn ^ ": pkts must be >= 0")

(* Raised in the producer to abandon a wait once any domain has failed:
   a dead worker never drains its ring, quiesces or acknowledges. *)
exception Worker_failed

let check_failed failure =
  match Atomic.get failure with Some _ -> raise Worker_failed | None -> ()

(* The optional epoch boundary: the swap point, the verdict callback and
   the control cell the queue groups report to. *)
type epoch = { at : int; verdict : unit -> swap_cmd; ctl : swap_ctl }

(* Turn the epoch: [quiesce ()] brings every queue group to its
   quiescent point, the verdict is computed, [apply cmd] has every group
   apply it and acknowledge it, and [resume ()] offers the rest of the
   stream unless the verdict quarantined it. *)
let turn { verdict; ctl; _ } ~at ~pkts ~quiesce ~apply ~resume =
  let t_swap = Unix.gettimeofday () in
  quiesce ();
  let cmd = verdict () in
  apply cmd;
  let latency_s = Unix.gettimeofday () -. t_swap in
  (* The producer pause ends the instant injection restarts;
     quarantine never resumes, so its pause ends at the verdict. *)
  let pause_s = Unix.gettimeofday () -. t_swap in
  let action =
    match cmd with
    | Swap_apply _ -> Sw_applied
    | Swap_refuse -> Sw_refused
    | Swap_quarantine -> Sw_quarantined
  in
  if action <> Sw_quarantined then resume ();
  (* Every group has acknowledged, so the counters below are final; the
     epoch-1 deliveries are filled in once every group has reported. *)
  {
    sw_action = action;
    sw_at = at;
    sw_inflight = Atomic.get ctl.ctl_inflight;
    sw_pre_pkts = Atomic.get ctl.ctl_pre_pkts;
    sw_post_pkts = 0;
    sw_withheld = (if action = Sw_quarantined then pkts - at else 0);
    sw_torn = Atomic.get ctl.ctl_torn;
    sw_upgrade_errors = Atomic.get ctl.ctl_upgrade_errors;
    sw_latency_s = latency_s;
    sw_pause_s = pause_s;
    sw_post_pairs = None;
  }

(* The one engine behind {!run} and {!hot_swap}. Without an epoch the
   producer offers the whole stream. With one it offers [at] packets
   under the old contract and turns the epoch: it raises the quiesce
   flag, computes the verdict (typically classification + recompile +
   certification) while the workers drain themselves dry, publishes it
   once every worker stands at a quiescent point, and resumes the stream
   only after every worker has acknowledged the new epoch. A hot swap at
   one domain takes no worker and builds no ring: the calling domain
   drives the one queue group and turns the epoch itself. *)
let engine ~domains ~batch ~ring_capacity ~collect ~account ~pregen ~plan ~mq
    ~stack ~pkts ~workload epoch =
  let fn, name =
    match epoch with
    | None -> ("Parallel.run", "parallel")
    | Some _ -> ("Parallel.hot_swap", "hot_swap")
  in
  check_sizes fn ~domains ~batch ~pkts;
  let nq = Mq.queues mq in
  let inline = domains = 1 && Option.is_some epoch in
  let workers = min domains nq in
  let owner q = q mod workers in
  let at = match epoch with Some ep -> max 0 (min ep.at pkts) | None -> pkts in
  let devices = Array.init nq (Mq.queue mq) in
  Array.iter Device.reset_counters devices;
  (* One fault wrapper per queue, created up front and handed to the
     owning group: faults are a per-queue function of (seed, qid,
     injection order), so the same plan replays identically however the
     queues are grouped onto domains. *)
  let fqs =
    Option.map
      (fun plan -> Array.init nq (fun q -> Fault.wrap ~qid:q plan devices.(q)))
      plan
  in
  let per_queue = Array.make nq 0 in
  let delivered = if collect then Some (Array.make nq []) else None in
  (* Worker [w]'s queue group, made on the domain that drives it. *)
  let group_of w =
    let queue_ids =
      Array.of_list (List.filter (fun q -> owner q = w) (List.init nq Fun.id))
    in
    let devices = Array.map (fun q -> devices.(q)) queue_ids in
    let ledger = Cost.create () in
    {
      queue_ids;
      devices;
      faults = Option.map (fun fqs -> Array.map (fun q -> fqs.(q)) queue_ids) fqs;
      bursts = Array.map (fun d -> Device.burst_create ~capacity:batch d) devices;
      consumers = Array.map stack queue_ids;
      env = Softnic.Feature.make_env ();
      ledger;
      acct = (if account then Cost.ledger ledger else Cost.null);
      hist = Array.make (batch + 1) 0;
      per_queue;
      delivered;
      post_pairs = Option.bind epoch (fun ep -> ep.ctl.ctl_post_pairs);
      sink = Bytes.make 8 '\000';
      nbursts = 0;
      consumed = 0;
      epoch = 0;
    }
  in
  let rings =
    if inline then [||]
    else
      let slot_size =
        Array.fold_left (fun a d -> max a (Device.buf_size d)) 64 devices
      in
      Array.init workers (fun _ -> Pktring.create ~capacity:ring_capacity ~slot_size)
  in
  (* With [~pregen] the workload generation and steering run before the
     clock starts, so the measured region is the drain machinery itself:
     handoff, injection, harvest, consume. The pregenerated frames are
     kept, so they come from [next]; the live producer generates every
     frame into one buffer that the handoff copies out of. *)
  let frame =
    if pregen then Bytes.empty else Bytes.create (Packet.Workload.max_len workload)
  in
  let pre =
    if not pregen then None
    else begin
      let bufs = Array.make pkts Bytes.empty in
      let lens = Array.make pkts 0 in
      let qs = Array.make pkts 0 in
      for k = 0 to pkts - 1 do
        let pkt = Packet.Workload.next workload in
        bufs.(k) <- pkt.Packet.Pkt.buf;
        lens.(k) <- pkt.Packet.Pkt.len;
        qs.(k) <- Mq.steer mq pkt
      done;
      Some (bufs, lens, qs)
    end
  in
  (* Offer packets [lo, hi) of the stream, packet [k] as
     [offer k buf len queue]. *)
  let stream lo hi offer =
    match pre with
    | Some (bufs, lens, qs) ->
        for k = lo to hi - 1 do
          offer k bufs.(k) lens.(k) qs.(k)
        done
    | None ->
        for k = lo to hi - 1 do
          let len = Packet.Workload.next_into workload frame in
          offer k frame len (Mq.steer_raw mq frame ~len)
        done
  in
  let t0 = Unix.gettimeofday () in
  let reports, producer_busy_s, p_minor_words, turned =
    match epoch with
    | Some ep when inline ->
        (* One sweep after every [batch]-th injection, counted from the
           start of the stream: where harvests fall relative to the
           swap, and with them the whole outcome, are a pure function of
           (seed, plan, at). The one group owns every queue, in order. *)
        let g = group_of 0 in
        let offer k buf len q =
          inject g q buf len;
          if (k + 1) mod batch = 0 then ignore (sweep g)
        in
        let mw0 = Gc.minor_words () in
        stream 0 at offer;
        let sw =
          turn ep ~at ~pkts
            ~quiesce:(fun () -> quiesce g ep.ctl)
            ~apply:(apply g ep.ctl ~backlog:(fun () -> false))
            ~resume:(fun () -> stream at pkts offer)
        in
        flush_faults g;
        harvest_all g;
        let busy_s = Unix.gettimeofday () -. t0 in
        ( [|
            report g ~w:0 ~busy_s ~minor_words:(Gc.minor_words () -. mw0)
              ~spins:0 ~parks:0 ~wakes:0;
          |],
          0.0,
          0.0,
          Some sw )
    | _ ->
        (* Worker domains drive the groups; this domain feeds them. *)
        let stop = Atomic.make false in
        (* The first failure of any domain, with its backtrace. *)
        let failure = Atomic.make None in
        (* Workers record backtraces when the caller does, so a re-raised
           failure points into the worker. *)
        let backtraces = Printexc.backtrace_status () in
        let members = Pool.acquire workers in
        let reports = Array.make workers None in
        Array.iteri
          (fun w m ->
            Pool.start m (fun () ->
                Printexc.record_backtrace backtraces;
                try
                  reports.(w) <-
                    Some
                      (worker (group_of w) ~w ~batch ~ring:rings.(w) ~stop
                         ~pkts_hint:pkts
                         ~swap:(Option.map (fun ep -> ep.ctl) epoch))
                with e ->
                  let bt = Printexc.get_raw_backtrace () in
                  ignore (Atomic.compare_and_set failure None (Some (e, bt)))))
          members;
        (* The steering/injection domain. Chunks of pushes are timed the
           same way worker chunks are (see [robust_busy]); blocking on a
           full ring ends the current chunk so the wait is not billed as
           work. *)
        let p_cap = pkts + 4 in
        let p_chunk_s = Array.make p_cap 0.0 in
        let p_chunk_n = Array.make p_cap 0 in
        let p_nchunks = ref 0 in
        let p_record s n =
          if n > 0 && !p_nchunks < p_cap then begin
            p_chunk_s.(!p_nchunks) <- s;
            p_chunk_n.(!p_nchunks) <- n;
            incr p_nchunks
          end
        in
        let pushed_in_chunk = ref 0 in
        let chunk_t0 = ref (Unix.gettimeofday ()) in
        let end_chunk () =
          p_record (Unix.gettimeofday () -. !chunk_t0) !pushed_in_chunk;
          pushed_in_chunk := 0;
          chunk_t0 := Unix.gettimeofday ()
        in
        let p_mw0 = Gc.minor_words () in
        let push_one _ buf len q =
          let ring = rings.(owner q) in
          if not (Pktring.try_push ring buf ~len ~qid:q) then begin
            end_chunk ();
            let idle = ref 0 in
            let park = ref park_min_s in
            while not (Pktring.try_push ring buf ~len ~qid:q) do
              check_failed failure;
              if !idle < spin_limit then Domain.cpu_relax ()
              else begin
                Unix.sleepf !park;
                park := Float.min park_max_s (!park *. 2.0)
              end;
              incr idle
            done;
            chunk_t0 := Unix.gettimeofday ()
          end;
          incr pushed_in_chunk;
          if !pushed_in_chunk >= 256 then end_chunk ()
        in
        (* Offer packets [lo, hi), then publish them. *)
        let push_range lo hi =
          stream lo hi push_one;
          Array.iter Pktring.flush rings;
          end_chunk ()
        in
        let all_workers cell () =
          check_failed failure;
          Atomic.get cell >= workers
        in
        let turned =
          match
            push_range 0 at;
            Option.map
              (fun ep ->
                let ctl = ep.ctl in
                (* The verdict computes on this domain, concurrently with
                   the workers draining to their quiescent points. *)
                turn ep ~at ~pkts
                  ~quiesce:(fun () -> Atomic.set ctl.ctl_quiesce true)
                  ~apply:(fun cmd ->
                    wait_until (all_workers ctl.ctl_quiesced);
                    Atomic.set ctl.ctl_cmd (Some cmd);
                    wait_until (all_workers ctl.ctl_acks))
                  ~resume:(fun () -> push_range at pkts))
              epoch
          with
          | turned -> turned
          | exception Worker_failed -> None
          | exception e ->
              (* A raising verdict fails the run like a raising worker. *)
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)));
              None
        in
        let p_minor_words = Gc.minor_words () -. p_mw0 in
        Atomic.set stop true;
        (* After a failure, release any worker parked on an unpublished
           verdict; [stop] retires the rest. *)
        Option.iter
          (fun { ctl; _ } ->
            ignore (Atomic.compare_and_set ctl.ctl_cmd None (Some Swap_quarantine)))
          epoch;
        Array.iter Pool.await members;
        Pool.release members;
        (match Atomic.get failure with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        ( Array.map Option.get reports,
          robust_busy ~chunk_s:p_chunk_s ~chunk_n:p_chunk_n ~nchunks:!p_nchunks
            ~extra_s:0.0,
          p_minor_words,
          turned )
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let busy_s = Array.map (fun r -> r.rp_busy_s) reports in
  let eff_wall_s =
    Array.fold_left (fun a b -> Float.max a b) producer_busy_s busy_s
  in
  let total_pkts = Array.fold_left (fun a r -> a + r.rp_pkts) 0 reports in
  let minor_words =
    Array.fold_left (fun a r -> a +. r.rp_minor_words) p_minor_words reports
  in
  let stranded = Array.fold_left (fun a r -> a + Pktring.length r) 0 rings in
  let domain_stats = Array.map (fun r -> r.rp_stats) reports in
  let result =
    {
      pkts = total_pkts;
      per_queue;
      stats = Stats.merge ~name (Array.to_list domain_stats);
      domain_stats;
      domain_cycles = Array.map (fun r -> r.rp_cycles) reports;
      wall_s;
      busy_s;
      producer_busy_s;
      eff_wall_s;
      minor_words_per_pkt =
        (if total_pkts = 0 then 0.0
         else minor_words /. float_of_int total_pkts);
      stranded;
      drops = Array.fold_left (fun a d -> a + Device.drops d) 0 devices;
      sink = Array.fold_left (fun a r -> Int64.add a r.rp_sink) 0L reports;
      delivered = Option.map (Array.map List.rev) delivered;
      faults = Option.map (Array.map Fault.counters) fqs;
    }
  in
  match (epoch, turned) with
  | Some ep, Some sw ->
      ( result,
        Some
          {
            sw with
            sw_post_pkts = total_pkts - sw.sw_pre_pkts;
            sw_post_pairs =
              Option.map (Array.map List.rev) ep.ctl.ctl_post_pairs;
          } )
  | _ -> (result, None)

let run ?(domains = 1) ?(batch = 32) ?(ring_capacity = 1024) ?(collect = false)
    ?(account = true) ?(pregen = false) ?plan ~mq ~stack ~pkts ~workload () =
  fst
    (engine ~domains ~batch ~ring_capacity ~collect ~account ~pregen ~plan ~mq
       ~stack ~pkts ~workload None)

let hot_swap ?(domains = 1) ?(batch = 32) ?(ring_capacity = 1024)
    ?(collect_post = false) ?plan ~mq ~stack ~pkts ~at ~swap ~workload () =
  let ctl =
    {
      ctl_quiesce = Atomic.make false;
      ctl_cmd = Atomic.make None;
      ctl_quiesced = Atomic.make 0;
      ctl_acks = Atomic.make 0;
      ctl_inflight = Atomic.make 0;
      ctl_pre_pkts = Atomic.make 0;
      ctl_torn = Atomic.make 0;
      ctl_upgrade_errors = Atomic.make 0;
      ctl_post_pairs =
        (if collect_post then Some (Array.make (Mq.queues mq) []) else None);
    }
  in
  let result, outcome =
    engine ~domains ~batch ~ring_capacity ~collect:false ~account:false
      ~pregen:false ~plan ~mq ~stack ~pkts ~workload
      (Some { at; verdict = swap; ctl })
  in
  (result, Option.get outcome)
