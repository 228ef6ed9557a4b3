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

(* What one worker domain reports back through Domain.join. *)
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

(* The epoch flip's install step; the caller has made the datapath dry. *)
let install ~config ~model ~stack ~queue_ids devices faults consumers =
  let refused = ref 0 in
  Array.iteri
    (fun i q ->
      (match Device.upgrade devices.(i) ~config (model ()) with
      | Ok () -> ()
      | Error _ -> incr refused);
      Option.iter (fun fqs -> Fault.rebind fqs.(i)) faults;
      consumers.(i) <- stack q)
    queue_ids;
  !refused

let worker ~w ~queue_ids ~devices ~local ~ring ~stop ~batch ~stack ~account
    ~pkts_hint ~per_queue ~delivered ~faults ~swap () =
  let env = Softnic.Feature.make_env () in
  let ledger = Cost.create () in
  let sink_acct = if account then Cost.ledger ledger else Cost.null in
  let bursts = Array.map (fun d -> Device.burst_create ~capacity:batch d) devices in
  let consumers = Array.map stack queue_ids in
  (* Bursts by size: a harvest returns at most [batch] packets. *)
  let hist = Array.make (batch + 1) 0 in
  let nbursts = ref 0 in
  let consumed = ref 0 in
  let sink = ref 0L in
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
  let inject i buf len =
    match faults with
    | None -> ignore (Device.rx_inject_raw devices.(i) buf ~len)
    | Some fqs -> ignore (Fault.rx_inject_raw fqs.(i) buf ~len)
  in
  let take i b =
    match faults with
    | None -> Device.rx_consume_batch devices.(i) b
    | Some fqs -> Fault.harvest fqs.(i) b
  in
  let epoch = ref 0 in
  let swapped = ref false in
  (* One harvest sweep over the owned queues; returns packets taken. A
     [for] loop, not [Array.iteri]: a closure per sweep would allocate. *)
  let sweep () =
    let total = ref 0 in
    for i = 0 to Array.length devices - 1 do
      let b = bursts.(i) in
      let n = take i b in
      if n > 0 then begin
        incr nbursts;
        hist.(n) <- hist.(n) + 1;
        sink := Int64.add !sink (consumers.(i).Stack.bt_consume sink_acct env b);
        let q = queue_ids.(i) in
        per_queue.(q) <- per_queue.(q) + n;
        (match delivered with
        | Some arr ->
            for j = 0 to n - 1 do
              arr.(q) <-
                Bytes.sub b.Device.bs_pkts.(j) 0 b.Device.bs_lens.(j) :: arr.(q)
            done
        | None -> ());
        (match swap with
        | Some ctl when !epoch = 1 -> (
            match ctl.ctl_post_pairs with
            | Some arr ->
                for j = 0 to n - 1 do
                  arr.(q) <-
                    ( Bytes.sub b.Device.bs_pkts.(j) 0 b.Device.bs_lens.(j),
                      Bytes.sub b.Device.bs_cmpts.(j) 0 b.Device.bs_cmpt_lens.(j)
                    )
                    :: arr.(q)
                done
            | None -> ())
        | _ -> ());
        consumed := !consumed + n;
        total := !total + n
      end
    done;
    !total
  in
  let harvest_all () =
    while sweep () > 0 do () done;
    (* Under fault injection a sweep can deliver nothing while the rings
       still hold work (stuck queues burn bounded kicks per call;
       fully-quarantined bursts count 0) — keep sweeping until dry. *)
    match faults with
    | None -> ()
    | Some fqs ->
        while Array.exists (fun fq -> Fault.rx_available fq > 0) fqs do
          ignore (sweep ())
        done
  in
  (* Pop/inject in runs of up to a full batch per owned queue, then
     harvest — keeps bursts near capacity, so the amortised per-burst
     charges match the sequential batched path. Each run+harvest is one
     timed chunk. *)
  let threshold = batch * Array.length devices in
  let mw0 = Gc.minor_words () in
  let running = ref true in
  let idle = ref 0 in
  let park_s = ref park_min_s in
  let parked = ref false in
  while !running do
    let first = Pktring.peek ring in
    if first >= 0 then begin
      let t0 = Unix.gettimeofday () in
      if !parked then begin
        incr wakes;
        parked := false
      end;
      idle := 0;
      park_s := park_min_s;
      let pops = ref 0 in
      let slot = ref first in
      while !slot >= 0 do
        let q = Pktring.qid ring !slot in
        inject local.(q) (Pktring.buf ring !slot) (Pktring.len ring !slot);
        Pktring.advance ring;
        incr pops;
        slot := if !pops < threshold then Pktring.peek ring else -1
      done;
      harvest_all ();
      record_chunk (Unix.gettimeofday () -. t0) !pops
    end
    else if
      match swap with
      | Some ctl -> (not !swapped) && Atomic.get ctl.ctl_quiesce
      | None -> false
    then begin
      let ctl = Option.get swap in
      let t0 = Unix.gettimeofday () in
      (* Reach the quiescent point. The quiesce flag was raised after the
         producer's final pre-swap flush, so the empty peek above may
         predate that flush: drain the handoff ring dry first, emit any
         deferred reordered completion (it has no successor on this side
         of the swap), then sweep the owned devices empty. *)
      let pops = ref 0 in
      let rec drain_ring () =
        let s = Pktring.peek ring in
        if s >= 0 then begin
          let q = Pktring.qid ring s in
          inject local.(q) (Pktring.buf ring s) (Pktring.len ring s);
          Pktring.advance ring;
          incr pops;
          drain_ring ()
        end
      in
      drain_ring ();
      (match faults with
      | Some fqs -> Array.iter Fault.flush fqs
      | None -> ());
      let inflight =
        match faults with
        | Some fqs ->
            Array.fold_left (fun a fq -> a + Fault.rx_available fq) 0 fqs
        | None ->
            Array.fold_left (fun a d -> a + Device.rx_available d) 0 devices
      in
      ignore (Atomic.fetch_and_add ctl.ctl_inflight inflight);
      harvest_all ();
      ignore (Atomic.fetch_and_add ctl.ctl_pre_pkts !consumed);
      ignore (Atomic.fetch_and_add ctl.ctl_quiesced 1);
      (* Wait for the verdict — classification, recompile and
         certification run concurrently on the producer domain. *)
      wait_until (fun () -> Option.is_some (Atomic.get ctl.ctl_cmd));
      (match Option.get (Atomic.get ctl.ctl_cmd) with
      | Swap_apply { sc_config; sc_model; sc_stack } ->
          (* Torn-plan oracle: the epoch flip is only legal at a dry
             point — a completion serialised under the old contract must
             never be read with the new accessors. *)
          if
            Pktring.peek ring >= 0
            || Array.exists (fun d -> Device.rx_available d > 0) devices
          then begin
            ignore (Atomic.fetch_and_add ctl.ctl_torn 1);
            drain_ring ();
            harvest_all ()
          end;
          ignore
            (Atomic.fetch_and_add ctl.ctl_upgrade_errors
               (install ~config:sc_config ~model:sc_model ~stack:sc_stack
                  ~queue_ids devices faults consumers));
          epoch := 1
      | Swap_refuse -> ()
      | Swap_quarantine -> running := false);
      swapped := true;
      ignore (Atomic.fetch_and_add ctl.ctl_acks 1);
      record_chunk (Unix.gettimeofday () -. t0) !pops
    end
    else if Atomic.get stop && Pktring.peek ring < 0 then begin
      (* End of stream (the re-peek runs after the stop read, so the
         producer's final flush is visible): a deferred (reordered)
         completion has no successor left to swap with — emit it before
         the final drain. *)
      let t0 = Unix.gettimeofday () in
      (match faults with
      | Some fqs -> Array.iter Fault.flush fqs
      | None -> ());
      harvest_all ();
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
  let busy =
    robust_busy ~chunk_s ~chunk_n ~nchunks:!nchunks ~extra_s:!tail_s
  in
  let dma = Array.fold_left (fun a d -> a + Device.dma_bytes d) 0 devices in
  let drops = Array.fold_left (fun a d -> a + Device.drops d) 0 devices in
  let stats =
    Stats.make
      ~name:(Printf.sprintf "domain%d" w)
      ~pkts:!consumed ~ledger ~dma_bytes:dma ~drops
    |> Stats.with_bursts ~bursts:!nbursts
         ~burst_hist:
           (List.filter
              (fun (_, c) -> c > 0)
              (List.init (batch + 1) (fun n -> (n, hist.(n)))))
    |> Stats.with_idle ~spins:!spins ~parks:!parks ~wakes:!wakes
  in
  let stats =
    match faults with
    | None -> stats
    | Some fqs ->
        let c =
          Fault.counters_sum (Array.to_list (Array.map Fault.counters fqs))
        in
        Stats.with_faults ~injected:c.Fault.injected ~detected:c.Fault.detected
          ~quarantined:c.Fault.quarantined ~retries:c.Fault.retries stats
  in
  {
    rp_pkts = !consumed;
    rp_cycles = Cost.total ledger;
    rp_stats = stats;
    rp_sink = !sink;
    rp_busy_s = busy;
    rp_minor_words = minor_words;
  }

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
   the control cell the workers watch. *)
type epoch = { at : int; verdict : unit -> swap_cmd; ctl : swap_ctl }

(* The one engine behind {!run} and {!hot_swap}. Without an epoch the
   producer offers the whole stream. With one it offers [at] packets
   under the old contract, raises the quiesce flag, computes the verdict
   (typically classification + recompile + certification) while the
   workers drain themselves dry, publishes it once every worker stands
   at a quiescent point, and resumes the stream only after every worker
   has acknowledged the new epoch. *)
let engine ~domains ~batch ~ring_capacity ~collect ~account ~pregen ~plan ~mq
    ~stack ~pkts ~workload epoch =
  let fn, name =
    match epoch with
    | None -> ("Parallel.run", "parallel")
    | Some _ -> ("Parallel.hot_swap", "hot_swap")
  in
  check_sizes fn ~domains ~batch ~pkts;
  let nq = Mq.queues mq in
  let workers = min domains nq in
  let owner q = q mod workers in
  let at = match epoch with Some ep -> max 0 (min ep.at pkts) | None -> pkts in
  let devices = Array.init nq (Mq.queue mq) in
  Array.iter Device.reset_counters devices;
  (* One fault wrapper per queue, created up front and handed to the
     owning worker: faults are a per-queue function of (seed, qid,
     injection order), so the same plan replays identically however the
     queues are grouped onto domains. *)
  let fqs =
    Option.map
      (fun plan -> Array.init nq (fun q -> Fault.wrap ~qid:q plan devices.(q)))
      plan
  in
  let per_queue = Array.make nq 0 in
  let delivered = if collect then Some (Array.make nq []) else None in
  let slot_size =
    Array.fold_left (fun a d -> max a (Device.buf_size d)) 64 devices
  in
  let rings =
    Array.init workers (fun _ ->
        Pktring.create ~capacity:ring_capacity ~slot_size)
  in
  let stop = Atomic.make false in
  (* The first failure of any domain, with its backtrace. *)
  let failure = Atomic.make None in
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
  (* Workers record backtraces when the caller does, so a re-raised
     failure points into the worker. *)
  let backtraces = Printexc.backtrace_status () in
  let t0 = Unix.gettimeofday () in
  let doms =
    Array.init workers (fun w ->
        let queue_ids =
          Array.of_list
            (List.filter (fun q -> owner q = w) (List.init nq Fun.id))
        in
        let wdevices = Array.map (fun q -> devices.(q)) queue_ids in
        let local = Array.make nq (-1) in
        Array.iteri (fun i q -> local.(q) <- i) queue_ids;
        let wfaults =
          Option.map (fun fqs -> Array.map (fun q -> fqs.(q)) queue_ids) fqs
        in
        Domain.spawn (fun () ->
            Printexc.record_backtrace backtraces;
            try
              worker ~w ~queue_ids ~devices:wdevices ~local ~ring:rings.(w)
                ~stop ~batch ~stack ~account ~pkts_hint:pkts ~per_queue
                ~delivered ~faults:wfaults
                ~swap:(Option.map (fun ep -> ep.ctl) epoch)
                ()
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)));
              Printexc.raise_with_backtrace e bt))
  in
  (* The steering/injection domain. Chunks of pushes are timed the same
     way worker chunks are (see [robust_busy]); blocking on a full ring
     ends the current chunk so the wait is not billed as work. *)
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
  let push_one buf len q =
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
  (* Offer packets [lo, hi) of the stream, then publish them. *)
  let push_range lo hi =
    (match pre with
    | Some (bufs, lens, qs) ->
        for k = lo to hi - 1 do
          push_one bufs.(k) lens.(k) qs.(k)
        done
    | None ->
        for _ = lo to hi - 1 do
          let len = Packet.Workload.next_into workload frame in
          push_one frame len (Mq.steer_raw mq frame ~len)
        done);
    Array.iter Pktring.flush rings;
    end_chunk ()
  in
  let all_workers cell () =
    check_failed failure;
    Atomic.get cell >= workers
  in
  let turn { verdict; ctl; _ } =
    let t_swap = Unix.gettimeofday () in
    Atomic.set ctl.ctl_quiesce true;
    (* The verdict computes here — on the producer domain, concurrently
       with the workers draining to their quiescent points. *)
    let cmd = verdict () in
    wait_until (all_workers ctl.ctl_quiesced);
    Atomic.set ctl.ctl_cmd (Some cmd);
    wait_until (all_workers ctl.ctl_acks);
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
    if action <> Sw_quarantined then push_range at pkts;
    (* Every worker has acknowledged, so the counters below are final;
       the epoch-1 deliveries are filled in after the join. *)
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
  in
  let turned =
    match
      push_range 0 at;
      Option.map turn epoch
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
  let reports =
    Array.map (fun d -> try Some (Domain.join d) with _ -> None) doms
  in
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let reports = Array.map Option.get reports in
  let wall_s = Unix.gettimeofday () -. t0 in
  let producer_busy_s =
    robust_busy ~chunk_s:p_chunk_s ~chunk_n:p_chunk_n ~nchunks:!p_nchunks
      ~extra_s:0.0
  in
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
    ?(collect = false) ?(account = true) ?(collect_post = false) ?plan ~mq
    ~stack ~pkts ~at ~swap ~workload () =
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
    engine ~domains ~batch ~ring_capacity ~collect ~account ~pregen:false
      ~plan ~mq ~stack ~pkts ~workload
      (Some { at; verdict = swap; ctl })
  in
  (result, Option.get outcome)
