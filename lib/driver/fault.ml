(* Deterministic fault injection.

   Every fault decision and every fault mechanic happens at injection
   time, on the injected queue's own rings, driven by a per-queue
   SplitMix64 stream: queue q's fault sequence is a pure function of
   (plan.seed, q, injection order on q). Harvest timing — burst sizes,
   polling cadence, domain assignment — can therefore not change what
   faults occur, which is what makes chaos runs bit-reproducible across
   runs and domain counts. The injector also classifies each fault
   against the same contract checker the recovery path uses, giving an
   exact ground truth for the detection counters to reconcile against. *)

type kind =
  | Flip
  | Semantic
  | Torn
  | Duplicate
  | Reorder
  | Stale
  | Stuck
  | Doorbell_loss

let kinds = [ Flip; Semantic; Torn; Duplicate; Reorder; Stale; Stuck; Doorbell_loss ]
let nkinds = List.length kinds

let kind_name = function
  | Flip -> "bitflip"
  | Semantic -> "field_corrupt"
  | Torn -> "torn_write"
  | Duplicate -> "duplicate"
  | Reorder -> "reorder"
  | Stale -> "stale_wrap"
  | Stuck -> "stuck_queue"
  | Doorbell_loss -> "doorbell_loss"

let kind_index = function
  | Flip -> 0
  | Semantic -> 1
  | Torn -> 2
  | Duplicate -> 3
  | Reorder -> 4
  | Stale -> 5
  | Stuck -> 6
  | Doorbell_loss -> 7

type plan = {
  seed : int64;
  flip_rate : float;
  semantic_rate : float;
  torn_rate : float;
  duplicate_rate : float;
  reorder_rate : float;
  stale_rate : float;
  stuck_rate : float;
  doorbell_loss_rate : float;
  stuck_kicks : int;
  burst_len : int;
  burst_period : int;
}

let zero_plan seed =
  {
    seed;
    flip_rate = 0.0;
    semantic_rate = 0.0;
    torn_rate = 0.0;
    duplicate_rate = 0.0;
    reorder_rate = 0.0;
    stale_rate = 0.0;
    stuck_rate = 0.0;
    doorbell_loss_rate = 0.0;
    stuck_kicks = 2;
    burst_len = 0;
    burst_period = 0;
  }

let default_plan seed =
  {
    (zero_plan seed) with
    flip_rate = 0.02;
    semantic_rate = 0.02;
    torn_rate = 0.01;
    duplicate_rate = 0.01;
    reorder_rate = 0.01;
    stale_rate = 0.01;
    stuck_rate = 0.005;
    doorbell_loss_rate = 0.1;
  }

let scale k p =
  let s r = min 1.0 (r *. k) in
  {
    p with
    flip_rate = s p.flip_rate;
    semantic_rate = s p.semantic_rate;
    torn_rate = s p.torn_rate;
    duplicate_rate = s p.duplicate_rate;
    reorder_rate = s p.reorder_rate;
    stale_rate = s p.stale_rate;
    stuck_rate = s p.stuck_rate;
    doorbell_loss_rate = s p.doorbell_loss_rate;
  }

let pp_plan ppf p =
  Format.fprintf ppf
    "@[<h>seed=%Ld flip=%g field=%g torn=%g dup=%g reorder=%g stale=%g \
     stuck=%g(kicks=%d) doorbell=%g%s@]"
    p.seed p.flip_rate p.semantic_rate p.torn_rate p.duplicate_rate
    p.reorder_rate p.stale_rate p.stuck_rate p.stuck_kicks
    p.doorbell_loss_rate
    (if p.burst_period > 0 then
       Printf.sprintf " burst=%d/%d" p.burst_len p.burst_period
     else "")

type counters = {
  mutable injected : int;
  by_kind : int array;
  mutable contract_violating : int;
  mutable rx_accepted : int;
  mutable duplicates : int;
  mutable detected : int;
  mutable quarantined : int;
  mutable quarantine_drops : int;
  mutable delivered : int;
  mutable retries : int;
  mutable doorbells_lost : int;
  mutable tx_posted : int;
  mutable tx_sent : int;
}

let counters_zero () =
  {
    injected = 0;
    by_kind = Array.make nkinds 0;
    contract_violating = 0;
    rx_accepted = 0;
    duplicates = 0;
    detected = 0;
    quarantined = 0;
    quarantine_drops = 0;
    delivered = 0;
    retries = 0;
    doorbells_lost = 0;
    tx_posted = 0;
    tx_sent = 0;
  }

let counters_sum cs =
  let acc = counters_zero () in
  List.iter
    (fun c ->
      acc.injected <- acc.injected + c.injected;
      Array.iteri (fun i n -> acc.by_kind.(i) <- acc.by_kind.(i) + n) c.by_kind;
      acc.contract_violating <- acc.contract_violating + c.contract_violating;
      acc.rx_accepted <- acc.rx_accepted + c.rx_accepted;
      acc.duplicates <- acc.duplicates + c.duplicates;
      acc.detected <- acc.detected + c.detected;
      acc.quarantined <- acc.quarantined + c.quarantined;
      acc.quarantine_drops <- acc.quarantine_drops + c.quarantine_drops;
      acc.delivered <- acc.delivered + c.delivered;
      acc.retries <- acc.retries + c.retries;
      acc.doorbells_lost <- acc.doorbells_lost + c.doorbells_lost;
      acc.tx_posted <- acc.tx_posted + c.tx_posted;
      acc.tx_sent <- acc.tx_sent + c.tx_sent)
    cs;
  acc

let reconciles c =
  c.detected = c.quarantined
  && c.detected = c.contract_violating
  && c.delivered + c.quarantined = c.rx_accepted + c.duplicates

type t = {
  dev : Device.t;
  plan : plan;
  rng : Packet.Rng.t;
  roll_at : int array;
      (** cumulative thresholds of the plan's nonzero RX rates, in
          {!kinds} order, scaled to {!Packet.Rng.bits53} draws *)
  roll_kind : kind option array;  (** the kind each threshold picks *)
  doorbell_at : int;  (** [doorbell_loss_rate], scaled the same way *)
  mutable checker : Validate.checker;
  mutable target_fields : Opendesc.Path.lfield array;
  quarantine : Ring.t;  (** records as length-prefixed frames *)
  scratch : bytes;  (** one completion record, for faulted packets *)
  c : counters;
  mutable inject_seq : int;
  stash : bytes;  (** the deferred (reordered) frame's bytes *)
  mutable stash_len : int;  (** its full length; -1 when none is deferred *)
  mutable stuck_remaining : int;
  mutable db_armed : bool;
}

(* Golden-ratio increment, so queue streams are decorrelated the same
   way SplitMix64 decorrelates consecutive states. *)
let mix_seed seed qid =
  Int64.add seed (Int64.mul (Int64.of_int (qid + 1)) 0x9E3779B97F4A7C15L)

(* The RX kinds a roll can pick, with their rates, in the order the
   thresholds accumulate. *)
let rx_rates p =
  [
    (Flip, p.flip_rate);
    (Semantic, p.semantic_rate);
    (Torn, p.torn_rate);
    (Duplicate, p.duplicate_rate);
    (Reorder, p.reorder_rate);
    (Stale, p.stale_rate);
    (Stuck, p.stuck_rate);
  ]

(* A draw [u = v * 2^-53] (see {!Packet.Rng.float}) is below [a] exactly
   when [v < ceil (a * 2^53)]: the scaling is exact, and [v] is an
   integer. A rate at or above 1 always fires, and a rate that is not
   positive (NaN included) never does. *)
let threshold a =
  if not (a > 0.0) then 0 else int_of_float (Float.ceil (Float.min a 1.0 *. 0x1p53))

let wrap ?(qid = 0) ?(quarantine_depth = 1024) plan dev =
  let checker = Validate.checker_of_device dev in
  let rated = Array.of_list (List.filter (fun (_, r) -> r > 0.0) (rx_rates plan)) in
  let acc = ref 0.0 in
  let slot_size = Ring.slot_size (Device.cmpt_ring dev) in
  {
    dev;
    plan;
    rng = Packet.Rng.create (mix_seed plan.seed qid);
    roll_at =
      Array.map
        (fun (_, r) ->
          acc := !acc +. r;
          threshold !acc)
        rated;
    roll_kind = Array.map (fun (k, _) -> Some k) rated;
    doorbell_at = threshold plan.doorbell_loss_rate;
    checker;
    target_fields = Array.of_list (Validate.checker_fields checker);
    quarantine = Ring.create ~slots:quarantine_depth ~slot_size:(slot_size + 2);
    scratch = Bytes.create slot_size;
    c = counters_zero ();
    inject_seq = 0;
    stash = Bytes.create (Device.buf_size dev);
    stash_len = -1;
    stuck_remaining = 0;
    db_armed = true;
  }

let device t = t.dev
let plan t = t.plan
let counters t = t.c

(* After a {!Device.upgrade} the wrap-time contract checker and its
   targeted-corruption candidates describe the retired layout; rebuild
   both from the device's new active path. Counters and the RNG stream
   carry over — the fault schedule stays a pure function of
   (seed, qid, injection order) across the swap. *)
let rebind t =
  let checker = Validate.checker_of_device t.dev in
  t.checker <- checker;
  t.target_fields <- Array.of_list (Validate.checker_fields checker)

let layout_size t =
  (Device.active_path t.dev).Opendesc.Path.p_layout.Opendesc.Path.size_bytes

let count t k =
  t.c.injected <- t.c.injected + 1;
  t.c.by_kind.(kind_index k) <- t.c.by_kind.(kind_index k) + 1

(* A faulted packet's completion goes through the one scratch record:
   [load_slot] copies the active layout's bytes of a completion slot into
   it, [store_slot] writes them back (uncounted: the counted DMA write is
   the one that went wrong). Past the layout the scratch holds stale
   bytes, which no checker read and no mutation reaches. *)
let load_slot t ~off =
  Bytes.blit (Dma.mem (Ring.dma (Device.cmpt_ring t.dev))) off t.scratch 0 (layout_size t)

let store_slot t ~off =
  Dma.corrupt (Ring.dma (Device.cmpt_ring t.dev)) ~off t.scratch ~pos:0 ~len:(layout_size t)

(* The offset of the completion slot the device just wrote. *)
let last_off t =
  let ring = Device.cmpt_ring t.dev in
  Ring.slot_offset ring (Ring.prod_index ring - 1)

(* Ground truth: does the (possibly mutated) completion still honour the
   contract for its packet? Uses the same checker as the recovery path,
   so injection-time classification and harvest-time detection agree by
   construction. *)
let classify_last t buf ~len =
  load_slot t ~off:(last_off t);
  match Validate.check_desc t.checker buf ~len ~cmpt:t.scratch with
  | Some _ -> t.c.contract_violating <- t.c.contract_violating + 1
  | None -> ()

let apply_flip t buf ~size =
  let nbits = 1 + Packet.Rng.int t.rng 3 in
  for _ = 1 to nbits do
    let bit = Packet.Rng.int t.rng (size * 8) in
    let b = Char.code (Bytes.get buf (bit / 8)) in
    Bytes.set buf (bit / 8) (Char.chr (b lxor (1 lsl (bit mod 8))))
  done

(* XOR a nonzero mask of at most 30 bits into one checked field's low
   bits. Fields are MSB-first, so value bit [j] sits at stream bit
   [l_bit_off + l_bits - 1 - j]; flipping those bits in place writes the
   bytes a read, an XOR and a write of the field would. *)
let apply_semantic t buf ~size =
  if Array.length t.target_fields = 0 then apply_flip t buf ~size
  else begin
    let f = Packet.Rng.choice t.rng t.target_fields in
    let bits = f.Opendesc.Path.l_bits in
    let mbits = min bits 30 in
    let mask = 1 + Packet.Rng.int t.rng ((1 lsl mbits) - 1) in
    let last = f.Opendesc.Path.l_bit_off + bits - 1 in
    for j = 0 to mbits - 1 do
      if mask land (1 lsl j) <> 0 then begin
        let bit = last - j in
        Bytes.set_uint8 buf (bit / 8)
          (Bytes.get_uint8 buf (bit / 8) lxor (0x80 lsr (bit mod 8)))
      end
    done
  end

(* The tail past a random cut is garbage, one draw per byte in order. *)
let apply_torn t buf ~size =
  if size > 1 then
    for i = 1 + Packet.Rng.int t.rng (size - 1) to size - 1 do
      Bytes.set buf i (Packet.Rng.byte t.rng)
    done

(* Mutate the just-written completion slot in place. *)
let mutate_last t k =
  let off = last_off t and size = layout_size t in
  load_slot t ~off;
  (match k with
  | Flip -> apply_flip t t.scratch ~size
  | Semantic -> apply_semantic t t.scratch ~size
  | _ -> apply_torn t t.scratch ~size);
  store_slot t ~off

let inject_plain t buf ~len =
  let ok = Device.rx_inject_raw t.dev buf ~len in
  if ok then t.c.rx_accepted <- t.c.rx_accepted + 1;
  ok

(* Re-deliver the last frame and completion verbatim: the device DMAs
   the frame ([len + 2] bytes) and the active layout's completion bytes
   again from the slots it just wrote — not a second rx_inject, so
   stateful semantics (timestamps, flow counters) are not recomputed and
   the duplicate stays byte-identical. *)
let duplicate_last t =
  let pkt_ring = Device.pkt_ring t.dev and cmpt_ring = Device.cmpt_ring t.dev in
  if Ring.space pkt_ring > 0 && Ring.space cmpt_ring > 0 then begin
    let ok1 = Ring.repeat_frame pkt_ring in
    let ok2 = Ring.repeat_dev cmpt_ring ~len:(layout_size t) in
    assert (ok1 && ok2);
    t.c.duplicates <- t.c.duplicates + 1;
    true
  end
  else false

(* One draw per eligible injection, even when every rate is 0 (the TX
   doorbell rolls share the stream); the first threshold above it picks
   the kind, the one a walk summing the rates in [rx_rates] order would
   pick. The draw is an int, so the roll boxes nothing. *)
let roll t =
  let p = t.plan in
  let eligible =
    p.burst_period <= 0 || t.inject_seq mod p.burst_period < p.burst_len
  in
  if not eligible then None
  else begin
    let v = Packet.Rng.bits53 t.rng in
    let at = t.roll_at in
    let i = ref 0 in
    while !i < Array.length at && not (v < Array.unsafe_get at !i) do
      incr i
    done;
    if !i < Array.length at then t.roll_kind.(!i) else None
  end

(* A Reorder keeps the frame past the call, so it is copied into the
   wrapper's own stash: the caller may reuse its buffer at once. A frame
   longer than the device's buffer is a counted drop whose bytes are
   never read, so only its length is kept. *)
let stash t buf ~len =
  let cap = Bytes.length t.stash in
  if len < 0 || (len > Bytes.length buf && len <= cap) then
    invalid_arg
      (Printf.sprintf "Fault.rx_inject_raw: frame length %d outside the %d-byte buffer" len
         (Bytes.length buf));
  if len <= cap then Bytes.blit buf 0 t.stash 0 len;
  t.stash_len <- len

let inject_one t buf ~len =
  match roll t with
  | None -> inject_plain t buf ~len
  | Some (Flip | Semantic | Torn as k) ->
      let ok = inject_plain t buf ~len in
      if ok then begin
        count t k;
        mutate_last t k;
        classify_last t buf ~len
      end;
      ok
  | Some Stale ->
      (* Capture what the next completion slot holds *before* the device
         overwrites it, then put it back: the host observes the previous
         lap's record as if the producer index wrapped spuriously. *)
      let ring = Device.cmpt_ring t.dev in
      let off = Ring.slot_offset ring (Ring.prod_index ring) in
      load_slot t ~off;
      let ok = inject_plain t buf ~len in
      if ok then begin
        count t Stale;
        store_slot t ~off;
        classify_last t buf ~len
      end;
      ok
  | Some Duplicate ->
      let ok = inject_plain t buf ~len in
      if ok && duplicate_last t then count t Duplicate;
      ok
  | Some Reorder ->
      (* Defer this packet past its successor (emitted by the next
         rx_inject, or by flush at end of stream). *)
      stash t buf ~len;
      count t Reorder;
      true
  | Some Stuck ->
      let ok = inject_plain t buf ~len in
      if ok then begin
        count t Stuck;
        t.stuck_remaining <- t.stuck_remaining + max 1 t.plan.stuck_kicks
      end;
      ok
  | Some Doorbell_loss -> assert false (* TX-only; never rolled here *)

let flush t =
  if t.stash_len >= 0 then begin
    let len = t.stash_len in
    t.stash_len <- -1;
    ignore (inject_plain t t.stash ~len)
  end

let rx_inject_raw t buf ~len =
  t.inject_seq <- t.inject_seq + 1;
  if t.stash_len < 0 then inject_one t buf ~len
  else begin
    (* Complete the swap: successor first, then the deferred packet.
       Neither is re-rolled, so one Reorder affects exactly two
       completions. *)
    let ok = inject_plain t buf ~len in
    flush t;
    ok
  end

let rx_inject t (pkt : Packet.Pkt.t) = rx_inject_raw t pkt.buf ~len:pkt.len

let rx_available t = Device.rx_available t.dev

let default_max_kicks = 8

let harvest ?(max_kicks = default_max_kicks) t (b : Device.burst) =
  (* A stuck queue holds completions without presenting them; each
     doorbell re-ring (a counted retry) works one charge off. *)
  let kicks = ref 0 in
  while t.stuck_remaining > 0 && !kicks < max_kicks && rx_available t > 0 do
    t.stuck_remaining <- t.stuck_remaining - 1;
    t.c.retries <- t.c.retries + 1;
    incr kicks
  done;
  if t.stuck_remaining > 0 then begin
    b.Device.bs_count <- 0;
    0
  end
  else begin
    let n = Device.rx_consume_batch t.dev b in
    let kept = ref 0 in
    for i = 0 to n - 1 do
      (* Validated in place: the checker reads only layout fields, so
         the burst buffer's tail past the layout does not matter. *)
      let cmpt = b.Device.bs_cmpts.(i) in
      match
        Validate.check_desc t.checker b.Device.bs_pkts.(i) ~len:b.Device.bs_lens.(i) ~cmpt
      with
      | Some _ ->
          t.c.detected <- t.c.detected + 1;
          t.c.quarantined <- t.c.quarantined + 1;
          (* Kept at its harvest-time length: a record quarantined
             before an upgrade comes back at the size it was harvested
             at, whatever layout is active when it is read. *)
          let len = b.Device.bs_cmpt_lens.(i) in
          if not (Ring.produce_frame t.quarantine cmpt ~len) then
            t.c.quarantine_drops <- t.c.quarantine_drops + 1
      | None ->
          t.c.delivered <- t.c.delivered + 1;
          if !kept < i then begin
            (* Compact survivors to the front by swapping buffer refs —
               the burst's buffers are interchangeable scratch space. *)
            let tp = b.Device.bs_pkts.(!kept) in
            b.Device.bs_pkts.(!kept) <- b.Device.bs_pkts.(i);
            b.Device.bs_pkts.(i) <- tp;
            let tc = b.Device.bs_cmpts.(!kept) in
            b.Device.bs_cmpts.(!kept) <- b.Device.bs_cmpts.(i);
            b.Device.bs_cmpts.(i) <- tc;
            b.Device.bs_lens.(!kept) <- b.Device.bs_lens.(i);
            b.Device.bs_cmpt_lens.(!kept) <- b.Device.bs_cmpt_lens.(i)
          end;
          incr kept
    done;
    b.Device.bs_count <- !kept;
    !kept
  end

let quarantined t = Ring.available t.quarantine

let quarantine_consume t = Ring.consume_frame t.quarantine

let tx_post_batch t descs =
  let n = Device.tx_post_batch t.dev descs in
  t.c.tx_posted <- t.c.tx_posted + n;
  if n > 0 then
    if Packet.Rng.bits53 t.rng < t.doorbell_at then begin
      count t Doorbell_loss;
      t.c.doorbells_lost <- t.c.doorbells_lost + 1;
      t.db_armed <- false
    end
    else t.db_armed <- true;
  n

let tx_process t ~fetch =
  if not t.db_armed then 0
  else begin
    let n = Device.tx_process t.dev ~fetch in
    t.c.tx_sent <- t.c.tx_sent + n;
    n
  end

let tx_kick t =
  if not t.db_armed then begin
    t.db_armed <- true;
    t.c.retries <- t.c.retries + 1
  end

let tx_drain ?(max_kicks = default_max_kicks) t ~fetch =
  let sent = ref (tx_process t ~fetch) in
  let kicks = ref 0 in
  while Ring.available (Device.tx_ring t.dev) > 0 && !kicks < max_kicks do
    tx_kick t;
    incr kicks;
    sent := !sent + tx_process t ~fetch
  done;
  !sent
