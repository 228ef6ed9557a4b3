type t = {
  devices : Device.t array;
  key : Softnic.Toeplitz.key;
  view : Packet.Pkt.view;  (** steering's parse of the last packet *)
}

let create ?queue_depth ~configs model =
  if Array.length configs = 0 then Error "mq: at least one queue required"
  else begin
    let rec build i acc =
      if i = Array.length configs then Ok (Array.of_list (List.rev acc))
      else
        match Device.create ?queue_depth ~config:configs.(i) (model ()) with
        | Ok d -> build (i + 1) (d :: acc)
        | Error e -> Error (Printf.sprintf "mq queue %d: %s" i e)
    in
    match build 0 [] with
    | Error _ as e -> e
    | Ok devices ->
        (* All queue devices were created with the same default feature
           environment key; steering shares it. *)
        Ok { devices; key = (Device.env devices.(0)).rss_key; view = Packet.Pkt.view () }
  end

let create_exn ?queue_depth ~configs model =
  match create ?queue_depth ~configs model with
  | Ok t -> t
  | Error e -> failwith e

let queues t = Array.length t.devices
let queue t i = t.devices.(i)

let steer_raw t buf ~len =
  Packet.Pkt.parse_into t.view buf ~len;
  let hash = Softnic.Toeplitz.hash_pkt_int t.key buf t.view in
  if hash = 0 then 0 else (hash land 0x7FFFFFFF) mod Array.length t.devices

let steer t (pkt : Packet.Pkt.t) = steer_raw t pkt.buf ~len:pkt.len

let rx_inject t pkt = Device.rx_inject t.devices.(steer t pkt) pkt

(* Kept for existing callers only: steering is the hash itself (one
   table lookup per input byte), so there is nothing to cache. *)
type steer_cache = unit

let make_steer_cache () = ()
let steer_cached t () pkt = steer t pkt

let rx_counts t = Array.map Device.rx_count t.devices

let bursts ?capacity t =
  Array.map (fun d -> Device.burst_create ?capacity d) t.devices

let rx_consume_batch t i burst = Device.rx_consume_batch t.devices.(i) burst

let drain_batched t bursts ~f =
  if Array.length bursts <> Array.length t.devices then
    invalid_arg
      (Printf.sprintf "Mq.drain_batched: %d bursts for %d queues"
         (Array.length bursts) (Array.length t.devices));
  let total = ref 0 in
  Array.iteri
    (fun i d ->
      let n = Device.rx_consume_batch d bursts.(i) in
      if n > 0 then begin
        total := !total + n;
        f i bursts.(i)
      end)
    t.devices;
  !total

let wrap_chaos ?quarantine_depth ~plan t =
  Array.mapi (fun q d -> Fault.wrap ~qid:q ?quarantine_depth plan d) t.devices

let check_arity ~who t (arr : 'a array) ~what =
  if Array.length arr <> Array.length t.devices then
    invalid_arg
      (Printf.sprintf "%s: %d %s for %d queues" who (Array.length arr) what
         (Array.length t.devices))

let rx_inject_chaos t fqs pkt =
  check_arity ~who:"Mq.rx_inject_chaos" t fqs ~what:"fault queues";
  Fault.rx_inject fqs.(steer t pkt) pkt

let drain_chaos t fqs bursts ~f =
  check_arity ~who:"Mq.drain_chaos" t fqs ~what:"fault queues";
  check_arity ~who:"Mq.drain_chaos" t bursts ~what:"bursts";
  let total = ref 0 in
  Array.iteri
    (fun i fq ->
      let n = Fault.harvest fq bursts.(i) in
      if n > 0 then begin
        total := !total + n;
        f i bursts.(i)
      end)
    fqs;
  !total

let drain_chaos_all t fqs bursts ~f =
  Array.iter Fault.flush fqs;
  let total = ref 0 in
  let pending () = Array.exists (fun fq -> Fault.rx_available fq > 0) fqs in
  let progress = ref true in
  while !progress do
    let n = drain_chaos t fqs bursts ~f in
    total := !total + n;
    (* A sweep can legitimately deliver nothing while work remains: a
       stuck queue burns bounded kicks, a fully-quarantined burst keeps
       [n] at 0 — keep sweeping until the rings are dry. *)
    progress := n > 0 || pending ()
  done;
  !total
