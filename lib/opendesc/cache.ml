type stats = { hits : int; misses : int; entries : int }

(* Two-level memo: spec instance ->(physical identity) entry; entry holds
   the per-(intent, alpha, tx) result table. Distinct spec instances with
   the same layout fingerprint share one entry, so reloading a catalog
   still hits. The physical-identity front caches keep a warm lookup free
   of fingerprint/canonical recomputation; both are bounded. *)
type entry = {
  fp : string;
  results : (string, (Compile.t, string) result) Hashtbl.t;
}

let specs : (Nic_spec.t * entry) list ref = ref []
let by_fp : (string, entry) Hashtbl.t = Hashtbl.create 8
let canonicals : (Intent.t * string) list ref = ref []
let hits = ref 0
let misses = ref 0

let memo_assoc cache key compute =
  match List.find_opt (fun (k, _) -> k == key) !cache with
  | Some (_, v) -> v
  | None ->
      let v = compute key in
      let keep =
        if List.length !cache >= 64 then List.filteri (fun i _ -> i < 63) !cache
        else !cache
      in
      cache := (key, v) :: keep;
      v

let entry_of nic =
  memo_assoc specs nic (fun nic ->
      let fp = Nic_spec.fingerprint nic in
      match Hashtbl.find_opt by_fp fp with
      | Some e -> e
      | None ->
          let e = { fp; results = Hashtbl.create 8 } in
          Hashtbl.add by_fp fp e;
          e)

let canonical_of intent = memo_assoc canonicals intent Intent.canonical

(* Certificate store (docs/CERTIFICATION.md): results keyed by contract
   hash x intent key, plus the latest certificate granted per
   (NIC name, intent key) — the record Evolution's Recompile class
   consults for staleness across firmware revisions. *)
type cert_error =
  | Cert_compile_error of string
  | Cert_failed of Opendesc_analysis.Diagnostic.t list

type cert_status =
  | Cert_fresh of Opendesc_analysis.Certify.certificate
  | Cert_stale of Opendesc_analysis.Certify.certificate
  | Cert_missing

let certs :
    (string, (Opendesc_analysis.Certify.certificate, cert_error) result)
    Hashtbl.t =
  Hashtbl.create 8

let held : (string, Opendesc_analysis.Certify.certificate) Hashtbl.t =
  Hashtbl.create 8

let clear () =
  specs := [];
  canonicals := [];
  Hashtbl.reset by_fp;
  Hashtbl.reset certs;
  Hashtbl.reset held;
  hits := 0;
  misses := 0

let stats () =
  {
    hits = !hits;
    misses = !misses;
    entries = Hashtbl.fold (fun _ e acc -> acc + Hashtbl.length e.results) by_fp 0;
  }

let stats_line () =
  let s = stats () in
  Printf.sprintf "compile cache: %d hit(s), %d miss(es), %d entr%s" s.hits
    s.misses s.entries
    (if s.entries = 1 then "y" else "ies")

(* The key within an entry (whose fingerprint is the rest of the key):
   intent canonical form, alpha by its exact bits, TX intent. *)
let intent_key ?alpha ?tx_intent ~intent () =
  String.concat "\x00"
    [
      canonical_of intent;
      Int64.to_string
        (Int64.bits_of_float
           (match alpha with Some a -> a | None -> Select.default_alpha));
      (match tx_intent with Some i -> canonical_of i | None -> "-");
    ]

let run ?alpha ?tx_intent ~intent (nic : Nic_spec.t) =
  let e = entry_of nic in
  let key = intent_key ?alpha ?tx_intent ~intent () in
  match Hashtbl.find_opt e.results key with
  | Some r ->
      incr hits;
      r
  | None ->
      incr misses;
      let r = Compile.run ?alpha ?tx_intent ~intent nic in
      Hashtbl.add e.results key r;
      r

let run_exn ?alpha ?tx_intent ~intent nic =
  match run ?alpha ?tx_intent ~intent nic with
  | Ok t -> t
  | Error e -> failwith e

let contract_hash_of nic = Digest.to_hex (Digest.string (entry_of nic).fp)

let certify ?alpha ?tx_intent ~intent (nic : Nic_spec.t) =
  let ikey = intent_key ?alpha ?tx_intent ~intent () in
  let ckey = contract_hash_of nic ^ "\x00" ^ ikey in
  let compute () =
    match run ?alpha ?tx_intent ~intent nic with
    | Error e -> Error (Cert_compile_error e)
    | Ok compiled -> (
        match Compile.certify compiled with
        | Ok cert -> Ok cert
        | Error ds -> Error (Cert_failed ds))
  in
  let r =
    match Hashtbl.find_opt certs ckey with
    | Some r -> r
    | None ->
        let r = compute () in
        Hashtbl.add certs ckey r;
        r
  in
  (match r with
  | Ok cert -> Hashtbl.replace held (nic.Nic_spec.nic_name ^ "\x00" ^ ikey) cert
  | Error _ -> ());
  r

let certificate_status ?alpha ?tx_intent ~intent (nic : Nic_spec.t) =
  let ikey = intent_key ?alpha ?tx_intent ~intent () in
  match Hashtbl.find_opt held (nic.Nic_spec.nic_name ^ "\x00" ^ ikey) with
  | None -> Cert_missing
  | Some cert ->
      if
        String.equal cert.Opendesc_analysis.Certify.c_contract
          (contract_hash_of nic)
      then Cert_fresh cert
      else Cert_stale cert
