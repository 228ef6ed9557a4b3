(* Contract evolution (§6): classify the differences between two
   revisions of a NIC's metadata interface by their impact on deployed
   hosts. The verdicts are driven by the same abstract domain the rest
   of the engine uses: a resize is judged by value-range inclusion, and
   every Breaking entry carries a concrete context assignment — a
   configuration a host may actually program — under which the old
   interface's promise no longer holds.

   The module works on a pure interface summary ([iface]) rather than on
   [Opendesc.Nic_spec] so it can live in the analysis layer;
   [Opendesc.Nic_diff.to_iface] bridges the two. *)

type config = (string * int64) list

type ifield = {
  ev_name : string;
  ev_semantic : string option;
  ev_bit_off : int;
  ev_bits : int;
}

type ipath = {
  ev_index : int;
  ev_size_bytes : int;
  ev_fields : ifield list;
  ev_prov : string list;
  ev_configs : config list;
}

type iface = { ev_nic : string; ev_paths : ipath list; ev_tx_sizes : int list }

type klass = Transparent | Recompile | Breaking

let class_to_string = function
  | Transparent -> "transparent"
  | Recompile -> "recompile"
  | Breaking -> "breaking"

let class_rank = function Transparent -> 0 | Recompile -> 1 | Breaking -> 2

type witness = { w_config : config; w_note : string }

type entry = {
  e_class : klass;
  e_kind : string;
  e_semantic : string option;
  e_old_path : int option;
  e_new_path : int option;
  e_detail : string;
  e_witness : witness option;
}

(* Certificate verdict for the Recompile class (docs/CERTIFICATION.md):
   a Recompile-class change is only safe to hot-swap once the regenerated
   accessors carry a translation-validation certificate proved against
   the *new* contract hash. *)
type cert_status =
  | Cert_not_required
  | Cert_fresh of string
  | Cert_stale of { held : string; current : string }
  | Cert_missing of string

type report = {
  r_old : string;
  r_new : string;
  r_entries : entry list;
  r_cert : cert_status option;
  r_cost : (float * float) option;
      (* (old bound, new bound): Costbound's provable worst-case decode
         cost per packet for each revision, when the caller compiled
         both — lets diff flag a Transparent-but-slower bump (OD026). *)
}

let worst r =
  List.fold_left
    (fun acc e -> if class_rank e.e_class > class_rank acc then e.e_class else acc)
    Transparent r.r_entries

let breaking r = List.exists (fun e -> e.e_class = Breaking) r.r_entries

let field_for p s = List.find_opt (fun f -> f.ev_semantic = Some s) p.ev_fields

let config_to_string (c : config) =
  match c with
  | [] -> "{}"
  | c ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%Ld" k v) c)
      ^ "}"

let prov_to_string = function
  | [] -> "{}"
  | ps -> "{" ^ String.concat "," ps ^ "}"

let range_of_width w =
  match Absdom.(range (of_width (min w 64))) with
  | Some r -> r
  | None -> (0L, 0L)

(* A witness configuration for changes against an old path: the first
   context assignment that selects it — exactly what a deployed driver
   would have programmed over the control channel. *)
let witness_for (old_p : ipath) note =
  match old_p.ev_configs with
  | [] -> None
  | c :: _ -> Some { w_config = c; w_note = note }

(* Match paths across revisions by Prov-set similarity (Jaccard), best
   matches first, each path used at most once — the same policy as the
   structural diff, so both views agree on which layouts correspond. *)
let match_paths (old_paths : ipath list) (new_paths : ipath list) =
  let jaccard a b =
    let inter = List.filter (fun s -> List.mem s b.ev_prov) a.ev_prov in
    let union = List.sort_uniq String.compare (a.ev_prov @ b.ev_prov) in
    if union = [] then 1.0
    else float_of_int (List.length inter) /. float_of_int (List.length union)
  in
  let candidates =
    List.concat_map
      (fun a -> List.map (fun b -> (jaccard a b, a, b)) new_paths)
      old_paths
    |> List.filter (fun (j, _, _) -> j > 0.0)
    |> List.sort (fun (x, _, _) (y, _, _) -> compare y x)
  in
  let used_old = Hashtbl.create 8 and used_new = Hashtbl.create 8 in
  let pairs =
    List.filter_map
      (fun (_, a, b) ->
        if Hashtbl.mem used_old a.ev_index || Hashtbl.mem used_new b.ev_index
        then None
        else begin
          Hashtbl.replace used_old a.ev_index ();
          Hashtbl.replace used_new b.ev_index ();
          Some (a, b)
        end)
      candidates
  in
  let unmatched_old =
    List.filter (fun p -> not (Hashtbl.mem used_old p.ev_index)) old_paths
  in
  let unmatched_new =
    List.filter (fun p -> not (Hashtbl.mem used_new p.ev_index)) new_paths
  in
  (pairs, unmatched_old, unmatched_new)

let check ?recompile_certificate ?cost (old_i : iface) (new_i : iface) : report =
  let entries = ref [] in
  let add e = entries := e :: !entries in
  let pairs, removed, added = match_paths old_i.ev_paths new_i.ev_paths in
  List.iter
    (fun (a, b) ->
      (* Semantics the old path promised but the matched layout dropped:
         a fixed-offset consumer loses the value outright. *)
      List.iter
        (fun s ->
          if not (List.mem s b.ev_prov) then
            add
              {
                e_class = Breaking;
                e_kind = "semantic_removed";
                e_semantic = Some s;
                e_old_path = Some a.ev_index;
                e_new_path = Some b.ev_index;
                e_detail =
                  Printf.sprintf
                    "path #%d no longer carries %S (new layout #%d provides %s)"
                    a.ev_index s b.ev_index (prov_to_string b.ev_prov);
                e_witness =
                  witness_for a
                    (Printf.sprintf
                       "under this configuration the device now emits layout \
                        #%d providing %s"
                       b.ev_index (prov_to_string b.ev_prov));
              })
        a.ev_prov;
      (* New semantics are additive: an old host simply never reads them. *)
      List.iter
        (fun s ->
          if not (List.mem s a.ev_prov) then
            add
              {
                e_class = Transparent;
                e_kind = "semantic_added";
                e_semantic = Some s;
                e_old_path = Some a.ev_index;
                e_new_path = Some b.ev_index;
                e_detail =
                  Printf.sprintf "path #%d gains %S (old hosts ignore the bytes)"
                    b.ev_index s;
                e_witness = None;
              })
        b.ev_prov;
      (* Shared semantics: placement and width. *)
      List.iter
        (fun s ->
          match (field_for a s, field_for b s) with
          | Some fa, Some fb ->
              if fa.ev_bits <> fb.ev_bits then begin
                let olo, ohi = range_of_width fa.ev_bits in
                let nlo, nhi = range_of_width fb.ev_bits in
                if fb.ev_bits < fa.ev_bits then
                  (* Narrowing: the old certified range is no longer
                     representable — values above the new ceiling are
                     silently truncated by the device. *)
                  add
                    {
                      e_class = Breaking;
                      e_kind = "field_narrowed";
                      e_semantic = Some s;
                      e_old_path = Some a.ev_index;
                      e_new_path = Some b.ev_index;
                      e_detail =
                        Printf.sprintf
                          "%S narrowed %d -> %d bits: certified range [%Lu, \
                           %Lu] shrinks to [%Lu, %Lu]"
                          s fa.ev_bits fb.ev_bits olo ohi nlo nhi;
                      e_witness =
                        witness_for a
                          (Printf.sprintf
                             "values in (%Lu, %Lu] no longer fit the field" nhi
                             ohi);
                    }
                else
                  add
                    {
                      e_class = Recompile;
                      e_kind = "field_widened";
                      e_semantic = Some s;
                      e_old_path = Some a.ev_index;
                      e_new_path = Some b.ev_index;
                      e_detail =
                        Printf.sprintf
                          "%S widened %d -> %d bits: certified range [%Lu, \
                           %Lu] grows to [%Lu, %Lu]; regenerated accessors \
                           absorb the change"
                          s fa.ev_bits fb.ev_bits olo ohi nlo nhi;
                      e_witness = None;
                    }
              end;
              if fa.ev_bit_off <> fb.ev_bit_off then
                add
                  {
                    e_class = Recompile;
                    e_kind = "field_moved";
                    e_semantic = Some s;
                    e_old_path = Some a.ev_index;
                    e_new_path = Some b.ev_index;
                    e_detail =
                      Printf.sprintf
                        "%S moved: bit %d -> bit %d; regenerated accessors \
                         absorb the change"
                        s fa.ev_bit_off fb.ev_bit_off;
                    e_witness = None;
                  }
          | _ -> () (* covered by semantic_added/removed above *))
        (List.filter (fun s -> List.mem s b.ev_prov) a.ev_prov))
    pairs;
  List.iter
    (fun p ->
      add
        {
          e_class = Breaking;
          e_kind = "path_removed";
          e_semantic = None;
          e_old_path = Some p.ev_index;
          e_new_path = None;
          e_detail =
            Printf.sprintf "completion layout #%d (%dB, %s) has no counterpart"
              p.ev_index p.ev_size_bytes (prov_to_string p.ev_prov);
          e_witness =
            witness_for p
              "this configuration selects a layout the new interface cannot emit";
        })
    removed;
  List.iter
    (fun p ->
      add
        {
          e_class = Transparent;
          e_kind = "path_added";
          e_semantic = None;
          e_old_path = None;
          e_new_path = Some p.ev_index;
          e_detail =
            Printf.sprintf
              "new completion layout #%d (%dB, %s); old hosts never program a \
               configuration that selects it"
              p.ev_index p.ev_size_bytes (prov_to_string p.ev_prov);
          e_witness = None;
        })
    added;
  if
    List.sort Stdlib.compare old_i.ev_tx_sizes
    <> List.sort Stdlib.compare new_i.ev_tx_sizes
  then
    add
      {
        e_class = Recompile;
        e_kind = "tx_format_changed";
        e_semantic = None;
        e_old_path = None;
        e_new_path = None;
        e_detail =
          Printf.sprintf "TX descriptor sizes changed: [%s] -> [%s]"
            (String.concat ";" (List.map string_of_int old_i.ev_tx_sizes))
            (String.concat ";" (List.map string_of_int new_i.ev_tx_sizes));
        e_witness = None;
      };
  let r_entries = List.rev !entries in
  let r_cert =
    match recompile_certificate with
    | None -> None
    | Some (held, current) ->
        if not (List.exists (fun e -> e.e_class = Recompile) r_entries) then
          Some Cert_not_required
        else
          Some
            (match held with
            | Some h when String.equal h current -> Cert_fresh current
            | Some h -> Cert_stale { held = h; current }
            | None -> Cert_missing current)
  in
  { r_old = old_i.ev_nic; r_new = new_i.ev_nic; r_entries; r_cert; r_cost = cost }

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let entry_to_json (e : entry) =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"class\":\"%s\",\"kind\":\"%s\""
       (class_to_string e.e_class) (Diagnostic.json_escape e.e_kind));
  (match e.e_semantic with
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf ",\"semantic\":\"%s\"" (Diagnostic.json_escape s))
  | None -> ());
  (match e.e_old_path with
  | Some i -> Buffer.add_string b (Printf.sprintf ",\"old_path\":%d" i)
  | None -> ());
  (match e.e_new_path with
  | Some i -> Buffer.add_string b (Printf.sprintf ",\"new_path\":%d" i)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"detail\":\"%s\"" (Diagnostic.json_escape e.e_detail));
  (match e.e_witness with
  | Some w ->
      Buffer.add_string b ",\"witness\":{\"config\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":%Ld" (Diagnostic.json_escape k) v))
        w.w_config;
      Buffer.add_string b
        (Printf.sprintf "},\"note\":\"%s\"}" (Diagnostic.json_escape w.w_note))
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let cert_status_json = function
  | Cert_not_required -> "{\"status\":\"not_required\"}"
  | Cert_fresh h ->
      Printf.sprintf "{\"status\":\"fresh\",\"contract\":\"%s\"}"
        (Diagnostic.json_escape h)
  | Cert_stale { held; current } ->
      Printf.sprintf "{\"status\":\"stale\",\"held\":\"%s\",\"current\":\"%s\"}"
        (Diagnostic.json_escape held)
        (Diagnostic.json_escape current)
  | Cert_missing h ->
      Printf.sprintf "{\"status\":\"missing\",\"current\":\"%s\"}"
        (Diagnostic.json_escape h)

let report_to_json (r : report) =
  Printf.sprintf
    "{\"schema\":\"opendesc-diff-1\",\"old\":\"%s\",\"new\":\"%s\",\"class\":\"%s\"%s,\"entries\":[%s]}"
    (Diagnostic.json_escape r.r_old)
    (Diagnostic.json_escape r.r_new)
    (class_to_string (worst r))
    ((match r.r_cert with
     | None -> ""
     | Some c ->
         Printf.sprintf ",\"recompile_certificate\":%s" (cert_status_json c))
    ^
    match r.r_cost with
    | None -> ""
    | Some (o, n) ->
        Printf.sprintf
          ",\"cost\":{\"old_bound\":%.1f,\"new_bound\":%.1f,\"delta\":%.1f}" o
          n (n -. o))
    (String.concat "," (List.map entry_to_json r.r_entries))

let pp_entry ppf (e : entry) =
  Format.fprintf ppf "[%s] %s: %s" (class_to_string e.e_class) e.e_kind
    e.e_detail;
  match e.e_witness with
  | Some w ->
      Format.fprintf ppf "@.      witness %s — %s" (config_to_string w.w_config)
        w.w_note
  | None -> ()

let pp_cert ppf = function
  | None -> ()
  | Some Cert_not_required ->
      Format.fprintf ppf
        "recompile certificate: not required (no recompile-class change)@."
  | Some (Cert_fresh h) ->
      Format.fprintf ppf "recompile certificate: fresh (contract %s)@."
        (String.sub h 0 (min 12 (String.length h)))
  | Some (Cert_stale { held; current }) ->
      Format.fprintf ppf
        "recompile certificate: STALE (held %s, current %s) — re-certify \
         before hot-swap@."
        (String.sub held 0 (min 12 (String.length held)))
        (String.sub current 0 (min 12 (String.length current)))
  | Some (Cert_missing h) ->
      Format.fprintf ppf
        "recompile certificate: MISSING (contract %s) — certify before \
         hot-swap@."
        (String.sub h 0 (min 12 (String.length h)))

let pp ppf (r : report) =
  (match r.r_entries with
  | [] -> Format.fprintf ppf "no interface changes@."
  | es ->
      Format.fprintf ppf "%s -> %s: %s@." r.r_old r.r_new
        (class_to_string (worst r));
      List.iter
        (fun k ->
          match List.filter (fun e -> e.e_class = k) es with
          | [] -> ()
          | group ->
              Format.fprintf ppf "%s:@." (class_to_string k);
              List.iter (Format.fprintf ppf "  - %a@." pp_entry) group)
        [ Breaking; Recompile; Transparent ]);
  (match r.r_cost with
  | Some (o, n) when abs_float (n -. o) > 1e-9 ->
      Format.fprintf ppf
        "decode cost bound: %.1f -> %.1f cycles/pkt (%+.1f)@." o n (n -. o)
  | Some (o, _) ->
      Format.fprintf ppf "decode cost bound: unchanged (%.1f cycles/pkt)@." o
  | None -> ());
  pp_cert ppf r.r_cert
