(* The symbolic checker's classification with per-path witnesses,
   computed over a pure interface summary. *)

let to_iface (spec : Nic_spec.t) : Opendesc_analysis.Evolution.iface =
  {
    Opendesc_analysis.Evolution.ev_nic = spec.nic_name;
    ev_paths =
      List.map
        (fun (p : Path.t) ->
          {
            Opendesc_analysis.Evolution.ev_index = p.p_index;
            ev_size_bytes = Path.size p;
            ev_fields =
              List.map
                (fun (f : Path.lfield) ->
                  {
                    Opendesc_analysis.Evolution.ev_name = f.l_name;
                    ev_semantic = f.l_semantic;
                    ev_bit_off = f.l_bit_off;
                    ev_bits = f.l_bits;
                  })
                p.p_layout.fields;
            ev_prov = p.p_prov;
            ev_configs = p.p_assignments;
          })
        spec.paths;
    ev_tx_sizes =
      List.sort Stdlib.compare (List.map Descparser.size spec.tx_formats);
  }

let check ?recompile_certificate ?cost (old_spec : Nic_spec.t)
    (new_spec : Nic_spec.t) =
  Opendesc_analysis.Evolution.check ?recompile_certificate ?cost
    (to_iface old_spec) (to_iface new_spec)

(* Certified evolution check (docs/CERTIFICATION.md): when the
   classification contains a Recompile-class entry, recompile the new
   revision against [intent] and translation-validate the result, then
   report whether the certificate the cache now holds covers the new
   contract hash. Without a Recompile entry no certificate is demanded
   (and none is computed). *)
let check_certified ?alpha ?tx_intent ?cost ~intent (old_spec : Nic_spec.t)
    (new_spec : Nic_spec.t) =
  let base =
    Opendesc_analysis.Evolution.check (to_iface old_spec) (to_iface new_spec)
  in
  let needs =
    List.exists
      (fun (e : Opendesc_analysis.Evolution.entry) ->
        e.e_class = Opendesc_analysis.Evolution.Recompile)
      base.r_entries
  in
  let current = Cache.contract_hash_of new_spec in
  if not needs then
    (check ~recompile_certificate:(None, current) ?cost old_spec new_spec, None)
  else begin
    let result = Cache.certify ?alpha ?tx_intent ~intent new_spec in
    let held =
      match Cache.certificate_status ?alpha ?tx_intent ~intent new_spec with
      | Cache.Cert_fresh c | Cache.Cert_stale c ->
          Some c.Opendesc_analysis.Certify.c_contract
      | Cache.Cert_missing -> None
    in
    ( check ~recompile_certificate:(held, current) ?cost old_spec new_spec,
      Some result )
  end
