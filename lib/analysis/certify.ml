(* Translation validation (certified compilation): re-prove, after the
   Eq. 1 optimizer and the accessor synthesizer have run, that what they
   produced still agrees with the deparser contract. The plan is lifted
   into a tiny codegen IR and symbolically executed with the same
   Absdom/Symexec machinery the source-level passes trust, on every
   feasible completion run the plan's configuration selects — so a
   codegen bug (wrong shift, swapped mask, dropped shim, off-by-one
   offset) cannot survive to the datapath. *)

module D = Diagnostic

type step =
  | SConst of int64
  | SLoad of { byte : int; bytes : int }
  | SShr of int
  | SAnd of int64
  | SBitwalk of { bit : int; bits : int }

let highest_bit m =
  let rec go i =
    if i < 0 then -1
    else if Int64.logand (Int64.shift_left 1L i) m <> 0L then i
    else go (i - 1)
  in
  go 63

let lowest_bit m =
  let rec go i =
    if i > 63 then 64
    else if Int64.logand (Int64.shift_left 1L i) m <> 0L then i
    else go (i + 1)
  in
  go 0

(* The window of completion bits the chain's result depends on. The
   convention is MSB-first (the device writer's): after a big-endian
   load covering bits [lo, hi), value bit i (i = 0 at the LSB) holds
   completion bit hi - 1 - i — so a logical shift right by k drops the
   trailing k completion bits, and a mask keeps the sub-window between
   its highest and lowest set bits. *)
let footprint steps =
  List.fold_left
    (fun acc step ->
      match (step, acc) with
      | SConst _, _ -> None
      | SLoad { byte; bytes }, _ -> Some (8 * byte, (8 * byte) + (8 * bytes))
      | SBitwalk { bit; bits }, _ -> Some (bit, bit + bits)
      | SShr k, Some (lo, hi) -> Some (lo, max lo (hi - k))
      | SAnd m, Some (lo, hi) ->
          if m = 0L then Some (hi, hi)
          else
            let top = highest_bit m and bot = lowest_bit m in
            Some (max lo (hi - 1 - top), hi - bot)
      | (SShr _ | SAnd _), None -> None)
    None steps

let sym_value steps =
  List.fold_left
    (fun v step ->
      match step with
      | SConst c -> Absdom.const c
      | SLoad { bytes; _ } -> Absdom.of_width (8 * bytes)
      | SBitwalk { bits; _ } -> Absdom.of_width bits
      | SShr k -> Absdom.binop P4.Ast.Shr v (Absdom.const (Int64.of_int k))
      | SAnd m -> Absdom.binop P4.Ast.BAnd v (Absdom.const m))
    Absdom.Top steps

(* Abstract agreement on the observable facts: interval and known bits.
   The declared-width tag is deliberately ignored — a load/shift/mask
   chain carries its load's width while the contract side carries the
   field's, and both describe the same value set. *)
let agree a b =
  match (a, b) with
  | Absdom.Num x, Absdom.Num y ->
      x.Absdom.lo = y.Absdom.lo
      && x.Absdom.hi = y.Absdom.hi
      && x.Absdom.kmask = y.Absdom.kmask
      && x.Absdom.kval = y.Absdom.kval
  | _ -> a = b

type accessor_plan = {
  ap_name : string;
  ap_header : string;
  ap_semantic : string option;
  ap_bits : int;
  ap_steps : step list;
  ap_range : int64 * int64;
}

type shim_plan = { sh_semantic : string; sh_width : int; sh_cost : float }

type plan = {
  pl_nic : string;
  pl_contract : string;
  pl_intent : (string * int) list;
  pl_path_index : int;
  pl_size_bytes : int;
  pl_config : (string * int64) list;
  pl_hw : (string * accessor_plan) list;
  pl_shims : shim_plan list;
  pl_fields : accessor_plan list;
}

type contract = {
  cf_catalogue : Engine.catalogue;
  cf_registry : Softnic.Semantic.t;
  cf_line_offset : int;
}

type certificate = {
  c_nic : string;
  c_contract : string;
  c_intent : (string * int) list;
  c_path_index : int;
  c_size_bytes : int;
  c_reads : (string * (int64 * int64)) list;
  c_shims : string list;
  c_obligations : int;
}

let range_string (lo, hi) = Printf.sprintf "[%Lu, %Lu]" lo hi

let check (cf : contract) (plan : plan) : (certificate, D.t list) result =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let obligations = ref 0 in
  let discharge () = incr obligations in
  (* The compiler's paths: feasible layouts, numbered so "path #k" in
     messages matches the CLI's path listing. *)
  let catalogue = Engine.feasible_groups cf.cf_catalogue in
  let span = cf.cf_catalogue.Engine.cat_ctrl.P4.Typecheck.ct_span in
  (* Diagnostic text is built only when a diagnostic is raised. *)
  let config () = Format.asprintf "%a" Context.pp plan.pl_config in
  (* Every feasible layout the plan's configuration selects — several
     when runtime-data branches fork (each must agree with the plan,
     or a fixed-offset read can observe unwritten bytes). *)
  let chosen =
    List.filter
      (fun (g : Engine.group) -> List.mem plan.pl_config g.Engine.g_assigns)
      catalogue
  in
  (* Intent coverage: Eq. 1 must leave no required semantic behind —
     hardware-bound or scheduled as a shim, never silently dropped. *)
  List.iter
    (fun (s, _) ->
      if
        List.mem_assoc s plan.pl_hw
        || List.exists (fun sh -> sh.sh_semantic = s) plan.pl_shims
      then discharge ()
      else
        add
          (D.make ~span ~code:"OD022" ~severity:D.Error
             "required semantic %S is neither read from hardware nor \
              scheduled as a SoftNIC shim"
             s))
    plan.pl_intent;
  if chosen = [] then
    add
      (D.make ~span ~code:"OD023" ~severity:D.Error
         "plan for path #%d: configuration %s selects no feasible \
          completion run"
         plan.pl_path_index (config ()));
  let check_accessor ~what ~run ~group_index
      (ap : accessor_plan) (af : Engine.afield) =
    if ap.ap_bits <> af.af_bits then
      add
        (D.make ~span:af.af_span ~code:"OD021" ~severity:D.Error
           "accessor for %s claims %d bits but the deparser writes %d \
            bits under %s"
           (what ()) ap.ap_bits af.af_bits (config ()));
    let expected =
      if af.af_bits > 64 then None
      else Some (af.af_bit_off, af.af_bit_off + af.af_bits)
    in
    let actual = footprint ap.ap_steps in
    (if actual = expected then discharge ()
     else
       match actual with
       | None ->
           add
             (D.make ~span:af.af_span ~code:"OD021" ~severity:D.Error
                "accessor for %s reads no completion bytes but the \
                 deparser writes the field at bits [%d, %d) under %s"
                (what ()) af.af_bit_off
                (af.af_bit_off + af.af_bits)
                (config ()))
       | Some (alo, ahi) -> (
           let other =
             List.find_opt
               (fun (g : Engine.group) ->
                 g.Engine.g_index <> group_index
                 && List.exists
                      (fun (gaf : Engine.afield) ->
                        gaf.Engine.af_bit_off = alo
                        && gaf.Engine.af_bit_off + gaf.Engine.af_bits = ahi
                        && (gaf.Engine.af_semantic = ap.ap_semantic
                           || gaf.Engine.af_name = ap.ap_name))
                      (Engine.fields_of_run g.Engine.g_run))
               catalogue
           in
           match other with
           | Some g ->
               add
                 (D.make ~span:af.af_span ~code:"OD023" ~severity:D.Error
                    "accessor for %s reads bits [%d, %d) — path #%d's \
                     placement, not path #%d's [%d, %d) selected by %s"
                    (what ()) alo ahi g.Engine.g_index group_index af.af_bit_off
                    (af.af_bit_off + af.af_bits)
                    (config ()))
           | None ->
               if ahi > run.Dep_ir.r_total_bits then
                 add
                   (D.make ~span:af.af_span ~code:"OD023" ~severity:D.Error
                      "accessor for %s reads bits [%d, %d), past the %dB \
                       completion emitted under %s (Size(p) = %d bits)"
                      (what ()) alo ahi
                      (run.Dep_ir.r_total_bits / 8)
                      (config ()) run.Dep_ir.r_total_bits)
               else
                 add
                   (D.make ~span:af.af_span ~code:"OD021" ~severity:D.Error
                      "accessor for %s reads bits [%d, %d) but the \
                       deparser writes the field at bits [%d, %d) under %s"
                      (what ()) alo ahi af.af_bit_off
                      (af.af_bit_off + af.af_bits)
                      (config ()))));
    (* Value agreement both directions: the chain's abstraction must
       coincide with the contract's (any bit<w> value) on interval
       and known bits — inclusion each way. *)
    let expected_v =
      if af.af_bits > 64 then Absdom.const 0L else Absdom.of_width af.af_bits
    in
    let actual_v = sym_value ap.ap_steps in
    if agree actual_v expected_v then discharge ()
    else
      add
        (D.make ~span:af.af_span ~code:"OD021" ~severity:D.Error
           "accessor for %s evaluates to %s but the deparser contract \
            admits %s under %s"
           (what ())
           (Absdom.to_string actual_v)
           (Absdom.to_string expected_v)
           (config ()));
    (* The range the compiler stamped on the accessor (registry-
       clamped, the OD011 contract) must be reproducible from the
       contract alone. *)
    let claimed_exp =
      if af.af_bits > 64 then (0L, 0L)
      else
        let eff =
          match ap.ap_semantic with
          | Some s -> (
              match Softnic.Semantic.width cf.cf_registry s with
              | Some r when r < af.af_bits -> r
              | _ -> af.af_bits)
          | None -> af.af_bits
        in
        match Absdom.(range (of_width eff)) with
        | Some r -> r
        | None -> (0L, 0L)
    in
    if ap.ap_range = claimed_exp then discharge ()
    else
      add
        (D.make ~span:af.af_span ~code:"OD021" ~severity:D.Error
           "accessor for %s claims certified range %s but the contract \
            yields %s"
           (what ())
           (range_string ap.ap_range)
           (range_string claimed_exp))
  in
  List.iter
    (fun (g : Engine.group) ->
      let run = g.Engine.g_run and group_index = g.Engine.g_index in
      let afs = Engine.fields_of_run run in
      if run.Dep_ir.r_total_bits <> plan.pl_size_bytes * 8 then
        add
          (D.make ~span ~code:"OD023" ~severity:D.Error
             "plan certified for path #%d (%dB) but configuration %s \
              selects path #%d, a %dB completion"
             plan.pl_path_index plan.pl_size_bytes (config ()) group_index
             (run.Dep_ir.r_total_bits / 8))
      else discharge ();
      List.iter
        (fun (s, ap) ->
          match
            List.find_opt
              (fun (af : Engine.afield) -> af.Engine.af_semantic = Some s)
              afs
          with
          | None ->
              add
                (D.make ~span ~code:"OD022" ~severity:D.Error
                   "plan claims %S hardware-provided but the completion \
                    emitted under %s does not carry it"
                   s (config ()))
          | Some af ->
              check_accessor
                ~what:(fun () -> Printf.sprintf "semantic %S" s)
                ~run ~group_index ap af)
        plan.pl_hw;
      if List.length plan.pl_fields <> List.length afs then
        add
          (D.make ~span ~code:"OD023" ~severity:D.Error
             "plan lists %d field accessors but the completion emitted \
              under %s has %d fields"
             (List.length plan.pl_fields)
             (config ()) (List.length afs))
      else
        List.iter2
          (fun ap (af : Engine.afield) ->
            if
              ap.ap_name <> af.Engine.af_name
              || ap.ap_header <> af.Engine.af_header
            then
              add
                (D.make ~span:af.Engine.af_span ~code:"OD023"
                   ~severity:D.Error
                   "plan's field accessor %s.%s does not correspond to \
                    %s.%s emitted under %s"
                   ap.ap_header ap.ap_name af.Engine.af_header
                   af.Engine.af_name (config ()))
            else
              check_accessor
                ~what:(fun () -> Printf.sprintf "field %s.%s" ap.ap_header ap.ap_name)
                ~run ~group_index ap af)
          plan.pl_fields afs)
    chosen;
  if !diags = [] && chosen <> [] then
    Ok
      {
        c_nic = plan.pl_nic;
        c_contract = plan.pl_contract;
        c_intent = plan.pl_intent;
        c_path_index = plan.pl_path_index;
        c_size_bytes = plan.pl_size_bytes;
        c_reads =
          List.map
            (fun ap ->
              ( ap.ap_header ^ "." ^ ap.ap_name,
                match Absdom.range (sym_value ap.ap_steps) with
                | Some r -> r
                | None -> (0L, 0L) ))
            plan.pl_fields;
        c_shims = List.map (fun sh -> sh.sh_semantic) plan.pl_shims;
        c_obligations = !obligations;
      }
  else
    Error
      (List.rev !diags
      |> List.map (D.relocate ~lines:cf.cf_line_offset)
      |> List.sort_uniq D.compare)

let short_hash h = if String.length h > 12 then String.sub h 0 12 else h

let validate (c : certificate) ~contract_hash =
  if String.equal c.c_contract contract_hash then []
  else
    [
      D.make ~code:"OD024" ~severity:D.Error
        "stale certificate for %s path #%d: proved against contract %s but \
         the current contract is %s; recompile and re-certify before \
         swapping accessors"
        c.c_nic c.c_path_index (short_hash c.c_contract)
        (short_hash contract_hash);
    ]

(* ------------------------------------------------------------------ *)
(* Serialization: line-oriented, stable, greppable. *)

let to_text (c : certificate) =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "opendesc-cert-1\n";
  add "nic %s\n" c.c_nic;
  add "contract %s\n" c.c_contract;
  add "path %d\n" c.c_path_index;
  add "size %d\n" c.c_size_bytes;
  add "obligations %d\n" c.c_obligations;
  add "intent %s\n"
    (match c.c_intent with
    | [] -> "-"
    | fs ->
        String.concat ","
          (List.map (fun (s, w) -> Printf.sprintf "%s:%d" s w) fs));
  add "shims %s\n"
    (match c.c_shims with [] -> "-" | ss -> String.concat "," ss);
  List.iter
    (fun (name, (lo, hi)) -> add "read %s 0x%Lx 0x%Lx\n" name lo hi)
    c.c_reads;
  Buffer.contents buf

let of_text src =
  let lines =
    String.split_on_char '\n' src
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | "opendesc-cert-1" :: rest -> (
      let kv = Hashtbl.create 8 in
      let reads = ref [] in
      let err = ref None in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | None -> err := Some (Printf.sprintf "malformed line %S" line)
          | Some i -> (
              let k = String.sub line 0 i in
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              match k with
              | "read" -> (
                  match String.split_on_char ' ' v with
                  | [ name; lo; hi ] -> (
                      match
                        (Int64.of_string_opt lo, Int64.of_string_opt hi)
                      with
                      | Some lo, Some hi -> reads := (name, (lo, hi)) :: !reads
                      | _ -> err := Some (Printf.sprintf "bad read line %S" v))
                  | _ -> err := Some (Printf.sprintf "bad read line %S" v))
              | _ -> Hashtbl.replace kv k v))
        rest;
      let get k = Hashtbl.find_opt kv k in
      let get_int k = Option.bind (get k) int_of_string_opt in
      match !err with
      | Some e -> Error e
      | None -> (
          match
            (get "nic", get "contract", get_int "path", get_int "size",
             get_int "obligations")
          with
          | Some nic, Some contract, Some path, Some size, Some obl ->
              let parse_list = function
                | None | Some "-" -> []
                | Some s -> String.split_on_char ',' s
              in
              let intent =
                List.filter_map
                  (fun entry ->
                    match String.split_on_char ':' entry with
                    | [ s; w ] ->
                        Option.map (fun w -> (s, w)) (int_of_string_opt w)
                    | _ -> None)
                  (parse_list (get "intent"))
              in
              Ok
                {
                  c_nic = nic;
                  c_contract = contract;
                  c_intent = intent;
                  c_path_index = path;
                  c_size_bytes = size;
                  c_reads = List.rev !reads;
                  c_shims = parse_list (get "shims");
                  c_obligations = obl;
                }
          | _ -> Error "missing certificate header fields"))
  | _ -> Error "not an opendesc-cert-1 document"

let certificate_json (c : certificate) =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"schema\":\"opendesc-cert-1\",\"nic\":\"%s\",\"contract\":\"%s\""
    (D.json_escape c.c_nic) (D.json_escape c.c_contract);
  add ",\"path\":%d,\"size_bytes\":%d,\"obligations\":%d" c.c_path_index
    c.c_size_bytes c.c_obligations;
  add ",\"intent\":[%s]"
    (String.concat ","
       (List.map
          (fun (s, w) ->
            Printf.sprintf "{\"semantic\":\"%s\",\"width\":%d}"
              (D.json_escape s) w)
          c.c_intent));
  add ",\"shims\":[%s]"
    (String.concat ","
       (List.map (fun s -> Printf.sprintf "\"%s\"" (D.json_escape s)) c.c_shims));
  add ",\"reads\":[%s]"
    (String.concat ","
       (List.map
          (fun (name, (lo, hi)) ->
            Printf.sprintf "{\"field\":\"%s\",\"lo\":\"0x%Lx\",\"hi\":\"0x%Lx\"}"
              (D.json_escape name) lo hi)
          c.c_reads));
  add "}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Seeded miscompilations. *)

type mutation = Wrong_shift | Swapped_mask | Dropped_shim | Off_by_one

let mutations = [ Wrong_shift; Swapped_mask; Dropped_shim; Off_by_one ]

let mutation_name = function
  | Wrong_shift -> "wrong-shift"
  | Swapped_mask -> "swapped-mask"
  | Dropped_shim -> "dropped-shim"
  | Off_by_one -> "off-by-one"

let mutation_of_string s =
  List.find_opt (fun m -> mutation_name m = s) mutations

let expected_codes = function
  | Wrong_shift | Swapped_mask -> [ "OD021" ]
  | Dropped_shim -> [ "OD022" ]
  | Off_by_one -> [ "OD021"; "OD023" ]

let map_first xs f =
  let rec go acc = function
    | [] -> None
    | x :: rest -> (
        match f x with
        | Some y -> Some (List.rev_append acc (y :: rest))
        | None -> go (x :: acc) rest)
  in
  go [] xs

(* Apply [f] to the first accessor it accepts — hardware bindings first
   (the reads a driver actually performs), field accessors as fallback. *)
let try_update plan f =
  match map_first plan.pl_hw (fun (s, ap) -> Option.map (fun a -> (s, a)) (f ap)) with
  | Some hw -> Some { plan with pl_hw = hw }
  | None -> (
      match map_first plan.pl_fields f with
      | Some fields -> Some { plan with pl_fields = fields }
      | None -> None)

let replace_first_step ap f =
  let changed = ref false in
  let steps =
    List.map
      (fun s ->
        if !changed then s
        else
          match f s with
          | Some s' ->
              changed := true;
              s'
          | None -> s)
      ap.ap_steps
  in
  if !changed then Some { ap with ap_steps = steps } else None

let inject m plan =
  let orelse a b = match a with Some p -> p | None -> b () in
  match m with
  | Wrong_shift ->
      orelse
        (try_update plan (fun ap ->
             replace_first_step ap (function
               | SShr k -> Some (SShr (k + 1))
               | _ -> None)))
        (fun () ->
          orelse
            (try_update plan (fun ap ->
                 if ap.ap_bits <= 64 && footprint ap.ap_steps <> None then
                   Some { ap with ap_steps = ap.ap_steps @ [ SShr 1 ] }
                 else None))
            (fun () -> plan))
  | Swapped_mask ->
      orelse
        (try_update plan (fun ap ->
             replace_first_step ap (function
               | SAnd m -> Some (SAnd (Int64.shift_right_logical m 1))
               | _ -> None)))
        (fun () ->
          orelse
            (try_update plan (fun ap ->
                 if ap.ap_bits <= 64 && footprint ap.ap_steps <> None then
                   let m = Int64.pred (Int64.shift_left 1L (ap.ap_bits - 1)) in
                   Some { ap with ap_steps = ap.ap_steps @ [ SAnd m ] }
                 else None))
            (fun () -> plan))
  | Off_by_one ->
      orelse
        (try_update plan (fun ap ->
             replace_first_step ap (function
               | SLoad { byte; bytes } -> Some (SLoad { byte = byte + 1; bytes })
               | SBitwalk { bit; bits } -> Some (SBitwalk { bit = bit + 1; bits })
               | _ -> None)))
        (fun () -> plan)
  | Dropped_shim -> (
      match plan.pl_shims with
      | _ :: rest -> { plan with pl_shims = rest }
      | [] -> (
          match plan.pl_hw with
          | _ :: rest -> { plan with pl_hw = rest }
          | [] -> plan))
