module Rng = Packet.Rng
module D = Opendesc_analysis.Diagnostic
module A = Opendesc_analysis.Absdom
module Sx = Opendesc_analysis.Symexec
module Ir = Opendesc_analysis.Dep_ir
open Opendesc

type stats = {
  st_paths : int;
  st_configs : int;
  st_max_bytes : int;
  st_sw_bound : int;
  st_obligations : int;
  st_cost_obligations : int;
}

type failure = { fl_stage : string; fl_message : string }

let fail stage fmt = Printf.ksprintf (fun m -> Error { fl_stage = stage; fl_message = m }) fmt

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Stage: pretty-print/reparse fixpoint. *)

let check_pretty src =
  let parse what s =
    match P4.Parser.parse_program s with
    | ast -> Ok ast
    | exception e -> (
        match P4.Parser.error_to_string s e with
        | Some m -> fail "pretty" "%s does not parse: %s" what m
        | None -> raise e)
  in
  let* ast1 = parse "source" src in
  let printed = P4.Pretty.program_to_string ast1 in
  let* ast2 = parse "pretty output" printed in
  if not (P4.Ast.equal_program ast1 ast2) then
    fail "pretty" "pretty output reparses to a different AST"
  else if P4.Pretty.program_to_string ast2 <> printed then
    fail "pretty" "pretty is not idempotent"
  else
    match Prelude.check_result printed with
    | Ok _ -> Ok ()
    | Error m -> fail "pretty" "pretty output does not typecheck: %s" m

(* ------------------------------------------------------------------ *)
(* Stage: no Error-severity lints. Warnings and infos are expected on
   random specs (dead branches, width mismatches, dominated paths). *)

let check_lint (spec : Nic_spec.t) =
  let errors =
    List.filter (fun d -> d.D.d_severity = D.Error) (Nic_spec.analyze spec)
  in
  match errors with
  | [] -> Ok ()
  | d :: rest ->
      fail "lint" "%d error diagnostic(s), first: %s"
        (List.length rest + 1) (D.to_string d)

(* ------------------------------------------------------------------ *)
(* Stage: symbolic execution soundly over-approximates the concrete
   deparser (the property test/analysis checks over the catalog, here
   replayed on machine-generated controls). *)

let rec rtyp_leaf_widths prefix (t : P4.Typecheck.rtyp) acc =
  match t with
  | P4.Typecheck.RBit w -> (List.rev prefix, w) :: acc
  | P4.Typecheck.RHeader h ->
      List.fold_left
        (fun acc (f : P4.Typecheck.field) ->
          (List.rev (f.f_name :: prefix), f.f_bits) :: acc)
        acc h.h_fields
  | P4.Typecheck.RStruct s ->
      List.fold_left
        (fun acc (n, ty) -> rtyp_leaf_widths (n :: prefix) ty acc)
        acc s.s_fields
  | _ -> acc

exception Stop_walk
exception Undecidable_walk

let concrete_decisions (ir : Ir.t) env0 =
  let locals : (string list, P4.Eval.value) Hashtbl.t = Hashtbl.create 8 in
  let env path =
    match Hashtbl.find_opt locals path with
    | Some v -> Some v
    | None -> env0 path
  in
  let decisions = ref [] in
  let rec exec nodes = List.iter exec1 nodes
  and exec1 = function
    | Ir.NEmit _ | Ir.NOther -> ()
    | Ir.NIf { i_id; i_cond; i_then; i_else } -> (
        match P4.Eval.eval_bool env i_cond with
        | Some b ->
            decisions := (i_id, b) :: !decisions;
            exec (if b then i_then else i_else)
        | None -> raise Undecidable_walk)
    | Ir.NAssign (l, r) -> (
        match P4.Eval.path_of_expr l with
        | Some p -> Hashtbl.replace locals p (P4.Eval.eval env r)
        | None -> ())
    | Ir.NDecl (n, init) ->
        Hashtbl.replace locals [ n ]
          (match init with
          | Some e -> P4.Eval.eval env e
          | None -> P4.Eval.VUnknown)
    | Ir.NReturn -> raise Stop_walk
  in
  match exec ir.Ir.ir_nodes with
  | () -> Some (List.rev !decisions)
  | exception Stop_walk -> Some (List.rev !decisions)
  | exception Undecidable_walk -> None

let value_str = function
  | P4.Eval.VInt { v; _ } -> Int64.to_string v
  | P4.Eval.VBool b -> string_of_bool b
  | P4.Eval.VUnknown -> "?"

let vectors_per_assignment = 3

let check_symexec rng (spec : Nic_spec.t) =
  let cat = spec.catalogue in
  let ctrl = cat.cat_ctrl and ir = cat.cat_ir and sym = cat.cat_sym in
  let consts = P4.Typecheck.const_env spec.tenv in
  let base = Sx.base_env ~consts ~ctx:spec.ctx ~params:ctrl.ct_params () in
  let ctx_name =
    match spec.ctx with Some (p, _) -> p.P4.Typecheck.c_name | None -> "ctx"
  in
  let assignments = cat.cat_assignments in
  let runtime =
    List.concat_map
      (fun (p : P4.Typecheck.cparam) ->
        if p.c_name = ctx_name then []
        else rtyp_leaf_widths [ p.c_name ] p.c_typ [])
      ctrl.ct_params
    |> List.filter (fun (_, w) -> w <= 64)
  in
  let check_one a =
    let vals =
      List.map
        (fun (path, w) ->
          let raw = Rng.next64 rng in
          let v =
            if w >= 64 then raw
            else Int64.logand raw (Int64.sub (Int64.shift_left 1L w) 1L)
          in
          (path, P4.Eval.vint ~width:w v))
        runtime
    in
    let ctx_env = Opendesc_analysis.Context.env_of ~param_name:ctx_name a in
    let env path =
      match List.assoc_opt path vals with
      | Some v -> Some v
      | None -> (
          match ctx_env path with Some v -> Some v | None -> consts path)
    in
    let sx_env = { Sx.e_base = base; e_over = [] } in
    let* () =
      List.fold_left
        (fun acc ((_, cond) : int * P4.Ast.expr) ->
          let* () = acc in
          let cv = P4.Eval.eval env cond in
          let av = Sx.eval sx_env cond in
          if A.mem_value cv av then Ok ()
          else
            fail "symexec"
              "config %s: concrete %s escapes abstract %s for predicate %s"
              (Format.asprintf "%a" Opendesc_analysis.Context.pp a)
              (value_str cv) (A.to_string av)
              (P4.Pretty.expr_to_string cond))
        (Ok ()) ir.Ir.ir_ifs
    in
    match concrete_decisions ir env with
    | None -> Ok ()
    | Some ds -> (
        let key = List.sort compare ds in
        match
          List.find_opt
            (fun (l : Sx.leaf) -> List.sort compare l.Sx.lf_decisions = key)
            sym.Sx.sx_leaves
        with
        | None ->
            fail "symexec" "config %s: no symbolic leaf matches the concrete path"
              (Format.asprintf "%a" Opendesc_analysis.Context.pp a)
        | Some l ->
            if l.Sx.lf_feasible then Ok ()
            else
              fail "symexec"
                "config %s: concretely-reachable path was proved infeasible"
                (Format.asprintf "%a" Opendesc_analysis.Context.pp a))
  in
  List.fold_left
    (fun acc a ->
      let* () = acc in
      let rec go n = if n = 0 then Ok () else let* () = check_one a in go (n - 1) in
      go vectors_per_assignment)
    (Ok ()) assignments

(* ------------------------------------------------------------------ *)
(* Stage: compile against an intent drawn from the spec itself. *)

let intent_of (spec : Nic_spec.t) =
  let reg = Semantic.default () in
  let softnic = Softnic.Registry.builtin () in
  (* Only semantics a SoftNIC shim can also deliver: Eq. 1 may put any
     requested semantic on the software side (even one some path does
     carry), so TX-direction and hardware-only (w = infinity) names must
     not appear in an RX intent. *)
  let sems =
    List.concat_map (fun (p : Path.t) -> p.p_prov) spec.paths
    |> List.sort_uniq compare
    |> List.filter (fun s ->
           Semantic.cost reg s < infinity && Softnic.Registry.mem softnic s)
  in
  let take3 = List.filteri (fun i _ -> i < 3) sems in
  let chosen = if take3 = [] then [ "pkt_len" ] else take3 in
  Intent.make
    (List.map
       (fun s ->
         (s, match Semantic.width reg s with Some w -> w | None -> 16))
       chosen)

let check_compile (spec : Nic_spec.t) =
  let intent = intent_of spec in
  match Compile.run ~intent spec with
  | Error m -> fail "compile" "compile failed for intent %s: %s" (Intent.canonical intent) m
  | Ok c ->
      let missing = Compile.missing c in
      if List.length c.Compile.bindings <> List.length intent.Intent.fields then
        fail "compile" "compile bound %d of %d requested semantics"
          (List.length c.Compile.bindings)
          (List.length intent.Intent.fields)
      else Ok (List.length missing, c)

(* ------------------------------------------------------------------ *)
(* Stage: translation validation. Whatever plan the compiler just
   produced for the generated spec must certify against the spec's own
   deparser contract — a machine-generated differential oracle for the
   certifier itself (docs/CERTIFICATION.md). *)

let check_certify (compiled : Compile.t) =
  match Compile.certify compiled with
  | Ok cert -> Ok cert.Opendesc_analysis.Certify.c_obligations
  | Error ds ->
      let first =
        match ds with d :: _ -> D.to_string d | [] -> "(no diagnostic)"
      in
      fail "certify" "%d diagnostic(s), first: %s" (List.length ds) first

(* ------------------------------------------------------------------ *)
(* Stage: three-way byte-identical read-back on random descriptor
   bytes. Decoder one is the P4 interpreter over a parser generated
   from the layout; decoder two the synthesized accessors; decoder
   three a bit-by-bit MSB-first reference written against the layout
   definition alone. *)

let ref_read buf ~bit_off ~bits =
  if bits > 64 then 0L
  else begin
    let v = ref 0L in
    for i = bit_off to bit_off + bits - 1 do
      let byte = Char.code (Bytes.get buf (i / 8)) in
      let bit = (byte lsr (7 - (i mod 8))) land 1 in
      v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int bit)
    done;
    !v
  end

let covering_fields (layout : Path.layout) =
  let total = 8 * layout.size_bytes in
  let rec go acc off = function
    | [] -> List.rev (if off < total then (None, off, total - off) :: acc else acc)
    | (f : Path.lfield) :: rest ->
        let acc =
          if f.l_bit_off > off then (None, off, f.l_bit_off - off) :: acc else acc
        in
        go ((Some f, f.l_bit_off, f.l_bits) :: acc) (f.l_bit_off + f.l_bits) rest
  in
  go [] 0 layout.fields

let interp_source_of_layout layout =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "header fzdiff_t {\n";
  List.iteri
    (fun i (_, _, bits) ->
      Buffer.add_string buf (Printf.sprintf "  bit<%d> f%d;\n" bits i))
    (covering_fields layout);
  Buffer.add_string buf
    "}\nstruct fzdiff_hs_t { fzdiff_t d; }\n\
     parser FzDiffParser(packet_in pkt, out fzdiff_hs_t hdrs) {\n\
     \  state start { pkt.extract(hdrs.d); transition accept; }\n}\n";
  Buffer.contents buf

let descriptors_per_path = 24

(* Decode [buf] three ways and compare every covering field. *)
let readback_compare stage ~what ~tenv ~parser_def fields buf size =
  let store = P4.Interp.create tenv in
  match
    P4.Interp.run_parser store parser_def ~packet:buf ~len:size ~param:"pkt"
  with
  | exception P4.Interp.Runtime_error m ->
      fail stage "%s: interpreter error: %s" what m
  | () ->
      List.fold_left
        (fun acc (i, (orig, bit_off, bits)) ->
          let* () = acc in
          let label = Printf.sprintf "%s bits %d+%d" what bit_off bits in
          let reference = ref_read buf ~bit_off ~bits in
          let* interpreted =
            match
              P4.Interp.get_int store [ "hdrs"; "d"; Printf.sprintf "f%d" i ]
            with
            | Some v -> Ok v
            | None -> fail stage "%s: interp did not bind the field" label
          in
          let synthesized = Accessor.reader ~bit_off ~bits buf in
          if interpreted <> reference then
            fail stage "%s: interp %Ld <> reference %Ld" label interpreted reference
          else if synthesized <> reference then
            fail stage "%s: accessor %Ld <> reference %Ld" label synthesized reference
          else
            match orig with
            | Some f ->
                let via = (Accessor.of_lfield f).Accessor.a_get buf in
                if via <> reference then
                  fail stage "%s: of_lfield %Ld <> reference %Ld" label via reference
                else Ok ()
            | None -> Ok ())
        (Ok ())
        (List.mapi (fun i f -> (i, f)) fields)

let path_interp (p : Path.t) =
  let fields = covering_fields p.p_layout in
  match Prelude.check_result (interp_source_of_layout p.p_layout) with
  | Error m -> fail "differential" "generated parser does not typecheck: %s" m
  | Ok tenv -> (
      match P4.Typecheck.find_parser tenv "FzDiffParser" with
      | None -> fail "differential" "generated parser not found"
      | Some pd -> Ok (fields, tenv, pd))

let check_differential rng (spec : Nic_spec.t) =
  List.fold_left
    (fun acc (p : Path.t) ->
      let* () = acc in
      let* fields, tenv, pd = path_interp p in
      let size = p.p_layout.Path.size_bytes in
      let rec go n =
        if n = 0 then Ok ()
        else
          let desc = Rng.bytes rng (max size 1) in
          let what = Printf.sprintf "%s/p%d" spec.nic_name p.p_index in
          let* () =
            readback_compare "differential" ~what ~tenv ~parser_def:pd fields
              desc size
          in
          go (n - 1)
      in
      if size = 0 then Ok () else go descriptors_per_path)
    (Ok ()) spec.paths

(* ------------------------------------------------------------------ *)
(* Stage: device emit. A simulated device programmed onto each path
   serialises completions for real traffic; the three decoders must
   agree on the emitted bytes too (write/read agreement, not just
   read/read), and every field with a deterministic reference must hold
   the registry's value for the packet, masked to the field — so the
   random widths and offsets exercise every write shape of the device's
   encoder. Timestamps and stateful semantics are skipped, as
   [Driver.Validate]'s checker skips them. *)

let packets_per_path = 10

let check_device rng (spec : Nic_spec.t) =
  let model = Nic_models.Model.make spec in
  List.fold_left
    (fun acc (p : Path.t) ->
      let* () = acc in
      match p.Path.p_assignments with
      | [] -> Ok ()
      | config :: _ -> (
          match Driver.Device.create ~queue_depth:64 ~config model with
          | Error m ->
              fail "device" "device create failed for path %d: %s" p.p_index m
          | Ok dev ->
              let* fields, tenv, pd = path_interp p in
              let size = p.p_layout.Path.size_bytes in
              let values =
                Driver.Validate.checker_of_path ~env:(Driver.Device.env dev)
                  ~softnic:(Nic_models.Model.hardware_registry ())
                  p
              in
              let wl =
                Packet.Workload.make ~seed:(Rng.next64 rng) ~flows:8
                  Packet.Workload.Imix
              in
              let rec go n =
                if n = 0 then Ok ()
                else begin
                  let pkt = Packet.Workload.next wl in
                  if not (Driver.Device.rx_inject dev pkt) then
                    fail "device" "path %d: inject refused" p.p_index
                  else
                    match Driver.Device.rx_consume dev with
                    | None -> fail "device" "path %d: no completion" p.p_index
                    | Some (_buf, _len, cmpt) ->
                        let* () =
                          if size = 0 then Ok ()
                          else
                            readback_compare "device"
                              ~what:
                                (Printf.sprintf "%s/p%d cmpt" spec.nic_name
                                   p.p_index)
                              ~tenv ~parser_def:pd fields cmpt size
                        in
                        let* () =
                          match
                            Driver.Validate.check_desc values pkt.buf ~len:pkt.len
                              ~cmpt
                          with
                          | None -> Ok ()
                          | Some sem ->
                              fail "device"
                                "%s/p%d: %s differs from the registry's value"
                                spec.nic_name p.p_index sem
                        in
                        go (n - 1)
                end
              in
              go packets_per_path))
    (Ok ()) spec.paths

(* ------------------------------------------------------------------ *)
(* Stage: the static worst-case bound contains the measured ledger
   cost. Every packet is decoded through the per-packet generated
   runtime with a fresh ledger; the charge must stay within
   Costbound's bound for the deployed plan at burst 1 (the amortised
   doorbell term is pure slack on the per-packet path, so a violation
   means the static model undercounts real machinery, not noise). *)

module Cb = Opendesc_analysis.Costbound

let cost_packets = 16

let check_cost rng (spec : Nic_spec.t) (compiled : Compile.t) =
  let bound = Cb.plan_bound (Compile.to_plan compiled) in
  match
    Driver.Device.create ~queue_depth:64 ~config:compiled.Compile.config
      (Nic_models.Model.make spec)
  with
  | Error m -> fail "cost" "device create failed: %s" m
  | Ok dev ->
      let stack = Driver.Hoststacks.opendesc ~compiled in
      let env = Softnic.Feature.make_env () in
      let wl =
        Packet.Workload.make ~seed:(Rng.next64 rng) ~flows:8
          Packet.Workload.Imix
      in
      let burst = Driver.Device.burst_create ~capacity:1 dev in
      let ledger = Driver.Cost.create () in
      let rec go n checked =
        if n = 0 then Ok checked
        else begin
          let pkt = Packet.Workload.next wl in
          if not (Driver.Device.rx_inject dev pkt) then
            fail "cost" "inject refused"
          else if Driver.Device.rx_consume_batch dev burst = 0 then
            fail "cost" "no completion"
          else begin
            Driver.Cost.reset ledger;
            ignore
              (stack.Driver.Stack.bt_consume (Driver.Cost.ledger ledger) env burst);
            let measured = Driver.Cost.total ledger in
            if measured > bound *. 1.0000001 then
              fail "cost"
                "packet %d: measured %.1f cycles exceeds the static \
                 bound %.1f"
                (cost_packets - n) measured bound
            else go (n - 1) (checked + 1)
          end
        end
      in
      go cost_packets 0

(* ------------------------------------------------------------------ *)

let check_source ?(seed = 0L) ~name src =
  let rng = Rng.create seed in
  match Nic_spec.load ~name ~kind:Nic_spec.Fully_programmable src with
  | Error m -> fail "load" "%s" m
  | Ok spec ->
      let* () = check_pretty src in
      let* () = check_lint spec in
      let* () = check_symexec rng spec in
      let* sw_bound, compiled = check_compile spec in
      let* obligations = check_certify compiled in
      let* () = check_differential rng spec in
      let* () = check_device rng spec in
      let* cost_obligations = check_cost rng spec compiled in
      Ok
        {
          st_paths = List.length spec.paths;
          st_configs =
            List.fold_left
              (fun a (p : Path.t) -> a + List.length p.p_assignments)
              0 spec.paths;
          st_max_bytes =
            List.fold_left (fun a p -> max a (Path.size p)) 0 spec.paths;
          st_sw_bound = sw_bound;
          st_obligations = obligations;
          st_cost_obligations = cost_obligations;
        }

let check ?seed sp = check_source ?seed ~name:sp.Spec.sp_name (Spec.render sp)
