module Rng = Packet.Rng

type bounds = {
  b_max_ctx : int;
  b_max_depth : int;
  b_max_headers : int;
  b_max_fields : int;
  b_max_emits : int;
  b_max_configs : int;
}

let default_bounds =
  {
    b_max_ctx = 3;
    b_max_depth = 3;
    b_max_headers = 4;
    b_max_fields = 6;
    b_max_emits = 2;
    b_max_configs = 512;
  }

(* SplitMix64 finalizer over (seed, index): each spec's stream is
   independent of its neighbours', so a campaign member replays alone. *)
let spec_seed ~seed ~index =
  let z =
    Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1)))
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Field widths weighted toward descriptor-realistic shapes: flag bits,
   sub-byte packing, and the word sizes real completions carry. *)
let widths =
  [| 1; 2; 3; 4; 5; 6; 7; 8; 10; 12; 13; 16; 16; 20; 24; 32; 32; 48; 64 |]

(* The built-in names whose w(s) satisfies [p], in row order. *)
let semantics_where p =
  List.filter_map
    (fun (r : Softnic.Semantic.row) -> if p r.info.sw_cost then Some r.info.name else None)
    Softnic.Semantic.rows

let software_semantics =
  Array.of_list (List.sort String.compare (semantics_where Float.is_finite))

let hardware_semantics = Array.of_list (semantics_where (fun w -> w = infinity))

let gen_ctx_field rng i : Spec.ctx_field =
  let name = Printf.sprintf "k%d" i in
  if Rng.float rng < 0.12 then begin
    (* A wide knob with an explicit @values domain, like qdma's
       cmpt_fmt: enumeration must honour the list, not 2^w. *)
    let bits = Rng.int_in rng 5 6 in
    let n = Rng.int_in rng 2 4 in
    let lim = 1 lsl bits in
    let rec draw acc =
      if List.length acc >= n then acc
      else
        let v = Int64.of_int (Rng.int rng lim) in
        draw (if List.mem v acc then acc else v :: acc)
    in
    let vs = List.sort_uniq compare (draw []) in
    { c_name = name; c_bits = bits; c_values = Some vs }
  end
  else
    { c_name = name; c_bits = Rng.int_in rng 1 3; c_values = None }

let gen_field rng ~taken i : Spec.field =
  let name = Printf.sprintf "f%d" i in
  if Rng.float rng < 0.05 then
    (* Reserved blob wider than an accessor can load; must stay
       unannotated (OD017) and reads as 0 in every decoder. *)
    { f_name = name; f_bits = 8 * Rng.int_in rng 9 16; f_semantic = None }
  else
    let bits = Rng.choice rng widths in
    let semantic =
      if Rng.float rng < 0.45 then begin
        let pool =
          if Rng.float rng < 0.07 then hardware_semantics else software_semantics
        in
        let s = Rng.choice rng pool in
        if List.mem s !taken then None
        else begin
          taken := s :: !taken;
          Some s
        end
      end
      else None
    in
    { f_name = name; f_bits = bits; f_semantic = semantic }

let gen_header rng b i : Spec.header =
  let taken = ref [] in
  let nfields = Rng.int_in rng 1 b.b_max_fields in
  {
    h_name = Printf.sprintf "h%d" i;
    h_fields = List.init nfields (gen_field rng ~taken);
  }

let gen_cond rng (ctx : Spec.ctx_field list) : Spec.cond =
  let pick () = List.nth ctx (Rng.int rng (List.length ctx)) in
  let f = pick () in
  let dom = Array.of_list (Spec.domain f) in
  let in_dom () = Rng.choice rng dom in
  (* Mostly compare against a value the domain can reach, so both
     branch sides stay feasible; sometimes an arbitrary in-width
     literal, which may make a side dead (OD008 is a warning the
     oracle tolerates — dead branches are a thing vendors ship). *)
  let lit () =
    if Rng.float rng < 0.8 then in_dom ()
    else Int64.of_int (Rng.int rng (1 lsl f.c_bits))
  in
  let same_width =
    List.filter (fun (c : Spec.ctx_field) -> c.c_bits = f.c_bits && c.c_name <> f.c_name) ctx
  in
  match Rng.weighted rng [ (5, `Eq); (2, `Rel); (2, `Mask); (1, `Pair) ] with
  | `Eq -> Cfield (f.c_name, (if Rng.bool rng then Ceq else Cne), lit ())
  | `Rel -> Cfield (f.c_name, (if Rng.bool rng then Clt else Cle), lit ())
  | `Mask ->
      let m = Int64.of_int (1 + Rng.int rng ((1 lsl f.c_bits) - 1)) in
      Cmask (f.c_name, m, Int64.logand (in_dom ()) m)
  | `Pair -> (
      match same_width with
      | [] -> Cfield (f.c_name, Ceq, lit ())
      | l -> Cpair (f.c_name, (List.nth l (Rng.int rng (List.length l))).c_name))

let gen_leaf rng b (headers : Spec.header list) : Spec.tree =
  let n = min (Rng.int_in rng 1 b.b_max_emits) (List.length headers) in
  let arr = Array.of_list (List.map (fun (h : Spec.header) -> h.h_name) headers) in
  Rng.shuffle rng arr;
  Leaf (Array.to_list (Array.sub arr 0 n))

let rec gen_tree rng b headers ctx depth : Spec.tree =
  if ctx = [] || depth <= 0 || Rng.float rng < 0.35 then gen_leaf rng b headers
  else
    Branch
      ( gen_cond rng ctx,
        gen_tree rng b headers ctx (depth - 1),
        gen_tree rng b headers ctx (depth - 1) )

let generate ?(bounds = default_bounds) ~seed ~name () : Spec.t =
  let rng = Rng.create seed in
  let rec ctx_under_cap () =
    let n = Rng.int rng (bounds.b_max_ctx + 1) in
    let ctx = List.init n (gen_ctx_field rng) in
    let product =
      List.fold_left (fun a c -> a * List.length (Spec.domain c)) 1 ctx
    in
    if product <= bounds.b_max_configs then ctx else ctx_under_cap ()
  in
  let ctx = ctx_under_cap () in
  let nheaders = Rng.int_in rng 1 bounds.b_max_headers in
  let headers = List.init nheaders (gen_header rng bounds) in
  let tree = gen_tree rng bounds headers ctx bounds.b_max_depth in
  let sp =
    Spec.normalize
      { sp_name = name; sp_ctx = ctx; sp_headers = headers; sp_tree = tree; sp_slot = None }
  in
  let slot =
    if Rng.float rng < 0.7 then
      (* Round up the way datasheets do; occasionally leave slack. *)
      let need = Spec.max_path_bytes sp in
      let rec pow2 n = if n >= need then n else pow2 (2 * n) in
      Some (if Rng.bool rng then pow2 1 else need + Rng.int rng 9)
    else None
  in
  { sp with sp_slot = slot }
