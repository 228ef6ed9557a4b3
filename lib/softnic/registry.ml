type t = (string, Feature.t) Hashtbl.t

let empty () : t = Hashtbl.create 32
let register t (f : Feature.t) = Hashtbl.replace t f.semantic f
let find t name = Hashtbl.find_opt t name
let mem t name = Hashtbl.mem t name

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

(* One boxed [compute] per core, made once: rows with the same core share
   it ([wire_timestamp] reads the [timestamp] clock), and [core_of]
   compares computes by identity. *)
let boxed =
  List.fold_left
    (fun acc (r : Semantic.row) ->
      match r.impl with
      | Some (Core sem) when not (List.mem_assoc sem acc) ->
          ( sem,
            fun env (pkt : Packet.Pkt.t) v ->
              Int64.of_int (Codec.eval sem env pkt.buf ~len:pkt.len v) )
          :: acc
      | _ -> acc)
    [] Semantic.rows

let core_of compute =
  List.find_map (fun (sem, c) -> if c == compute then Some sem else None) boxed

(* Every row with an implementation, as a feature built once. *)
let all, device_only =
  List.filter_map
    (fun (r : Semantic.row) ->
      Option.map
        (fun impl ->
          {
            Feature.semantic = r.info.name;
            width_bits = r.info.width_bits;
            cost_cycles = r.info.sw_cost;
            compute =
              (match impl with
              | Semantic.Core sem -> List.assoc sem boxed
              | Compute compute -> compute);
          })
        r.impl)
    Semantic.rows
  |> List.partition (fun (f : Feature.t) -> Float.is_finite f.cost_cycles)

let prebuilt = empty ()
let () = List.iter (register prebuilt) all
let builtin () = Hashtbl.copy prebuilt
