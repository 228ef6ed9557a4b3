(* BENCHMARK.json: the one place that names the workloads and declares
   each reported metric's unit, direction and regression bound. The
   benchmark reads it at start-up and reports exactly what it declares. *)

open Perf_core

type metric = {
  name : string;
  unit_ : string;
  better : Verdict.better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = { workloads : string list; e2e : metric list; per_layer : metric list }

let file = "BENCHMARK.json"

(* The unit every metric name implies — BENCHMARK.json must agree. *)
let unit_of_name name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_pct" then "%"
  else if ends "ns_per_op" then "ns/op"
  else if ends "words_per_op" then "words/op"
  else if ends "_per_s" then "1/s"
  else if ends "_per_kpkt" then "1/kpkt"
  else if ends "_frac" then "share"
  else if ends "_spans" then "count"
  else if String.starts_with ~prefix:"latency_us_" name then "us"
  else if ends ".ns" then "ns"
  else if ends "_ms" then "ms"
  else if ends "_s" then "s"
  else "count"

let load () =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin file In_channel.input_all)
    with Sys_error e -> Error (e ^ " (run from the repository root)")
  in
  let* json = Json.parse text in
  let field k v = Option.to_result ~none:(file ^ ": missing " ^ k) (Json.member k v) in
  let str k v =
    let* x = field k v in
    Option.to_result ~none:(file ^ ": " ^ k ^ " is not a string") (Json.to_str x)
  in
  let list k v =
    let* x = field k v in
    Option.to_result ~none:(file ^ ": " ^ k ^ " is not a list") (Json.to_list x)
  in
  let all f xs =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      xs (Ok [])
  in
  let metric ~bounded m =
    let* name = str "name" m in
    let* unit_ = str "unit" m in
    let* b = str "better" m in
    let* better =
      Option.to_result ~none:(file ^ ": " ^ name ^ ": better must be lower or higher")
        (Verdict.better_of_string b)
    in
    let* bound =
      if not bounded then Ok None
      else
        let* x = field "bound" m in
        Option.to_result ~none:(file ^ ": " ^ name ^ ": bound is not a number")
          (Option.map Option.some (Json.to_num x))
    in
    if unit_ <> unit_of_name name then
      Error
        (Printf.sprintf "%s: %s is declared in %s but measured in %s" file name unit_
           (unit_of_name name))
    else Ok { name; unit_; better; bound }
  in
  let* ws = list "workloads" json in
  let* workloads = all (str "name") ws in
  let* e2e = list "end_to_end" json in
  let* e2e = all (metric ~bounded:true) e2e in
  let* pl = list "per_layer" json in
  let* per_layer = all (metric ~bounded:false) pl in
  Ok { workloads; e2e; per_layer }
