(* Unit tests for the benchmark's statistics, span accounting, JSON and
   regression verdicts. *)

open Perf_core

let close = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_tail_rule () =
  Alcotest.(check bool) "999 samples leave 9.99 beyond p99" false (Summary.supports ~n:999 99.0);
  Alcotest.(check bool) "1000 samples leave 10 beyond p99" true (Summary.supports ~n:1000 99.0);
  Alcotest.(check bool) "100 samples support p90" true (Summary.supports ~n:100 90.0);
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option close)) "p99 refused on 999" None (Summary.percentile (xs 999) 99.0);
  Alcotest.(check (option close))
    "p99 of 1..1000 interpolates between ranks" (Some 990.01)
    (Summary.percentile (xs 1000) 99.0);
  Alcotest.(check (option close))
    "a stricter rule refuses what the default accepts" None
    (Summary.percentile ~min_beyond:20 (xs 1000) 99.0)

let test_median_iqr () =
  Alcotest.check close "even count" 2.5 (Summary.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check close "odd count" 3.0 (Summary.median [| 5.0; 3.0; 1.0 |]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let p25, p75 = Summary.quartiles xs in
  Alcotest.check close "p25 (exclusive method)" 2.75 p25;
  Alcotest.check close "p75 (exclusive method)" 8.25 p75;
  Alcotest.check close "IQR over median" 1.0 ((p75 -. p25) /. Summary.median xs);
  let p25, p75 = Summary.quartiles [| 7.0 |] in
  Alcotest.check close "one sample has no spread" 0.0 (p75 -. p25);
  let s = Summary.of_samples [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check int) "n" 3 s.n;
  Alcotest.check close "summary median" 2.0 s.median

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_self_time () =
  let t = Trace.create 16 in
  let add name parent s e w =
    Trace.add t ~name ~group:0 ~parent ~start_ns:s ~end_ns:e ~words:w
  in
  let root = add "root" (-1) 0 100 100.0 in
  let a = add "a" root 10 40 30.0 in
  let _ = add "leaf" a 15 20 5.0 in
  (* overlaps [a]: the covered part counts once *)
  let _ = add "b" root 30 60 20.0 in
  (* runs past the end of its parent: only the inside is covered *)
  let _ = add "c" root 90 120 0.0 in
  let self = Trace.self t in
  Alcotest.(check int) "root self = 100 - |[10,60] u [90,100]|" 40 (fst self.(root));
  Alcotest.(check int) "a self excludes its nested leaf" 25 (fst self.(a));
  Alcotest.check close "root self words subtract its children" 50.0 (snd self.(root));
  Alcotest.check close "a self words" 25.0 (snd self.(a));
  let agg = Trace.aggregate t in
  Alcotest.(check (list string)) "first-seen order" [ "root"; "a"; "leaf"; "b"; "c" ]
    (List.map (fun (x : Trace.agg) -> x.a_name) agg)

let test_enter_leave () =
  let t = Trace.create 2 in
  let outer = Trace.intern t "outer" and inner = Trace.intern t "inner" in
  Trace.set_group t 7;
  let o = Trace.enter t outer in
  let i = Trace.enter t inner in
  Alcotest.check_raises "leaving the outer span first is refused"
    (Invalid_argument "Trace.leave: span is not the innermost open span") (fun () ->
      Trace.leave t o);
  Trace.leave t i;
  Trace.leave t o;
  let agg = Trace.aggregate t in
  Alcotest.(check int) "two spans" 2 (List.length agg);
  Alcotest.(check bool) "durations are non-negative" true
    (List.for_all (fun (a : Trace.agg) -> a.a_total_ns >= 0.0 && a.a_self_ns >= 0.0) agg);
  (* The buffer holds two spans: a third is dropped and counted. *)
  Alcotest.(check int) "full buffer drops" (-1) (Trace.enter t outer);
  Alcotest.(check int) "dropped count" 1 (Trace.dropped t);
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

let test_weighted_aggregate () =
  let t = Trace.create 16 in
  let add name group parent s e =
    Trace.add t ~name ~group ~parent ~start_ns:s ~end_ns:e ~words:1.0
  in
  let r0 = add "burst" 0 (-1) 0 100 in
  let _ = add "decode" 0 r0 10 50 in
  let r1 = add "burst" 1 (-1) 100 300 in
  let _ = add "decode" 1 r1 150 250 in
  let r2 = add "burst" 2 (-1) 300 310 in
  let _ = add "decode" 2 r2 300 305 in
  (* group 1 counts double, group 2 is dropped *)
  let weight = function 0 -> 1.0 | 1 -> 2.0 | _ -> 0.0 in
  let agg = Trace.aggregate ~weight t in
  let find n = List.find (fun (a : Trace.agg) -> a.a_name = n) agg in
  Alcotest.(check int) "dropped group's spans are not counted" 2 (find "burst").a_count;
  Alcotest.check close "total scales per group" 500.0 (find "burst").a_total_ns;
  Alcotest.check close "self scales per group" (60.0 +. 200.0) (find "burst").a_self_ns;
  Alcotest.check close "child self" (40.0 +. 200.0) (find "decode").a_self_ns;
  let snap = Trace.copy t in
  Trace.clear t;
  ignore (add "other" 0 (-1) 0 1);
  Alcotest.(check int) "a copy keeps its spans when the original is reused" 6 (Trace.length snap)

(* ------------------------------------------------------------------ *)
(* Gate *)

let test_gate () =
  let one us = { Gate.kind = Gate.Main; us } and both us = { Gate.kind = Gate.Worker; us } in
  (* 20 quiet readings at 30..31.9 and 20 contended ones at 45 *)
  let quiet = List.init 20 (fun i -> one (30.0 +. (float_of_int i /. 10.0))) in
  let busy = List.init 20 (fun _ -> one 45.0) in
  let g = Gate.make ~nominal:(function Gate.Main -> 30.0 | Gate.Worker -> 40.0) (quiet @ busy @ [ both 40.0 ]) in
  (* p2 of the 40 Main readings is 30.078 (rank 0.78 between 30.0 and 30.1) *)
  Alcotest.check close "limit is slack x p2 of that kind" (1.2 *. 30.078) (g.limit Gate.Main);
  Alcotest.(check bool) "a quiet reading passes" true (Gate.ok g (one 31.0));
  Alcotest.(check bool) "a contended reading is dropped" false (Gate.ok g (one 45.0));
  Alcotest.(check bool) "kinds have their own level" true (Gate.ok g (both 45.0));
  Alcotest.check close "durations are scaled to nominal" 2.0 (Gate.scale g (one 15.0));
  Alcotest.(check bool) "relax keeps everything" true (Gate.ok (Gate.relax g) (one 1000.0));
  Alcotest.check close "relax keeps the scaling" 0.5 (Gate.scale (Gate.relax g) (one 60.0));
  Alcotest.check close "worse picks the slower reading" 45.0 (Gate.worse (one 31.0) (one 45.0)).us;
  (* the 20 quiet readings are kept, the 20 contended ones are not *)
  Alcotest.check close "quiet level is the median kept reading" 30.95 (g.quiet Gate.Main);
  Alcotest.check close "work without a reading scales by the quiet level" (30.0 /. 30.95)
    (Gate.scale_quiet g Gate.Main);
  let empty = Gate.make ~nominal:(fun _ -> 1.0) [] in
  Alcotest.(check bool) "no readings of a kind: nothing dropped" true (Gate.ok empty (both 99.0))

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_escaping () =
  Alcotest.(check string) "quotes, backslash, newline, control"
    {|a\"b\\c\n\u0001|} (Json.escape "a\"b\\c\n\001");
  let tricky = "tab\there \"q\" back\\slash \r\n \031 caf\xc3\xa9" in
  (match Json.parse (Json.to_string (Json.Str tricky)) with
  | Ok (Json.Str s) -> Alcotest.(check string) "string round-trips" tricky s
  | _ -> Alcotest.fail "string did not round-trip");
  (match Json.parse ("\"" ^ "\\" ^ "u00e9" ^ "\\/\"") with
  | Ok (Json.Str s) -> Alcotest.(check string) "\\u escapes decode to UTF-8" "\xc3\xa9/" s
  | _ -> Alcotest.fail "\\u escape");
  Alcotest.(check string) "integers print without a fraction" "3" (Json.to_string (Json.Num 3.0));
  Alcotest.(check string) "NaN is null" "null" (Json.to_string (Json.Num Float.nan));
  (match Json.parse (Json.to_string (Json.Num 0.1)) with
  | Ok (Json.Num f) -> Alcotest.check (Alcotest.float 0.0) "every digit kept" 0.1 f
  | _ -> Alcotest.fail "number");
  let doc = Json.Obj [ ("k", Json.Arr [ Json.Bool true; Json.Null; Json.Num (-2.5e-3) ]) ] in
  Alcotest.(check bool) "indented output parses back" true
    (Json.parse (Json.to_string ~indent:true doc) = Ok doc);
  Alcotest.(check bool) "trailing garbage is an error" true
    (Result.is_error (Json.parse "{} x"));
  Alcotest.(check bool) "lone surrogate escape is an error" true
    (Result.is_error (Json.parse {|"\ud800"|}))

(* ------------------------------------------------------------------ *)
(* Verdict *)

let test_verdict () =
  let v better baseline candidate =
    Verdict.judge ~better ~bound:0.1 ~baseline ~candidate
  in
  Alcotest.(check bool) "throughput 9% lower is within 10%" true (v Higher 100.0 91.0).within;
  Alcotest.(check bool) "throughput 11% lower is outside" false (v Higher 100.0 89.0).within;
  Alcotest.(check bool) "latency exactly at the bound is within" true (v Lower 100.0 110.0).within;
  Alcotest.(check bool) "latency past the bound is outside" false (v Lower 100.0 110.5).within;
  let better = v Lower 100.0 80.0 in
  Alcotest.(check bool) "an improvement is within" true better.within;
  Alcotest.check close "an improvement is negative worse-by" (-0.2) better.worse_by;
  Alcotest.check close "ratio is candidate over baseline" 0.8 better.ratio;
  Alcotest.(check bool) "zero baseline, equal candidate" true (v Lower 0.0 0.0).within;
  Alcotest.(check bool) "zero baseline, worse candidate" false (v Lower 0.0 1.0).within;
  Alcotest.(check (option bool)) "direction names" (Some true)
    (Option.map (( = ) Verdict.Lower) (Verdict.better_of_string "lower"));
  Alcotest.(check (option bool)) "unknown direction" None
    (Option.map (( = ) Verdict.Lower) (Verdict.better_of_string "faster"))

let () =
  Alcotest.run "perf"
    [
      ( "summary",
        [
          Alcotest.test_case "tail percentile needs 10 samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "median and IQR" `Quick test_median_iqr;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time with nested and overlapping children" `Quick
            test_self_time;
          Alcotest.test_case "enter/leave nesting and a full buffer" `Quick test_enter_leave;
          Alcotest.test_case "aggregate weighs and drops groups" `Quick test_weighted_aggregate;
        ] );
      ("gate", [ Alcotest.test_case "quiet-core gate and scaling" `Quick test_gate ]);
      ("json", [ Alcotest.test_case "string escaping and numbers" `Quick test_json_escaping ]);
      ("verdict", [ Alcotest.test_case "regression bound verdicts" `Quick test_verdict ]);
    ]
