(* Frontend totality: every NIC source, however broken, ends in a value
   or a located diagnostic, never an exception. The inputs are seeded
   byte mutations of the catalogue sources (truncations, garbled bytes,
   deleted and duplicated spans) and '(' nested 100,000 deep. The
   executable stands alone so CI can run it under a hard timeout: a
   parser that loops or overflows its stack on a mutant fails the job
   within minutes. *)

open Opendesc
module Dg = Opendesc_analysis.Diagnostic

let catalog =
  Array.of_list (List.map (fun (m : Nic_models.Model.t) -> m.spec.p4_source) (Nic_models.Catalog.all ()))

(* Bytes that start, end or split tokens, plus NUL and a non-ASCII
   byte; garbling draws from these half of the time. *)
let interesting = "<>&|/*\"\\\n\r\t 0189xXbowsW_aZ{}()[];:,.@?~^%+-=!\000\255"

let mutate rng s =
  let len = String.length s in
  let span () =
    let i = Random.State.int rng (len + 1) in
    (i, min (len - i) (1 + Random.State.int rng 64))
  in
  match Random.State.int rng 4 with
  | 0 -> String.sub s 0 (Random.State.int rng (len + 1))
  | 1 when len > 0 ->
      let b = Bytes.of_string s in
      for _ = 1 to 1 + Random.State.int rng 4 do
        Bytes.set b (Random.State.int rng len)
          (if Random.State.bool rng then interesting.[Random.State.int rng (String.length interesting)]
           else Char.chr (Random.State.int rng 256))
      done;
      Bytes.to_string b
  | 2 ->
      let i, k = span () in
      String.sub s 0 i ^ String.sub s (i + k) (len - i - k)
  | _ ->
      let i, k = span () in
      let at = Random.State.int rng (len + 1) in
      String.sub s 0 at ^ String.sub s i k ^ String.sub s at (len - at)

let gen_source : string QCheck.Gen.t =
 fun rng ->
  let rec go s k = if k = 0 then s else go (mutate rng s) (k - 1) in
  go catalog.(Random.State.int rng (Array.length catalog)) (1 + Random.State.int rng 4)

(* Whether the P4 frontend (lexer, parser, type checker) rejects the
   source; any other exception escapes and fails the test. *)
let frontend_rejects src =
  match Prelude.check src with
  | _ -> false
  | exception (P4.Lexer.Error _ | P4.Parser.Error _ | P4.Typecheck.Type_error _) -> true

(* [load] answers [Ok] or [Error] (an [Error] whenever the frontend
   rejects), and [analyze_source] answers with diagnostics that hold
   OD001 exactly when the frontend rejects. *)
let total src =
  let rejected = frontend_rejects src in
  let loaded =
    match Nic_spec.load ~name:"mutant" ~kind:Nic_spec.Fully_programmable src with
    | Ok _ -> not rejected
    | Error _ -> true
  in
  let od001 = List.exists (fun (d : Dg.t) -> d.d_code = "OD001") (Nic_spec.analyze_source src) in
  loaded && od001 = rejected

let prop_total =
  QCheck.Test.make ~name:"load and analyze_source answer every mutated catalogue source" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_source)
    total

let deep = 100_000

let test_deep_parens () =
  List.iter
    (fun (what, src) ->
      Alcotest.(check bool) (what ^ ": rejected or loaded, and analyzed") true (total src))
    [
      ("unclosed", "const bit<8> X = " ^ String.make deep '(' ^ "1;");
      ("closed", "const bit<8> X = " ^ String.make deep '(' ^ "1" ^ String.make deep ')' ^ ";");
    ]

let () =
  Alcotest.run "frontend totality"
    [
      ( "totality",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |]) prop_total;
          Alcotest.test_case "'(' nested 100,000 deep" `Quick test_deep_parens;
        ] );
    ]
