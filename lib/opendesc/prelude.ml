let source =
  {|
/* OpenDesc standard prelude */
extern desc_in {
  void extract<T>(out T hdr);
  void advance(bit<32> bits);
}
extern cmpt_out {
  void emit<T>(in T hdr);
}
extern packet_in {
  void extract<T>(out T hdr);
  void advance(bit<32> bits);
}
extern packet_out {
  void emit<T>(in T hdr);
}
|}

(* Lines the prelude prepends: subtract from spans to recover positions in
   the user's own source. *)
let line_offset = List.length (String.split_on_char '\n' source) - 1

let decls = P4.Parser.parse_program source

let end_pos : P4.Loc.pos =
  let bol = match String.rindex_opt source '\n' with Some i -> i + 1 | None -> 0 in
  { line = line_offset + 1; col = String.length source - bol; off = String.length source }

let check nic_source =
  P4.Typecheck.check (decls @ P4.Parser.parse_program ~start:end_pos nic_source)

(* Lexer and parser errors moved from the prelude-prefixed text into the
   user's own lines. *)
let in_user_lines =
  let shift (p : P4.Loc.pos) = { p with P4.Loc.line = p.P4.Loc.line - line_offset } in
  function
  | P4.Parser.Error (msg, sp) ->
      P4.Parser.Error (msg, { P4.Loc.left = shift sp.P4.Loc.left; right = shift sp.P4.Loc.right })
  | P4.Lexer.Error (msg, p) -> P4.Lexer.Error (msg, shift p)
  | exn -> exn

let check_result nic_source =
  try Ok (check nic_source) with
  | P4.Typecheck.Type_error (msg, sp) ->
      (* Unknown spans sit on line 0, so they fail the test too. *)
      if sp.P4.Loc.left.P4.Loc.line > line_offset then
        Error
          (Printf.sprintf "type error at line %d: %s"
             (sp.P4.Loc.left.P4.Loc.line - line_offset)
             msg)
      else Error (Printf.sprintf "type error: %s" msg)
  | exn -> (
      match P4.Parser.error_to_string nic_source (in_user_lines exn) with
      | Some s -> Error s
      | None -> raise exn)
