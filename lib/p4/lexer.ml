exception Error of string * Loc.pos

(* [bol] is the offset just past the last newline consumed, so a
   position's column is [off - bol] and only a newline touches the line
   state. *)
type state = { src : string; mutable off : int; mutable line : int; mutable bol : int }

let pos st : Loc.pos = { line = st.line; col = st.off - st.bol; off = st.off }

(* Bounds-checked character tests: a NUL byte inside the source is an
   ordinary character, never end of input. *)
let has st k = st.off + k < String.length st.src
let get st k = String.unsafe_get st.src (st.off + k)
let at st k c = has st k && Char.equal (get st k) c

(* Step over the current character, which may be a newline. *)
let advance st =
  if at st 0 '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.off + 1
  end;
  st.off <- st.off + 1

(* Step over [n] characters known not to be newlines. *)
let skip st n = st.off <- st.off + n

let error st msg = raise (Error (msg, pos st))

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let digit_val c =
  if is_digit c then Char.code c - Char.code '0'
  else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
  else Char.code c - Char.code 'A' + 10

let rec skip_block_comment st =
  if not (has st 0) then error st "unterminated comment"
  else if at st 0 '*' && at st 1 '/' then skip st 2
  else begin
    advance st;
    skip_block_comment st
  end

let rec skip_trivia st =
  if has st 0 then
    match get st 0 with
    | ' ' | '\t' | '\r' ->
        skip st 1;
        skip_trivia st
    | '\n' ->
        advance st;
        skip_trivia st
    | '/' when at st 1 '/' ->
        while has st 0 && not (Char.equal (get st 0) '\n') do
          skip st 1
        done;
        skip_trivia st
    | '/' when at st 1 '*' ->
        skip st 2;
        skip_block_comment st;
        skip_trivia st
    | _ -> ()

(* Numbers: 42, 0x2A, 0b1010, 0o52, and width-prefixed 8w255 / 4s7 /
   8w0xFF. We lex a digit run first; a following [w]/[s] turns it into a
   width prefix. *)
let lex_number st =
  let read_digits base =
    let ok c =
      match base with
      | 16 -> is_hex c
      | 10 -> is_digit c
      | 8 -> c >= '0' && c <= '7'
      | 2 -> c = '0' || c = '1'
      | _ -> assert false
    in
    let rec go v any =
      if at st 0 '_' then begin
        skip st 1;
        go v any
      end
      else if has st 0 && ok (get st 0) then begin
        let d = digit_val (get st 0) in
        skip st 1;
        go (Int64.add (Int64.mul v (Int64.of_int base)) (Int64.of_int d)) true
      end
      else if any then v
      else error st "malformed number"
    in
    go 0L false
  in
  let read_value () =
    if at st 0 '0' && has st 1 then
      match get st 1 with
      | 'x' | 'X' ->
          skip st 2;
          read_digits 16
      | 'b' | 'B' ->
          skip st 2;
          read_digits 2
      | 'o' | 'O' ->
          skip st 2;
          read_digits 8
      | _ -> read_digits 10
    else read_digits 10
  in
  let first = read_value () in
  if at st 0 'w' then begin
    skip st 1;
    let v = read_value () in
    Token.Int { value = v; width = Some (Int64.to_int first); signed = false }
  end
  else if at st 0 's' && has st 1 && is_digit (get st 1) then begin
    skip st 1;
    let v = read_value () in
    Token.Int { value = v; width = Some (Int64.to_int first); signed = true }
  end
  else Token.Int { value = first; width = None; signed = false }

let lex_string st =
  skip st 1 (* opening quote *);
  let buf = Buffer.create 16 in
  let add c =
    Buffer.add_char buf c;
    advance st
  in
  let rec go () =
    if not (has st 0) then error st "unterminated string"
    else
      match get st 0 with
      | '"' -> skip st 1
      | '\\' ->
          skip st 1;
          if not (has st 0) then error st "unterminated string"
          else begin
            (match get st 0 with
            | 'n' -> add '\n'
            | 't' -> add '\t'
            | c -> add c);
            go ()
          end
      | c ->
          add c;
          go ()
  in
  go ();
  Token.String (Buffer.contents buf)

let keywords =
  let t = Hashtbl.create 64 in
  List.iter (fun (s, kw) -> Hashtbl.replace t s kw) Token.keyword_table;
  t

let lex_ident st =
  let start = st.off in
  let stop = ref (start + 1) in
  while !stop < String.length st.src && is_ident_char (String.unsafe_get st.src !stop) do
    incr stop
  done;
  st.off <- !stop;
  let s = String.sub st.src start (!stop - start) in
  match Hashtbl.find keywords s with kw -> kw | exception Not_found -> Token.Ident s

let one st k =
  skip st 1;
  k

(* One- or two-character operator: [long] when the next character is
   [second], else [short]. *)
let op2 st second long short =
  if at st 1 second then begin
    skip st 2;
    long
  end
  else begin
    skip st 1;
    short
  end

let next_kind st : Token.kind =
  if not (has st 0) then Token.Eof
  else
    match get st 0 with
    | c when is_ident_start c -> lex_ident st
    | c when is_digit c -> lex_number st
    | '"' -> lex_string st
    | '(' -> one st Token.LParen
    | ')' -> one st Token.RParen
    | '{' -> one st Token.LBrace
    | '}' -> one st Token.RBrace
    | '[' -> one st Token.LBracket
    | ']' -> one st Token.RBracket
    | ';' -> one st Token.Semi
    | ':' -> one st Token.Colon
    | ',' -> one st Token.Comma
    | '.' -> one st Token.Dot
    | '@' -> one st Token.At
    | '?' -> one st Token.Question
    | '~' -> one st Token.Tilde
    | '^' -> one st Token.Caret
    | '%' -> one st Token.Percent
    | '/' -> one st Token.Slash
    | '*' -> one st Token.Star
    | '-' -> one st Token.Minus
    | '+' -> op2 st '+' Token.PlusPlus Token.Plus
    | '=' -> op2 st '=' Token.Eq Token.Assign
    | '!' -> op2 st '=' Token.Neq Token.Not
    | '<' when at st 1 '<' ->
        skip st 2;
        Token.Shl
    | '<' -> op2 st '=' Token.Le Token.LAngle
    (* Always lex a single '>' — the parser reassembles adjacent pairs into
       a right-shift, so nested generics close cleanly. *)
    | '>' -> op2 st '=' Token.Ge Token.RAngle
    | '&' ->
        if not (at st 1 '&') then one st Token.Amp
        else if at st 2 '&' then begin
          skip st 3;
          Token.MaskAnd
        end
        else begin
          skip st 2;
          Token.AndAnd
        end
    | '|' -> op2 st '|' Token.OrOr Token.Pipe
    | c -> error st (Printf.sprintf "unexpected character %C" c)

let tokenize src =
  let st = { src; off = 0; line = 1; bol = 0 } in
  let rec go acc =
    skip_trivia st;
    let left = pos st in
    let kind = next_kind st in
    let right = pos st in
    let tok = { Token.kind; span = { Loc.left; right } } in
    match kind with Token.Eof -> List.rev (tok :: acc) | _ -> go (tok :: acc)
  in
  go []
