exception Error of string * Loc.pos

(* [off] indexes [src]; [base] is the offset of [src]'s first byte in the
   text the positions count in (non-zero when lexing starts after a
   prelude). [bol] is the index just past the last newline consumed
   (negative on a first line that starts mid-line), so a position's
   column is [off - bol] and only a newline touches the line state. *)
type state = { src : string; base : int; mutable off : int; mutable line : int; mutable bol : int }

let pos st : Loc.pos = { line = st.line; col = st.off - st.bol; off = st.base + st.off }

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

(* Whitespace and comments, scanned over local ints and written back to
   the state once. *)
let skip_trivia st =
  let src = st.src in
  let n = String.length src in
  let i = ref st.off and line = ref st.line and bol = ref st.bol in
  let trivia = ref true and unterminated = ref false in
  while !trivia && !i < n do
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
        incr i;
        incr line;
        bol := !i
    | '/' when !i + 1 < n && String.unsafe_get src (!i + 1) = '/' ->
        while !i < n && String.unsafe_get src !i <> '\n' do
          incr i
        done
    | '/' when !i + 1 < n && String.unsafe_get src (!i + 1) = '*' ->
        i := !i + 2;
        while !i < n && not (String.unsafe_get src !i = '*' && !i + 1 < n && String.unsafe_get src (!i + 1) = '/') do
          if String.unsafe_get src !i = '\n' then begin
            incr line;
            bol := !i + 1
          end;
          incr i
        done;
        if !i < n then i := !i + 2 else unterminated := true
    | _ -> trivia := false
  done;
  st.off <- !i;
  st.line <- !line;
  st.bol <- !bol;
  if !unterminated then error st "unterminated comment"

(* Numbers: 42, 0x2A, 0b1010, 0o52, and width-prefixed 8w255 / 4s7 /
   8w0xFF. We lex a digit run first; a following [w]/[s] turns it into a
   width prefix. *)
let is_digit_in base c =
  match base with
  | 16 -> is_hex c
  | 10 -> is_digit c
  | 8 -> c >= '0' && c <= '7'
  | _ -> c = '0' || c = '1'

(* A digit run with '_' separators, wrapping modulo 2^64 as [Int64]
   arithmetic does. The value stays in an int while it is below 2^54,
   where [v * base + d] cannot overflow, so a literal of up to 13 hex
   digits allocates only its result. *)
let read_digits st base =
  let v = ref 0 and wide = ref 0L and is_wide = ref false and any = ref false in
  let digits = ref true in
  while !digits do
    if at st 0 '_' then skip st 1
    else if has st 0 && is_digit_in base (get st 0) then begin
      let d = digit_val (get st 0) in
      skip st 1;
      any := true;
      if !is_wide then wide := Int64.add (Int64.mul !wide (Int64.of_int base)) (Int64.of_int d)
      else if !v < 1 lsl 54 then v := (!v * base) + d
      else begin
        is_wide := true;
        wide := Int64.add (Int64.mul (Int64.of_int !v) (Int64.of_int base)) (Int64.of_int d)
      end
    end
    else digits := false
  done;
  if not !any then error st "malformed number";
  if !is_wide then !wide else Int64.of_int !v

let read_value st =
  if at st 0 '0' && has st 1 then
    match get st 1 with
    | 'x' | 'X' ->
        skip st 2;
        read_digits st 16
    | 'b' | 'B' ->
        skip st 2;
        read_digits st 2
    | 'o' | 'O' ->
        skip st 2;
        read_digits st 8
    | _ -> read_digits st 10
  else read_digits st 10

let lex_number st =
  let first = read_value st in
  if at st 0 'w' then begin
    skip st 1;
    let v = read_value st in
    Token.Int { value = v; width = Some (Int64.to_int first); signed = false }
  end
  else if at st 0 's' && has st 1 && is_digit (get st 1) then begin
    skip st 1;
    let v = read_value st in
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

(* [Token.keyword_table] by length. An identifier is compared in place
   with the keywords of its length, so a keyword allocates no string and
   no identifier is hashed. *)
let keywords =
  let longest = List.fold_left (fun m (s, _) -> max m (String.length s)) 0 Token.keyword_table in
  let t = Array.make (longest + 1) [] in
  List.iter (fun ((s, _) as kw) -> t.(String.length s) <- t.(String.length s) @ [ kw ]) Token.keyword_table;
  t

(* [s] equals [src]'s bytes from [start], given equal lengths. *)
let rec same_at s src start i =
  i = String.length s
  || Char.equal (String.unsafe_get s i) (String.unsafe_get src (start + i))
     && same_at s src start (i + 1)

let rec keyword_or_ident src start len = function
  | [] -> Token.Ident (String.sub src start len)
  | (s, kw) :: rest -> if same_at s src start 0 then kw else keyword_or_ident src start len rest

let lex_ident st =
  let start = st.off in
  let stop = ref (start + 1) in
  while !stop < String.length st.src && is_ident_char (String.unsafe_get st.src !stop) do
    incr stop
  done;
  st.off <- !stop;
  let len = !stop - start in
  keyword_or_ident st.src start len (if len < Array.length keywords then keywords.(len) else [])

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

let start_of_text : Loc.pos = { line = 1; col = 0; off = 0 }

let tokenize ?(start = start_of_text) src =
  let st = { src; base = start.off; off = 0; line = start.line; bol = -start.col } in
  let rec go acc =
    skip_trivia st;
    let left = pos st in
    let kind = next_kind st in
    let right = pos st in
    let tok = { Token.kind; span = { Loc.left; right } } in
    match kind with Token.Eof -> List.rev (tok :: acc) | _ -> go (tok :: acc)
  in
  go []
