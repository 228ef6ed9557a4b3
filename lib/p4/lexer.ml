exception Error of string * Loc.pos

(* The cursor. [tok_off] and [off] index [src]; [base] is the offset of
   [src]'s first byte in the text the positions count in (non-zero when
   lexing starts after a prelude). [tok_*] is the current token's left
   end and [off], [line], [bol] its right end, which is also where the
   scan resumes: trivia is skipped by the next [advance]. A [bol] is the
   index just past the last newline before that end (negative on a first
   line that starts mid-line), so a position's column is [off - bol] and
   only a newline touches the line state. *)
type t = {
  src : string;
  base : int;
  mutable kind : Token.kind;
  mutable tok_off : int;
  mutable tok_line : int;
  mutable tok_bol : int;
  mutable off : int;
  mutable line : int;
  mutable bol : int;
}

let pos c : Loc.pos = { line = c.line; col = c.off - c.bol; off = c.base + c.off }
let tok_pos c : Loc.pos = { line = c.tok_line; col = c.tok_off - c.tok_bol; off = c.base + c.tok_off }
let span c : Loc.span = { left = tok_pos c; right = pos c }

(* Bounds-checked character tests: a NUL byte inside the source is an
   ordinary character, never end of input. *)
let[@inline] has c k = c.off + k < String.length c.src
let[@inline] get c k = String.unsafe_get c.src (c.off + k)
let[@inline] at c k ch = has c k && Char.equal (get c k) ch

(* Step over [n] characters known not to be newlines. *)
let[@inline] skip c n = c.off <- c.off + n

let error c msg = raise (Error (msg, pos c))

(* Byte classes: 1 starts an identifier, 2 is a decimal digit, 0 is
   anything else; both non-zero classes continue an identifier. *)
let classes =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> '\001'
      | '0' .. '9' -> '\002'
      | _ -> '\000')

let[@inline] class_of ch = Char.code (String.unsafe_get classes (Char.code ch))
let[@inline] is_ident_start ch = class_of ch = 1
let[@inline] is_digit ch = class_of ch = 2
let[@inline] is_ident_char ch = class_of ch <> 0

(* A byte's value as a digit of bases up to 16; 255 when it is none, so
   [digit_value ch < base] tests for a digit of [base]. *)
let digit_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - Char.code '0')
      | 'a' .. 'f' -> Char.chr (i - Char.code 'a' + 10)
      | 'A' .. 'F' -> Char.chr (i - Char.code 'A' + 10)
      | _ -> '\255')

let[@inline] digit_value ch = Char.code (String.unsafe_get digit_values (Char.code ch))

(* Whitespace and comments, scanned over local ints and written back to
   the cursor once. *)
let skip_trivia c =
  let src = c.src in
  let n = String.length src in
  let i = ref c.off and line = ref c.line and bol = ref c.bol in
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
  c.off <- !i;
  c.line <- !line;
  c.bol <- !bol;
  if !unterminated then error c "unterminated comment"

(* Numbers: 42, 0x2A, 0b1010, 0o52, and width-prefixed 8w255 / 4s7 /
   8w0xFF. We lex a digit run first; a following [w]/[s] turns it into a
   width prefix. *)

(* Steps over a 0x/0b/0o prefix and returns the base it names; 10 when
   there is none. *)
let radix c =
  if at c 0 '0' && has c 1 then
    match get c 1 with
    | 'x' | 'X' ->
        skip c 2;
        16
    | 'b' | 'B' ->
        skip c 2;
        2
    | 'o' | 'O' ->
        skip c 2;
        8
    | _ -> 10
  else 10

(* Steps over a digit run of [base] with '_' separators and returns its
   value in an int while it is below 2^57, where [v * base + d] cannot
   overflow; -1 past that, for [value] to read the run again. *)
let digit_run c base =
  let src = c.src in
  let n = String.length src in
  let i = ref c.off and v = ref 0 and any = ref false and digits = ref true in
  while !digits && !i < n do
    let ch = String.unsafe_get src !i in
    let d = digit_value ch in
    if d < base then begin
      any := true;
      if !v >= 0 then v := if !v < 1 lsl 57 then (!v * base) + d else -1;
      incr i
    end
    else if Char.equal ch '_' then incr i
    else digits := false
  done;
  c.off <- !i;
  if not !any then error c "malformed number";
  !v

(* The value of the run of [base] that [digit_run] read from [start]
   to [stop] and returned as [small], wrapping modulo 2^64 as [Int64]
   arithmetic does. Only a run of 2^57 or more is read again. *)
let value src start stop base small =
  if small >= 0 then Int64.of_int small
  else begin
    let v = ref 0L in
    for i = start to stop - 1 do
      let d = digit_value (String.unsafe_get src i) in
      if d < base then v := Int64.add (Int64.mul !v (Int64.of_int base)) (Int64.of_int d)
    done;
    !v
  end

let check_width w =
  if w >= 1L && w <= 8192L then None
  else Some (Printf.sprintf "invalid width %Ld" w)

(* A width prefix is checked here, where it is still exact, before it
   becomes an int. *)
let lex_number c =
  let base = radix c in
  let start = c.off in
  let first = digit_run c base in
  let stop = c.off in
  let signed = at c 0 's' && has c 1 && is_digit (get c 1) in
  if signed || at c 0 'w' then begin
    skip c 1;
    let vbase = radix c in
    let vstart = c.off in
    let v = digit_run c vbase in
    match check_width (value c.src start stop base first) with
    | Some msg -> raise (Error (msg, tok_pos c))
    | None -> Token.Int { value = value c.src vstart c.off vbase v; width = Some first; signed }
  end
  else Token.Int { value = value c.src start stop base first; width = None; signed = false }

(* Step over the current character, which may be a newline. *)
let advance_char c =
  if at c 0 '\n' then begin
    c.line <- c.line + 1;
    c.bol <- c.off + 1
  end;
  c.off <- c.off + 1

let lex_string c =
  skip c 1 (* opening quote *);
  let buf = Buffer.create 16 in
  let add ch =
    Buffer.add_char buf ch;
    advance_char c
  in
  let rec go () =
    if not (has c 0) then error c "unterminated string"
    else
      match get c 0 with
      | '"' -> skip c 1
      | '\\' ->
          skip c 1;
          if not (has c 0) then error c "unterminated string"
          else begin
            (match get c 0 with
            | 'n' -> add '\n'
            | 't' -> add '\t'
            | ch -> add ch);
            go ()
          end
      | ch ->
          add ch;
          go ()
  in
  go ();
  Token.String (Buffer.contents buf)

(* [Token.keyword_table] by length and first byte, at most three
   keywords a bucket. An identifier is compared in place with the
   keywords of its bucket, so a keyword allocates no string and no
   identifier is hashed. *)
let longest_keyword = List.fold_left (fun m (s, _) -> max m (String.length s)) 0 Token.keyword_table
let[@inline] bucket len first = (len lsl 8) lor Char.code first

let keywords =
  let t = Array.make ((longest_keyword + 1) lsl 8) [] in
  List.iter
    (fun ((s, _) as kw) ->
      let b = bucket (String.length s) s.[0] in
      t.(b) <- t.(b) @ [ kw ])
    Token.keyword_table;
  t

let rec keyword_or_ident src start len = function
  | [] -> Token.Ident (String.sub src start len)
  | (s, kw) :: rest ->
      let i = ref 1 in
      while !i < len && Char.equal (String.unsafe_get s !i) (String.unsafe_get src (start + !i)) do
        incr i
      done;
      if !i = len then kw else keyword_or_ident src start len rest

let lex_ident c =
  let src = c.src in
  let n = String.length src in
  let start = c.off in
  let stop = ref (start + 1) in
  while !stop < n && is_ident_char (String.unsafe_get src !stop) do
    incr stop
  done;
  c.off <- !stop;
  let len = !stop - start in
  if len > longest_keyword then Token.Ident (String.sub src start len)
  else keyword_or_ident src start len keywords.(bucket len (String.unsafe_get src start))

let[@inline] one c k =
  skip c 1;
  k

(* One- or two-character operator: [long] when the next character is
   [second], else [short]. *)
let op2 c second long short =
  if at c 1 second then begin
    skip c 2;
    long
  end
  else begin
    skip c 1;
    short
  end

let next_kind c : Token.kind =
  if not (has c 0) then Token.Eof
  else
    match get c 0 with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident c
    | '0' .. '9' -> lex_number c
    | '"' -> lex_string c
    | '(' -> one c Token.LParen
    | ')' -> one c Token.RParen
    | '{' -> one c Token.LBrace
    | '}' -> one c Token.RBrace
    | '[' -> one c Token.LBracket
    | ']' -> one c Token.RBracket
    | ';' -> one c Token.Semi
    | ':' -> one c Token.Colon
    | ',' -> one c Token.Comma
    | '.' -> one c Token.Dot
    | '@' -> one c Token.At
    | '?' -> one c Token.Question
    | '~' -> one c Token.Tilde
    | '^' -> one c Token.Caret
    | '%' -> one c Token.Percent
    | '/' -> one c Token.Slash
    | '*' -> one c Token.Star
    | '-' -> one c Token.Minus
    | '+' -> op2 c '+' Token.PlusPlus Token.Plus
    | '=' -> op2 c '=' Token.Eq Token.Assign
    | '!' -> op2 c '=' Token.Neq Token.Not
    | '<' when at c 1 '<' ->
        skip c 2;
        Token.Shl
    | '<' -> op2 c '=' Token.Le Token.LAngle
    (* Always lex a single '>' — the parser reassembles adjacent pairs into
       a right-shift, so nested generics close cleanly. *)
    | '>' -> op2 c '=' Token.Ge Token.RAngle
    | '&' ->
        if not (at c 1 '&') then one c Token.Amp
        else if at c 2 '&' then begin
          skip c 3;
          Token.MaskAnd
        end
        else begin
          skip c 2;
          Token.AndAnd
        end
    | '|' -> op2 c '|' Token.OrOr Token.Pipe
    | ch -> error c (Printf.sprintf "unexpected character %C" ch)

let advance c =
  skip_trivia c;
  c.tok_off <- c.off;
  c.tok_line <- c.line;
  c.tok_bol <- c.bol;
  c.kind <- next_kind c

let start_of_text : Loc.pos = { line = 1; col = 0; off = 0 }

let make ?(start = start_of_text) src =
  let line = start.line and bol = -start.col in
  let c =
    { src; base = start.off; kind = Token.Eof; tok_off = 0; tok_line = line; tok_bol = bol; off = 0; line; bol }
  in
  advance c;
  c

let peek c =
  let kind = c.kind and tok_off = c.tok_off and tok_line = c.tok_line and tok_bol = c.tok_bol in
  let off = c.off and line = c.line and bol = c.bol in
  advance c;
  let next = c.kind in
  c.kind <- kind;
  c.tok_off <- tok_off;
  c.tok_line <- tok_line;
  c.tok_bol <- tok_bol;
  c.off <- off;
  c.line <- line;
  c.bol <- bol;
  next

(* The next token is a '>' exactly when the scan resumes at a '>' that
   does not start '>='. *)
let at_shr c = c.kind == Token.RAngle && at c 0 '>' && not (at c 1 '=')

let text c = String.sub c.src c.tok_off (c.off - c.tok_off)

let is_keyword c =
  (match c.kind with Token.Ident _ -> false | _ -> true)
  && c.tok_off < String.length c.src
  && is_ident_start (String.unsafe_get c.src c.tok_off)

type mark = t

let mark c = { c with kind = c.kind }

let reset c (m : mark) =
  c.kind <- m.kind;
  c.tok_off <- m.tok_off;
  c.tok_line <- m.tok_line;
  c.tok_bol <- m.tok_bol;
  c.off <- m.off;
  c.line <- m.line;
  c.bol <- m.bol

let rec drain c =
  if c.kind != Token.Eof then begin
    advance c;
    drain c
  end

let tokenize src =
  let c = make src in
  let rec go acc =
    let tok = { Token.kind = c.kind; span = span c } in
    if c.kind == Token.Eof then List.rev (tok :: acc)
    else begin
      advance c;
      go (tok :: acc)
    end
  in
  go []
