let keywords =
  [
    ("int", Token.KW_int); ("uint", Token.KW_uint); ("char", Token.KW_char);
    ("void", Token.KW_void); ("struct", Token.KW_struct);
    ("const", Token.KW_const); ("if", Token.KW_if); ("else", Token.KW_else);
    ("while", Token.KW_while); ("do", Token.KW_do); ("for", Token.KW_for);
    ("return", Token.KW_return); ("break", Token.KW_break);
    ("continue", Token.KW_continue); ("switch", Token.KW_switch);
    ("case", Token.KW_case); ("default", Token.KW_default);
    ("sizeof", Token.KW_sizeof); ("goto", Token.KW_goto);
    ("asm", Token.KW_asm); ("__asm__", Token.KW_asm);
  ]

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let loc st = { Srcloc.line = st.line; col = st.col }
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '/' when peek2 st = Some '/' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_ws st
  | Some '/' when peek2 st = Some '*' ->
    let start = loc st in
    advance st;
    advance st;
    let rec to_close () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | None, _ -> Srcloc.errf start "unterminated comment"
      | _ ->
        advance st;
        to_close ()
    in
    to_close ();
    skip_ws st
  | _ -> ()

(* WearC ints are 16 bits wide: a literal past 0xFFFF is an error
   here, rather than a value that wraps later or overflows the host. *)
let int_literal l text =
  match int_of_string_opt text with
  | Some n when n <= 0xFFFF -> Token.INT_LIT n
  | _ -> Srcloc.errf l "integer literal %s does not fit in 16 bits" text

let lex_number st =
  let l = loc st in
  let start = st.pos in
  let hex =
    peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X')
  in
  let digit = if hex then is_hex else is_digit in
  if hex then begin
    advance st;
    advance st
  end;
  while (match peek st with Some c -> digit c | None -> false) do
    advance st
  done;
  if hex && st.pos = start + 2 then Srcloc.errf l "malformed hex literal";
  int_literal l (String.sub st.src start (st.pos - start))

let lex_escape st l =
  match peek st with
  | Some 'n' -> advance st; Char.code '\n'
  | Some 't' -> advance st; Char.code '\t'
  | Some 'r' -> advance st; Char.code '\r'
  | Some '0' -> advance st; 0
  | Some '\\' -> advance st; Char.code '\\'
  | Some '\'' -> advance st; Char.code '\''
  | Some '"' -> advance st; Char.code '"'
  | _ -> Srcloc.errf l "unknown escape sequence"

let lex_char st =
  let l = loc st in
  advance st (* opening quote *);
  let code =
    match peek st with
    | Some '\\' ->
      advance st;
      lex_escape st l
    | Some c ->
      advance st;
      Char.code c
    | None -> Srcloc.errf l "unterminated char literal"
  in
  (match peek st with
  | Some '\'' -> advance st
  | _ -> Srcloc.errf l "unterminated char literal");
  Token.CHAR_LIT code

let lex_string st =
  let l = loc st in
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      Buffer.add_char buf (Char.chr (lex_escape st l));
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
    | None -> Srcloc.errf l "unterminated string literal"
  in
  go ();
  Token.STRING_LIT (Buffer.contents buf)

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match List.assoc_opt s keywords with
  | Some kw -> kw
  | None -> Token.IDENT s

(* Multi-character operators, longest first. *)
let operators =
  [
    ("<<=", Token.LSHIFT_ASSIGN); (">>=", Token.RSHIFT_ASSIGN);
    ("->", Token.ARROW); ("++", Token.PLUSPLUS); ("--", Token.MINUSMINUS);
    ("<<", Token.LSHIFT); (">>", Token.RSHIFT); ("<=", Token.LE);
    (">=", Token.GE); ("==", Token.EQEQ); ("!=", Token.NEQ);
    ("&&", Token.ANDAND); ("||", Token.OROR); ("+=", Token.PLUS_ASSIGN);
    ("-=", Token.MINUS_ASSIGN); ("*=", Token.STAR_ASSIGN);
    ("/=", Token.SLASH_ASSIGN); ("%=", Token.PERCENT_ASSIGN);
    ("&=", Token.AMP_ASSIGN); ("|=", Token.PIPE_ASSIGN);
    ("^=", Token.CARET_ASSIGN);
    ("(", Token.LPAREN); (")", Token.RPAREN); ("{", Token.LBRACE);
    ("}", Token.RBRACE); ("[", Token.LBRACKET); ("]", Token.RBRACKET);
    (";", Token.SEMI); (",", Token.COMMA); (".", Token.DOT);
    ("?", Token.QUESTION); (":", Token.COLON); ("+", Token.PLUS);
    ("-", Token.MINUS); ("*", Token.STAR); ("/", Token.SLASH);
    ("%", Token.PERCENT); ("&", Token.AMP); ("|", Token.PIPE);
    ("^", Token.CARET); ("~", Token.TILDE); ("!", Token.BANG);
    ("<", Token.LT); (">", Token.GT); ("=", Token.ASSIGN);
  ]

let lex_operator st =
  let l = loc st in
  let matches op =
    let n = String.length op in
    st.pos + n <= String.length st.src && String.sub st.src st.pos n = op
  in
  match List.find_opt (fun (op, _) -> matches op) operators with
  | Some (op, tok) ->
    String.iter (fun _ -> advance st) op;
    tok
  | None -> Srcloc.errf l "unexpected character %C" st.src.[st.pos]

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let rec go acc =
    skip_ws st;
    let l = loc st in
    match peek st with
    | None -> List.rev ({ Token.tok = Token.EOF; loc = l } :: acc)
    | Some c ->
      let tok =
        if is_digit c then lex_number st
        else if is_ident_start c then lex_ident st
        else if c = '\'' then lex_char st
        else if c = '"' then lex_string st
        else lex_operator st
      in
      go ({ Token.tok; loc = l } :: acc)
  in
  go []
