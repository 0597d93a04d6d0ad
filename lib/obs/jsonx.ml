type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Plain numbers, shared by the printer's round-trip check and the     *)
(* parser.                                                             *)

type reader = {
  src : string;
  mutable pos : int;
  (* the last plain number [scan_plain] accepted *)
  mutable neg : bool;
  mutable mant : int;
  mutable frac : int;  (* fraction digits; -1 for an integer *)
  mutable fresh : bool;  (* [read_obj] opened an object, no field read yet *)
}

let reader s : reader = { src = s; pos = 0; neg = false; mant = 0; frac = -1; fresh = false }

let is_numchar = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
let pow10 = [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14 |]

let digit_at s i =
  i < String.length s && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false

(* Fast path for the numbers the printer writes: [-]D+ with at most 18
   digits, or [-]D+.D+ with at most 15 digits in all, not followed by a
   byte that could continue a number.  Returns the token's end and leaves
   it in [neg]/[mant]/[frac], or -1 to leave the token to the general
   path.  Both forms have the value [int_of_string] / [float_of_string]
   give: 18 digits fit in an OCaml int, and a mantissa below 10^15
   divided by an exact power of ten is rounded once. *)
let scan_plain cur =
  let s = cur.src in
  let len = String.length s in
  let neg = cur.pos < len && s.[cur.pos] = '-' in
  let start = if neg then cur.pos + 1 else cur.pos in
  let p = ref start and m = ref 0 in
  while digit_at s !p && !p - start < 19 do
    m := (10 * !m) + Char.code s.[!p] - 48;
    incr p
  done;
  let int_digits = !p - start in
  let frac = ref (-1) in
  if int_digits > 0 && !p < len && s.[!p] = '.' then begin
    let f0 = !p + 1 in
    p := f0;
    while digit_at s !p && !p - f0 < 16 do
      m := (10 * !m) + Char.code s.[!p] - 48;
      incr p
    done;
    frac := !p - f0
  end;
  let plain =
    int_digits > 0
    && (if !frac < 0 then int_digits <= 18 else !frac > 0 && int_digits + !frac <= 15)
    && not (!p < len && is_numchar s.[!p])
  in
  if plain then begin
    cur.neg <- neg;
    cur.mant <- !m;
    cur.frac <- !frac;
    !p
  end
  else -1

let plain_int cur = if cur.neg then - cur.mant else cur.mant

let plain_float cur =
  if cur.frac < 0 then float_of_int (plain_int cur)
  else
    let v = float_of_int cur.mant /. pow10.(cur.frac) in
    if cur.neg then -.v else v

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let write_string buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let write_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

(* The C conversion behind Printf's "%g", without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal form that parses back to the same float.  An
   integral value below 1e16 prints as its digits plus ".0" — exactly
   what "%.1f" prints, sign of zero included — without Printf. *)
let write_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null" (* JSON has no NaN/inf *)
  else if Float.is_integer f && Float.abs f < 1e16 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_digits buf (int_of_float (Float.abs f));
    Buffer.add_string buf ".0"
  end
  else
    let s = format_float "%.15g" f in
    let cur = reader s in
    let back =
      if scan_plain cur = String.length s then plain_float cur else float_of_string s
    in
    Buffer.add_string buf (if back = f then s else format_float "%.17g" f)

let rec emit buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep () = Buffer.add_string buf (if indent then ",\n" else ", ") in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> write_int buf i
  | Float f -> write_float buf f
  | String s -> write_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then sep ();
          pad (level + 1);
          emit buf ~indent ~level:(level + 1) item)
        items;
      nl ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then sep ();
          pad (level + 1);
          write_string buf k;
          Buffer.add_string buf ": ";
          emit buf ~indent ~level:(level + 1) item)
        fields;
      nl ();
      pad level;
      Buffer.add_char buf '}'

let write buf v = emit buf ~indent:false ~level:0 v

let to_string ?(indent = true) v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None
let at cur c = cur.pos < String.length cur.src && String.unsafe_get cur.src cur.pos = c

let next cur =
  if cur.pos >= String.length cur.src then fail cur "unexpected end of input";
  let c = String.unsafe_get cur.src cur.pos in
  cur.pos <- cur.pos + 1;
  c

let rec skip_ws cur =
  if cur.pos < String.length cur.src then
    match String.unsafe_get cur.src cur.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        cur.pos <- cur.pos + 1;
        skip_ws cur
    | _ -> ()

let expect cur c = if next cur <> c then fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  String.iter (fun c -> if next cur <> c then fail cur ("bad literal " ^ word)) word;
  value

let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

(* Body of a string whose opening quote is consumed.  A body with no
   escape is one [String.sub]. *)
let parse_string cur =
  let s = cur.src and start = cur.pos in
  let rec plain i =
    if i >= String.length s then -1
    else match String.unsafe_get s i with '"' -> i | '\\' -> -1 | _ -> plain (i + 1)
  in
  let close = plain start in
  if close >= 0 then begin
    cur.pos <- close + 1;
    String.sub s start (close - start)
  end
  else begin
    let buf = Buffer.create 16 in
    let rec go () =
      match next cur with
      | '"' -> Buffer.contents buf
      | '\\' ->
          (match next cur with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let hex = String.init 4 (fun _ -> next cur) in
              let u =
                try int_of_string ("0x" ^ hex) with _ -> fail cur ("bad \\u escape " ^ hex)
              in
              utf8_of_code buf u
          | c -> fail cur (Printf.sprintf "bad escape '\\%c'" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  end

let parse_number cur =
  let stop = scan_plain cur in
  if stop >= 0 then begin
    cur.pos <- stop;
    if cur.frac < 0 then Int (plain_int cur) else Float (plain_float cur)
  end
  else begin
    let start = cur.pos in
    while cur.pos < String.length cur.src && is_numchar cur.src.[cur.pos] do
      cur.pos <- cur.pos + 1
    done;
    let s = String.sub cur.src start (cur.pos - start) in
    let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s in
    if is_float then
      match float_of_string_opt s with Some f -> Float f | None -> fail cur ("bad number " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail cur ("bad number " ^ s))
  end

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' ->
      cur.pos <- cur.pos + 1;
      String (parse_string cur)
  | Some '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match next cur with
          | ',' -> items (v :: acc)
          | ']' -> List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws cur;
          expect cur '"';
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          (k, parse_value cur)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws cur;
          match next cur with
          | ',' -> fields (kv :: acc)
          | '}' -> List.rev (kv :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some _ -> parse_number cur

let of_string s =
  let cur = reader s in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let tag = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let shape_error what v = raise (Parse_error (Printf.sprintf "expected %s, got %s" what (tag v)))

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | v -> shape_error ("object with member " ^ key) v

let get_int = function Int i -> i | v -> shape_error "int" v
let get_float = function Float f -> f | Int i -> float_of_int i | v -> shape_error "number" v
let get_string = function String s -> s | v -> shape_error "string" v
let get_list = function List l -> l | v -> shape_error "array" v
let get_obj = function Obj o -> o | v -> shape_error "object" v

(* ------------------------------------------------------------------ *)
(* Pull reader: the parser's cursor, one value at a time.  Each read   *)
(* takes the same path as [of_string] and fails where [get_*] would,   *)
(* naming the byte offset.                                             *)

let read_value cur = parse_value cur

let read_end cur =
  skip_ws cur;
  if cur.pos <> String.length cur.src then fail cur "trailing garbage"

let read_shape_error cur what v = fail cur (Printf.sprintf "expected %s, got %s" what (tag v))

let read_int cur =
  skip_ws cur;
  let stop = scan_plain cur in
  if stop >= 0 && cur.frac < 0 then begin
    cur.pos <- stop;
    plain_int cur
  end
  else match parse_value cur with Int i -> i | v -> read_shape_error cur "int" v

let read_float cur =
  skip_ws cur;
  let stop = scan_plain cur in
  if stop >= 0 then begin
    cur.pos <- stop;
    plain_float cur
  end
  else
    match parse_value cur with
    | Float f -> f
    | Int i -> float_of_int i
    | v -> read_shape_error cur "number" v

let read_string cur =
  skip_ws cur;
  if at cur '"' then begin
    cur.pos <- cur.pos + 1;
    parse_string cur
  end
  else read_shape_error cur "string" (parse_value cur)

let read_null cur =
  skip_ws cur;
  at cur 'n' && literal cur "null" true

let read_list cur f =
  skip_ws cur;
  expect cur '[';
  skip_ws cur;
  if at cur ']' then cur.pos <- cur.pos + 1
  else begin
    let rec items () =
      f cur;
      skip_ws cur;
      match next cur with
      | ',' -> items ()
      | ']' -> ()
      | _ -> fail cur "expected ',' or ']'"
    in
    items ()
  end

let read_obj cur f =
  skip_ws cur;
  expect cur '{';
  cur.fresh <- true;
  let v = f () in
  skip_ws cur;
  if next cur <> '}' then fail cur "expected '}' (unexpected field)";
  cur.fresh <- false;
  v

let read_field cur name =
  skip_ws cur;
  if cur.fresh then cur.fresh <- false
  else begin
    match next cur with
    | ',' -> ()
    | '}' -> fail cur (Printf.sprintf "missing field %S" name)
    | _ -> fail cur "expected ',' or '}'"
  end;
  skip_ws cur;
  expect cur '"';
  (* the expected key, unescaped, is matched in place *)
  let stop = cur.pos + String.length name in
  let rec same i =
    i = String.length name
    || (String.unsafe_get cur.src (cur.pos + i) = String.unsafe_get name i && same (i + 1))
  in
  if stop < String.length cur.src && String.unsafe_get cur.src stop = '"' && same 0 then
    cur.pos <- stop + 1
  else begin
    let key = parse_string cur in
    if not (String.equal key name) then
      fail cur (Printf.sprintf "expected field %S, got %S" name key)
  end;
  skip_ws cur;
  expect cur ':'
