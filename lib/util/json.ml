(* JSON for the whole repo: a recursive-descent reader over a string
   and the writers every exporter renders with.  See json.mli for the
   supported subset (everything those writers emit). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

type state = { s : string; mutable pos : int }

let fail st msg = failwith (Printf.sprintf "Util.Json: %s at offset %d" msg st.pos)
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    if c = '"' then Buffer.contents b
    else if c = '\\' then begin
      (if st.pos >= String.length st.s then fail st "unterminated escape";
       let e = st.s.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 't' -> Buffer.add_char b '\t'
       | 'r' -> Buffer.add_char b '\r'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
           if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
           let digits = String.sub st.s st.pos 4 in
           let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
           if not (String.for_all is_hex digits) then fail st "bad \\u escape";
           let code = int_of_string ("0x" ^ digits) in
           st.pos <- st.pos + 4;
           (* The writers only escape control bytes, so a raw-byte
              decoding round-trips everything this repo produces. *)
           if code < 0x100 then Buffer.add_char b (Char.chr code)
           else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
       | _ -> fail st "unknown escape");
      go ()
    end
    else begin
      Buffer.add_char b c;
      go ()
    end
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.s && is_num_char st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail st "expected a number";
  match float_of_string_opt (String.sub st.s start (st.pos - start)) with
  | Some f -> f
  | None -> fail st "malformed number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        Arr (elems [])
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let parse_opt s = try Some (parse s) with Failure _ -> None
let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function
  | Num f -> Some f
  | Bool b -> Some (if b then 1. else 0.)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
let to_list = function Arr l -> l | _ -> []

(* ---------- writers ---------- *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let num x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> "null"
  | _ -> Printf.sprintf "%.6f" x

let int = string_of_int
let bool = string_of_bool
let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat ", " items ^ "]"
