(* Minimal JSON: enough to read BENCHMARK.json and print the suite's
   result line and span records. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f ->
      if not (Float.is_finite f) then invalid_arg "Json.to_string: non-finite number";
      Printf.sprintf "%.17g" f
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{" ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs) ^ "}"

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false) then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let lit word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' when !pos + 4 <= n ->
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code) else fail "non-ASCII escape"
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    let txt = String.sub s start (!pos - start) in
    match int_of_string_opt txt with
    | Some i -> Int i
    | None -> ( match float_of_string_opt txt with Some f -> Num f | None -> fail "bad number")
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec members acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
        end
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
        end
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> num ()
  in
  match value () with
  | v ->
      ws ();
      if !pos <> n then Error (Printf.sprintf "trailing bytes at byte %d" !pos) else Ok v
  | exception Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Num f -> Some f | _ -> None
