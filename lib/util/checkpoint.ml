let version = 1
let magic = "REPRO-CKPT"

(* Table-driven CRC-32 (IEEE 802.3 polynomial, reflected).  The table
   is built at module initialisation, never lazily: a [lazy] forced by
   two domains at once raises [CamlinternalLazy.Undefined]. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let crc = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let index =
        Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl)
      in
      crc := Int32.logxor crc_table.(index) (Int32.shift_right_logical !crc 8))
    s;
  Int32.logxor !crc 0xFFFFFFFFl

let crc32_hex s = Printf.sprintf "%08lx" (crc32 s)

let valid_kind kind =
  kind <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_')
       kind

let to_string ~kind payload =
  if not (valid_kind kind) then invalid_arg "Checkpoint.save: bad kind";
  Printf.sprintf "%s %d %s %d %s\n%s" magic version kind
    (String.length payload) (crc32_hex payload) payload

let save path ~kind payload =
  Atomic_io.write_string path (to_string ~kind payload)

let ( let* ) = Result.bind

(* [source] names the contents in every diagnostic: a path, or what
   the caller embedded them in. *)
let parse source contents =
  let* header, payload =
    match String.index_opt contents '\n' with
    | None when contents = "" -> Error (source ^ ": empty checkpoint file")
    | Some i ->
      Ok
        ( String.sub contents 0 i,
          String.sub contents (i + 1) (String.length contents - i - 1) )
    | None -> Error (source ^ ": not a checkpoint file (no header)")
  in
  match String.split_on_char ' ' header with
  | [ m; v; k; len; crc ] ->
    if m <> magic then Error (source ^ ": not a checkpoint file")
    else if int_of_string_opt v <> Some version then
      Error
        (Printf.sprintf "%s: unsupported checkpoint version %s (want %d)"
           source v version)
    else if int_of_string_opt len <> Some (String.length payload) then
      Error (source ^ ": truncated checkpoint (length mismatch)")
    else if crc <> crc32_hex payload then
      Error (source ^ ": corrupt checkpoint (CRC mismatch)")
    else Ok (k, payload)
  | _ -> Error (source ^ ": not a checkpoint file (malformed header)")

let check_kind source ~kind (k, payload) =
  if k <> kind then
    Error (Printf.sprintf "%s: checkpoint kind %S, expected %S" source k kind)
  else Ok payload

let inspect path = Result.bind (Atomic_io.read_file path) (parse path)

let load path ~kind = Result.bind (inspect path) (check_kind path ~kind)

let of_string ~source ~kind contents =
  Result.bind (parse source contents) (check_kind source ~kind)
