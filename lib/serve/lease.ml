module Atomic_io = Repro_util.Atomic_io
module Clock = Repro_util.Clock
module Fault = Repro_util.Fault
module Json = Repro_util.Json_lite

type t = {
  dir : string;
  id : string;
  host : string;
  pid : int;
  ttl : float;
  lock : Mutex.t;
  mutable seq : int;
  mutable last_write : float;
}

type view = {
  id : string;
  host : string;
  pid : int;
  seq : int;
  ttl : float;
  updated : float;
  released : bool;
  fields : (string * Json.t) list;
}

(* Computed once at module initialisation, never lazily: a [lazy]
   forced by two domains at once raises [CamlinternalLazy.Undefined]. *)
let hostname = try Unix.gethostname () with Unix.Unix_error _ -> "?"

(* The nonce wants uniqueness across incarnations, not reproducibility:
   two daemons restarted within the same second on the same pid (fork
   churn) must still get distinct ids. *)
let nonce_counter = Atomic.make 0

let fresh_id () =
  let nonce =
    Hashtbl.hash
      ( Unix.gettimeofday (),
        Unix.getpid (),
        Atomic.fetch_and_add nonce_counter 1 )
    land 0xffffff
  in
  Printf.sprintf "%s-%d-%06x" hostname (Unix.getpid ()) nonce

let validate_id id =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
    | _ -> false
  in
  if id = "" then Error "lease id wants to be non-empty"
  else if id.[0] = '.' then
    Error (Printf.sprintf "lease id %S wants no leading dot" id)
  else if not (String.for_all ok_char id) then
    Error
      (Printf.sprintf
         "lease id %S wants only letters, digits, dot, underscore, dash" id)
  else Ok id

let mkdir_p dir =
  let rec make dir =
    if not (Sys.file_exists dir) then begin
      make (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let path_in dir id = Filename.concat dir (id ^ ".json")
let path (t : t) = path_in t.dir t.id
let id (t : t) = t.id

let seq (t : t) =
  Mutex.lock t.lock;
  let s = t.seq in
  Mutex.unlock t.lock;
  s

let write (t : t) ~seq ~released ~fields =
  let open Json in
  Atomic_io.write_string (path t)
    (obj
       ([
          ("id", Str t.id);
          ("host", Str t.host);
          ("pid", num_int t.pid);
          ("seq", num_int seq);
          ("ttl", Num t.ttl);
          ("updated", Num (Clock.wall ()));
        ]
        @ (if released then [ ("released", Bool true) ] else [])
        @ fields)
    ^ "\n")

let acquire ?id ~dir ~ttl () =
  if not (Float.is_finite ttl && ttl > 0.0) then
    invalid_arg "Lease.acquire: ttl wants to be positive";
  let id =
    match id with
    | None -> fresh_id ()
    | Some given -> (
      match validate_id given with
      | Ok id -> id
      | Error msg -> invalid_arg ("Lease.acquire: " ^ msg))
  in
  mkdir_p dir;
  let t =
    {
      dir;
      id;
      host = hostname;
      pid = Unix.getpid ();
      ttl;
      lock = Mutex.create ();
      seq = 0;
      last_write = 0.0;
    }
  in
  write t ~seq:0 ~released:false ~fields:[];
  t.last_write <- Clock.wall ();
  t

let refresh ?(fields = []) t =
  let seq =
    Mutex.lock t.lock;
    t.seq <- t.seq + 1;
    let s = t.seq in
    Mutex.unlock t.lock;
    s
  in
  (* The armed point fires before the write: the simulated crash leaves
     the previous lease file on disk, exactly like a real kill. *)
  Fault.check Fault.Lease seq;
  write t ~seq ~released:false ~fields;
  t.last_write <- Clock.wall ()

let maybe_refresh ?fields t =
  if Clock.wall () -. t.last_write >= t.ttl /. 3.0 then
    refresh ?fields:(Option.map (fun f -> f ()) fields) t

let release ?(fields = []) t =
  let seq =
    Mutex.lock t.lock;
    t.seq <- t.seq + 1;
    let s = t.seq in
    Mutex.unlock t.lock;
    s
  in
  write t ~seq ~released:true ~fields

(* ---- reading leases back (ours or a peer's) ----------------------- *)

let view_of_fields fields =
  let need what = Error (Printf.sprintf "lease file wants %s" what) in
  match
    ( Json.str_field fields "id",
      Json.int_field fields "pid",
      Json.int_field fields "seq",
      Json.num_field fields "ttl",
      Json.num_field fields "updated" )
  with
  | None, _, _, _, _ -> need "a string \"id\""
  | _, None, _, _, _ -> need "an integer \"pid\""
  | _, _, None, _, _ -> need "an integer \"seq\""
  | _, _, _, None, _ -> need "a number \"ttl\""
  | _, _, _, _, None -> need "a number \"updated\""
  | Some id, Some pid, Some seq, Some ttl, Some updated ->
    Ok
      {
        id;
        host = Option.value ~default:"?" (Json.str_field fields "host");
        pid;
        seq;
        ttl;
        updated;
        released =
          Option.value ~default:false (Json.bool_field fields "released");
        fields;
      }

let load file =
  Result.bind (Atomic_io.read_file file) (fun text ->
      Result.bind (Json.parse_obj text) view_of_fields)

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter (fun name -> Filename.check_suffix name ".json")
    |> List.sort compare
    |> List.map (fun name -> (name, load (Filename.concat dir name)))

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  (* EPERM: the pid exists but belongs to someone else. *)
  | exception Unix.Unix_error (_, _, _) -> true

let alive ~now (v : view) =
  (not v.released)
  && now -. v.updated < v.ttl
  (* A dead pid on our own host short-circuits the ttl wait: the
     daemon is provably gone, its claims are reclaimable now. *)
  && (v.host <> hostname || pid_alive v.pid)

(* ---- cross-host death detection: the observation ledger ----------- *)

(* [alive] trusts the peer's own [updated] stamp, which is written with
   the peer's wall clock — a skewed remote host can stamp itself into
   the future and look fresh forever, and its pid is unreachable from
   here so the dead-pid shortcut never applies.  The ledger removes
   that trust: the observer records, in its OWN clock, when it first
   saw each peer's current seq.  A live daemon refreshes at ttl/3, so
   over any window of one full ttl (observer time) a live peer's seq
   advances at least once.  Contrapositive: a seq stagnant for a full
   ttl of observer-local time means the peer stopped writing — it is
   dead or partitioned, and its lease contract (refresh within ttl or
   lose your claims) is broken either way.  The argument never reads
   the peer's clock, so it is immune to skew. *)
module Ledger = struct
  type entry = { seq : int; since : float }
  type t = (string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 7

  let observe (ledger : t) ~now (v : view) =
    match Hashtbl.find_opt ledger v.id with
    | Some e when e.seq = v.seq -> ()
    | _ -> Hashtbl.replace ledger v.id { seq = v.seq; since = now }

  (* Only meaningful after [observe v] in the same pass: a view whose
     seq the ledger has never seen is, by definition, fresh. *)
  let stalled (ledger : t) ~now (v : view) =
    match Hashtbl.find_opt ledger v.id with
    | Some e -> e.seq = v.seq && now -. e.since >= v.ttl
    | None -> false

  let observed (ledger : t) id =
    Option.map (fun e -> (e.seq, e.since)) (Hashtbl.find_opt ledger id)
end

let alive_observed ~ledger ~now (v : view) =
  Ledger.observe ledger ~now v;
  alive ~now v && not (Ledger.stalled ledger ~now v)
