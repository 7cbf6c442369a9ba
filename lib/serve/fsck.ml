module Atomic_io = Repro_util.Atomic_io
module Checkpoint = Repro_util.Checkpoint
module Clock = Repro_util.Clock
module Fault = Repro_util.Fault
module Json = Repro_util.Json_lite

(* The spool auditor: every invariant DESIGN.md §5 asserts about the
   on-disk state, checked (dry run) or enforced (--repair).  fsck owns
   INTEGRITY — damaged bytes, orphaned sidecars, duplicated outcomes —
   and deliberately leaves LIVENESS (whose claims belong to dead
   daemons) to [Spool.reclaim]: the two sweeps compose on the same
   daemon tick, and keeping them apart means fsck never needs a lease
   of its own and is safe to run concurrently with a working fleet.

   Repairs are chosen so one pass converges: a second run over the
   repaired spool finds nothing (report-only findings — states with no
   safe repair, like a damaged result whose job spec is gone — are the
   only ones that persist).  An armed [Fault.Fsck] point fires before
   the matching repair, so the chaos drill can crash the auditor
   mid-pass and prove idempotence. *)

type remedy = Remove | Quarantine | Cleanup | Report

let remedy_name = function
  | Remove -> "remove"
  | Quarantine -> "quarantine"
  | Cleanup -> "cleanup"
  | Report -> "report"

type finding = {
  path : string;  (** relative to the spool root *)
  invariant : string;
  detail : string;
  remedy : remedy;
  applied : bool;  (** the remedy ran (always false in a dry run) *)
}

type audit = {
  root : string;
  repair : bool;
  scanned : int;
  findings : finding list;
}

let clean audit = audit.findings = []

(* ---- small filesystem helpers ------------------------------------ *)

let entries dir =
  match Sys.readdir dir with
  | listing -> Array.to_list listing |> List.sort compare
  | exception Sys_error _ -> []

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let is_temp name = contains_sub name ".tmp."
let is_job_file name = Filename.check_suffix name ".json"
let is_stamp name = Filename.check_suffix name ".claim"
let is_reason name = Filename.check_suffix name ".reason.json"

(* work/<base>.ckpt, work/<base>.r<i>.ckpt, and any <base>.ckpt.<x>
   an older build left behind — the job file a checkpoint-ish entry
   belongs to. *)
let ckpt_job_file entry =
  let rec find i =
    if i + 5 > String.length entry then None
    else if String.sub entry i 5 = ".ckpt" then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let stem = String.sub entry 0 i in
    let stem =
      match String.rindex_opt stem '.' with
      | Some d
        when d + 2 <= String.length stem
             && stem.[d + 1] = 'r'
             && String.for_all
                  (function '0' .. '9' -> true | _ -> false)
                  (String.sub stem (d + 2) (String.length stem - d - 2))
             && String.length stem > d + 2 ->
        String.sub stem 0 d
      | _ -> stem
    in
    if stem = "" then None else Some (stem ^ ".json")

let parses text = Result.is_ok (Json.parse_obj text)

let file_parses path =
  match Atomic_io.read_file path with
  | Error _ -> false
  | Ok text -> parses text

let same_content a b =
  match (Atomic_io.read_file a, Atomic_io.read_file b) with
  | Ok x, Ok y -> x = y
  | _ -> false

(* ---- the audit pass ---------------------------------------------- *)

let run ?(repair = false) ?now (t : Spool.t) =
  let now = match now with Some n -> n | None -> Clock.wall () in
  (* Quarantine renames into failed/, which a producer-built spool
     (bare jobs/) may not have yet; a dry run must not create it. *)
  if repair then begin
    match Unix.mkdir t.Spool.failed_dir 0o755 with
    | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) -> ()
  end;
  let findings = ref [] in
  let scanned = ref 0 in
  let repairs = ref 0 in
  let rel dir name =
    let sub =
      if dir = t.Spool.root then name
      else
        Filename.concat
          (String.sub dir
             (String.length t.Spool.root + 1)
             (String.length dir - String.length t.Spool.root - 1))
          name
    in
    sub
  in
  let note ~dir ~name ~invariant ~detail ~remedy apply =
    let applied =
      repair && remedy <> Report
      && begin
           (* The mid-repair crash site: fires BEFORE the repair, so a
              killed pass leaves this and every later finding intact
              for the next run. *)
           Fault.check Fault.Fsck !repairs;
           incr repairs;
           apply ();
           true
         end
    in
    findings :=
      { path = rel dir name; invariant; detail; remedy; applied } :: !findings
  in
  let see () = incr scanned in
  let bands = Spool.bands t in
  let queued_somewhere name = Spool.find_queued t name <> None in
  let work = Spool.work_path t in
  let result = Spool.result_path t in
  let failed = Spool.failed_path t in
  let reason_file name = Filename.remove_extension name ^ ".reason.json" in

  (* 1. Stale atomic-write temp files, every directory.  A live writer
     renames within milliseconds; a minute of age proves a hard kill. *)
  let sweep_temps dir =
    List.iter
      (fun name ->
        if is_temp name then begin
          see ();
          let path = Filename.concat dir name in
          match Unix.stat path with
          | exception Unix.Unix_error _ -> ()
          | stat ->
            if now -. stat.Unix.st_mtime >= 60.0 then
              note ~dir ~name ~invariant:"stale-temp"
                ~detail:"atomic-write temp file orphaned by a hard kill"
                ~remedy:Remove (fun () -> remove_if_exists path)
        end)
      (entries dir)
  in
  List.iter sweep_temps
    (List.map (Spool.band_dir t) bands
    @ [ t.Spool.work_dir; t.Spool.results_dir; t.Spool.failed_dir;
        t.Spool.daemons_dir ]);

  (* 2. Damaged lease files: unreadable heartbeats protect nothing and
     confuse status; the daemon that owns one rewrites it on its next
     refresh. *)
  List.iter
    (fun name ->
      if is_job_file name then begin
        see ();
        let path = Filename.concat t.Spool.daemons_dir name in
        match Lease.load path with
        | Ok _ -> ()
        | Error msg ->
          note ~dir:t.Spool.daemons_dir ~name ~invariant:"damaged-lease"
            ~detail:msg ~remedy:Remove (fun () -> remove_if_exists path)
      end)
    (entries t.Spool.daemons_dir);
  let lease_seq owner =
    match
      Lease.load (Filename.concat t.Spool.daemons_dir (owner ^ ".json"))
    with
    | Ok v -> Some v.Lease.seq
    | Error _ -> None
  in

  (* 3. work/: claims, stamps, checkpoints.

     The listing below is a snapshot, but live peers keep claiming and
     finishing while we scan: readdir can tear (a fresh stamp listed,
     the job file renamed in an instant earlier not), and files vanish
     between the listing and the check.  The protocol itself never
     passes through stamp-without-job (claim renames the job in before
     stamping; finish removes the stamp first), so every condition
     here re-reads the filesystem at check time instead of trusting
     the snapshot — a finding must hold in a *consistent* state. *)
  let work_entries = entries t.Spool.work_dir in
  let work_has name = Sys.file_exists (Filename.concat t.Spool.work_dir name) in
  List.iter
    (fun name ->
      if is_stamp name then begin
        see ();
        let job_file = Filename.remove_extension name ^ ".json" in
        let stamp_path = Filename.concat t.Spool.work_dir name in
        if not (work_has job_file) then begin
          if Sys.file_exists stamp_path then
            note ~dir:t.Spool.work_dir ~name ~invariant:"orphan-stamp"
              ~detail:"claim stamp without a claimed job file" ~remedy:Remove
              (fun () ->
                (* Guarded apply: a peer may have claimed this very
                   name since the check; only a still-orphaned stamp
                   is removed. *)
                if not (work_has job_file) then remove_if_exists stamp_path)
        end
        else
          match Spool.read_claim_stamp t job_file with
          | Error msg ->
            (* Degrade to a stamp-less claim: reclaim's grace window
               takes over; a live owner re-commits through the fence
               and simply loses the fence (counted, never lost).  A
               stamp a peer's finish removed mid-scan is not damage. *)
            if Sys.file_exists stamp_path then
              note ~dir:t.Spool.work_dir ~name ~invariant:"damaged-stamp"
                ~detail:msg ~remedy:Remove (fun () ->
                  remove_if_exists stamp_path)
          | Ok fields -> (
            match
              (Json.str_field fields "owner", Json.int_field fields "seq")
            with
            | None, _ | _, None ->
              note ~dir:t.Spool.work_dir ~name ~invariant:"damaged-stamp"
                ~detail:"stamp wants an owner and a seq" ~remedy:Remove
                (fun () -> remove_if_exists stamp_path)
            | Some owner, Some seq -> (
              match lease_seq owner with
              | Some have when seq > have ->
                (* Lease seqs are monotonic and the stamp snapshots the
                   seq at claim time, so a stamp AHEAD of its owner's
                   lease proves a rolled-back lease file or a forged
                   stamp; either way the fence it anchors is void. *)
                note ~dir:t.Spool.work_dir ~name ~invariant:"seq-regression"
                  ~detail:
                    (Printf.sprintf
                       "stamp seq %d ahead of owner %s lease seq %d" seq owner
                       have)
                  ~remedy:Remove
                  (fun () -> remove_if_exists stamp_path)
              | _ -> ()))
      end)
    work_entries;
  List.iter
    (fun name ->
      if is_job_file name then begin
        see ();
        if Sys.file_exists (result name) && Spool.result_ok t name then
          (* Finished before a crash; only the claim cleanup was lost.
             Same rule as reclaim, applied here so a dry run lists it. *)
          note ~dir:t.Spool.work_dir ~name ~invariant:"finished-claim"
            ~detail:"claim whose result is already filed" ~remedy:Cleanup
            (fun () ->
              Spool.remove_checkpoints t name;
              remove_if_exists (Spool.claim_stamp_path t name);
              remove_if_exists (work name))
        else
          (* The claim's job spec itself is damaged on disk: no rerun
             can load it, quarantine with the parse error as reason.
             One read decides: a peer finishing this claim between the
             listing and here removes the work file, which must read
             as "gone" (skip), never as "damaged". *)
          match Atomic_io.read_file (work name) with
          | Error _ -> ()
          | Ok text ->
            if not (parses text) then
              note ~dir:t.Spool.work_dir ~name ~invariant:"damaged-claim"
                ~detail:"claimed job file is not a JSON object"
                ~remedy:Quarantine
                (fun () ->
                  if work_has name then
                    Spool.quarantine t name
                      ~reason:"fsck: damaged claimed job file")
      end)
    work_entries;
  List.iter
    (fun name ->
      match ckpt_job_file name with
      | None -> ()
      | Some job_file ->
        see ();
        let path = Filename.concat t.Spool.work_dir name in
        let live () =
          work_has job_file || queued_somewhere job_file
          || Sys.file_exists (result job_file)
        in
        if not (live ()) then begin
          if Sys.file_exists path then
            let stale = Sys.file_exists (failed job_file) in
            note ~dir:t.Spool.work_dir ~name
              ~invariant:
                (if stale then "stale-checkpoint" else "orphan-checkpoint")
              ~detail:
                (if stale then "checkpoint of a quarantined job"
                 else "checkpoint without any job counterpart")
              ~remedy:Remove
              (fun () -> if not (live ()) then remove_if_exists path)
        end
        else if Filename.check_suffix name ".ckpt" && Sys.file_exists path then
          (* Only a job's own checkpoints are verified; other
             checkpoint-ish leftovers are left to the orphan rule. *)
          match Checkpoint.inspect path with
          | Ok _ -> ()
          | Error msg ->
            (* Atomic writes mean a bad CRC is real corruption, not a
               torn write — but a checkpoint a peer's finish removed
               mid-scan is not one.  Removal is safe: resume falls
               back to a fresh deterministic run. *)
            if Sys.file_exists path then
              note ~dir:t.Spool.work_dir ~name ~invariant:"damaged-checkpoint"
                ~detail:msg ~remedy:Remove (fun () -> remove_if_exists path))
    work_entries;

  (* 4. jobs/ bands: damaged specs, duplicates across bands and
     against work/. *)
  let seen_queued = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let dir = Spool.band_dir t k in
      List.iter
        (fun name ->
          if is_job_file name then begin
            see ();
            let path = Filename.concat dir name in
            (* One read decides: a job a peer claimed away between the
               listing and here is gone, not damaged. *)
            match Atomic_io.read_file path with
            | Error _ -> ()
            | Ok text when not (parses text) ->
              let have_failed = Sys.file_exists (failed name) in
              note ~dir ~name ~invariant:"damaged-job"
                ~detail:"queued job file is not a JSON object"
                ~remedy:(if have_failed then Remove else Quarantine)
                (fun () ->
                  if have_failed then remove_if_exists path
                  else begin
                    Atomic_io.write_string
                      (failed (reason_file name))
                      (Json.obj
                         [
                           ("job", Str name);
                           ("reason", Str "fsck: damaged queued job file");
                         ]
                      ^ "\n");
                    match Unix.rename path (failed name) with
                    | () -> ()
                    | exception Unix.Unix_error _ -> remove_if_exists path
                  end)
            | Ok _ -> (
              match Hashtbl.find_opt seen_queued name with
              | Some (first_band, first_path) ->
                if same_content first_path path then
                  note ~dir ~name ~invariant:"duplicate-band"
                    ~detail:
                      (Printf.sprintf
                         "also queued in band %d; identical copy removed"
                         first_band)
                    ~remedy:Remove
                    (fun () -> remove_if_exists path)
                else
                  note ~dir ~name ~invariant:"duplicate-band"
                    ~detail:
                      (Printf.sprintf
                         "also queued in band %d with different content"
                         first_band)
                    ~remedy:Report ignore
              | None ->
                Hashtbl.replace seen_queued name (k, path);
                (* A claim renames the queued copy INTO work/, so only
                   both copies existing at once is a duplicate — not a
                   rename observed from each side of its instant. *)
                if work_has name && Sys.file_exists path then
                  if same_content (work name) path then
                    note ~dir ~name ~invariant:"duplicate-queue"
                      ~detail:"also claimed in work/; identical copy removed"
                      ~remedy:Remove
                      (fun () -> remove_if_exists path)
                  else
                    note ~dir ~name ~invariant:"duplicate-queue"
                      ~detail:"also claimed in work/ with different content"
                      ~remedy:Report ignore)
          end)
        (entries dir))
    bands;

  (* 5. results/: torn writes and duplicated outcomes. *)
  List.iter
    (fun name ->
      if is_job_file name then begin
        see ();
        let path = result name in
        if not (file_parses path) then begin
          if work_has name || queued_somewhere name then
            (* The claim machinery will atomically rewrite it; until
               then the torn file would only shadow the rerun. *)
            note ~dir:t.Spool.results_dir ~name ~invariant:"torn-result"
              ~detail:"unparsable result shadowing a live queued/claimed copy"
              ~remedy:Remove
              (fun () -> remove_if_exists path)
          else if Sys.file_exists (failed name) then
            note ~dir:t.Spool.results_dir ~name ~invariant:"duplicate-outcome"
              ~detail:"unparsable result beside a quarantined copy"
              ~remedy:Remove
              (fun () -> remove_if_exists path)
          else
            (* No spec left to re-run: nothing safe to repair, the
               campaign report counts it as damaged. *)
            note ~dir:t.Spool.results_dir ~name ~invariant:"damaged-result"
              ~detail:"unparsable result with no queued/claimed copy to re-run"
              ~remedy:Report ignore
        end
        else if Sys.file_exists (failed name) then
          (* Exactly-one-outcome-dir invariant.  A parsed result wins:
             completed work beats a quarantine verdict (the quarantine
             came from a retry race or a crashed daemon's attempt). *)
          note ~dir:t.Spool.results_dir ~name ~invariant:"duplicate-outcome"
            ~detail:"job filed in results/ and failed/; quarantined copy removed"
            ~remedy:Remove
            (fun () ->
              remove_if_exists (failed name);
              remove_if_exists (failed (reason_file name)))
      end)
    (entries t.Spool.results_dir);

  (* 6. failed/: reason sidecars without their job. *)
  List.iter
    (fun name ->
      if is_reason name then begin
        see ();
        let job_file =
          Filename.chop_suffix name ".reason.json" ^ ".json"
        in
        if not (Sys.file_exists (failed job_file)) then
          note ~dir:t.Spool.failed_dir ~name ~invariant:"orphan-reason"
            ~detail:"quarantine reason without a quarantined job"
            ~remedy:Remove
            (fun () -> remove_if_exists (failed name))
      end)
    (entries t.Spool.failed_dir);

  {
    root = t.Spool.root;
    repair;
    scanned = !scanned;
    findings = List.rev !findings;
  }

(* ---- rendering ---------------------------------------------------- *)

let counts audit =
  let table = Hashtbl.create 7 in
  List.iter
    (fun f ->
      Hashtbl.replace table f.invariant
        (1 + Option.value ~default:0 (Hashtbl.find_opt table f.invariant)))
    audit.findings;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort compare

let to_json audit =
  let open Json in
  Obj
    [
      ("spool", Str audit.root);
      ("repair", Bool audit.repair);
      ("scanned", num_int audit.scanned);
      ("clean", Bool (clean audit));
      ( "counts",
        Obj (List.map (fun (k, v) -> (k, num_int v)) (counts audit)) );
      ( "findings",
        Arr
          (List.map
             (fun f ->
               Obj
                 [
                   ("path", Str f.path);
                   ("invariant", Str f.invariant);
                   ("remedy", Str (remedy_name f.remedy));
                   ("applied", Bool f.applied);
                   ("detail", Str f.detail);
                 ])
             audit.findings) );
    ]

let summary audit =
  let repaired = List.length (List.filter (fun f -> f.applied) audit.findings) in
  let total = List.length audit.findings in
  if total = 0 then
    Printf.sprintf "fsck: clean (%d file(s) scanned)" audit.scanned
  else
    Printf.sprintf "fsck: %d finding(s), %d repaired, %d reported%s — %s" total
      repaired (total - repaired)
      (if audit.repair then "" else " (dry run)")
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s:%d" k v)
            (counts audit)))
