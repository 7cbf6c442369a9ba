(* Registration order is the presentation order of `dse-compare`, so it
   is kept stable under re-registration. *)
let registry : Engine.t list ref = ref []

let register engine =
  let name = Engine.name engine in
  if List.exists (fun e -> Engine.name e = name) !registry then
    registry :=
      List.map (fun e -> if Engine.name e = name then engine else e) !registry
  else registry := !registry @ [ engine ]

let all () = !registry

let names () = List.map Engine.name !registry

let find name =
  match List.find_opt (fun e -> Engine.name e = name) !registry with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown engine %S (registered: %s)" name
         (match names () with
          | [] -> "none"
          | ns -> String.concat ", " ns))
