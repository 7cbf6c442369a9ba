let wall = Unix.gettimeofday

(* CLOCK_MONOTONIC in nanoseconds: immune to the wall clock being set
   back or slewed while a run is timed. *)
let mono () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let deadline ~seconds =
  if seconds <= 0.0 then fun () -> true
  else begin
    let expires = mono () +. seconds in
    fun () -> mono () >= expires
  end
