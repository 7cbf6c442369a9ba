open Repro_taskgraph

let contexts app ~limit ~area ~context =
  let topo = App.topo app in
  let count = ref 0 and clbs = ref 0 in
  for i = 0 to Array.length topo - 1 do
    let v = topo.(i) in
    let a = area.(v) in
    if a >= 0 && a <= limit then begin
      if !count = 0 || !clbs + a > limit then begin
        incr count;
        clbs := 0
      end;
      context.(v) <- !count - 1;
      clbs := !clbs + a
    end
    else context.(v) <- -1
  done;
  !count

let members app ~context count =
  let lists = Array.make count [] in
  let topo = App.topo app in
  for i = Array.length topo - 1 downto 0 do
    let v = topo.(i) in
    let j = context.(v) in
    if j >= 0 then lists.(j) <- v :: lists.(j)
  done;
  Array.to_list lists
