open Repro_taskgraph

let members app ~context count =
  let lists = Array.make count [] in
  let topo = App.topo app in
  for i = Array.length topo - 1 downto 0 do
    let v = topo.(i) in
    let j = context.(v) in
    if j >= 0 then lists.(j) <- v :: lists.(j)
  done;
  Array.to_list lists
