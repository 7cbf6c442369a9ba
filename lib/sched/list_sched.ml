open Repro_taskgraph

type scratch = {
  heap : int array;
  stamp : int array;
  indegree : int array;
  mutable size : int;
  mutable stamps : int;
}

let scratch n =
  {
    heap = Array.make n 0;
    stamp = Array.make n 0;
    indegree = Array.make n 0;
    size = 0;
    stamps = 0;
  }

(* The ready set is a binary min-heap of task ids under the strict
   total order (higher priority, then earlier stamp): a task's stamp is
   the count of tasks that became ready before it.  Every pop takes the
   order's minimum, so the sequence does not depend on the heap's
   internal layout. *)
let before (priority : float array) stamp a b =
  let pa = priority.(a) and pb = priority.(b) in
  pa > pb || (pa = pb && stamp.(a) < stamp.(b))

let push s priority v =
  let heap = s.heap in
  s.stamp.(v) <- s.stamps;
  s.stamps <- s.stamps + 1;
  let i = ref s.size in
  s.size <- s.size + 1;
  while !i > 0 && before priority s.stamp v heap.((!i - 1) / 2) do
    heap.(!i) <- heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  heap.(!i) <- v

let pop s priority =
  let heap = s.heap and stamp = s.stamp in
  let top = heap.(0) in
  s.size <- s.size - 1;
  let size = s.size in
  let last = heap.(size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let left = (2 * !i) + 1 in
    let child =
      if left + 1 < size && before priority stamp heap.(left + 1) heap.(left)
      then left + 1
      else left
    in
    if child < size && before priority stamp heap.(child) last then begin
      heap.(!i) <- heap.(child);
      i := child
    end
    else sifting := false
  done;
  heap.(!i) <- last;
  top

let prioritized_topological_order s app ~priority ~order =
  let n = App.size app in
  if Array.length s.heap < n then
    invalid_arg "List_sched: scratch smaller than the application";
  let ins = App.in_edges app and outs = App.out_edges app in
  let indegree = s.indegree in
  s.size <- 0;
  s.stamps <- 0;
  for v = 0 to n - 1 do
    indegree.(v) <- ins.start.(v + 1) - ins.start.(v);
    if indegree.(v) = 0 then push s priority v
  done;
  for i = 0 to n - 1 do
    assert (s.size > 0);
    let v = pop s priority in
    order.(i) <- v;
    (* Successors become ready in increasing id, as the out-slices are
       sorted: part of the tie rule. *)
    for k = outs.start.(v) to outs.start.(v + 1) - 1 do
      let w = outs.node.(k) in
      indegree.(w) <- indegree.(w) - 1;
      if indegree.(w) = 0 then push s priority w
    done
  done

(* Insertion sort in blocks, then bottom-up merges through [s.heap]:
   O(n log n) at worst, and near linear on the input the decoder gives,
   tasks in topological order, along which ranks fall.  Both phases are
   stable, and a merge whose halves are already in order is skipped.
   Blocks of 32 timed best of 8 to 64 on the decoder's inputs. *)
let block = 32

let sort_descending s ~(priority : float array) tasks count =
  if Array.length s.heap < count then
    invalid_arg "List_sched: scratch smaller than the tasks to sort";
  let lo = ref 0 in
  while !lo < count do
    let hi = Int.min count (!lo + block) in
    for i = !lo + 1 to hi - 1 do
      let v = tasks.(i) in
      let p = priority.(v) and j = ref i in
      while !j > !lo && priority.(tasks.(!j - 1)) < p do
        tasks.(!j) <- tasks.(!j - 1);
        decr j
      done;
      tasks.(!j) <- v
    done;
    lo := hi
  done;
  let buf = s.heap and width = ref block in
  while !width < count do
    let lo = ref 0 in
    while !lo + !width < count do
      let mid = !lo + !width in
      let hi = Int.min count (mid + !width) in
      if priority.(tasks.(mid - 1)) < priority.(tasks.(mid)) then begin
        let len = mid - !lo in
        Array.blit tasks !lo buf 0 len;
        let i = ref 0 and j = ref mid and k = ref !lo in
        while !i < len && !j < hi do
          let u = buf.(!i) and w = tasks.(!j) in
          if priority.(w) > priority.(u) then begin
            tasks.(!k) <- w;
            incr j
          end
          else begin
            tasks.(!k) <- u;
            incr i
          end;
          incr k
        done;
        Array.blit buf !i tasks !k (len - !i)
      end;
      lo := hi
    done;
    width := 2 * !width
  done;
  (* A lone NaN meets no compare below, so it is tested on its own. *)
  let strict = ref (count = 0 || not (Float.is_nan priority.(tasks.(0))))
  and i = ref 1 in
  while !strict && !i < count do
    strict := priority.(tasks.(!i - 1)) > priority.(tasks.(!i));
    incr i
  done;
  !strict
