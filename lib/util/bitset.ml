type t = { capacity : int; words : int array }

let bits_per_word = Sys.int_size

let create capacity =
  assert (capacity >= 0);
  let nwords = (capacity + bits_per_word - 1) / bits_per_word in
  { capacity; words = Array.make (max 1 nwords) 0 }

let capacity t = t.capacity
let copy t = { capacity = t.capacity; words = Array.copy t.words }
let clear t = Array.fill t.words 0 (Array.length t.words) 0

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let union_into dst src =
  if dst.capacity <> src.capacity then
    invalid_arg "Bitset.union_into: capacity mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let equal a b = a.capacity = b.capacity && a.words = b.words

(* The index of a word's one set bit, the sign bit included: halved,
   the powers of two below 2^62 leave distinct non-zero remainders mod
   67 (2 generates the multiplicative group mod 67), and 1 halves to
   0. *)
let bit_index =
  let table = Array.make 67 0 in
  for k = 0 to bits_per_word - 1 do
    table.(((1 lsl k) lsr 1) mod 67) <- k
  done;
  fun bit -> table.((bit lsr 1) mod 67)

(* Each word's set bits, lowest first. *)
let iter f t =
  Array.iteri
    (fun w word ->
      let x = ref word in
      while !x <> 0 do
        let bit = !x land (- !x) in
        f ((w * bits_per_word) + bit_index bit);
        x := !x lxor bit
      done)
    t.words

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity elements =
  let t = create capacity in
  List.iter (add t) elements;
  t
