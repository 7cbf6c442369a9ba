(* The four xoshiro256** words live unboxed in 32 bytes: a record of
   [int64] fields would box every word on every write, 21 minor words
   per draw. *)
type t = Bytes.t

let get t i = Bytes.get_int64_ne t (8 * i) [@@inline]
let set t i w = Bytes.set_int64_ne t (8 * i) w [@@inline]

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

(* SplitMix64 step, used only to spread a seed over the four words of
   xoshiro256** state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  make s0 s1 s2 s3

let create seed = of_seed (Int64.of_int seed)

let copy = Bytes.copy

let state t = [| get t 0; get t 1; get t 2; get t 3 |]

let of_state a =
  if Array.length a <> 4 then invalid_arg "Rng.of_state: want 4 words";
  if Array.for_all (fun w -> w = 0L) a then
    invalid_arg "Rng.of_state: all-zero state";
  make a.(0) a.(1) a.(2) a.(3)

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))
[@@inline]

(* Inlined into every draw below, so the result stays in a register
   and only the exported [bits64] boxes it. *)
let next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result
[@@inline]

let bits64 t = next t

let split t = of_seed (next t)

let int t n =
  assert (n > 0);
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = Int64.shift_right_logical Int64.minus_one 2 in
  let bound = Int64.of_int n in
  let limit = Int64.sub (Int64.sub mask bound) Int64.one in
  let r = ref (Int64.logand (next t) mask) in
  let v = ref (Int64.rem !r bound) in
  while Int64.sub !r !v > limit do
    r := Int64.logand (next t) mask;
    v := Int64.rem !r bound
  done;
  Int64.to_int !v

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits scaled to [0,1). *)
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. x
[@@inline]

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

(* The bulk kernels step the generator with its four words in locals:
   one load and one store of the state per call instead of per draw.
   Each consumes exactly the draws of the single-draw loop it stands
   for, in the same order, so a stream is the same either way.  The
   step is [next]'s, written out in each loop because a helper taking
   the locals would box them.  The selections pick without a branch:
   [m] is all ones on heads, and [b lxor ((a lxor b) land m)] is then
   [a], else [b]; a coin is as likely to mispredict as not. *)

let check_lengths name a b dst =
  let n = Array.length dst in
  if Array.length a <> n || Array.length b <> n then
    invalid_arg ("Rng." ^ name ^ ": arrays of unequal lengths");
  n

let select_into t (a : int array) (b : int array) (dst : int array) =
  let n = check_lengths "select_into" a b dst in
  let open Int64 in
  let s0 = ref (get t 0) and s1 = ref (get t 1) in
  let s2 = ref (get t 2) and s3 = ref (get t 3) in
  for i = 0 to n - 1 do
    let x0 = !s0 and x1 = !s1 in
    let result = mul (rotl (mul x1 5L) 7) 9L in
    let x2 = logxor !s2 x0 in
    let x3 = logxor !s3 x1 in
    s0 := logxor x0 x3;
    s1 := logxor x1 x2;
    s2 := logxor x2 (shift_left x1 17);
    s3 := rotl x3 45;
    let m = -(to_int result land 1) and bi = b.(i) in
    dst.(i) <- bi lxor ((a.(i) lxor bi) land m)
  done;
  set t 0 !s0;
  set t 1 !s1;
  set t 2 !s2;
  set t 3 !s3

let select_bools_into t (a : bool array) (b : bool array) (dst : bool array) =
  let n = check_lengths "select_bools_into" a b dst in
  let open Int64 in
  let s0 = ref (get t 0) and s1 = ref (get t 1) in
  let s2 = ref (get t 2) and s3 = ref (get t 3) in
  for i = 0 to n - 1 do
    let x0 = !s0 and x1 = !s1 in
    let result = mul (rotl (mul x1 5L) 7) 9L in
    let x2 = logxor !s2 x0 in
    let x3 = logxor !s3 x1 in
    s0 := logxor x0 x3;
    s1 := logxor x1 x2;
    s2 := logxor x2 (shift_left x1 17);
    s3 := rotl x3 45;
    let m = -(to_int result land 1) and bi = Bool.to_int b.(i) in
    dst.(i) <- bi lxor ((Bool.to_int a.(i) lxor bi) land m) = 1
  done;
  set t 0 !s0;
  set t 1 !s1;
  set t 2 !s2;
  set t 3 !s3

let first_below t p ~from ~until =
  let open Int64 in
  let s0 = ref (get t 0) and s1 = ref (get t 1) in
  let s2 = ref (get t 2) and s3 = ref (get t 3) in
  let i = ref from and hit = ref false in
  while (not !hit) && !i < until do
    let x0 = !s0 and x1 = !s1 in
    let result = mul (rotl (mul x1 5L) 7) 9L in
    let x2 = logxor !s2 x0 in
    let x3 = logxor !s3 x1 in
    s0 := logxor x0 x3;
    s1 := logxor x1 x2;
    s2 := logxor x2 (shift_left x1 17);
    s3 := rotl x3 45;
    (* [float t 1.0 < p], the same rounding included. *)
    if to_float (shift_right_logical result 11) /. 9007199254740992.0 *. 1.0
       < p
    then hit := true
    else incr i
  done;
  set t 0 !s0;
  set t 1 !s1;
  set t 2 !s2;
  set t 3 !s3;
  if !hit then !i else until

let gaussian t =
  let rec draw () =
    let u = float t 1.0 in
    if u = 0.0 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | _ :: _ -> List.nth l (int t (List.length l))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick_weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: non-positive total";
  let target = float t total in
  let rec walk acc = function
    | [] -> invalid_arg "Rng.pick_weighted: empty choice list"
    | [ (_, x) ] -> x
    | (w, x) :: rest ->
      let acc = acc +. w in
      if target < acc then x else walk acc rest
  in
  walk 0.0 choices
