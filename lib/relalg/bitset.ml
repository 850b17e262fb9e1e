(* Packed in native ints: 63 usable bits per word on 64-bit
   platforms. The top word is kept masked so [count] never sees
   phantom bits beyond [length]. *)

let word_bits = Sys.int_size

type t = { len : int; words : int array }

let nwords len = (len + word_bits - 1) / word_bits

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; words = Array.make (nwords len) 0 }

let tail_mask len =
  let r = len mod word_bits in
  if r = 0 then -1 else (1 lsl r) - 1

let full len =
  if len < 0 then invalid_arg "Bitset.full: negative length";
  let t = { len; words = Array.make (nwords len) (-1) } in
  let n = nwords len in
  if n > 0 then t.words.(n - 1) <- tail_mask len;
  t

let length t = t.len

let set t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset.set: index out of range";
  t.words.(i / word_bits) <-
    t.words.(i / word_bits) lor (1 lsl (i mod word_bits))

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset.get: index out of range";
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let check_same op a b =
  if a.len <> b.len then
    invalid_arg (Printf.sprintf "Bitset.%s: different lengths" op)

let inter a b =
  check_same "inter" a b;
  { a with words = Array.mapi (fun i w -> w land b.words.(i)) a.words }

let union a b =
  check_same "union" a b;
  { a with words = Array.mapi (fun i w -> w lor b.words.(i)) a.words }

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = t.words.(wi) in
    if w <> 0 then
      for bi = 0 to word_bits - 1 do
        if w land (1 lsl bi) <> 0 then f ((wi * word_bits) + bi)
      done
  done
