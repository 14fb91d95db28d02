(* [2^12] rather than larger keeps the slack of a wide run small: [n =
   256] processes with two columns each (a DV archive's descriptors and
   cells) leave at most 16 MB. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let first_chunk = 4

type t = {
  mutable len : int;
  mutable cap : int;
  mutable nchunks : int;
  mutable chunks : int array array;  (* slots past [nchunks] are [[||]] *)
}

let create () = { len = 0; cap = 0; nchunks = 0; chunks = [||] }
let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Int_column: index out of bounds"

let get t i =
  check t i;
  t.chunks.(i lsr chunk_bits).(i land chunk_mask)

let grow t =
  if t.nchunks = 0 then begin
    t.chunks <- [| Array.make first_chunk 0 |];
    t.nchunks <- 1;
    t.cap <- first_chunk
  end
  else if t.cap < chunk_size then begin
    (* only chunk 0 is ever copied, and never more than [chunk_size] *)
    let cap = min chunk_size (2 * t.cap) in
    let b = Array.make cap 0 in
    Array.blit t.chunks.(0) 0 b 0 t.len;
    t.chunks.(0) <- b;
    t.cap <- cap
  end
  else begin
    let c = t.nchunks in
    if c = Array.length t.chunks then begin
      let dir = Array.make (2 * c) [||] in
      Array.blit t.chunks 0 dir 0 c;
      t.chunks <- dir
    end;
    t.chunks.(c) <- Array.make chunk_size 0;
    t.nchunks <- c + 1;
    t.cap <- t.cap + chunk_size
  end

let push t x =
  let i = t.len in
  if i = t.cap then grow t;
  t.chunks.(i lsr chunk_bits).(i land chunk_mask) <- x;
  t.len <- i + 1

(* drops whole chunks past the new end, so a truncated column keeps at
   most one chunk of slack too *)
let truncate t len =
  if len < 0 then invalid_arg "Int_column.truncate: negative length";
  if len < t.len then begin
    t.len <- len;
    if t.nchunks > 1 then begin
      let keep = if len = 0 then 1 else ((len - 1) lsr chunk_bits) + 1 in
      for c = keep to t.nchunks - 1 do
        t.chunks.(c) <- [||]
      done;
      t.nchunks <- keep;
      t.cap <- keep * chunk_size
    end
  end
