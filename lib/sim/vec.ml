type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec: index out of bounds";
  t.data.(i)

let push t v =
  if t.size = Array.length t.data then begin
    let data = Array.make (max 8 (2 * t.size)) v in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- v;
  t.size <- t.size + 1

(* Dropped slots must not keep their values reachable: every slot past
   the new end, growth slack included (it holds copies of the pushed
   value that grew the array), is overwritten with the surviving
   [data.(0)], and a vector cut to length 0 lets go of its array. *)
let truncate t len =
  if len < 0 then invalid_arg "Vec.truncate: negative length";
  if len = 0 then begin
    t.data <- [||];
    t.size <- 0
  end
  else if len < t.size then begin
    Array.fill t.data len (Array.length t.data - len) t.data.(0);
    t.size <- len
  end

let clear t = truncate t 0

let to_array t = Array.sub t.data 0 t.size
