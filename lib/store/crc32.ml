(* Standard reflected CRC-32 (polynomial 0xEDB88320), slicing-by-8: eight
   256-entry tables of native ints in one flat array, so eight bytes are
   folded per step with no boxed [Int32] arithmetic.  It sits on the
   durable append path — every record is checksummed as it is staged —
   where a bytewise loop over boxed table entries cost more than the
   write syscalls (DESIGN.md §9).  Native ints must hold 32 bits, which
   the polynomial literal enforces at compile time. *)

(* [table.(k * 256 + n)] is the CRC of byte [n] followed by [k] zero
   bytes; slice 0 is the classic bytewise table.  Built on first use, so
   a program that never checksums never allocates it. *)
let table =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* callers ([bytes]) validate pos/len before entering the loops; every
   table index is masked to its slice *)
let update crc b ~pos ~len =
  let t = Lazy.force table in
  let crc = ref crc and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let w = Bytes.get_int64_le b !i in
    let lo = !crc lxor (Int64.to_int w land 0xffff_ffff)
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    crc :=
      Array.unsafe_get t (0x700 lor (lo land 0xff))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xff))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    crc := Array.unsafe_get t ((!crc lxor byte) land 0xff) lxor (!crc lsr 8);
    incr i
  done;
  !crc
[@@lint.bounds_checked]

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.bytes";
  Int32.of_int (update 0xffff_ffff b ~pos ~len lxor 0xffff_ffff)

let string s =
  let b = Bytes.unsafe_of_string s in
  bytes b ~pos:0 ~len:(Bytes.length b)
