type t = { dv : int array; index : int }

let make ?into ~dv ~index () =
  match into with
  | None -> { dv = Array.copy dv; index }
  | Some buf ->
    let len = Array.length dv in
    if Array.length buf <> len then
      invalid_arg "Control.make: buffer width differs from the vector's";
    (* an [int array] loop: no write barrier, even into a promoted buffer *)
    for j = 0 to len - 1 do
      buf.(j) <- dv.(j)
    done;
    { dv = buf; index }

let borrow ~dv ~index = { dv; index }
