type t = { dv : int array; index : int }

let make ~dv ~index = { dv = Array.copy dv; index }
let borrow ~dv ~index = { dv; index }

let pp ppf t =
  Format.fprintf ppf "{dv=(%a); idx=%d}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list t.dv) t.index
