let unused x = x
let internal_only x = x + 1
let test_only x = internal_only x
let via_open x = x
let via_alias x = x
let reference_ok x = x
let reference_bare x = x
let reference_live x = x

module Sub = struct
  let sub_used = 1
  let sub_unused = 2
end
