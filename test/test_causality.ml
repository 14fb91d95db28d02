(* Vector clocks and dependency vectors: unit tests plus qcheck algebraic
   properties. *)

module VC = Rdt_causality.Vector_clock
module DV = Rdt_causality.Dependency_vector

let vc_of a =
  let c = VC.create ~n:(Array.length a) in
  Array.iteri (VC.set c) a;
  c

(* the components of an [n]-process clock *)
let components c ~n = Array.init n (VC.get c)

let test_vc_basics () =
  let c = VC.create ~n:3 in
  Alcotest.(check int) "initial zero" 0 (VC.get c 1);
  VC.tick c 1;
  VC.tick c 1;
  Alcotest.(check int) "ticked" 2 (VC.get c 1);
  Alcotest.(check int) "others untouched" 0 (VC.get c 0)

let test_vc_merge () =
  let a = vc_of [| 1; 5; 0 |] and b = vc_of [| 2; 3; 4 |] in
  VC.merge_into ~dst:a ~src:b;
  Alcotest.(check (list int)) "pointwise max" [ 2; 5; 4 ]
    (Array.to_list (components a ~n:3))

let test_vc_size_mismatch () =
  let a = VC.create ~n:2 and b = VC.create ~n:3 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vector_clock.merge_into: size mismatch") (fun () ->
      VC.merge_into ~dst:a ~src:b)

(* the receive rule, reporting the entries that rose as a list *)
let merge dv m =
  let changed = ref [] in
  DV.merge_from_message_iter dv m ~f:(fun j -> changed := j :: !changed);
  List.rev !changed

let test_dv_merge_reports_changes () =
  let dv = DV.of_view [| 3; 0; 2 |] in
  let changed = merge dv [| 1; 4; 2 |] in
  Alcotest.(check (list int)) "only entry 1 rose" [ 1 ] changed;
  Alcotest.(check (list int)) "merged" [ 3; 4; 2 ]
    (Array.to_list (DV.to_array dv))

let test_dv_merge_multiple () =
  let dv = DV.of_view [| 0; 0; 0 |] in
  let changed = merge dv [| 2; 0; 7 |] in
  Alcotest.(check (list int)) "entries 0 and 2" [ 0; 2 ] changed

let test_dv_newer_entries () =
  Alcotest.(check bool) "detects" true
    (DV.has_newer_entries ~local:[| 5; 5; 5 |] ~incoming:[| 5; 0; 6 |]);
  Alcotest.(check bool) "none newer" false
    (DV.has_newer_entries ~local:[| 5; 5; 5 |] ~incoming:[| 5; 0; 5 |])

let test_dv_inplace_arity () =
  let a = DV.create ~n:2 and b = DV.create ~n:3 in
  Alcotest.check_raises "blit_into"
    (Invalid_argument "Dependency_vector.blit_into: size mismatch") (fun () ->
      DV.blit_into ~src:a ~dst:b);
  Alcotest.check_raises "merge_from_message_iter"
    (Invalid_argument "Dependency_vector.merge_from_message_iter: size mismatch")
    (fun () -> DV.merge_from_message_iter b (DV.view a) ~f:ignore);
  Alcotest.check_raises "has_newer_entries"
    (Invalid_argument "Dependency_vector.has_newer_entries: size mismatch")
    (fun () ->
      ignore (DV.has_newer_entries ~local:(DV.view a) ~incoming:(DV.view b)))

(* --- qcheck properties ------------------------------------------------ *)

let gen_vc n = QCheck.Gen.(array_size (return n) (int_bound 20))

let arb_vc_pair =
  QCheck.make
    QCheck.Gen.(pair (gen_vc 4) (gen_vc 4))
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)"
        (String.concat "," (List.map string_of_int (Array.to_list a)))
        (String.concat "," (List.map string_of_int (Array.to_list b))))

let prop_merge_commutative =
  QCheck.Test.make ~name:"vc merge commutative" ~count:300 arb_vc_pair
    (fun (a, b) ->
      let x = vc_of a and y = vc_of b in
      VC.merge_into ~dst:x ~src:(vc_of b);
      VC.merge_into ~dst:y ~src:(vc_of a);
      components x ~n:4 = components y ~n:4)

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"vc merge is an upper bound" ~count:300 arb_vc_pair
    (fun (a, b) ->
      let m = vc_of a in
      VC.merge_into ~dst:m ~src:(vc_of b);
      let m = components m ~n:4 in
      Array.for_all2 ( <= ) a m && Array.for_all2 ( <= ) b m)

let prop_dv_merge_idempotent =
  QCheck.Test.make ~name:"dv merge idempotent" ~count:300 arb_vc_pair
    (fun (a, b) ->
      let dv = DV.of_view (Array.copy a) in
      ignore (merge dv b);
      merge dv b = [])

(* the in-place, no-alloc operations (DESIGN.md §10) against their
   reference semantics, over random vectors *)

let prop_dv_merge_is_pointwise_max =
  QCheck.Test.make ~name:"dv merge = pointwise max" ~count:300 arb_vc_pair
    (fun (a, b) ->
      let dv = DV.of_view (Array.copy a) in
      ignore (merge dv b);
      DV.to_array dv = Array.map2 max a b)

let prop_blit_into_is_copy =
  QCheck.Test.make ~name:"blit_into = copy" ~count:300 arb_vc_pair
    (fun (a, b) ->
      let dst = DV.of_view (Array.copy a) in
      DV.blit_into ~src:(DV.of_view b) ~dst;
      DV.to_array dst = b)

let prop_view_roundtrip =
  QCheck.Test.make ~name:"view/of_view alias without copying" ~count:300
    arb_vc_pair (fun (a, _) ->
      let dv = DV.of_view (Array.copy a) in
      let v = DV.view dv in
      (* the view aliases the live vector: a mutation is visible through it *)
      DV.increment dv 0;
      v.(0) = a.(0) + 1 && DV.view (DV.of_view v) == v)

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_commutative;
      prop_merge_upper_bound;
      prop_dv_merge_idempotent;
      prop_dv_merge_is_pointwise_max;
      prop_blit_into_is_copy;
      prop_view_roundtrip;
    ]

let suite =
  [
    Alcotest.test_case "vc basics" `Quick test_vc_basics;
    Alcotest.test_case "vc merge" `Quick test_vc_merge;
    Alcotest.test_case "vc size mismatch" `Quick test_vc_size_mismatch;
    Alcotest.test_case "dv merge reports changes" `Quick
      test_dv_merge_reports_changes;
    Alcotest.test_case "dv merge multiple" `Quick test_dv_merge_multiple;
    Alcotest.test_case "dv newer entries" `Quick test_dv_newer_entries;
    Alcotest.test_case "dv in-place ops check arity" `Quick
      test_dv_inplace_arity;
  ]
  @ qcheck_suite
