(* Scopes are matched against the compilation unit's source path as the
   compiler recorded it (relative to the build root, forward slashes), so
   the same config works from a source checkout, from _build/default and
   from dune's sandboxes. *)

type t = {
  lib_prefixes : string list;
      (* determinism, unsafe and polycmp rules apply here *)
  hashtbl_det_prefixes : string list;
      (* order-dependent Hashtbl iteration is banned here *)
  realtime_prefixes : string list;
      (* wall-clock reads are legal here: code that runs on real time
         (the live TCP runtime), never under the simulator's clock *)
  unsafe_allowlist : string list;
      (* files where annotated unsafe indexing is legal *)
  test_prefixes : string list;
      (* a lib/ value referenced only from here is dead/test-only *)
}

let default =
  {
    lib_prefixes = [ "lib/" ];
    hashtbl_det_prefixes =
      [
        (* simulation + verification proper *)
        "lib/sim/"; "lib/verify/"; "lib/scenarios/";
        (* trace, runner and metrics: their output is compared byte for
           byte, so nothing may come out in hash order *)
        "lib/ccp/"; "lib/core/"; "lib/metrics/";
      ];
    realtime_prefixes =
      [
        (* the live-process runtime: OS processes, sockets and timers run
           on the wall clock by design.  lib/transport is deliberately
           NOT here — its simulator backend must stay deterministic *)
        "lib/live/";
      ];
    unsafe_allowlist =
      [
        "lib/causality/dependency_vector.ml";
        "lib/sim/event_queue.ml";
        "lib/storage/stable_store.ml";
        "lib/store/crc32.ml";
        "lib/gc/merged_fdas.ml";
      ];
    test_prefixes = [ "test/" ];
  }

let normalize_path p =
  String.map (fun c -> if c = '\\' then '/' else c) p

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let matches prefixes path =
  let path = normalize_path path in
  List.exists (fun prefix -> has_prefix ~prefix path) prefixes

let in_lib t path = matches t.lib_prefixes path
let in_hashtbl_det t path = matches t.hashtbl_det_prefixes path
let in_realtime t path = matches t.realtime_prefixes path
let in_test t path = matches t.test_prefixes path

let unsafe_allowed t path =
  let path = normalize_path path in
  List.exists (fun f -> String.equal f path) t.unsafe_allowlist
