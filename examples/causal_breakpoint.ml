(* Causal distributed breakpoints — one of the applications that motivate
   the RDT property (paper Section 1, citing Wang '97).

   Suppose a bug manifests at checkpoint s^k of some process and you want
   to restart (or inspect) the system around that moment:

   - the MAXIMUM consistent global checkpoint containing s^k is the latest
     system-wide instant at which s^k had just been reached — the natural
     breakpoint;
   - the MINIMUM one bounds how far back a cause of the buggy state can
     reach — nothing before it can have influenced s^k.

   Under RDT both are computed directly from the dependency vectors, with
   no zigzag analysis.  A middleware keeps no archive of them until it is
   asked for one ([Middleware.archive]); from that call on it archives
   every checkpoint's vector (one whole vector in 32, only the changed
   entries for the rest).  Asking before the run starts keeps the whole
   history, so the computation keeps working while RDT-LGC aggressively
   collects the checkpoints themselves.

   Run with:  dune exec examples/causal_breakpoint.exe
   (`dune runtest` diffs the output against causal_breakpoint.expected) *)

module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Middleware = Rdt_protocols.Middleware
module Tracking = Rdt_recovery.Tracking
module Dependency_vector = Rdt_causality.Dependency_vector

let fmt_global g =
  "("
  ^ String.concat ", "
      (Array.to_list (Array.mapi (Printf.sprintf "p%d:s%d") g))
  ^ ")"

let () =
  let n = 6 in
  let cfg =
    { Sim_config.default with n; seed = 4242; duration = 60.0 }
  in
  let t = Runner.create cfg in
  (* ask for the archives before any checkpoint is collected *)
  let archives =
    Array.init n (fun pid -> Middleware.archive (Runner.middleware t pid))
  in
  Runner.run t;
  let live_dvs =
    Array.init n (fun pid ->
        Dependency_vector.to_array (Middleware.dv (Runner.middleware t pid)))
  in
  (* the "buggy" checkpoint: the middle of process 3's history *)
  let target : Tracking.target =
    { pid = 3; index = Rdt_storage.Dv_archive.last_index archives.(3) / 2 }
  in
  Format.printf
    "suspect state: checkpoint s%d of p%d (of %d checkpoints it took)@.@."
    target.index target.pid
    (Rdt_storage.Dv_archive.count archives.(3));
  (match Tracking.max_consistent_containing ~archives ~live_dvs [ target ] with
  | Some g -> Format.printf "breakpoint (max consistent):  %s@." (fmt_global g)
  | None -> Format.printf "no consistent global checkpoint contains it@.");
  (match Tracking.min_consistent_containing ~archives ~live_dvs [ target ] with
  | Some g -> Format.printf "cause horizon (min consistent): %s@." (fmt_global g)
  | None -> ());
  let s = Runner.summary t in
  Format.printf
    "@.all of this was answered from archived dependency vectors while@.\
     RDT-LGC had already collected %d of the %d checkpoints themselves.@."
    s.Runner.eliminated_total s.Runner.stored_total
