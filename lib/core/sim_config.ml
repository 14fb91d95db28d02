type gc_policy =
  | No_gc
  | Local
  | Local_lazy of { period : float }
  | Coordinated of { period : float }
  | Simple of { period : float }
  | Oracle_periodic of { period : float }

let gc_policy_name = function
  | No_gc -> "no-gc"
  | Local -> "rdt-lgc"
  | Local_lazy _ -> "rdt-lgc-lazy"
  | Coordinated _ -> "coordinated"
  | Simple _ -> "simple"
  | Oracle_periodic _ -> "oracle"

type fault = { crash_at : float; pid : int; repair_after : float }

type store_backend =
  | Memory
  | Durable of { dir : string; config : Rdt_store.Log_store.config }

type t = {
  n : int;
  seed : int;
  duration : float;
  net : Rdt_sim.Network.config;
  workload : Rdt_workload.Workload.config;
  protocol : Rdt_protocols.Protocol.t;
  gc : gc_policy;
  faults : fault list;
  knowledge : Rdt_recovery.Session.knowledge;
  sample_interval : float;
  ckpt_bytes : int;
  store : store_backend;
  shards : int;
}

let default =
  {
    n = 4;
    seed = 1;
    duration = 100.0;
    net = Rdt_sim.Network.default;
    workload = Rdt_workload.Workload.default;
    protocol = Rdt_protocols.Protocol.fdas;
    gc = Local;
    faults = [];
    knowledge = `Global;
    sample_interval = 5.0;
    ckpt_bytes = 1;
    store = Memory;
    shards = 1;
  }

(* NaN fails every comparison, so test for the good range, not the bad
   one. *)
let finite_positive x = Float.is_finite x && x > 0.0

let validate t =
  if t.n < 2 then invalid_arg "Sim_config: n must be at least 2";
  if t.n > Rdt_store.Record.max_dv_len then
    invalid_arg
      (Printf.sprintf
         "Sim_config: n must be at most %d (the longest DV a checkpoint \
          record holds)"
         Rdt_store.Record.max_dv_len);
  if not (finite_positive t.duration) then
    invalid_arg "Sim_config: duration must be finite and positive";
  if not (finite_positive t.sample_interval) then
    invalid_arg "Sim_config: sample interval must be finite and positive";
  if t.ckpt_bytes < 0 then invalid_arg "Sim_config: ckpt_bytes must be >= 0";
  if t.shards <> 1 then invalid_arg "Sim_config: shards must be 1";
  (match t.gc with
  | Coordinated { period }
  | Simple { period }
  | Oracle_periodic { period }
  | Local_lazy { period } ->
    if not (finite_positive period) then
      invalid_arg "Sim_config: GC period must be finite and positive"
  | No_gc | Local -> ());
  (* every collector in this library reasons over dependency vectors via
     Equation 2, which is only exact on RD-trackable executions; pairing
     one with a non-RDT protocol would be unsound *)
  (match t.gc with
  | No_gc -> ()
  | Local | Local_lazy _ | Coordinated _ | Simple _ | Oracle_periodic _ ->
    if not t.protocol.Rdt_protocols.Protocol.rdt then
      invalid_arg
        "Sim_config: garbage collection requires an RDT protocol (Equation 2)");
  (* so does the recovery session's Lemma 1: off RDT its line can leave
     orphan messages *)
  if (not (List.is_empty t.faults)) && not t.protocol.Rdt_protocols.Protocol.rdt
  then
    invalid_arg "Sim_config: crash faults require an RDT protocol (Equation 2)";
  let check_fault f =
    if f.pid < 0 || f.pid >= t.n then invalid_arg "Sim_config: fault pid";
    if not (finite_positive f.crash_at && finite_positive f.repair_after) then
      invalid_arg "Sim_config: fault times must be finite and positive"
  in
  List.iter check_fault t.faults;
  (* reject overlapping fault windows for the same process *)
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare a.pid b.pid with
        | 0 -> Float.compare a.crash_at b.crash_at
        | c -> c)
      t.faults
  in
  let rec overlap = function
    | a :: (b :: _ as rest) ->
      if a.pid = b.pid && a.crash_at +. a.repair_after >= b.crash_at then
        invalid_arg "Sim_config: overlapping fault windows for one process";
      overlap rest
    | [ _ ] | [] -> ()
  in
  overlap sorted
