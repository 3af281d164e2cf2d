(* A mirror of [Resoc_core.Group.build] that passes every fabric through
   [Tracer.wrap] before the protocol sees it. Group.build creates its
   fabric internally, so the benchmark repeats the per-protocol wiring
   here; the traced run compares its simulation fingerprint with the
   untraced run's (built by Group.build itself), which catches any drift
   between the two. *)

module Engine = Resoc_des.Engine
module Group = Resoc_core.Group
module Soc = Resoc_core.Soc
module Transport = Resoc_repl.Transport
module Checkpoint = Resoc_repl.Checkpoint
module Pbft = Resoc_repl.Pbft
module Minbft = Resoc_repl.Minbft
module A2m_bft = Resoc_repl.A2m_bft
module Cheapbft = Resoc_repl.Cheapbft
module Paxos = Resoc_repl.Paxos
module Primary_backup = Resoc_repl.Primary_backup

let batch_bytes ~base ~len = base + (16 * max 0 (len - 1))

let build tracer engine transport (spec : Group.spec) =
  let n = Group.n_replicas_of spec in
  let n_endpoints = n + spec.n_clients in
  let fabric size_of =
    let raw =
      match transport with
      | Group.Hub { latency } -> Transport.hub engine ~n:n_endpoints ~latency ()
      | Group.On_soc soc ->
        Soc.noc_fabric soc ~placement:(Soc.spread_placement soc ~n:n_endpoints) ~size_of
    in
    Tracer.wrap tracer ~n_replicas:n raw
  in
  let base = Group.message_bytes spec.kind in
  let batched = spec.batching <> None in
  let with_checkpoint f = match spec.checkpoint with Some _ -> f | None -> fun ~replica:_ -> () in
  let group ~protocol (fabric : _ Transport.fabric) ~submit ~stats ~replica_state ~set_replica_state
      ~set_offline ~set_online ~usig_of =
    {
      Group.protocol;
      n_replicas = n;
      f = spec.f;
      submit;
      stats;
      replica_state;
      set_replica_state;
      set_offline;
      set_online;
      messages = fabric.Transport.messages_sent;
      bytes = fabric.Transport.bytes_sent;
      usig_of;
    }
  in
  match spec.kind with
  | `Pbft ->
    let fabric =
      fabric (function
        | Pbft.State_chunk c -> Checkpoint.chunk_bytes c
        | Pbft.Pre_prepare_b { requests; _ } -> batch_bytes ~base ~len:(List.length requests)
        | _ -> base)
    in
    let config =
      {
        Pbft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Pbft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"pbft" fabric
      ~submit:(fun ~client ~payload -> Pbft.submit sys ~client ~payload)
      ~stats:(fun () -> Pbft.stats sys)
      ~replica_state:(fun ~replica -> Pbft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Pbft.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> Pbft.set_offline sys ~replica)
      ~set_online:(fun ~replica -> Pbft.set_online sys ~replica)
      ~usig_of:None
  | `Minbft ->
    let fabric =
      fabric (function
        | Minbft.State_chunk c -> Checkpoint.chunk_bytes c
        | (Minbft.Prepare { requests; _ } | Minbft.Commit { requests; _ }) when batched ->
          batch_bytes ~base ~len:(List.length requests)
        | _ -> base)
    in
    let config =
      {
        Minbft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        usig_protection = spec.usig_protection;
        keychain_master = 0xC0FFEEL;
        batch_window = spec.batch_window;
        max_batch = 16;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Minbft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"minbft" fabric
      ~submit:(fun ~client ~payload -> Minbft.submit sys ~client ~payload)
      ~stats:(fun () -> Minbft.stats sys)
      ~replica_state:(fun ~replica -> Minbft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Minbft.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> Minbft.set_offline sys ~replica)
      ~set_online:(fun ~replica -> Minbft.set_online sys ~replica)
      ~usig_of:(Some (fun ~replica -> Minbft.usig sys ~replica))
  | `A2m_bft ->
    let fabric =
      fabric (function
        | A2m_bft.State_chunk c -> Checkpoint.chunk_bytes c
        | (A2m_bft.Prepare { requests; _ } | A2m_bft.Commit { requests; _ }) when batched ->
          batch_bytes ~base ~len:(List.length requests)
        | _ -> base)
    in
    let config =
      {
        A2m_bft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        usig_protection = spec.usig_protection;
        keychain_master = 0xC0FFEEL;
        batch_window = spec.batch_window;
        max_batch = 16;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = A2m_bft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"a2m-bft" fabric
      ~submit:(fun ~client ~payload -> A2m_bft.submit sys ~client ~payload)
      ~stats:(fun () -> A2m_bft.stats sys)
      ~replica_state:(fun ~replica -> A2m_bft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> A2m_bft.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> A2m_bft.set_offline sys ~replica)
      ~set_online:(fun ~replica -> A2m_bft.set_online sys ~replica)
      ~usig_of:None
  | `Cheapbft ->
    let fabric =
      fabric (function
        | Cheapbft.State_chunk c -> Checkpoint.chunk_bytes c
        | Cheapbft.Prepare_b { requests; _ } | Cheapbft.Commit_b { requests; _ } ->
          batch_bytes ~base ~len:(List.length requests)
        | _ -> base)
    in
    let config =
      {
        Cheapbft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        update_period = 2_000;
        trinc_protection = spec.usig_protection;
        keychain_master = 0x17E4C0L;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Cheapbft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"cheapbft" fabric
      ~submit:(fun ~client ~payload -> Cheapbft.submit sys ~client ~payload)
      ~stats:(fun () -> Cheapbft.stats sys)
      ~replica_state:(fun ~replica -> Cheapbft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica:_ _ -> ())
      ~set_offline:(with_checkpoint (fun ~replica -> Cheapbft.set_offline sys ~replica))
      ~set_online:(with_checkpoint (fun ~replica -> Cheapbft.set_online sys ~replica))
      ~usig_of:None
  | `Paxos ->
    let fabric =
      fabric (function
        | Paxos.State_chunk c -> Checkpoint.chunk_bytes c
        | Paxos.Accept_b { requests; _ } -> batch_bytes ~base ~len:(List.length requests)
        | _ -> base)
    in
    let config =
      {
        Paxos.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        election_timeout = spec.vc_timeout;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Paxos.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"paxos" fabric
      ~submit:(fun ~client ~payload -> Paxos.submit sys ~client ~payload)
      ~stats:(fun () -> Paxos.stats sys)
      ~replica_state:(fun ~replica -> Paxos.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Paxos.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> Paxos.set_offline sys ~replica)
      ~set_online:(fun ~replica -> Paxos.set_online sys ~replica)
      ~usig_of:None
  | `Primary_backup ->
    let fabric =
      fabric (function
        | Primary_backup.State_chunk c -> Checkpoint.chunk_bytes c
        | Primary_backup.Update_b { replies; _ } -> batch_bytes ~base ~len:(List.length replies)
        | _ -> base)
    in
    let config =
      {
        Primary_backup.n_backups = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        heartbeat_period = max 1 (spec.vc_timeout / 5);
        detection_timeout = spec.vc_timeout;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Primary_backup.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"primary-backup" fabric
      ~submit:(fun ~client ~payload -> Primary_backup.submit sys ~client ~payload)
      ~stats:(fun () -> Primary_backup.stats sys)
      ~replica_state:(fun ~replica -> Primary_backup.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Primary_backup.set_replica_state sys ~replica v)
      ~set_offline:(with_checkpoint (fun ~replica -> Primary_backup.set_offline sys ~replica))
      ~set_online:(with_checkpoint (fun ~replica -> Primary_backup.set_online sys ~replica))
      ~usig_of:None
