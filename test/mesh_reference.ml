(* Reference connectivity for the NoC oracle tests in test_adaptive and
   test_mcast: plain BFS over the surviving topology, written against the
   mesh API only (no shared code with Adaptive or Mcast). *)

module Mesh = Resoc_noc.Mesh

let reachable mesh ~src ~dst =
  if not (Mesh.router_up mesh src && Mesh.router_up mesh dst) then false
  else begin
    let seen = Array.make (Mesh.n_nodes mesh) false in
    let q = Queue.create () in
    seen.(src) <- true;
    Queue.push src q;
    let found = ref false in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      if u = dst then found := true;
      List.iter
        (fun v ->
          if (not seen.(v)) && Mesh.router_up mesh v && Mesh.link_up mesh { Mesh.src = u; dst = v }
          then begin
            seen.(v) <- true;
            Queue.push v q
          end)
        (Mesh.neighbors mesh u)
    done;
    !found
  end
