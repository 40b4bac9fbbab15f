(* Regions entered and not yet left: a counter, so two pools running
   regions at once cannot clear each other's fact. *)
let depth = Atomic.make 0
let running () = Atomic.get depth > 0

let within f =
  Atomic.incr depth;
  Fun.protect ~finally:(fun () -> Atomic.decr depth) f

(* Pushes contend only when their domains share a shard. Stamps of
   causally ordered pushes increase (a lock release/acquire between two
   pushes orders their fetch-and-adds too), so sorting by stamp is an
   exact linearization of push order. *)
let shard_count = 16

type 'a buffer = {
  order : int Atomic.t;
  shards : (Mutex.t * (int * 'a) list ref) array;
}

let buffer () =
  {
    order = Atomic.make 0;
    shards = Array.init shard_count (fun _ -> (Mutex.create (), ref []));
  }

let push b x =
  let stamp = Atomic.fetch_and_add b.order 1 in
  let mu, items = b.shards.((Domain.self () :> int) land (shard_count - 1)) in
  Mutex.lock mu;
  items := (stamp, x) :: !items;
  Mutex.unlock mu

let drain b =
  let stamped =
    Array.fold_left
      (fun acc (mu, items) ->
        Mutex.lock mu;
        let l = !items in
        items := [];
        Mutex.unlock mu;
        List.rev_append l acc)
      [] b.shards
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) stamped)
