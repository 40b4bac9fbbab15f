(* Benchmark-side spans: one record per call the driver makes into a
   layer (Travel.build, generation + parsing, Manager.submit, run_once,
   drain, each probe). Recording is on only in traced runs; spans stay
   in memory and are written out once, when the run ends. *)

type t = {
  name : string;
  episode : int;  (** spans of one episode share this identifier *)
  task : int;  (** scheduler task id for submit calls, else -1 *)
  start : float;  (** monotonic seconds *)
  stop : float;
}

let now = Ent_obs.Clock.monotonic

(* Seconds of CPU this process has run. The hypervisor's stolen time is
   not in it, unlike in {!now}. *)
let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let enabled = ref false
let episode = ref 0
let recorded : t list ref = ref []

let record ?(task = -1) name start stop =
  if !enabled then
    recorded := { name; episode = !episode; task; start; stop } :: !recorded

let time ?task name f =
  let t0 = now () in
  let result = f () in
  record ?task name t0 (now ());
  result

let to_json () =
  let open Ent_obs.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [ ("name", Str s.name);
             ("episode", Int s.episode);
             ("task", Int s.task);
             ("start_s", Float s.start);
             ("dur_s", Float (s.stop -. s.start)) ])
       !recorded)

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Ent_obs.Json.to_string (to_json ()));
      output_char oc '\n')
