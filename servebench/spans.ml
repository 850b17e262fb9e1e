(* In-memory span recorder for the traced run. Every span carries its
   name, start and end (monotonic nanoseconds), the id of the span that
   caused it (-1 for a root) and the request id it belongs to. Nothing
   is written until [write] at the end of the run. *)

type span = {
  id : int;
  name : string;
  start : int64;
  stop : int64;
  parent : int;
  req : int;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }
let now () = Monotonic_clock.now ()
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Run [f] as span [name]; returns its result and the span, so the
   caller can parent later spans under it. *)
let record t ~name ~req ?(parent = -1) f =
  let id = t.next in
  t.next <- id + 1;
  let start = now () in
  let v = f () in
  let stop = now () in
  let s = { id; name; start; stop; parent; req } in
  t.spans <- s :: t.spans;
  (v, s)

let duration_ms s = ms_of_ns (Int64.sub s.stop s.start)

(* Self time: a span's duration minus the part of its interval that its
   children cover. *)
let self_ms t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    t.spans;
  let covered s =
    let inside =
      Option.value ~default:[] (Hashtbl.find_opt children s.id)
      |> List.filter_map (fun c ->
             let a = max c.start s.start and b = min c.stop s.stop in
             if Int64.compare a b < 0 then Some (a, b) else None)
      |> List.sort compare
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = max a reach in
          if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b)
          else (acc, reach))
        (0L, Int64.min_int) inside
    in
    ms_of_ns total
  in
  List.map (fun s -> (s, duration_ms s -. covered s)) t.spans

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"name":"%s","req":%d,"parent":%d,"start_ns":%Ld,"end_ns":%Ld}|}
        s.id s.name s.req s.parent s.start s.stop;
      output_char oc '\n')
    (List.rev t.spans);
  close_out oc
