(* In-memory spans recorded around the calls the benchmark makes into each
   layer.  A span carries its name, start, end, parent and request id
   (the MAS task or the served session), plus the GC deltas over its
   interval.  Spans are written out as JSON lines when the run ends and
   reduced to self time per layer. *)

type span = {
  id : int;
  name : string;
  rid : string;
  parent : int;  (** -1 for a root *)
  start : float;
  stop : float;
  alloc_words : float;
  minor : int;
  major : int;
  promoted_words : float;
}

let spans : span list ref = ref []
let next_id = ref 0

let reset () =
  spans := [];
  next_id := 0

(* [with_span ~name ~rid ~parent f] runs [f id] inside a span [id]; child
   spans pass [id] as their parent. *)
let with_span ~name ~rid ~parent f =
  let id = !next_id in
  incr next_id;
  let g0 = Gc.quick_stat () in
  let a0 = Util.allocated_words g0 in
  let start = Util.now () in
  let finish () =
    let stop = Util.now () in
    let g1 = Gc.quick_stat () in
    spans :=
      {
        id;
        name;
        rid;
        parent;
        start;
        stop;
        alloc_words = Util.allocated_words g1 -. a0;
        minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major = g1.Gc.major_collections - g0.Gc.major_collections;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      }
      :: !spans
  in
  Fun.protect ~finally:finish (fun () -> f id)

(* A span timed elsewhere, such as a request's round trip measured by an
   event loop; it carries no GC deltas. *)
let add ~name ~rid ~start ~stop =
  let id = !next_id in
  incr next_id;
  spans :=
    { id; name; rid; parent = -1; start; stop; alloc_words = 0.0; minor = 0; major = 0;
      promoted_words = 0.0 }
    :: !spans

let all () = List.rev !spans
let dur s = s.stop -. s.start
let named name = List.filter (fun s -> s.name = name) (all ())
let total name = Util.sum (List.map dur (named name))

(* Self time per span name: each span's duration minus the part covered
   by its direct children (children never overlap: the bench is
   single-threaded). *)
let self_times () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    (all ());
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name)))
    (all ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Duoserve.Json.to_string
           (Duoserve.Json.Obj
              [
                ("id", Num (float_of_int s.id));
                ("name", Str s.name);
                ("rid", Str s.rid);
                ("parent", Num (float_of_int s.parent));
                ("start", Num s.start);
                ("end", Num s.stop);
                ("alloc_words", Num s.alloc_words);
                ("minor", Num (float_of_int s.minor));
                ("major", Num (float_of_int s.major));
              ]));
      output_char oc '\n')
    (all ());
  close_out oc
