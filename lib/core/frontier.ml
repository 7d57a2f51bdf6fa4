type entry = Partial.t * int

type t = {
  mutable heap : entry array;
  mutable len : int;
  mutable seq : int;
  mutable dropped : int;
  cap : int;
  dummy : entry;
}

let create ?(cap = max_int) () =
  let dummy = (Partial.root, -1) in
  { heap = Array.make 64 dummy; len = 0; seq = 0; dropped = 0; cap; dummy }

let dropped t = t.dropped

let size t = t.len
let is_empty t = t.len = 0
let pushed t = t.seq

(* entry [a] has higher priority than [b] when compare_priority a b < 0 *)
let higher a b = Partial.compare_priority a b < 0

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if higher t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.len && higher t.heap.(l) t.heap.(!best) then best := l;
  if r < t.len && higher t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

(* Compact to the best cap/2 entries when the cap is exceeded. *)
let compact t =
  let live = Array.sub t.heap 0 t.len in
  Array.sort Partial.compare_priority live;
  let keep = max 1 (t.cap / 2) in
  let keep = min keep t.len in
  t.dropped <- t.dropped + (t.len - keep);
  Array.fill t.heap 0 t.len t.dummy;
  Array.blit live 0 t.heap 0 keep;
  t.len <- keep

(* Insert a pre-stamped entry: shared by [push] (fresh sequence number)
   and [restore] (original sequence number, no counter bump). *)
let push_entry t entry =
  if t.len >= t.cap then compact t;
  if t.len = Array.length t.heap then begin
    let heap' = Array.make (2 * t.len) t.dummy in
    Array.blit t.heap 0 heap' 0 t.len;
    t.heap <- heap'
  end;
  t.heap.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let push t pq =
  push_entry t (pq, t.seq);
  t.seq <- t.seq + 1

let pop_entry t =
  if t.len = 0 then None
  else begin
    let entry = t.heap.(0) in
    t.len <- t.len - 1;
    t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- t.dummy;
    if t.len > 0 then sift_down t 0;
    Some entry
  end

let pop t = Option.map fst (pop_entry t)

let pop_entries t k =
  let rec go k acc =
    if k <= 0 then List.rev acc
    else
      match pop_entry t with
      | None -> List.rev acc
      | Some e -> go (k - 1) (e :: acc)
  in
  go k []

let pop_k t k = List.map fst (pop_entries t k)

let restore t entries = List.iter (push_entry t) entries
