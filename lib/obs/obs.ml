type armed = {
  cap : int;
  now : unit -> int;
  tid : unit -> int;
  rings : (int, Ring.t) Hashtbl.t;
  mutable count : int;
  mutable last : Ring.t;
      (* the last ring emitted into, or [no_ring]: consecutive events
         overwhelmingly come from the same thread, so the hot path skips
         the per-event Hashtbl lookup *)
}

type t = Null | On of armed

(* "No ring yet": never registered, never written — [ring_of] checks
   for it by identity, so its tid needs no reserved value. *)
let no_ring = Ring.create ~tid:min_int ~capacity:1

let null = Null

let create ?(ring_capacity = 65536) ~now ~tid () =
  On
    {
      cap = ring_capacity;
      now;
      tid;
      rings = Hashtbl.create 16;
      count = 0;
      last = no_ring;
    }

let enabled = function Null -> false | On _ -> true

(* Allocation-free once the thread's ring exists: the cached ring is the
   ring itself, and [Hashtbl.find] returns it unboxed. *)
let ring_of a tid =
  let r = a.last in
  if Ring.tid r = tid && r != no_ring then r
  else begin
    let r =
      match Hashtbl.find a.rings tid with
      | r -> r
      | exception Not_found ->
          let r = Ring.create ~tid ~capacity:a.cap in
          Hashtbl.add a.rings tid r;
          r
    in
    a.last <- r;
    r
  end

(* All emission funnels through here: one ring-cache probe plus an
   allocation-free field append. *)
let emit a ~ts ~dur ~tid ~code ~arg =
  a.count <- a.count + 1;
  Ring.add_fields (ring_of a tid) ~ts ~dur ~code ~arg

let instant t ?(arg = 0) code =
  match t with
  | Null -> ()
  | On a -> emit a ~ts:(a.now ()) ~dur:(-1) ~tid:(a.tid ()) ~code ~arg

let span t ?(arg = 0) ~start code =
  match t with
  | Null -> ()
  | On a ->
      let now = a.now () in
      emit a ~ts:start ~dur:(max 0 (now - start)) ~tid:(a.tid ()) ~code ~arg

let span_at t ?(arg = 0) ~ts ~dur code =
  match t with
  | Null -> ()
  | On a -> emit a ~ts ~dur:(max 0 dur) ~tid:(a.tid ()) ~code ~arg

let instant_host t ?(arg = 0) ~tid ~ts code =
  match t with
  | Null -> ()
  | On a -> emit a ~ts ~dur:(-1) ~tid ~code ~arg

let emitted = function Null -> 0 | On a -> a.count

let dropped = function
  | Null -> 0
  | On a -> Hashtbl.fold (fun _ r acc -> acc + Ring.dropped r) a.rings 0

let dropped_by_thread = function
  | Null -> []
  | On a ->
      Hashtbl.fold
        (fun tid r acc ->
          if Ring.dropped r > 0 then (tid, Ring.dropped r) :: acc else acc)
        a.rings []
      |> List.sort compare

(* The non-empty rings, by thread id. *)
let rings a =
  let rs =
    Hashtbl.fold
      (fun _ r acc -> if Ring.length r > 0 then r :: acc else acc)
      a.rings []
    |> Array.of_list
  in
  Array.sort (fun x y -> compare (Ring.tid x) (Ring.tid y)) rs;
  rs

let length = function
  | Null -> 0
  | On a -> Hashtbl.fold (fun _ r acc -> acc + Ring.length r) a.rings 0

let iter_unsorted t f =
  match t with
  | Null -> ()
  | On a ->
      Array.iter
        (fun r ->
          let tid = Ring.tid r in
          for i = 0 to Ring.length r - 1 do
            f ~ts:(Ring.ts r i) ~dur:(Ring.dur r i) ~tid
              ~code:(Ring.code_index r i) ~arg:(Ring.arg r i)
          done)
        (rings a)

(* A k-way merge of the rings' timestamp orders.  A binary min-heap
   holds the index (into the tid-sorted [rs]) of every ring with events
   left, keyed by (head timestamp, ring index); each ring's own order is
   stable, so the output is ordered by (ts, tid, emission order) — the
   stable timestamp sort of the rings concatenated in tid order. *)
let iter_sorted t f =
  match t with
  | Null -> ()
  | On a ->
      let rs = rings a in
      let k = Array.length rs in
      let sc =
        Ring.scratch (Array.fold_left (fun m r -> max m (Ring.length r)) 0 rs)
      in
      let orders = Array.map (fun r -> Ring.order r sc) rs in
      let next = Array.make k 0 (* position in each order *)
      and head = Array.init k (fun r -> Ring.ts rs.(r) orders.(r).(0))
      and heap = Array.init k Fun.id
      and live = ref k in
      let less x y = head.(x) < head.(y) || (head.(x) = head.(y) && x < y) in
      let rec sift i =
        let l = (2 * i) + 1 in
        if l < !live then begin
          let c =
            if l + 1 < !live && less heap.(l + 1) heap.(l) then l + 1 else l
          in
          if less heap.(c) heap.(i) then begin
            let x = heap.(i) in
            heap.(i) <- heap.(c);
            heap.(c) <- x;
            sift c
          end
        end
      in
      for i = (k / 2) - 1 downto 0 do
        sift i
      done;
      while !live > 0 do
        let x = heap.(0) in
        let r = rs.(x) and order = orders.(x) in
        let slot = order.(next.(x)) in
        f ~ts:head.(x) ~dur:(Ring.dur r slot) ~tid:(Ring.tid r)
          ~code:(Ring.code_index r slot) ~arg:(Ring.arg r slot);
        let j = next.(x) + 1 in
        next.(x) <- j;
        if j < Array.length order then head.(x) <- Ring.ts r order.(j)
        else begin
          decr live;
          heap.(0) <- heap.(!live)
        end;
        sift 0
      done

(* Records are built only here, from the merge, and are not retained:
   export writes straight from the rings. *)
let events_array t =
  let n = length t in
  if n = 0 then [||]
  else begin
    let out =
      Array.make n
        { Event.ts = 0; dur = 0; tid = 0; code = Cycle_start; arg = 0 }
    in
    let i = ref 0 in
    iter_sorted t (fun ~ts ~dur ~tid ~code ~arg ->
        out.(!i) <- { Event.ts; dur; tid; code = Event.of_index code; arg };
        incr i);
    out
  end

let events t = Array.to_list (events_array t)

let clear = function
  | Null -> ()
  | On a ->
      Hashtbl.iter (fun _ r -> Ring.clear r) a.rings;
      a.count <- 0
