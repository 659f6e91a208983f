type armed = {
  cap : int;
  now : unit -> int;
  tid : unit -> int;
  rings : (int, Ring.t) Hashtbl.t;
  mutable count : int;
  mutable last : (int * Ring.t) option;
      (* cache of the last (tid, ring) pair: consecutive events
         overwhelmingly come from the same thread, so the hot path skips
         the per-event Hashtbl lookup *)
  mutable merged : (int * Event.t array) option;
      (* the sorted merge of the rings and the [count] it was built at:
         every emit bumps [count] and [clear] drops it, so a matching
         count means no event changed since, and export followed by
         analysis sorts once *)
}

type t = Null | On of armed

let null = Null

let create ?(ring_capacity = 65536) ~now ~tid () =
  On
    {
      cap = ring_capacity;
      now;
      tid;
      rings = Hashtbl.create 16;
      count = 0;
      last = None;
      merged = None;
    }

let enabled = function Null -> false | On _ -> true

let ring_of a tid =
  match a.last with
  | Some (t0, r) when t0 = tid -> r
  | _ ->
      let r =
        match Hashtbl.find_opt a.rings tid with
        | Some r -> r
        | None ->
            let r = Ring.create ~capacity:a.cap in
            Hashtbl.add a.rings tid r;
            r
      in
      a.last <- Some (tid, r);
      r

(* All emission funnels through here: one ring-cache probe plus an
   allocation-free field append. *)
let emit a ~ts ~dur ~tid ~code ~arg =
  a.count <- a.count + 1;
  Ring.add_fields (ring_of a tid) ~ts ~dur ~tid ~code ~arg

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

(* Indices [0 .. n-1] stably ordered by a non-empty [ts]: an LSD radix
   sort over 11-bit digits that carries each key with its index.  Keys
   are the timestamps with the sign bit flipped, so unsigned digit order
   is signed order; digits above the highest bit on which two keys
   differ are the same for every key and skipped, so simulated clocks
   (about 30 significant bits) take three passes. *)
let radix_bits = 11

let stable_order_by ts =
  let n = Array.length ts in
  let key = Array.map (fun t -> t lxor min_int) ts in
  let k0 = key.(0) in
  let differ = Array.fold_left (fun acc k -> acc lor (k lxor k0)) 0 key in
  let mask = (1 lsl radix_bits) - 1 in
  let count = Array.make (mask + 1) 0 in
  let rec pass shift key idx key' idx' =
    if shift >= Sys.int_size || differ lsr shift = 0 then idx
    else begin
      Array.fill count 0 (mask + 1) 0;
      for j = 0 to n - 1 do
        let d = (key.(j) lsr shift) land mask in
        count.(d) <- count.(d) + 1
      done;
      let sum = ref 0 in
      for d = 0 to mask do
        let c = count.(d) in
        count.(d) <- !sum;
        sum := !sum + c
      done;
      for j = 0 to n - 1 do
        let k = key.(j) in
        let d = (k lsr shift) land mask in
        let p = count.(d) in
        key'.(p) <- k;
        idx'.(p) <- idx.(j);
        count.(d) <- p + 1
      done;
      pass (shift + radix_bits) key' idx' key idx
    end
  in
  pass 0 key (Array.init n Fun.id) (Array.make n 0) (Array.make n 0)

(* The surviving events of every ring, merged and sorted by timestamp.
   Stable: equal timestamps keep the (tid, emission order) order the
   concatenation establishes, so the listing is reproducible — and
   byte-for-byte the order the previous list implementation produced.
   Built as an array because the analysis and export passes are
   length-heavy: one flat array of a few hundred thousand records sorts
   and scans several times faster than the cons-cell chain
   [List.stable_sort] used to walk. *)
let merge a =
  let tids =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) a.rings [])
  in
  let n =
    List.fold_left
      (fun acc tid -> acc + Ring.length (Hashtbl.find a.rings tid))
      0 tids
  in
  if n = 0 then [||]
  else begin
    (* Gather every ring's scalars with segment blits — no per-event
       boxing — then order the indices by timestamp, so records are
       materialised once, already in final order. *)
    let ts = Array.make n 0
    and dur = Array.make n 0
    and tid = Array.make n 0
    and arg = Array.make n 0
    and code = Array.make n Event.Cycle_start in
    let pos = ref 0 in
    List.iter
      (fun t0 ->
        pos :=
          Ring.blit_fields (Hashtbl.find a.rings t0) ~ts ~dur ~tid ~arg
            ~code ~pos:!pos)
      tids;
    let order = stable_order_by ts in
    Array.init n (fun j ->
        let i = order.(j) in
        {
          Event.ts = ts.(i);
          dur = dur.(i);
          tid = tid.(i);
          code = code.(i);
          arg = arg.(i);
        })
  end

(* Records are immutable, so callers may share them; only the array
   itself is copied, keeping one caller's mutation out of the next
   export. *)
let merged a =
  match a.merged with
  | Some (count, arr) when count = a.count -> arr
  | _ ->
      let arr = merge a in
      a.merged <- Some (a.count, arr);
      arr

let events_array = function Null -> [||] | On a -> Array.copy (merged a)
let events = function Null -> [] | On a -> Array.to_list (merged a)

let clear = function
  | Null -> ()
  | On a ->
      Hashtbl.iter (fun _ r -> Ring.clear r) a.rings;
      a.count <- 0;
      a.merged <- None
