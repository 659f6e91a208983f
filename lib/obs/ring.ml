(* Events are stored as byte-coded columns rather than an array of
   Event.t records: [add_fields] is then three unboxed int stores and one
   byte store, so an armed sink allocates nothing per event.  The ring's
   own [tid] stands for every event's thread id.  The write cursor wraps
   by compare instead of [mod], which costs a hardware division per
   event; compare-wrap is division-free at every capacity.

   Storage doubles up to [cap] as events actually arrive: rings are made
   per simulated thread and most threads emit far fewer events than the
   configured capacity (a pBOB cell spreads a few hundred thousand events
   over hundreds of terminal threads), so sizing every ring to capacity
   would cost hundreds of megabytes of zeroed arrays per cell, and a
   coarser growth rule would leave busy rings mostly empty.  The cursor
   only wraps once [total] reaches [cap], by which point the arrays are
   at full size, so growth never moves a wrapped ring.  Records are only
   materialised by the cold read side ([to_list]). *)

type t = {
  tid : int;
  cap : int;
  mutable size : int; (* current physical array size, <= cap *)
  mutable ts : int array;
  mutable dur : int array;
  mutable arg : int array;
  mutable code : Bytes.t; (* Event.index of each event's code *)
  mutable pos : int; (* next write slot *)
  mutable total : int; (* events ever added since the last clear *)
  mutable order : int array; (* cached [order t], valid while ... *)
  mutable order_at : int; (* ... [total] equals this; -1 after [clear] *)
}

let initial_size cap = min cap 256

let create ~tid ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  let size = initial_size capacity in
  {
    tid;
    cap = capacity;
    size;
    ts = Array.make size 0;
    dur = Array.make size 0;
    arg = Array.make size 0;
    code = Bytes.make size '\000';
    pos = 0;
    total = 0;
    order = [||];
    order_at = -1;
  }

let tid t = t.tid
let slots t = t.size

let grow t =
  let size = min t.cap (2 * t.size) in
  let g (a : int array) =
    let b = Array.make size 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.ts <- g t.ts;
  t.dur <- g t.dur;
  t.arg <- g t.arg;
  let c = Bytes.make size '\000' in
  Bytes.blit t.code 0 c 0 t.size;
  t.code <- c;
  t.size <- size

let add_fields t ~ts ~dur ~code ~arg =
  let p = t.pos in
  if p >= t.size then grow t;
  Array.unsafe_set t.ts p ts;
  Array.unsafe_set t.dur p dur;
  Array.unsafe_set t.arg p arg;
  Bytes.unsafe_set t.code p (Char.unsafe_chr (Event.index code));
  let p1 = p + 1 in
  t.pos <- (if p1 = t.cap then 0 else p1);
  t.total <- t.total + 1

let length t = if t.total < t.cap then t.total else t.cap
let dropped t = if t.total > t.cap then t.total - t.cap else 0
let ts t i = t.ts.(i)
let dur t i = t.dur.(i)
let arg t i = t.arg.(i)
let code_index t i = Char.code (Bytes.get t.code i)

(* Oldest surviving event: slot 0 until the ring wraps, then the next
   slot to be overwritten. *)
let start t = if t.total <= t.cap then 0 else t.pos

let to_list t =
  let start = start t and out = ref [] in
  for i = length t - 1 downto 0 do
    let j = start + i in
    let j = if j >= t.cap then j - t.cap else j in
    out :=
      {
        Event.ts = t.ts.(j);
        dur = t.dur.(j);
        tid = t.tid;
        code = Event.of_index (code_index t j);
        arg = t.arg.(j);
      }
      :: !out
  done;
  !out

(* Timestamp order: an LSD radix sort of the slots over 11-bit digits of
   the timestamp with its sign bit flipped, so unsigned digit order is
   signed order.  Starting from oldest-first slot order makes it stable.
   Digits above the highest bit on which two keys differ are the same for
   every key and skipped, so simulated clocks (about 30 significant bits)
   take three passes.  The sort ping-pongs between the result and the
   caller's scratch array, so sorting a ring allocates only its result. *)
let radix_bits = 11
let radix_mask = (1 lsl radix_bits) - 1

type scratch = {
  room : int;
  mutable tmp : int array; (* [||] until the first sort *)
  mutable counts : int array;
}

let scratch room = { room; tmp = [||]; counts = [||] }

let sort t sc =
  let n = length t in
  if n > sc.room then invalid_arg "Ring.order: scratch too small";
  let out = Array.make n 0 in
  let start = start t in
  for i = 0 to n - 1 do
    let j = start + i in
    out.(i) <- (if j >= t.cap then j - t.cap else j)
  done;
  let key s = t.ts.(s) lxor min_int in
  let differ =
    if n = 0 then 0
    else
      let k0 = key 0 in
      let d = ref 0 in
      for s = 1 to n - 1 do
        d := !d lor (key s lxor k0)
      done;
      !d
  in
  if differ <> 0 && Array.length sc.tmp = 0 then begin
    sc.tmp <- Array.make sc.room 0;
    sc.counts <- Array.make (radix_mask + 1) 0
  end;
  let count = sc.counts in
  let rec pass shift src dst =
    if shift >= Sys.int_size || differ lsr shift = 0 then src
    else begin
      Array.fill count 0 (radix_mask + 1) 0;
      for j = 0 to n - 1 do
        let d = (key src.(j) lsr shift) land radix_mask in
        count.(d) <- count.(d) + 1
      done;
      let sum = ref 0 in
      for d = 0 to radix_mask do
        let c = count.(d) in
        count.(d) <- !sum;
        sum := !sum + c
      done;
      for j = 0 to n - 1 do
        let s = src.(j) in
        let d = (key s lsr shift) land radix_mask in
        let p = count.(d) in
        dst.(p) <- s;
        count.(d) <- p + 1
      done;
      pass (shift + radix_bits) dst src
    end
  in
  let sorted = pass 0 out sc.tmp in
  if sorted != out then Array.blit sorted 0 out 0 n;
  out

let order t sc =
  if t.order_at <> t.total then begin
    t.order <- sort t sc;
    t.order_at <- t.total
  end;
  t.order

let clear t =
  t.pos <- 0;
  t.total <- 0;
  t.order <- [||];
  t.order_at <- -1
