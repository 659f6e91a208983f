(** Bounded per-thread event ring.

    Each simulated thread that emits trace events gets one of these, and
    the ring carries that thread's id, so its events store no tid of
    their own.  The capacity is fixed at creation; once full, the
    {e oldest} event is overwritten so that the tail of a run — where
    the interesting behaviour usually is — survives, and a drop counter
    records how much history was lost.

    Events live in byte-coded columns: three [int] arrays (timestamp,
    duration, payload) and one byte per event for the code's
    {!Event.index} — 25 bytes an event on a 64-bit host.  Appends are
    O(1) and allocation-free; the columns start at 256 slots and double
    as events arrive, up to the capacity, so a ring's arrays are at most
    twice what it recorded.  The cursor only wraps once the arrays are
    at full size.

    The surviving events occupy slots [0 .. length - 1]; {!to_list}
    lists them oldest-first and {!order} by timestamp. *)

type t

val create : tid:int -> capacity:int -> t
(** An empty ring for thread [tid].  [Invalid_argument] unless
    [capacity > 0]. *)

val tid : t -> int

val add_fields : t -> ts:int -> dur:int -> code:Event.code -> arg:int -> unit
(** Append one event of this ring's thread.  Allocation-free: no
    [Event.t] record is built and, past the growth steps, nothing is
    allocated. *)

val length : t -> int
(** Events currently held (at most [capacity]). *)

val dropped : t -> int
(** Events overwritten since creation (or the last {!clear}). *)

val slots : t -> int
(** Current size of the column arrays: never more than [capacity], and
    at most [max 256 (2 * k)] after [k] appends. *)

(** {2 Reading one slot}

    [i] is a physical slot in [0 .. length - 1]. *)

val ts : t -> int -> int
val dur : t -> int -> int
val arg : t -> int -> int

val code_index : t -> int -> int
(** The slot's code as its {!Event.index}. *)

val to_list : t -> Event.t list
(** Oldest surviving event first, each materialised as a record whose
    [tid] is the ring's. *)

(** {2 Timestamp order} *)

type scratch
(** Reusable sort workspace, so a caller sorting many rings allocates
    the temporaries once. *)

val scratch : int -> scratch
(** Workspace for rings of up to the given {!length}.  Allocates
    nothing until a sort needs it. *)

val order : t -> scratch -> int array
(** The slots of the surviving events, stably sorted by timestamp over
    the whole [int] range: among equal timestamps the older event comes
    first.  The array (one word an event) is cached until the next
    {!add_fields} or {!clear} and must not be mutated.
    [Invalid_argument] when the workspace is too small for the ring. *)

val clear : t -> unit
