(** Collector configuration.

    The defaults mirror the paper's experimental setup (section 6):
    tracing rate 8.0, 1000 work packets of 493 entries each, 4 low-priority
    background threads and a single concurrent card-cleaning pass.  The
    stop-the-world phases run on [min 4 ncpus] parallel workers
    ({!Collector}).

    Only the values some caller varies are fields of {!t}; the fixed
    design parameters are constants in the module that reads them:
    the metering constants (Kmax factor, corrective term C, smoothing
    and initial estimates) in {!Metering}, and the worker count,
    large-object threshold, background chunk and evacuation fraction in
    {!Collector}.  The two read by more than one module are below. *)

type mode =
  | Stw  (** the baseline: parallel stop-the-world mark-sweep only *)
  | Cgc  (** the paper's parallel, incremental, mostly-concurrent collector *)
  | Gen
      (** the generational front end: a bump-allocated nursery with
          copying minor collections in front of the concurrent (Cgc)
          major collector *)

type load_balance =
  | Packets   (** the paper's work-packet mechanism (section 4) *)
  | Stealing  (** Endo-style private mark stacks with stealing (section 4.4) *)

val cache_slots : int
(** Preferred allocation-cache size, in slots: 256 (2 KB).  The
    collector refills mutator caches from the free list in chunks of
    this size, and the [Gen] nursery hands out bump extents of it. *)

val nursery_fraction : float
(** [Gen] mode: fraction of the arena carved off as the nursery, 1/8
    (card-aligned, taken from the top of the heap; the old space shrinks
    by the same amount, so heap budgets stay comparable across the
    [--gc] axis). *)

type t = {
  mode : mode;
  k0 : float;  (** desired allocator tracing rate K0 (the "tracing rate") *)
  n_packets : int;
  packet_capacity : int;
  n_background : int;  (** low-priority background tracing threads *)
  card_passes : int;  (** concurrent card-cleaning passes (1; footnote 2 suggests 2) *)
  lazy_sweep : bool;  (** section 7 extension: sweep outside the pause *)
  load_balance : load_balance;
  defer_protocol : bool;  (** section 5.2 allocation-bit check (tests disable) *)
  compaction : bool;
      (** incremental compaction (section 2.3): evacuate one area per
          cycle inside the pause, with in-pointers tracked during marking *)
  faults : Cgc_fault.Fault.t;
      (** deterministic fault injector (default {!Cgc_fault.Fault.disabled});
          see [docs/FAULTS.md] for the scenario catalogue *)
  verify : bool;
      (** run the {!Verify} heap invariant checker at every cycle
          boundary (host-side, uncharged; raises
          {!Verify.Invariant_violation} on corruption) *)
}

val default : t
(** CGC with the paper's parameters. *)

val stw : t
(** The stop-the-world baseline. *)

val gen : t
(** The generational front end over the concurrent major collector. *)

val mode_name : mode -> string
(** ["stw"], ["cgc"] or ["gen"] — the [--gc] axis spelling. *)

val mode_of_name : string -> mode option
(** Inverse of {!mode_name}. *)

val validate : t -> (unit, string) result
(** The legal combinations: compaction excludes lazy sweep and work
    stealing, and [Gen] mode excludes compaction and lazy sweep.  The
    error names the clashing [cgcsim] flags.  {!Collector.create} raises
    [Invalid_argument] with this message. *)
