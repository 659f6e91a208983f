type mode = Stw | Cgc | Gen

type load_balance = Packets | Stealing

let cache_slots = 256

let nursery_fraction = 0.125

type t = {
  mode : mode;
  k0 : float;
  n_packets : int;
  packet_capacity : int;
  n_background : int;
  card_passes : int;
  lazy_sweep : bool;
  load_balance : load_balance;
  defer_protocol : bool;
  compaction : bool;
  faults : Cgc_fault.Fault.t;
  verify : bool;
}

let default =
  {
    mode = Cgc;
    k0 = 8.0;
    n_packets = 1000;
    packet_capacity = 493;
    n_background = 4;
    card_passes = 1;
    lazy_sweep = false;
    load_balance = Packets;
    defer_protocol = true;
    compaction = false;
    faults = Cgc_fault.Fault.disabled;
    verify = false;
  }

let stw = { default with mode = Stw }
let gen = { default with mode = Gen }

let mode_name = function Stw -> "stw" | Cgc -> "cgc" | Gen -> "gen"

let mode_of_name = function
  | "stw" -> Some Stw
  | "cgc" -> Some Cgc
  | "gen" -> Some Gen
  | _ -> None

(* The one rule for which option combinations are legal; the CLI, the
   collector and the configuration fuzzer all ask it. *)
let validate c =
  let excludes a b why = Error (Printf.sprintf "%s excludes %s (%s)" a b why) in
  if c.compaction && c.lazy_sweep then
    excludes "--compaction" "--lazy-sweep" "compaction requires in-pause sweep"
  else if c.compaction && c.load_balance = Stealing then
    excludes "--compaction" "work stealing"
      "compaction requires the packet tracer"
  else if c.mode = Gen && c.compaction then
    excludes "--gc gen" "--compaction"
      "the compactor would evacuate across the nursery boundary"
  else if c.mode = Gen && c.lazy_sweep then
    excludes "--gc gen" "--lazy-sweep"
      "the lazy cursor would fold the nursery into the free list"
  else Ok ()
