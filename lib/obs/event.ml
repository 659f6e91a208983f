type code =
  | Cycle_start
  | Cycle_end
  | Conc_mark
  | Stw_pause
  | Stw_mark
  | Stw_sweep
  | Stw_compact
  | Mut_increment
  | Bg_chunk
  | Root_scan
  | Card_pass
  | Card_clean_conc
  | Card_clean_stw
  | Packet_get
  | Packet_put
  | Packet_defer
  | Packet_recycle
  | Packet_steal
  | Sweep_chunk
  | Fence_flush
  | Alloc_failure
  | Fault_inject
  | Degrade_force_finish
  | Degrade_full_stw
  | Degrade_compact
  | Oom
  | Verify_pass
  | Incr_factor
  | Req_arrive
  | Req_start
  | Req_done
  | Req_shed
  | Req_timeout
  | Req_retry
  | Req_redirect
  | Req_hedge
  | Cluster_fault
  | Minor_start
  | Minor_done
  | Promote
  | Nursery_fill

type t = { ts : int; dur : int; tid : int; code : code; arg : int }

let instant e = e.dur < 0

let name = function
  | Cycle_start -> "cycle-start"
  | Cycle_end -> "cycle-end"
  | Conc_mark -> "concurrent-mark"
  | Stw_pause -> "stw-pause"
  | Stw_mark -> "stw-mark"
  | Stw_sweep -> "stw-sweep"
  | Stw_compact -> "stw-compact"
  | Mut_increment -> "mutator-increment"
  | Bg_chunk -> "background-chunk"
  | Root_scan -> "root-scan"
  | Card_pass -> "card-pass"
  | Card_clean_conc -> "card-clean-concurrent"
  | Card_clean_stw -> "card-clean-stw"
  | Packet_get -> "packet-get"
  | Packet_put -> "packet-put"
  | Packet_defer -> "packet-defer"
  | Packet_recycle -> "packet-recycle"
  | Packet_steal -> "packet-steal"
  | Sweep_chunk -> "sweep-chunk"
  | Fence_flush -> "fence-flush"
  | Alloc_failure -> "alloc-failure"
  | Fault_inject -> "fault-inject"
  | Degrade_force_finish -> "degrade-force-finish"
  | Degrade_full_stw -> "degrade-full-stw"
  | Degrade_compact -> "degrade-compact"
  | Oom -> "out-of-memory"
  | Verify_pass -> "verify-pass"
  | Incr_factor -> "increment-factor"
  | Req_arrive -> "req-arrive"
  | Req_start -> "req-start"
  | Req_done -> "req-done"
  | Req_shed -> "req-shed"
  | Req_timeout -> "req-timeout"
  | Req_retry -> "req-retry"
  | Req_redirect -> "req-redirect"
  | Req_hedge -> "req-hedge"
  | Cluster_fault -> "cluster-fault"
  | Minor_start -> "minor-start"
  | Minor_done -> "minor-done"
  | Promote -> "promote"
  | Nursery_fill -> "nursery-fill"

let cat = function
  | Cycle_start | Cycle_end -> "cycle"
  | Conc_mark | Mut_increment | Bg_chunk -> "phase"
  | Stw_pause | Stw_mark | Stw_sweep | Stw_compact -> "pause"
  | Root_scan -> "root"
  | Card_pass | Card_clean_conc | Card_clean_stw -> "card"
  | Packet_get | Packet_put | Packet_defer | Packet_recycle | Packet_steal ->
      "packet"
  | Sweep_chunk -> "sweep"
  | Fence_flush -> "fence"
  | Alloc_failure -> "cycle"
  | Fault_inject -> "fault"
  | Degrade_force_finish | Degrade_full_stw | Degrade_compact | Oom ->
      "degrade"
  | Verify_pass -> "verify"
  | Incr_factor -> "phase"
  | Req_arrive | Req_start | Req_done | Req_shed | Req_timeout | Req_retry
  | Req_redirect | Req_hedge ->
      "server"
  | Cluster_fault -> "fault"
  | Minor_start | Minor_done | Promote | Nursery_fill -> "gen"

let all_codes =
  [
    Cycle_start;
    Cycle_end;
    Conc_mark;
    Stw_pause;
    Stw_mark;
    Stw_sweep;
    Stw_compact;
    Mut_increment;
    Bg_chunk;
    Root_scan;
    Card_pass;
    Card_clean_conc;
    Card_clean_stw;
    Packet_get;
    Packet_put;
    Packet_defer;
    Packet_recycle;
    Packet_steal;
    Sweep_chunk;
    Fence_flush;
    Alloc_failure;
    Fault_inject;
    Degrade_force_finish;
    Degrade_full_stw;
    Degrade_compact;
    Oom;
    Verify_pass;
    Incr_factor;
    Req_arrive;
    Req_start;
    Req_done;
    Req_shed;
    Req_timeout;
    Req_retry;
    Req_redirect;
    Req_hedge;
    Cluster_fault;
    Minor_start;
    Minor_done;
    Promote;
    Nursery_fill;
  ]

(* Constant constructors are the immediates 0, 1, ... in declaration
   order, which is [all_codes] order (checked by the obs tests). *)
external index : code -> int = "%identity"

let n_codes = List.length all_codes
let codes = Array.of_list all_codes
let of_index i = codes.(i)

let of_name =
  let tbl = Hashtbl.create 32 in
  List.iter (fun c -> Hashtbl.replace tbl (name c) c) all_codes;
  fun n -> Hashtbl.find_opt tbl n
