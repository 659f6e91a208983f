(* Tests for incremental compaction (section 2.3): area selection,
   remembered-set fix-up, pinning, area-internal references, global-root
   rewriting, and end-to-end soundness with compaction enabled. *)

module Machine = Cgc_smp.Machine
module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Alloc_bits = Cgc_heap.Alloc_bits
module Bitvec = Cgc_util.Bitvec
module Compact = Cgc_core.Compact
module Config = Cgc_core.Config
module Collector = Cgc_core.Collector
module Vm = Cgc_runtime.Vm
module Mutator = Cgc_runtime.Mutator
module Stats = Cgc_util.Stats
module Gstats = Cgc_core.Gstats

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let mk_heap () = Heap.create (Machine.testing ()) ~nslots:16384

(* Allocate a live (marked + published) object at wherever the free list
   puts it. *)
let obj heap ~nrefs ~size =
  match Heap.alloc_large heap ~size ~nrefs ~mark_new:true with
  | Some a -> a
  | None -> Alcotest.fail "alloc failed"

let test_area_rotation () =
  let heap = mk_heap () in
  let cp = Compact.create heap in
  Compact.choose_area cp ~cycle:0 ~fraction:0.25;
  let lo0, hi0 = Compact.area cp in
  Compact.choose_area cp ~cycle:1 ~fraction:0.25;
  let lo1, _ = Compact.area cp in
  check cb "areas rotate" true (lo1 <> lo0);
  check cb "area is a quarter" true (hi0 - lo0 <= (16384 / 4) + 64);
  Compact.choose_area cp ~cycle:4 ~fraction:0.25;
  let lo4, _ = Compact.area cp in
  check ci "wraps around" lo0 lo4

let test_basic_evacuation_and_fixup () =
  let heap = mk_heap () in
  let cp = Compact.create heap in
  (* area = first quarter: [1, 4096); objects allocated from the free
     list start at 1, so the first objects land inside it *)
  Compact.choose_area cp ~cycle:0 ~fraction:0.25;
  let inside = obj heap ~nrefs:0 ~size:32 in
  check cb "object is in the area" true (Compact.in_area cp inside);
  (* a parent outside the area points at it *)
  let outside =
    match Cgc_heap.Freelist.alloc (Heap.freelist heap) 8 with
    | Some _ -> () ; ()
    | None -> ()
  in
  ignore outside;
  (* place the parent beyond the area by consuming free space *)
  let rec parent_outside () =
    let p = obj heap ~nrefs:1 ~size:8 in
    if Compact.in_area cp p then parent_outside () else p
  in
  let parent = parent_outside () in
  Arena.ref_set_raw (Heap.arena heap) parent 0 inside;
  Compact.record_ref cp ~parent ~idx:0 ~child:inside;
  let moved = Compact.evacuate cp ~globals:[||] in
  (* the in-area parent-allocation attempts of this test get evacuated
     too, so at least the 32-slot object moved *)
  check cb "at least 32 slots moved" true (moved >= 32);
  let fwd = Compact.forward cp inside in
  check cb "object moved out of the area" true (fwd <> inside && fwd >= 4096);
  check ci "parent slot rewritten" fwd (Arena.ref_get_sc (Heap.arena heap) parent 0);
  check cb "copy is live" true (Heap.is_marked heap fwd);
  check cb "copy published" true (Alloc_bits.is_set_sc (Heap.alloc_bits heap) fwd);
  check cb "old location unmarked" false (Heap.is_marked heap inside);
  check ci "one fixup" 1 (Compact.fixups cp)

let test_pinned_objects_stay () =
  let heap = mk_heap () in
  let cp = Compact.create heap in
  Compact.choose_area cp ~cycle:0 ~fraction:0.25;
  let inside = obj heap ~nrefs:0 ~size:16 in
  Compact.pin cp inside;
  check ci "pinned" 1 (Compact.pinned_count cp);
  ignore (Compact.evacuate cp ~globals:[||]);
  check ci "pinned object did not move" inside (Compact.forward cp inside);
  check cb "still live" true (Heap.is_marked heap inside)

let test_area_internal_references () =
  let heap = mk_heap () in
  let cp = Compact.create heap in
  Compact.choose_area cp ~cycle:0 ~fraction:0.5;
  (* two objects in the area referencing each other *)
  let a = obj heap ~nrefs:1 ~size:8 in
  let b = obj heap ~nrefs:1 ~size:8 in
  check cb "both inside" true (Compact.in_area cp a && Compact.in_area cp b);
  Arena.ref_set_raw (Heap.arena heap) a 0 b;
  Arena.ref_set_raw (Heap.arena heap) b 0 a;
  Compact.record_ref cp ~parent:a ~idx:0 ~child:b;
  Compact.record_ref cp ~parent:b ~idx:0 ~child:a;
  ignore (Compact.evacuate cp ~globals:[||]);
  let a' = Compact.forward cp a and b' = Compact.forward cp b in
  check cb "both moved" true (a' <> a && b' <> b);
  check ci "a' points to b'" b' (Arena.ref_get_sc (Heap.arena heap) a' 0);
  check ci "b' points to a'" a' (Arena.ref_get_sc (Heap.arena heap) b' 0)

let test_global_roots_rewritten () =
  let heap = mk_heap () in
  let cp = Compact.create heap in
  Compact.choose_area cp ~cycle:0 ~fraction:0.25;
  let inside = obj heap ~nrefs:0 ~size:8 in
  let globals = [| 0; inside; 42 |] in
  ignore (Compact.evacuate cp ~globals);
  check ci "global root rewritten" (Compact.forward cp inside) globals.(1);
  check ci "null untouched" 0 globals.(0);
  check ci "junk untouched" 42 globals.(2)

let test_stale_remset_entry_harmless () =
  let heap = mk_heap () in
  let cp = Compact.create heap in
  Compact.choose_area cp ~cycle:0 ~fraction:0.25;
  let inside = obj heap ~nrefs:0 ~size:8 in
  let rec parent_outside () =
    let p = obj heap ~nrefs:1 ~size:8 in
    if Compact.in_area cp p then parent_outside () else p
  in
  let parent = parent_outside () in
  Arena.ref_set_raw (Heap.arena heap) parent 0 inside;
  Compact.record_ref cp ~parent ~idx:0 ~child:inside;
  (* the mutator overwrote the slot after it was recorded *)
  Arena.ref_set_raw (Heap.arena heap) parent 0 0;
  ignore (Compact.evacuate cp ~globals:[||]);
  check ci "overwritten slot left alone" 0
    (Arena.ref_get_sc (Heap.arena heap) parent 0)

let test_inactive_evacuate_is_noop () =
  let heap = mk_heap () in
  let cp = Compact.create heap in
  check ci "no-op when inactive" 0 (Compact.evacuate cp ~globals:[||])

let test_config_guards () =
  let bad = { Config.default with Config.compaction = true; lazy_sweep = true } in
  let vm_cfg = Vm.config ~heap_mb:4.0 ~gc:bad () in
  Alcotest.check_raises "compaction + lazy sweep rejected"
    (Invalid_argument
       "Collector.create: --compaction excludes --lazy-sweep (compaction \
        requires in-pause sweep)")
    (fun () -> ignore (Vm.create vm_cfg))

(* End-to-end: churn under compaction; structures stay intact and objects
   actually move. *)
let test_end_to_end_compaction () =
  let gc = { Config.default with Config.compaction = true } in
  let vm = Vm.create (Vm.config ~heap_mb:8.0 ~ncpus:4 ~gc ()) in
  for i = 1 to 4 do
    Vm.spawn_mutator vm
      ~name:(Printf.sprintf "w%d" i)
      (fun m ->
        let resident =
          Cgc_workloads.Objgraph.build_list m ~len:1500 ~node_slots:12
        in
        Mutator.root_set m 0 resident;
        let tx = ref 0 in
        while not (Mutator.stopped m) do
          incr tx;
          let o = Mutator.alloc m ~nrefs:1 ~size:8 in
          Mutator.root_set m 1 o;
          let old = Mutator.root_get m 0 in
          let tail = Mutator.get_ref m old 0 in
          Mutator.root_set m 2 tail;
          let fresh = Mutator.alloc m ~nrefs:1 ~size:12 in
          Mutator.set_ref m fresh 0 tail;
          Mutator.root_set m 0 fresh;
          Mutator.root_set m 1 0;
          Mutator.root_set m 2 0;
          Mutator.work m 8_000;
          if !tx mod 400 = 0 then begin
            let len =
              Cgc_workloads.Objgraph.list_length m (Mutator.root_get m 0)
            in
            if len <> 1500 then
              Alcotest.failf "resident list corrupted under compaction: %d" len
          end;
          Mutator.tx_done m
        done)
  done;
  Vm.run vm ~ms:1200.0;
  let coll = Vm.collector vm in
  let st = Vm.gc_stats vm in
  check cb "cycles happened" true (st.Gstats.cycles >= 3);
  check cb "objects were evacuated" true
    (Compact.evacuated_objects (Collector.compactor coll) > 0);
  check cb "fixups happened" true (Compact.fixups (Collector.compactor coll) > 0);
  check (Alcotest.list (Alcotest.pair ci ci)) "heap intact under compaction" []
    (Collector.check_reachable coll);
  check cb "compaction pause component recorded" true
    (Cgc_util.Histogram.count st.Gstats.compact_ms > 0)

let test_end_to_end_shared_globals () =
  (* pBOB-style shared warehouses live in the global roots, which the
     evacuation rewrites precisely. *)
  let gc = { Config.default with Config.compaction = true } in
  let vm =
    Cgc_workloads.Pbob.setup ~warehouses:2 ~gc ~terminals:4 ~heap_mb:8.0
      ~think_mean:100_000 ()
  in
  Vm.run vm ~ms:1000.0;
  let coll = Vm.collector vm in
  check (Alcotest.list (Alcotest.pair ci ci)) "shared heap intact" []
    (Collector.check_reachable coll);
  check cb "warehouse dir still published" true
    (Collector.global_get coll 0 <> 0)

let () =
  Alcotest.run "compact"
    [
      ( "unit",
        [
          Alcotest.test_case "area rotation" `Quick test_area_rotation;
          Alcotest.test_case "evacuate + fixup" `Quick
            test_basic_evacuation_and_fixup;
          Alcotest.test_case "pinned stay" `Quick test_pinned_objects_stay;
          Alcotest.test_case "area-internal refs" `Quick
            test_area_internal_references;
          Alcotest.test_case "global roots rewritten" `Quick
            test_global_roots_rewritten;
          Alcotest.test_case "stale remset harmless" `Quick
            test_stale_remset_entry_harmless;
          Alcotest.test_case "inactive no-op" `Quick
            test_inactive_evacuate_is_noop;
          Alcotest.test_case "config guards" `Quick test_config_guards;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "churn under compaction" `Slow
            test_end_to_end_compaction;
          Alcotest.test_case "shared globals" `Slow
            test_end_to_end_shared_globals;
        ] );
    ]
