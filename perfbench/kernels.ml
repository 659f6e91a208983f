(* Layer kernels: host nanoseconds per operation of each layer's hot
   public functions, timed by the benchmark itself.  The first seven are
   the operations [bench/main.exe micro] prints; [sim.dispatch_ns] and
   [obs.record_ns] cover the scheduler and the trace ring.

   Each kernel runs [batches] batches of [n] operations after one
   untimed warm-up batch and reports the median batch's ns/op. *)

module Heap = Cgc_heap.Heap
module Arena = Cgc_heap.Arena
module Card_table = Cgc_heap.Card_table
module Bitvec = Cgc_util.Bitvec
module Packet = Cgc_packets.Packet
module Pool = Cgc_packets.Pool
module Tracer = Cgc_core.Tracer
module Sched = Cgc_sim.Sched
module Obs = Cgc_obs.Obs

let batches = 7

let ns_per_op ~n op =
  op n;
  let one () =
    let t0 = Probe.now () in
    op n;
    (Probe.now () -. t0) *. 1e9 /. float_of_int n
  in
  Probe.median (List.init batches (fun _ -> one ()))

let repeat body n =
  for _ = 1 to n do
    body ()
  done

let heap_kernels () =
  let mach = Cgc_smp.Machine.testing () in
  let heap = Heap.create mach ~nslots:(1 lsl 20) in
  let pool = Pool.create mach ~n_packets:64 ~capacity:493 in
  let packet = Packet.make mach ~id:999 ~capacity:493 in
  let bits = Bitvec.create (1 lsl 20) in
  let alloc size nrefs =
    match Heap.alloc_large heap ~size ~nrefs ~mark_new:true with
    | Some a -> a
    | None -> failwith "kernel heap exhausted"
  in
  (* A published object whose four children are already marked, so
     scanning it again is a net no-op. *)
  let parent = alloc 16 4 in
  for i = 0 to 3 do
    Arena.ref_set_raw (Heap.arena heap) parent i (alloc 8 0)
  done;
  let tracer = Tracer.create Cgc_core.Config.default heap pool in
  let session = Tracer.new_session tracer in
  let cards = Heap.cards heap in
  [
    ( "packets.push_pop_ns",
      ns_per_op ~n:2_000_000
        (repeat (fun () ->
             ignore (Packet.push packet 42);
             ignore (Packet.pop packet))) );
    ( "packets.pool_get_put_ns",
      ns_per_op ~n:1_000_000
        (repeat (fun () ->
             match Pool.get_output pool with
             | Some p -> Pool.put pool p
             | None -> ())) );
    ( "heap.write_barrier_ns",
      ns_per_op ~n:2_000_000
        (repeat (fun () ->
             Arena.ref_set_raw (Heap.arena heap) parent 0 (parent + 16);
             Card_table.dirty cards (Arena.card_of_addr parent))) );
    ( "core.mark_tas_ns",
      ns_per_op ~n:2_000_000
        (repeat (fun () ->
             ignore (Bitvec.test_and_set bits 12345);
             Bitvec.clear bits 12345)) );
    ( "core.bitvec_scan_ns",
      ns_per_op ~n:200_000
        (repeat (fun () -> ignore (Bitvec.next_set bits 500_000))) );
    ( "core.scan_object_ns",
      ns_per_op ~n:500_000
        (repeat (fun () ->
             ignore (Tracer.scan_object tracer session ~retrace:true parent))) );
    ( "heap.card_snapshot_ns",
      ns_per_op ~n:20_000 (repeat (fun () -> ignore (Card_table.snapshot cards))) );
  ]

(* Eight threads on four simulated CPUs, each alternating a short
   [consume] with a [yield]: ns per consume+yield pair, scheduler
   dispatch included. *)
let dispatch_ns () =
  let threads = 8 in
  ns_per_op ~n:200_000 (fun n ->
      let sc = Sched.create ~ncpus:4 () in
      let per = n / threads in
      for i = 1 to threads do
        ignore
          (Sched.spawn sc ~name:(Printf.sprintf "k%d" i) ~prio:Sched.Normal
             (fun () ->
               for _ = 1 to per do
                 Sched.consume 100;
                 Sched.yield ()
               done))
      done;
      Sched.run sc ~until:max_int)

(* [Obs.instant] into an armed ring that wraps. *)
let record_ns () =
  let clock = ref 0 in
  let o =
    Obs.create ~ring_capacity:4096 ~now:(fun () -> !clock) ~tid:(fun () -> 0) ()
  in
  ns_per_op ~n:2_000_000
    (repeat (fun () ->
         incr clock;
         Obs.instant o ~arg:!clock Cgc_obs.Event.Fence_flush))

let all () =
  heap_kernels ()
  @ [ ("sim.dispatch_ns", dispatch_ns ()); ("obs.record_ns", record_ns ()) ]
