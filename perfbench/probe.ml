(* Measurement helpers shared by the workloads: clocks, GC truth, the
   system's own counters, order statistics and the run record every
   workload fills in. *)

module Obs = Bbx_obs.Obs

let now = Unix.gettimeofday

(* Where a run leaves its files (span dumps, the daemon's socket),
   relative to the checkout it runs in. *)
let out_dir = "_perfbench"

(* Set-up runs this many times at the start of a run and its median is
   reported. *)
let setup_repeats = 5

let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* GC truth: live heap bytes after two full major cycles. *)
let live_bytes () =
  Gc.full_major ();
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A growable float vector (latency samples). *)
type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 4096 0.0; len = 0 }

let push v x =
  if v.len = Array.length v.data then
    v.data <- Array.append v.data (Array.make v.len 0.0);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* Nearest-rank percentile. *)
let percentile v q =
  if v.len = 0 then 0.0
  else begin
    let s = Array.sub v.data 0 v.len in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int v.len)) - 1 in
    s.(max 0 (min (v.len - 1) k))
  end

(* {1 The system's own counters} *)

let span_s name = Obs.span_seconds (Obs.span name)
let counter name = float_of_int (Obs.counter_value (Obs.counter name))

(* Shardpool's mailbox wait, recorded by the worker at dequeue. *)
let queue_wait = Obs.histogram "bbx_daemon_queue_wait_us" ~buckets:[| 1 |]

let queue_wait_us () =
  (float_of_int (Obs.histogram_sum queue_wait), Obs.histogram_count queue_wait)

(* Cumulative values of the counters the ledger reads; subtract two
   snapshots to get one phase's share. *)
type snap = {
  handshake_s : float;
  prep_s : float;
  garble_s : float;
  eval_s : float;
  prep_bytes : float;
  escalations : float;
  plain_bytes : float;
  sender_wire_bytes : float;
  qwait_us : float;
  qwait_n : int;
  allocated : float;
  majors : int;
}

let snap () =
  let qwait_us, qwait_n = queue_wait_us () in
  { handshake_s = span_s "bbx_session_handshake";
    prep_s = span_s "bbx_session_rule_prep";
    garble_s = span_s "bbx_ruleprep_garble";
    eval_s = span_s "bbx_ruleprep_eval";
    prep_bytes =
      counter "bbx_ruleprep_circuit_bytes_total" +. counter "bbx_ruleprep_ot_bytes_total";
    escalations = counter "bbx_tier_escalations_total";
    plain_bytes = counter "bbx_tier_plain_bytes_total";
    sender_wire_bytes = counter "bbx_dpienc_sender_wire_bytes_total";
    qwait_us; qwait_n;
    allocated = Gc.allocated_bytes ();
    majors = (Gc.quick_stat ()).Gc.major_collections }

(* {1 What one run measured} *)

type setup = {
  conns : int;
  setup_s : float;
  conn_bytes : float;      (* GC live delta / connections *)
  handshake_s : float;
  prep_s : float;
  garble_s : float;
  eval_s : float;
  prep_bytes : float;
  chunks : int;
}

type run = {
  mutable setups : setup list;
  lat_us : vec;              (* payload handed over -> verdict back *)
  sizes : vec;               (* the same messages' plaintext bytes *)
  rtt_us : vec;              (* daemon: frame sent -> verdict back *)
  mutable timed_s : float;
  mutable msgs : int;        (* timed messages whose verdict returned *)
  mutable plain : int;       (* their plaintext bytes *)
  mutable wire : float;      (* token + record bytes they put on the wire *)
  mutable tokens : int;
  mutable hits : int;
  mutable alerts : int;
  mutable blocked : int;
  mutable escalated : int;
  mutable conns : int;       (* connections driven *)
  mutable plain_decrypted : float;
  mutable qwait_us : float;
  mutable qwait_n : int;
  mutable allocated : float;
  mutable majors : int;
  mutable attempted : int;   (* messages checked against the oracle *)
  mutable failed : int;
  mutable first_tokens : int;  (* first seen on their connection *)
  mutable all_tokens : int;
}

let run () =
  { setups = []; lat_us = vec (); sizes = vec (); rtt_us = vec (); timed_s = 0.0; msgs = 0; plain = 0; wire = 0.0;
    tokens = 0; hits = 0; alerts = 0; blocked = 0; escalated = 0; conns = 0;
    plain_decrypted = 0.0; qwait_us = 0.0; qwait_n = 0; allocated = 0.0; majors = 0;
    attempted = 0; failed = 0; first_tokens = 0; all_tokens = 0 }

(* A timed message whose verdict came back [latency] seconds after its
   payload was handed over. *)
let answered r ~latency ~bytes =
  push r.lat_us (latency *. 1e6);
  push r.sizes (float_of_int bytes);
  r.msgs <- r.msgs + 1;
  r.plain <- r.plain + bytes

(* The timed phase cut into [n] slices of equal time: per slice the goodput
   in Mbit/s and the latency at each quantile of [qs] in microseconds, with
   the smallest slice's sample count.  A loop runs one message at a time,
   so a message's latency is the time it occupies. *)
let slices r n qs =
  let total = ref 0.0 in
  for i = 0 to r.lat_us.len - 1 do total := !total +. r.lat_us.data.(i) done;
  let lat = Array.init n (fun _ -> vec ()) and bytes = Array.make n 0.0 in
  let time = Array.make n 0.0 in
  let elapsed = ref 0.0 in
  for i = 0 to r.lat_us.len - 1 do
    let l = r.lat_us.data.(i) in
    let k = min (n - 1) (int_of_float (!elapsed /. !total *. float_of_int n)) in
    elapsed := !elapsed +. l;
    push lat.(k) l;
    bytes.(k) <- bytes.(k) +. r.sizes.data.(i);
    time.(k) <- time.(k) +. l
  done;
  let goodput = List.init n (fun k -> if time.(k) = 0.0 then 0.0 else bytes.(k) *. 8.0 /. time.(k)) in
  let at q = List.init n (fun k -> percentile lat.(k) q) in
  (goodput, List.map at qs, Array.fold_left (fun m v -> min m v.len) max_int lat)

(* Fold the counter deltas between two snapshots into [r]. *)
let add_phase r (a : snap) (b : snap) =
  r.escalated <- r.escalated + int_of_float (b.escalations -. a.escalations);
  r.plain_decrypted <- r.plain_decrypted +. (b.plain_bytes -. a.plain_bytes);
  r.qwait_us <- r.qwait_us +. (b.qwait_us -. a.qwait_us);
  r.qwait_n <- r.qwait_n + (b.qwait_n - a.qwait_n);
  r.allocated <- r.allocated +. (b.allocated -. a.allocated);
  r.majors <- r.majors + (b.majors - a.majors)

let setup_of ~conns ~setup_s ~conn_bytes ~chunks (a : snap) (b : snap) =
  { conns; setup_s; conn_bytes; chunks;
    handshake_s = b.handshake_s -. a.handshake_s;
    prep_s = b.prep_s -. a.prep_s;
    garble_s = b.garble_s -. a.garble_s;
    eval_s = b.eval_s -. a.eval_s;
    prep_bytes = b.prep_bytes -. a.prep_bytes }

(* Check one answered (or unanswered) message against the oracle; the
   first few mismatches are printed. *)
let check r ~conn expectation answer =
  r.attempted <- r.attempted + 1;
  let ok =
    match (expectation, answer) with
    | Oracle.No_verdict, None -> true
    | Oracle.Verdicts want, Some got -> want = List.sort compare got
    | _ -> false
  in
  if not ok then begin
    r.failed <- r.failed + 1;
    let sids l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
    if r.failed <= 5 then
      Printf.printf "MISMATCH conn %d: verdicts %s, oracle %s\n" conn
        (match answer with None -> "none" | Some l -> sids l)
        (match expectation with
         | Oracle.No_verdict -> "no verdict"
         | Oracle.Verdicts l -> sids l)
  end

(* The untraced phase, and with [trace] a traced phase after it, each for
   half the run: [run ~traced ~seconds ~first] measures one phase and
   returns its run record with whatever the traced phase carries. *)
let phases ~trace ~seconds run =
  if trace then begin
    let e2e, _, _ = run ~traced:false ~seconds:(seconds /. 2.0) ~first:true in
    (e2e, Some (run ~traced:true ~seconds:(seconds /. 2.0) ~first:false))
  end
  else begin
    let e2e, _, _ = run ~traced:false ~seconds ~first:true in
    (e2e, None)
  end
