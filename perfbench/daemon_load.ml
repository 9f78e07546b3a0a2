(* daemon-small: two client connections to an in-process [blindboxd] with
   one shard worker, over a Unix-domain socket.  One client thread encrypts
   and sends a message, then reads its verdict before the next, alternating
   between the connections.
   Sender-side DPIEnc runs inside the loop, so every message pays the whole
   path: encrypt, frame, socket, daemon front, pool hand-off, inspection,
   verdict frame back. *)

open Bbx_rules
module Session = Blindbox.Session
module Dpienc = Bbx_dpienc.Dpienc
module Daemon = Bbx_daemon.Daemon
module Client = Bbx_daemon.Client
module Wire = Bbx_wire.Wire

let config =
  { Session.default_config with
    Session.mode = Dpienc.Exact;
    tokenization = Session.Window;
    rule_prep = Session.Direct;
    tier = Classify.Protocol_II }

let rules = Datasets.generate Datasets.Emerging_threats ~n:50
let conns = 2
let msg_bytes = 64
let corpus_size = 256

(* Both clients run their local handshake from this seed, so they share
   keys, as the connections of one fleet tenant do. *)
let handshake_seed = "perfbench"

type conn = {
  s : Client.session;
  sender : Dpienc.sender;
  buf : Buffer.t;
  mutable off : int;
  mutable since_reset : int;
  mutable seq : int;
  oracle : Oracle.conn;
  mutable history : (string * bool) list;  (* payloads, newest first *)
}

type daemon = { handle : Daemon.handle; endpoint : Daemon.endpoint; conns : conn array }

let endpoint () =
  Probe.ensure_out_dir ();
  Daemon.Unix_path (Filename.concat Probe.out_dir (Printf.sprintf "d%d.sock" (Unix.getpid ())))

let stop d =
  Array.iter (fun c -> Client.close c.s.Client.sc_client) d.conns;
  Daemon.stop d.handle

(* Start the daemon and establish both clients; set-up time is daemon start
   plus both connections' establishment, and [conn_bytes] the GC-resident
   growth of the latter.  Handshake and rule-table costs are measured
   afterwards by re-running them through their public functions. *)
let start r oracle =
  let endpoint = endpoint () in
  let t0 = Probe.now () in
  let handle =
    Daemon.start
      (Daemon.config ~mode:config.Session.mode ~domains:1 ~tier:config.Session.tier
         ~endpoint ~rules ())
  in
  let daemon_s = Probe.now () -. t0 in
  let live0 = Probe.live_bytes () in
  let t1 = Probe.now () in
  let sessions =
    Array.init conns (fun _ ->
        Client.establish ~features:Wire.feature_tiered endpoint ~mode:config.Session.mode
          ~salt0:config.Session.salt0 ~seed:handshake_seed)
  in
  let setup_s = daemon_s +. (Probe.now () -. t1) in
  let conn_bytes = (Probe.live_bytes () -. live0) /. float_of_int conns in
  let t1 = Probe.now () in
  ignore (Twin.handshake handshake_seed : Bbx_tls.Handshake.keys);
  let t2 = Probe.now () in
  let pairs = Client.pairs_for ~key:sessions.(0).Client.sc_key rules in
  let t3 = Probe.now () in
  let s = Probe.snap () in
  let setup = Probe.setup_of ~conns ~setup_s ~conn_bytes ~chunks:(Array.length pairs) s s in
  (* every client runs its own handshake and rule table *)
  let n = float_of_int conns in
  r.Probe.setups <-
    { setup with
      Probe.handshake_s = n *. (t2 -. t1);
      prep_s = n *. (t3 -. t2);
      prep_bytes =
        n *. float_of_int (String.length (Wire.encode_frame_string (Wire.Rule_setup { pairs })))
    }
    :: r.Probe.setups;
  { handle; endpoint;
    conns =
      Array.map
        (fun s ->
           { s;
             sender =
               Dpienc.sender_create ~kernel:config.Session.aes_kernel config.Session.mode
                 s.Client.sc_key ~salt0:config.Session.salt0;
             buf = Buffer.create 1024;
             off = 0; since_reset = 0; seq = 0; history = [];
             oracle = Oracle.conn oracle })
        sessions }

let sids vs = List.map (fun v -> v.Wire.v_sid) vs

(* The daemon's aggregate counters, read over a fresh connection. *)
let daemon_stats d =
  let c = Client.connect d.endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats c)

(* One closed-loop step: connection [i] encrypts and sends its message,
   then reads the verdict, which is checked against the oracle. *)
let send d (r : Probe.run) tr twin oracle ~timed ~id (i, payload) =
  let c = d.conns.(i) in
  let rid = Span.enter tr "message" ~msg:id in
  let t0 = Probe.now () in
  Buffer.clear c.buf;
  let a0 = Gc.allocated_bytes () in
  let sp = Span.enter tr "dpienc" ~msg:id in
  ignore
    (Dpienc.sender_encrypt_into c.sender ~base:c.off ~tokenization:Dpienc.Window payload
       c.buf : int);
  Span.exit tr sp;
  let alloc = Gc.allocated_bytes () -. a0 in
  let wire = Buffer.contents c.buf in
  let sent = Probe.now () in
  let sp = Span.enter tr "daemon.send" ~msg:id in
  Client.send_records c.s.Client.sc_client ~seq:c.seq wire;
  Span.exit tr sp;
  c.off <- c.off + String.length payload;
  c.since_reset <- c.since_reset + String.length payload;
  if config.Session.reset_period > 0 && c.since_reset >= config.Session.reset_period
  then begin
    c.since_reset <- 0;
    Client.salt_reset c.s.Client.sc_client ~salt0:(Dpienc.sender_reset c.sender)
  end;
  let sp = Span.enter tr "daemon.recv" ~msg:id in
  let seq, status, vs = Client.recv_verdict c.s.Client.sc_client in
  Span.exit tr sp;
  let t = Probe.now () in
  Span.exit tr rid;
  if seq <> c.seq then failwith "daemon-small: verdict for the wrong frame";
  c.seq <- c.seq + 1;
  let answer =
    match status with Wire.Dropped -> None | Wire.Clean | Wire.Alerts -> Some (sids vs)
  in
  c.history <- (payload, timed) :: c.history;
  Probe.check r ~conn:i (Oracle.next oracle c.oracle payload) answer;
  if timed then begin
    r.Probe.timed_s <- r.Probe.timed_s +. (t -. t0);
    if answer <> None then begin
      Probe.answered r ~latency:(t -. t0) ~bytes:(String.length payload);
      Probe.push r.Probe.rtt_us ((t -. sent) *. 1e6);
      r.Probe.wire <- r.Probe.wire +. float_of_int (String.length wire)
    end
  end;
  Option.iter
    (fun tw ->
       tw.Twin.acc.Twin.dpienc_alloc <- tw.Twin.acc.Twin.dpienc_alloc +. alloc;
       Twin.message tw ~conn_id:i ~msg:id ~wire ~real:answer payload)
    twin

let daemon_small ~seed ~seconds ~trace =
  let drbg = Gen.drbg ~seed "daemon-small" in
  let corpus = Array.init corpus_size (fun _ -> Gen.html drbg ~len:msg_bytes) in
  (* message [k] goes to connection [k mod 2]; the two connections walk the
     corpus half a corpus apart *)
  let msg k =
    let c = k mod conns in
    (c, corpus.(((k / conns) + (c * corpus_size / conns)) mod corpus_size))
  in
  let oracle = Oracle.create ~tier:config.Session.tier rules in
  let phase ~traced ~seconds ~setups =
    let r = Probe.run () and tr = Span.create ~on:traced in
    let off = Span.create ~on:false in
    for _ = 2 to setups do stop (start r oracle) done;
    let d = start r oracle in
    Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
    r.Probe.conns <- conns;
    let acc = Twin.acc () in
    let twin =
      if not traced then None
      else begin
        let s = d.conns.(0).s in
        let tw = Twin.create off (Twin.acc ()) config ~rules ~key:s.Client.sc_key in
        Array.iteri (fun i c -> Twin.register tw ~conn_id:i ~k_ssl:c.s.Client.sc_k_ssl) d.conns;
        Some tw
      end
    in
    Fun.protect ~finally:(fun () -> Option.iter Twin.shutdown twin) @@ fun () ->
    (* untimed pass over the corpus: counter tables and key caches fill *)
    let k = ref 0 in
    for _ = 1 to conns * corpus_size do
      send d r off twin oracle ~timed:false ~id:!k (msg !k);
      incr k
    done;
    Option.iter (fun tw -> tw.Twin.tr <- tr; tw.Twin.acc <- acc) twin;
    Gc.full_major ();
    let st0 = daemon_stats d in
    let s0 = Probe.snap () in
    while r.Probe.timed_s < seconds do
      send d r tr twin oracle ~timed:true ~id:!k (msg !k);
      incr k
    done;
    let s1 = Probe.snap () in
    let st1 = daemon_stats d in
    Probe.add_phase r s0 s1;
    r.Probe.tokens <- st1.Wire.s_total_tokens - st0.Wire.s_total_tokens;
    r.Probe.hits <- st1.Wire.s_total_keyword_hits - st0.Wire.s_total_keyword_hits;
    r.Probe.alerts <- st1.Wire.s_alerts - st0.Wire.s_alerts;
    r.Probe.blocked <- st1.Wire.s_blocked;
    let first, total =
      Gen.first_seen config.Session.tokenization ~reset_period:config.Session.reset_period
        (Array.to_list (Array.map (fun c -> List.rev c.history) d.conns))
    in
    r.Probe.first_tokens <- first;
    r.Probe.all_tokens <- total;
    (r, tr, acc)
  in
  Probe.phases ~trace ~seconds (fun ~traced ~seconds ~first ->
      phase ~traced ~seconds ~setups:(if first then Probe.setup_repeats else 1))
