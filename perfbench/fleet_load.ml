(* The in-process workloads: closed loops over [Session.Fleet] connections
   on a one-worker [Shardpool].  One client thread submits a message and
   waits for its verdict ([Fleet.drain]) before the next, alternating
   between two connections, so the stages of a message add up to its
   latency. *)

open Bbx_rules
module Session = Blindbox.Session
module Fleet = Session.Fleet
module Dpienc = Bbx_dpienc.Dpienc

type spec = {
  config : Session.config;
  rules : Rule.t list;
  conns : int;             (* connections registered per fleet *)
  driven : int;            (* of which the loop sends on the first [driven] *)
}

let handshake_seed = "perfbench"

(* One sent message, checked against the oracle once its fleet is done. *)
type entry = {
  conn : int;
  payload : string;
  timed : bool;
  mutable answer : int list option;   (* verdict sids; [None] = no verdict *)
}

type phase = {
  spec : spec;
  r : Probe.run;
  tr : Span.t;
  twin : Twin.t option;
  log : entry Queue.t;
  mutable next_msg : int;
}

let sids vs =
  List.map (fun v -> Option.value v.Bbx_mbox.Engine.rule.Rule.sid ~default:0) vs

(* Establish one fleet, recording set-up time and GC-resident bytes per
   connection outside any timed phase. *)
let establish spec r =
  let chunks = Array.length (Bbx_mbox.Engine.distinct_chunks spec.rules) in
  let live0 = Probe.live_bytes () in
  let s0 = Probe.snap () in
  let t0 = Probe.now () in
  let fleet =
    Fleet.establish ~config:spec.config ~seed:handshake_seed ~domains:1 ~conns:spec.conns
      ~rules:spec.rules ()
  in
  let setup_s = Probe.now () -. t0 in
  let s1 = Probe.snap () in
  let conn_bytes = (Probe.live_bytes () -. live0) /. float_of_int spec.conns in
  let setup = Probe.setup_of ~conns:spec.conns ~setup_s ~conn_bytes ~chunks s0 s1 in
  let setup =
    (* Direct preparation hands the middlebox one 16-byte AES_k per chunk *)
    match spec.config.Session.rule_prep with
    | Session.Direct -> { setup with Probe.prep_bytes = float_of_int (16 * chunks) }
    | Session.Garbled -> setup
  in
  r.Probe.setups <- setup :: r.Probe.setups;
  fleet

(* [establish] [n] times, keeping the last fleet. *)
let establish_n spec r n =
  for _ = 2 to n do Fleet.shutdown (establish spec r) done;
  establish spec r

let make_twin spec tr acc =
  let keys = Twin.handshake handshake_seed in
  let tw =
    Twin.create tr acc spec.config ~rules:spec.rules
      ~key:(Dpienc.key_of_secret keys.Bbx_tls.Handshake.k)
  in
  for i = 0 to spec.driven - 1 do
    Twin.register tw ~conn_id:i
      ~k_ssl:
        (Bbx_crypto.Kdf.derive ~secret:keys.Bbx_tls.Handshake.k_ssl
           ~label:(Printf.sprintf "fleet-conn-%d" i) 16)
  done;
  tw

(* One closed-loop step: hand [payload] to [conn]'s sender, wait for its
   verdict, and log the answer.  When [timed], latency, bytes and time count
   towards the run. *)
let send p fleet ~timed (conn, payload) =
  let r = p.r and tr = p.tr in
  let e = { conn; payload; timed; answer = None } in
  let id = p.next_msg in
  p.next_msg <- id + 1;
  let rid = Span.enter tr "message" ~msg:id in
  let t0 = Probe.now () in
  let sp = Span.enter tr "session.submit" ~msg:id in
  ignore (Fleet.submit fleet ~conn payload : int);
  Span.exit tr sp;
  let sp = Span.enter tr "mbox.drain" ~msg:id in
  Fleet.drain fleet ~f:(fun ~seq:_ ~conn_id:_ vs -> e.answer <- Some (sids vs));
  Span.exit tr sp;
  let dt = Probe.now () -. t0 in
  Span.exit tr rid;
  Queue.add e p.log;
  if timed then begin
    r.Probe.timed_s <- r.Probe.timed_s +. dt;
    if e.answer <> None then begin
      Probe.answered r ~latency:dt ~bytes:(String.length payload);
      if Twin.ships_records p.spec.config then
        r.Probe.wire <-
          r.Probe.wire +. float_of_int (String.length payload + 1 + Bbx_tls.Record.overhead)
    end
  end;
  Option.iter
    (fun tw -> Twin.message tw ~conn_id:conn ~msg:id ~real:e.answer payload)
    p.twin

(* Timed messages from [next] until it runs dry or the run's timed phase
   has grown by [seconds]; the GC is finished first. *)
let drive p fleet ~seconds next =
  Gc.full_major ();
  let r = p.r in
  let s0 = Probe.snap () in
  let stats0 = Fleet.stats fleet in
  let stop = r.Probe.timed_s +. seconds in
  let rec loop () =
    if r.Probe.timed_s < stop then
      match next () with
      | Some m -> send p fleet ~timed:true m; loop ()
      | None -> ()
  in
  loop ();
  let s1 = Probe.snap () in
  let stats1 = Fleet.stats fleet in
  Probe.add_phase r s0 s1;
  r.Probe.wire <- r.Probe.wire +. (s1.Probe.sender_wire_bytes -. s0.Probe.sender_wire_bytes);
  let open Bbx_mbox.Middlebox in
  r.Probe.tokens <- r.Probe.tokens + stats1.total_tokens - stats0.total_tokens;
  r.Probe.hits <- r.Probe.hits + stats1.total_keyword_hits - stats0.total_keyword_hits;
  r.Probe.alerts <- r.Probe.alerts + stats1.alerts - stats0.alerts;
  r.Probe.blocked <- r.Probe.blocked + stats1.blocked - stats0.blocked

(* Replay one fleet's messages through the oracle, per connection and in
   send order; also measure the first-seen token share they carried. *)
let verify spec r log =
  let oracle = Oracle.create ~tier:spec.config.Session.tier spec.rules in
  let conns = Array.init spec.driven (fun _ -> Oracle.conn oracle) in
  let per_conn = Array.make spec.driven [] in
  Queue.iter
    (fun e ->
       per_conn.(e.conn) <- (e.payload, e.timed) :: per_conn.(e.conn);
       Probe.check r ~conn:e.conn (Oracle.next oracle conns.(e.conn) e.payload) e.answer)
    log;
  r.Probe.conns <-
    r.Probe.conns + Array.fold_left (fun n l -> if l = [] then n else n + 1) 0 per_conn;
  let first, total =
    Gen.first_seen spec.config.Session.tokenization
      ~reset_period:spec.config.Session.reset_period
      (Array.to_list (Array.map List.rev per_conn))
  in
  r.Probe.first_tokens <- r.Probe.first_tokens + first;
  r.Probe.all_tokens <- r.Probe.all_tokens + total

(* One fleet's life: establish ([setups] times, keeping the last), run
   [warmup] untimed, then timed messages from [next] for up to [seconds].
   When [traced], every message is spanned in [tr] and mirrored by twins
   that add up in [acc]. *)
let fleet_phase spec r ~traced ~tr ~acc ~setups ~warmup ~seconds next =
  let fleet = establish_n spec r setups in
  let off = Span.create ~on:false in
  let twin = if traced then Some (make_twin spec off (Twin.acc ())) else None in
  Fun.protect
    ~finally:(fun () -> Fleet.shutdown fleet; Option.iter Twin.shutdown twin)
    (fun () ->
       let p = { spec; r; tr = off; twin; log = Queue.create (); next_msg = 0 } in
       List.iter (send p fleet ~timed:false) warmup;
       (* the warm-up's spans and twin work are not part of the figures *)
       Option.iter (fun tw -> tw.Twin.tr <- tr; tw.Twin.acc <- acc) twin;
       drive { p with tr } fleet ~seconds next;
       verify spec r p.log)

let msg_bytes = 1460

(* {1 warm-http} *)

let warm_spec =
  { config =
      { Session.default_config with
        Session.mode = Dpienc.Exact;
        tokenization = Session.Delimiter;
        rule_prep = Session.Garbled;
        tier = Classify.Protocol_II };
    rules = Datasets.generate Datasets.Emerging_threats ~n:4;
    conns = 2;
    driven = 2 }

let corpus_pages = 64

(* Garbled preparation takes seconds, so warm-http sets up fewer times than
   {!Probe.setup_repeats} to keep a run short. *)
let garbled_setup_repeats = 3

let warm_http ~seed ~seconds ~trace =
  let spec = warm_spec in
  let drbg = Gen.drbg ~seed "warm-http" in
  let corpus = Array.init corpus_pages (fun _ -> Gen.html drbg ~len:msg_bytes) in
  (* message [k] goes to connection [k mod 2]; the two connections walk the
     corpus half a corpus apart *)
  let msg k =
    let c = k mod 2 in
    (c, corpus.(((k / 2) + (c * corpus_pages / 2)) mod corpus_pages))
  in
  let warmup = List.init (2 * corpus_pages) msg in
  Probe.phases ~trace ~seconds @@ fun ~traced ~seconds ~first ->
  let r = Probe.run () and tr = Span.create ~on:traced in
  let acc = Twin.acc () in
  let k = ref 0 in
  fleet_phase spec r ~traced ~tr ~acc ~setups:(if first then garbled_setup_repeats else 1)
    ~warmup ~seconds (fun () -> incr k; Some (msg (!k - 1)));
  (r, tr, acc)

(* {1 cold-probable} *)

let cold_spec =
  { config =
      { Session.default_config with
        Session.mode = Dpienc.Probable;
        tokenization = Session.Window;
        rule_prep = Session.Direct;
        tier = Classify.Protocol_III };
    rules = Datasets.generate Datasets.Snort_community ~n:50;
    conns = 512;
    (* A cold connection's sender caches a token key per distinct token
       until its next salt reset, about 0.5 MB per fresh message, and the
       process heap grows with it; so each fleet drives a slice of its
       connections and is then replaced, which keeps memory bounded and
       samples set-up once per fleet. *)
    driven = 64 }

let cold_msgs = 4

(* one connection in [plant_every] opens with a planted rule witness *)
let plant_every = 8

(* Fresh messages for one fleet: [driven] x [cold_msgs], never repeated. *)
let cold_batch spec ~seed ~batch =
  let drbg = Gen.drbg ~seed (Printf.sprintf "cold-probable/%d" batch) in
  let plantable = Gen.plantable spec.rules in
  let phase = Bbx_crypto.Drbg.uniform drbg plant_every in
  Array.init spec.driven (fun c ->
      let planted = c mod plant_every = phase in
      Array.init cold_msgs (fun m ->
          if m = 0 && planted then Gen.planted drbg ~plantable ~len:msg_bytes
          else Gen.html drbg ~len:msg_bytes))

let cold_probable ~seed ~seconds ~trace =
  let spec = cold_spec in
  let batch = ref 0 in
  Probe.phases ~trace ~seconds @@ fun ~traced ~seconds ~first ->
  let r = Probe.run () and tr = Span.create ~on:traced in
  let acc = Twin.acc () in
  let setups = ref (if first then Probe.setup_repeats else 1) in
  while r.Probe.timed_s < seconds do
    let msgs = cold_batch spec ~seed ~batch:!batch in
    incr batch;
    (* connections go in pairs, alternating within a pair, so any prefix
       of the sequence has the same mix of first and later messages *)
    let order =
      Array.init (cold_msgs * spec.driven) (fun i ->
          let pair = i / (2 * cold_msgs) and k = i mod (2 * cold_msgs) in
          let c = (2 * pair) + (k mod 2) in
          (c, msgs.(c).(k / 2)))
    in
    let i = ref 0 in
    fleet_phase spec r ~traced ~tr ~acc ~setups:!setups ~warmup:[]
      ~seconds:(seconds -. r.Probe.timed_s)
      (fun () ->
         if !i < Array.length order then begin incr i; Some order.(!i - 1) end
         else None);
    setups := 1
  done;
  (r, tr, acc)
