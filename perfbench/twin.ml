(* Twins for the traced run.  A public call such as [Fleet.submit] spans
   several layers (tokenize + DPIEnc + record seal + enqueue) and has no
   spans of its own, so after each real message the traced run sends the
   same payloads through the lower layers' public functions, each call in
   its own span: the tokenizer fold, [Dpienc.sender_encrypt_into] on a
   sender with the same key and salts, [Record.seal], the wire codec,
   [Shardpool.submit] on a one-worker pool and [Middlebox.process_wire] on
   a single-domain middlebox.  The twin middlebox must return the real
   verdicts; a divergence is counted and printed. *)

open Bbx_dpienc
module Session = Blindbox.Session
module Middlebox = Bbx_mbox.Middlebox
module Shardpool = Bbx_mbox.Shardpool
module Engine = Bbx_mbox.Engine
module Wire = Bbx_wire.Wire

(* The endpoint keys a handshake seeded from [seed] agrees on, re-derived
   through the public handshake exactly as [Session] and [Client] run it. *)
let handshake seed =
  let drbg s = Bbx_crypto.Drbg.create (seed ^ s) in
  let st, share = Bbx_tls.Handshake.initiate (drbg "/client") in
  let _, reply = Bbx_tls.Handshake.respond (drbg "/server") ~peer_share:share in
  Bbx_tls.Handshake.complete st ~peer_share:reply

(* A fleet ships its sealed record stream alongside the tokens exactly when
   the middlebox may decrypt it: Probable mode at tier 3. *)
let ships_records (config : Session.config) =
  config.Session.mode = Dpienc.Probable && Bbx_rules.Classify.rank config.Session.tier >= 3

(* The record-layer direction label fleet connections use. *)
let direction = "sender->receiver"

type conn = {
  sender : Dpienc.sender;
  k_ssl : string;
  writer : Bbx_tls.Record.t;
  mutable off : int;
  mutable since_reset : int;
}

(* What the twins processed, summed over every twin of one phase. *)
type acc = {
  mutable tokens : int;
  mutable bytes : int;
  mutable wire_bytes : int;
  mutable dpienc_alloc : float;
  mutable frames : int;
  mutable mismatches : int;
}

let acc () =
  { tokens = 0; bytes = 0; wire_bytes = 0; dpienc_alloc = 0.0; frames = 0; mismatches = 0 }

type t = {
  mutable tr : Span.t;
  mutable acc : acc;
  config : Session.config;
  key : Dpienc.key;
  prepared : string array * string array;
  keys : Bbx_detect.Detect.keyset;
  prefilter : Engine.prefilter_prep;
  ship_records : bool;
  mbox : Middlebox.t;
  pool : Shardpool.t;
  conns : (int, conn) Hashtbl.t;
}

let create tr acc (config : Session.config) ~rules ~key =
  let kernel = config.Session.aes_kernel in
  let mode = config.Session.mode in
  let chunks = Engine.distinct_chunks rules in
  let encs = Array.map (Dpienc.token_enc key) chunks in
  { tr; acc; config; key;
    prepared = (chunks, encs);
    keys = Bbx_detect.Detect.keyset encs;
    prefilter = Engine.prepare_prefilter rules;
    ship_records = ships_records config;
    mbox =
      Middlebox.create ~tier:config.Session.tier ~budget:config.Session.tier_budget
        ~kernel ~mode ~rules ();
    pool =
      Shardpool.create ~domains:1 ~tier:config.Session.tier
        ~budget:config.Session.tier_budget ~kernel ~mode ~rules ();
    conns = Hashtbl.create 64 }

let shutdown t = Shardpool.shutdown t.pool

let register t ~conn_id ~k_ssl =
  let config = t.config in
  let enc_chunk = Dpienc.token_enc t.key in
  let salt0 = config.Session.salt0 in
  let prepared = t.prepared and keys = t.keys and prefilter = t.prefilter in
  Middlebox.register ~direction ~prepared ~keys ~prefilter t.mbox ~conn_id ~salt0
    ~enc_chunk;
  Shardpool.register ~direction ~prepared ~keys ~prefilter t.pool ~conn_id ~salt0
    ~enc_chunk;
  Hashtbl.replace t.conns conn_id
    { sender =
        Dpienc.sender_create ~kernel:config.Session.aes_kernel config.Session.mode t.key
          ~salt0;
      k_ssl;
      writer =
        Bbx_tls.Record.create ~kernel:config.Session.aes_kernel ~key:k_ssl ~direction ();
      off = 0;
      since_reset = 0 }

let timed t name ~msg f =
  let id = Span.enter t.tr name ~msg in
  let v = f () in
  Span.exit t.tr id;
  v

let sids vs =
  List.sort compare
    (List.map (fun v -> Option.value v.Engine.rule.Bbx_rules.Rule.sid ~default:0) vs)

(* Mirror one message.  [wire] is the real token stream when the caller
   encrypted it itself (daemon clients); otherwise the twin sender makes
   it.  [real] is the verdict set the real path returned. *)
let message t ~conn_id ~msg ?wire ~real payload =
  let c = Hashtbl.find t.conns conn_id in
  let config = t.config in
  let root = Span.enter t.tr "twin" ~msg in
  let count acc ~off:_ ~len:_ = acc + 1 in
  let tokens =
    timed t "tokenizer" ~msg (fun () ->
        match config.Session.tokenization with
        | Session.Window -> Bbx_tokenizer.Tokenizer.fold_window payload ~init:0 ~f:count
        | Session.Delimiter ->
          Bbx_tokenizer.Tokenizer.fold_delimiter ~short_units:false payload ~init:0
            ~f:count)
  in
  let wire =
    match wire with
    | Some w -> w
    | None ->
      let buf = Buffer.create (16 * String.length payload) in
      let k_ssl =
        match config.Session.mode with Dpienc.Probable -> Some c.k_ssl | Dpienc.Exact -> None
      in
      let tokenization =
        match config.Session.tokenization with
        | Session.Window -> Dpienc.Window
        | Session.Delimiter -> Dpienc.Delimiter { short_units = false }
      in
      let a0 = Gc.allocated_bytes () in
      timed t "dpienc" ~msg (fun () ->
          ignore
            (Dpienc.sender_encrypt_into c.sender ?k_ssl ~base:c.off ~tokenization payload
               buf : int));
      t.acc.dpienc_alloc <- t.acc.dpienc_alloc +. (Gc.allocated_bytes () -. a0);
      Buffer.contents buf
  in
  c.off <- c.off + String.length payload;
  t.acc.tokens <- t.acc.tokens + tokens;
  t.acc.bytes <- t.acc.bytes + String.length payload;
  t.acc.wire_bytes <- t.acc.wire_bytes + String.length wire;
  let record = timed t "tls.seal" ~msg (fun () -> Bbx_tls.Record.seal c.writer ("T" ^ payload)) in
  let frames =
    [ Wire.Token_stream { seq = msg; records = wire };
      Wire.Verdict_tiered { seq = msg; status = Wire.Clean; verdicts = [] } ]
  in
  List.iter
    (fun f ->
       let s = timed t "wire.encode" ~msg (fun () -> Wire.encode_frame_string f) in
       timed t "wire.decode" ~msg (fun () ->
           ignore (Wire.decode (String.sub s 4 (String.length s - 4)) : Wire.msg));
       t.acc.frames <- t.acc.frames + 1)
    frames;
  timed t "mbox.enqueue" ~msg (fun () ->
      if t.ship_records then Shardpool.record_stream t.pool ~conn_id record;
      ignore (Shardpool.submit t.pool ~conn_id wire : int));
  Shardpool.drain t.pool ~f:(fun ~seq:_ ~conn_id:_ _ -> ());
  let got =
    if Middlebox.is_blocked t.mbox ~conn_id then None
    else
      Some
        (timed t "mbox.service" ~msg (fun () ->
             if t.ship_records then Middlebox.record_stream t.mbox ~conn_id record;
             sids (Middlebox.process_wire t.mbox ~conn_id wire)))
  in
  if got <> Option.map (List.sort compare) real then
    t.acc.mismatches <- t.acc.mismatches + 1;
  (* salt resets follow the real sender's schedule *)
  c.since_reset <- c.since_reset + String.length payload;
  if config.Session.reset_period > 0 && c.since_reset >= config.Session.reset_period
  then begin
    c.since_reset <- 0;
    let salt0 = Dpienc.sender_reset c.sender in
    Engine.reset (Middlebox.engine t.mbox ~conn_id) ~salt0;
    Shardpool.reset_conn t.pool ~conn_id ~salt0
  end;
  Span.exit t.tr root
