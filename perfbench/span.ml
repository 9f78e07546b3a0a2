(* Bench-local tracing: spans recorded from the benchmark's own code around
   calls into each layer's public functions.  A span has a name, a start,
   an end, the span that was open when it started (its parent) and the
   id of the message it served.  Spans stay in memory and are written out
   once, when the run ends.  A disabled recorder makes [enter] and [exit]
   no-ops, so the untraced path shares the code of the traced one. *)

type t = {
  on : bool;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable msgs : int array;
  mutable n : int;
  mutable stack : int list;
}

let create ~on =
  { on; names = [||]; starts = [||]; stops = [||]; parents = [||]; msgs = [||];
    n = 0; stack = [] }

let grow t =
  let cap = max 1024 (2 * Array.length t.starts) in
  let ext a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0.0;
  t.stops <- ext t.stops 0.0;
  t.parents <- ext t.parents (-1);
  t.msgs <- ext t.msgs (-1)

(* [enter t name ~msg] opens a span under the innermost open one and
   returns its id ([-1] when tracing is off). *)
let enter t name ~msg =
  if not t.on then -1
  else begin
    if t.n = Array.length t.starts then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.msgs.(id) <- msg;
    t.parents.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
    t.stack <- id :: t.stack;
    t.starts.(id) <- Unix.gettimeofday ();
    id
  end

let exit t id =
  if id >= 0 then begin
    t.stops.(id) <- Unix.gettimeofday ();
    match t.stack with
    | top :: rest when top = id -> t.stack <- rest
    | _ -> invalid_arg "Span.exit: spans must close innermost first"
  end

let duration t id = t.stops.(id) -. t.starts.(id)

(* Per name: (total duration, total self time, count), where a span's self
   time is its duration minus the part its children cover. *)
let self_times t =
  let child = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let d, s, c =
      Option.value (Hashtbl.find_opt acc t.names.(i)) ~default:(0.0, 0.0, 0)
    in
    Hashtbl.replace acc t.names.(i) (d +. duration t i, s +. duration t i -. child.(i), c + 1)
  done;
  acc

(* Total duration and count of the spans called [name] whose message id
   satisfies [msg] (default: all). *)
let total ?(msg = fun _ -> true) t name =
  let d = ref 0.0 and c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.names.(i) = name && msg t.msgs.(i) then begin
      d := !d +. duration t i;
      incr c
    end
  done;
  (!d, !c)

(* One JSON object per span, times in microseconds from the first span. *)
let dump t ~path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.starts.(0) else 0.0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"msg\":%d}\n"
      i t.names.(i)
      ((t.starts.(i) -. t0) *. 1e6)
      ((t.stops.(i) -. t0) *. 1e6)
      t.parents.(i) t.msgs.(i)
  done;
  close_out oc
