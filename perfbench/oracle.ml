(* The plaintext oracle every verdict is checked against: the rules the
   workload's tier supports ({!Classify.supported_by}), evaluated with
   {!Classify.matches_plaintext} over the connection's stream so far.  The
   engine reports each rule once per connection, so after each message the
   oracle yields the sids newly matched by the grown stream.

   Re-evaluating every rule on every prefix would cost far more than the
   system under test, so a rule is re-evaluated only once every one of its
   contents has occurred in the stream (a case-folded Aho-Corasick scan of
   each message plus the bytes just before it), and then only when the new
   message holds one of its contents or the rule carries a pcre. *)

open Bbx_rules

type t = {
  rules : Rule.t array;
  ac : Bbx_ac.Aho_corasick.t;
  pats : int array array;   (* rule -> pattern ids *)
  overlap : int;            (* longest pattern - 1 *)
}

type conn = {
  stream : Buffer.t;
  seen : bool array;        (* pattern id -> occurred *)
  fired : bool array;       (* rule -> already reported *)
  mutable blocked : bool;   (* a drop rule has fired *)
}

let create ~tier rules =
  let rules = Array.of_list (List.filter (Classify.supported_by tier) rules) in
  let ids = Hashtbl.create 64 in
  let pats =
    Array.map
      (fun r ->
         Array.of_list
           (List.map
              (fun kw ->
                 let kw = String.lowercase_ascii kw in
                 match Hashtbl.find_opt ids kw with
                 | Some i -> i
                 | None ->
                   let i = Hashtbl.length ids in
                   Hashtbl.add ids kw i;
                   i)
              (Rule.keywords r)))
      rules
  in
  let patterns = Array.make (Hashtbl.length ids) "" in
  Hashtbl.iter (fun kw i -> patterns.(i) <- kw) ids;
  let overlap = Array.fold_left (fun m p -> max m (String.length p - 1)) 0 patterns in
  { rules; ac = Bbx_ac.Aho_corasick.build patterns; pats; overlap }

let conn t =
  { stream = Buffer.create 4096;
    seen = Array.make (Bbx_ac.Aho_corasick.pattern_count t.ac) false;
    fired = Array.make (Array.length t.rules) false;
    blocked = false }

type expectation =
  | Verdicts of int list  (* sorted sids newly matched by this message *)
  | No_verdict            (* the connection was blocked before it *)

let sid r = Option.value r.Rule.sid ~default:0

(* Append [payload] to the connection's stream and return what the
   middlebox must answer for it. *)
let next t c payload =
  if c.blocked then begin
    Buffer.add_string c.stream payload;
    No_verdict
  end
  else begin
    let len = Buffer.length c.stream in
    let keep = min len t.overlap in
    let window =
      String.lowercase_ascii (Buffer.sub c.stream (len - keep) keep ^ payload)
    in
    Buffer.add_string c.stream payload;
    let fresh = Array.make (Array.length c.seen) false in
    List.iter
      (fun (p, stop) -> if stop > keep then fresh.(p) <- true)
      (Bbx_ac.Aho_corasick.search t.ac window);
    Array.iteri (fun p f -> if f then c.seen.(p) <- true) fresh;
    let stream = lazy (Buffer.contents c.stream) in
    let hits = ref [] in
    Array.iteri
      (fun i r ->
         if (not c.fired.(i))
         && Array.for_all (fun p -> c.seen.(p)) t.pats.(i)
         && (r.Rule.pcre <> None || Array.exists (fun p -> fresh.(p)) t.pats.(i))
         && Classify.matches_plaintext r (Lazy.force stream)
         then begin
           c.fired.(i) <- true;
           hits := sid r :: !hits;
           if r.Rule.action = Rule.Drop then c.blocked <- true
         end)
      t.rules;
    Verdicts (List.sort compare !hits)
  end
