(* Wait-free traversal helping protocol (Figure 7 of the paper).

   A searching thread that exhausts its fast-path budget posts a help
   request: the key in [help_key] and an input tag in [help_tag].  Updating
   threads poll for requests (amortised by DELAY, round-robin over thread
   ids) and run the same slow-path search; the first thread to finish
   publishes the result with a single CAS on [help_tag].

   [help_tag] packs a one-bit input/output discriminator with the value:
   inputs carry the requester's slow-path cycle number (strictly
   increasing, so stale helpers always fail their CAS — Lemma 5), outputs
   carry the boolean search result. *)

type record = {
  (* Private fields, touched only by the owner thread. *)
  mutable next_check : int;
  mutable next_tid : int;
  mutable local_tag : int;
  (* Shared fields. *)
  help_key : int Atomic.t;
  help_tag : int Atomic.t;
}

type t = { records : record array; delay : int }

let default_delay = 16

(* A tag word is [(value lsl 1) lor is_input]. *)
let input_word tag = (tag lsl 1) lor 1
let output_word result = if result then 2 else 0
let is_input word = word land 1 = 1
let output_value word = word lsr 1 = 1

let create ?(delay = default_delay) ~threads () =
  {
    records =
      Array.init threads (fun _ ->
          {
            next_check = delay;
            next_tid = 0;
            local_tag = 0;
            help_key = Atomic.make 0;
            help_tag = Atomic.make (output_word false);
          });
    delay;
  }

let threads t = Array.length t.records

(* Figure 7, Request_Help: post the key, then the input tag. *)
let request_help t ~tid ~key =
  let r = t.records.(tid) in
  Atomic.set r.help_key key;
  let tag = r.local_tag in
  Atomic.set r.help_tag (input_word tag);
  r.local_tag <- tag + 1;
  tag

(* Figure 7, Help_Threads: amortised round-robin scan for one pending
   request from another thread. *)
let poll t ~tid =
  let r = t.records.(tid) in
  r.next_check <- r.next_check - 1;
  if r.next_check <> 0 then None
  else begin
    r.next_check <- t.delay;
    let curr_tid = r.next_tid in
    r.next_tid <- (curr_tid + 1) mod Array.length t.records;
    if curr_tid = tid then None
    else
      (* raw-load: announcement records are permanent, never reclaimed. *)
      let word = Atomic.get t.records.(curr_tid).help_tag in
      if not (is_input word) then None
      else
        let key = Atomic.get t.records.(curr_tid).help_key in
        (* Re-read to pair the key with its tag (raw-load: permanent). *)
        if Atomic.get t.records.(curr_tid).help_tag <> word then None
        else Some (key, word lsr 1, curr_tid)
  end

type status = Pending | Done of bool | Abandoned

(* What the slow path sees for request [tag] of thread [helpee]:
   still pending, completed with a value, or superseded by a newer cycle
   (helpers must then abandon; the helpee never observes [Abandoned]). *)
let peek t ~helpee ~tag =
  (* raw-load: announcement records are permanent, never reclaimed. *)
  let word = Atomic.get t.records.(helpee).help_tag in
  if word = input_word tag then Pending
  else if is_input word then Abandoned
  else Done (output_value word)

(* Figure 7, L41: at most one publisher per cycle. *)
let publish t ~helpee ~tag ~result =
  ignore
    (Atomic.compare_and_set t.records.(helpee).help_tag (input_word tag)
       (output_word result))
