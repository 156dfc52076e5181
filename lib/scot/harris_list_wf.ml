(* Harris' list with SCOT and wait-free traversals (§3.4, Figure 7).

   Search runs the ordinary lock-free fast path for a bounded number of
   restarts, then posts a help request and switches to the slow path.
   Insert and Delete poll for requests (amortised, round-robin) and execute
   the same slow-path search on behalf of the requester; the first finisher
   publishes the result with one CAS.  Insert/Delete themselves remain
   lock-free (wait-freedom is provided for traversals only, as in the
   paper). *)

let slots_needed = Harris_list.slots_needed

module Make (S : Smr.Smr_intf.S) = struct
  module L = Harris_list.Make (S)

  let default_fast_restarts = 4

  type t = { list : L.t; wf : Wf_help.t; fast_restarts : int }
  type handle = { hl : L.handle; t : t; tid : int }

  let create ?(fast_restarts = default_fast_restarts) ?help_delay ~smr
      ~threads () =
    {
      list = L.create ~smr ~threads ();
      wf = Wf_help.create ?delay:help_delay ~threads ();
      fast_restarts;
    }

  let handle t ~tid = { hl = L.handle t.list ~tid; t; tid }

  exception Result_available of bool

  (* Figure 7, Slow_Search: the regular SCOT traversal, except that every
     iteration checks whether any thread has already produced the result
     (or, for helpers, whether the request was superseded). *)
  let slow_search h ~key ~tag ~helpee =
    let wf = h.t.wf in
    let check () =
      match Wf_help.peek wf ~helpee ~tag with
      | Wf_help.Pending -> ()
      | Wf_help.Done v -> raise (Result_available v)
      | Wf_help.Abandoned ->
          (* Helpers only: a newer cycle started; the return value is
             irrelevant (Figure 7, L36). *)
          raise (Result_available false)
    in
    match L.search_hooked h.hl key ~on_step:check with
    | found ->
        Wf_help.publish wf ~helpee ~tag ~result:found;
        (* Another helper may have published a result for the same tag
           first; the helpee must return the agreed value (Lemma 5). *)
        (match Wf_help.peek wf ~helpee ~tag with
        | Wf_help.Done v -> v
        | Wf_help.Pending | Wf_help.Abandoned -> found)
    | exception Result_available v -> v

  (* Help at most one thread; called on every update operation. *)
  let maybe_help h =
    match Wf_help.poll h.t.wf ~tid:h.tid with
    | None -> ()
    | Some (key, tag, helpee) -> ignore (slow_search h ~key ~tag ~helpee)

  let insert h key =
    maybe_help h;
    L.insert h.hl key

  let delete h key =
    maybe_help h;
    L.delete h.hl key

  let search h key =
    match L.search_bounded h.hl key ~max_restarts:h.t.fast_restarts with
    | Some r -> r
    | None ->
        let tag = Wf_help.request_help h.t.wf ~tid:h.tid ~key in
        slow_search h ~key ~tag ~helpee:h.tid

  let quiesce h = L.quiesce h.hl

  (* Crash recovery: the inner list handle carries all the SMR state.  A
     help request the victim left pending is harmless — helpers publish
     an output for it (or the replacement's next [request_help]
     supersedes it, and stale helpers fail their tag CAS). *)
  let recover (h : handle) = { h with hl = L.recover h.hl }

  let restarts t = L.restarts t.list
  let unreclaimed t = L.unreclaimed t.list
  let to_list t = L.to_list t.list
  let size t = L.size t.list
  let check_invariants t = L.check_invariants t.list
end
