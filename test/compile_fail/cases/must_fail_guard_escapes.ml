(* MUST NOT typecheck: returning a guard out of [with_op] would let it
   outlive [end_op] and be dereferenced after its protection lapsed.  The
   operation body is universally quantified in the brand ['op], so a
   result type mentioning ['op] cannot generalise: the guard cannot leave
   the bracket at all. *)

module F (S : Smr.Smr_intf.S) = struct
  let bad (th : S.th) (rdr : int S.reader) (field : int Atomic.t) =
    S.with_op th
      { Smr.Smr_intf.op0 = (fun tok -> S.protect rdr tok ~slot:0 field) }
end
