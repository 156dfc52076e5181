(* Positive control: the intended usage MUST compile — protect and deref
   under the same bracket token, value (not guard) leaves the bracket.
   If this file stops compiling, the must_fail cases prove nothing. *)

module F (S : Smr.Smr_intf.S) = struct
  let good (th : S.th) (rdr : int S.reader) (field : int Atomic.t) =
    S.with_op th
      {
        Smr.Smr_intf.op0 =
          (fun tok ->
            Smr.Smr_intf.Guard.deref (S.protect rdr tok ~slot:0 field) tok);
      }

  (* Guards also compose: two simultaneously live guards under one token
     (a traversal that holds several nodes at once). *)
  let good2 (th : S.th) (rdr : int S.reader) (f1 : int Atomic.t)
      (f2 : int Atomic.t) =
    S.with_op th
      {
        Smr.Smr_intf.op0 =
          (fun tok ->
            let g1 = S.protect rdr tok ~slot:0 f1 in
            let g2 = S.protect rdr tok ~slot:1 f2 in
            Smr.Smr_intf.Guard.deref g1 tok + Smr.Smr_intf.Guard.deref g2 tok);
      }
end
