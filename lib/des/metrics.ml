(* Growable float buffer; Dynarray only lands in OCaml 5.2. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let add t x =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ndata = Array.make (if cap = 0 then 64 else cap * 2) 0.0 in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let snapshot t = Array.sub t.data 0 t.len
end

module Histogram = struct
  type t = {
    name : string;
    mutable buf : Buf.t;
    mutable sum : float;
    mutable sum_sq : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create name =
    { name; buf = Buf.create (); sum = 0.0; sum_sq = 0.0; mn = infinity; mx = neg_infinity }

  let name t = t.name

  let add t x =
    Buf.add t.buf x;
    t.sum <- t.sum +. x;
    t.sum_sq <- t.sum_sq +. (x *. x);
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let count t = t.buf.Buf.len
  let mean t = if count t = 0 then 0.0 else t.sum /. float_of_int (count t)

  let stddev t =
    let n = count t in
    if n < 2 then 0.0
    else
      let m = mean t in
      let var = (t.sum_sq /. float_of_int n) -. (m *. m) in
      sqrt (Float.max 0.0 var)

  let min t = if count t = 0 then 0.0 else t.mn
  let max t = if count t = 0 then 0.0 else t.mx

  let percentile t p =
    let n = count t in
    if n = 0 then 0.0
    else begin
      let sorted = Buf.snapshot t.buf in
      Array.sort Float.compare sorted;
      let p = Float.max 0.0 (Float.min 100.0 p) in
      (* Nearest-rank: smallest sample with at least p% of the mass at or
         below it, i.e. ceil (p/100 · n) − 1 clamped to [0, n−1]. The
         previous round (p/100 · (n−1)) was biased upward at small n —
         p50 of a 2-sample histogram returned the max. *)
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
      let rank = if rank < 0 then 0 else if rank > n - 1 then n - 1 else rank in
      sorted.(rank)
    end

  let reset t =
    t.buf <- Buf.create ();
    t.sum <- 0.0;
    t.sum_sq <- 0.0;
    t.mn <- infinity;
    t.mx <- neg_infinity
end
