(* Log-linear (HDR-style) histogram.  Bucket layout:
     [0, 64)                unit-width buckets, index = value
     [2^k, 2^(k+1)), k >= 6 32 sub-buckets of width 2^(k-5)
   so bucket widths never exceed 1/32 of the bucket's lower bound and
   quantiles carry at most that relative error.  Counts live in a
   growable int array indexed by bucket; merge is bucket-wise sum. *)

let sub_bits = 5
let subbuckets = 1 lsl sub_bits (* 32 *)
let linear_limit = 2 * subbuckets (* 64 *)

type t = {
  mutable buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = [||]; count = 0; sum = 0; min_v = max_int; max_v = min_int }

let msb v =
  let rec go v k = if v <= 1 then k else go (v lsr 1) (k + 1) in
  go v 0

let index_of v =
  if v < linear_limit then v
  else
    let k = msb v in
    linear_limit + ((k - 6) * subbuckets) + ((v lsr (k - sub_bits)) - subbuckets)

(* [lo, hi) covered by bucket [i], and the midpoint used for quantiles *)
let bucket_bounds i =
  if i < linear_limit then (i, i + 1)
  else
    let c = (i - linear_limit) / subbuckets in
    let s = (i - linear_limit) mod subbuckets in
    let k = c + 6 in
    let w = 1 lsl (k - sub_bits) in
    let lo = (1 lsl k) + (s * w) in
    (lo, lo + w)

let bucket_mid i =
  let lo, hi = bucket_bounds i in
  lo + ((hi - 1 - lo) / 2)

let ensure t i =
  let n = Array.length t.buckets in
  if i >= n then begin
    let n' = Int.max (i + 1) (Int.max 64 (2 * n)) in
    let b = Array.make n' 0 in
    Array.blit t.buckets 0 b 0 n;
    t.buckets <- b
  end

let record_n t v ~n =
  if n > 0 then begin
    let v = Int.max 0 v in
    let i = index_of v in
    ensure t i;
    t.buckets.(i) <- t.buckets.(i) + n;
    t.count <- t.count + n;
    t.sum <- t.sum + (n * v);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v ~n:1

let is_empty t = t.count = 0
let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v

let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let quantile t q =
  if t.count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    (* the endpoints are tracked exactly; a bucket midpoint can land
       below the true maximum (or above the true minimum), so answer
       from the exact fields rather than the lossy buckets *)
    if q = 0.0 then t.min_v
    else if q = 1.0 then t.max_v
    else
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    let i = ref 0 and cum = ref 0 in
    let n = Array.length t.buckets in
    while !cum < rank && !i < n do
      cum := !cum + t.buckets.(!i);
      incr i
    done;
    (* !i - 1 is the bucket where the rank-th sample falls *)
    let v = bucket_mid (max 0 (!i - 1)) in
    min t.max_v (max t.min_v v)
  end

let add_into dst src =
  if src.count > 0 then begin
    let n = Array.length src.buckets in
    ensure dst (n - 1);
    for i = 0 to n - 1 do
      dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
    done;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum;
    dst.min_v <- Int.min dst.min_v src.min_v;
    dst.max_v <- Int.max dst.max_v src.max_v
  end

let merge a b =
  let t = create () in
  add_into t a;
  add_into t b;
  t

let equal a b =
  let n = max (Array.length a.buckets) (Array.length b.buckets) in
  let get arr i = if i < Array.length arr then arr.(i) else 0 in
  let rec same i = i >= n || (get a.buckets i = get b.buckets i && same (i + 1)) in
  a.count = b.count && a.sum = b.sum
  && (a.count = 0 || (a.min_v = b.min_v && a.max_v = b.max_v))
  && same 0

(* ------------------------------------------------------------------ *)
(* JSON *)

let summary_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("min", Json.Int (min_value t));
      ("max", Json.Int (max_value t));
      ("mean", Json.Float (mean t));
      ("p50", Json.Int (quantile t 0.5));
      ("p90", Json.Int (quantile t 0.9));
      ("p99", Json.Int (quantile t 0.99));
    ]

let pp ppf t =
  if t.count = 0 then Format.fprintf ppf "(empty)"
  else
    Format.fprintf ppf "n=%d mean=%.1f p50=%d p99=%d max=%d" t.count (mean t)
      (quantile t 0.5) (quantile t 0.99) (max_value t)
