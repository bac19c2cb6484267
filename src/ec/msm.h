// Multi-scalar multiplication via Pippenger's bucket method. This dominates
// Groth16 proving time, which is why the paper's headline prover costs scale
// with the number of R1CS constraints (§4.1, §8.2).
//
// One kernel: affine bases (mixed additions), batch-affine bucket
// accumulation (per-round shared inversion resolves all pending bucket
// additions with one field inversion), signed-digit windows (digit in
// [-2^(c-1), 2^(c-1)-1], halving the bucket count via on-the-fly negation),
// over fixed-width scalars: four little-endian 64-bit limbs in standard form
// (MsmScalar), read with shifts and masks.
//
// MsmAffine puts a density split in front of it. A prover witness is mostly
// zeros and ones, so one pass sorts the inputs: zero scalars and infinity
// bases drop out, scalars of at most 64 bits run the kernel on their own
// (short) window schedule, and only the full-width rest is GLV-decomposed
// (BN254 G1: half-length scalars over twice the bases) or run at full length.
//
// Determinism contract: the split is a pure function of the scalars and
// keeps input order; the window width, digit schedule and chunk grid of each
// part are pure functions of its size and scalar bit-length, never of the
// thread count; each chunk owns private buckets; chunk buckets merge in
// serial chunk order; the parts are summed in a fixed order. Affine bucket
// coordinates are canonical, so the batch-affine reduction tree cannot leak
// representation differences. The returned Jacobian point is bit-identical
// for any NOPE_THREADS value.
#ifndef SRC_EC_MSM_H_
#define SRC_EC_MSM_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/biguint.h"
#include "src/base/cancellation.h"
#include "src/base/check.h"
#include "src/base/threadpool.h"
#include "src/ec/batch_affine.h"
#include "src/ec/curve.h"
#include "src/ec/glv.h"

namespace nope {

// A fixed-width MSM scalar: four little-endian 64-bit limbs, standard form
// (Fr::ToStdLimbsBatch writes this layout).
using MsmScalar = std::array<uint64_t, 4>;

namespace msm_detail {

inline size_t ScalarBitLength(const MsmScalar& k) {
  for (size_t i = 4; i-- > 0;) {
    if (k[i] != 0) {
      return 64 * i + 64 - static_cast<size_t>(__builtin_clzll(k[i]));
    }
  }
  return 0;
}

// Analytic window cost model for the signed-digit kernel: per window, ~7
// field muls per point in the batch-affine accumulation and ~2 Jacobian adds
// (~16 muls each) per bucket in the suffix walk. Used for sizes beyond the
// measured table below. Deterministic integer arithmetic; depends only on
// (n, max_bits).
inline size_t AnalyticSignedWindow(size_t n, size_t max_bits) {
  size_t best_c = 2;
  uint64_t best_cost = ~uint64_t{0};
  for (size_t c = 2; c <= 16; ++c) {
    uint64_t windows = (max_bits + c - 1) / c + 1;
    uint64_t buckets = uint64_t{1} << (c - 1);
    uint64_t cost = windows * (7 * static_cast<uint64_t>(n) + 32 * buckets);
    if (cost < best_cost) {
      best_cost = cost;
      best_c = c;
    }
  }
  return best_c;
}

// Window widths pinned from measured sweeps (bench_groth16 with
// NOPE_MSM_AUTOTUNE=1: every (n, c) cell timed on the reference AVX-512
// host; majority winner over repeated sweeps recorded here, since small-n
// cells flip within measurement noise). Keyed on the kernel-visible point
// count n (after GLV doubling); each entry covers n <= max_n. A pinned
// table, unlike re-benchmarking at runtime, keeps the window width a pure
// function of the input size -- the determinism contract (PR 2) requires
// proof bytes to be identical on every host and thread count.
struct SignedWindowEntry {
  size_t max_n;
  size_t c;
};
constexpr SignedWindowEntry kSignedWindowTable[] = {
    {128, 11},  {256, 12},  {512, 9},    {1024, 9},   {2048, 10},
    {4096, 10}, {8192, 12}, {16384, 12}, {32768, 12}, {65536, 13},
};

// The table was measured on the dominant workload: BN254 G1 after GLV
// splitting, i.e. half-width (<=130-bit) scalars over the base field. It
// does NOT transfer to full-width scalars over Fp2 (G2 has no endomorphism
// here): more windows amortize the per-window bucket walk differently, and
// each walk op costs ~3x in Fp2 -- the analytic model handles those. The
// gate below is a pure function of (n, max_bits), so determinism holds.
constexpr size_t kSignedWindowTableMaxBits = 160;

inline size_t PickSignedWindow(size_t n, size_t max_bits) {
  if (max_bits <= kSignedWindowTableMaxBits) {
    for (const SignedWindowEntry& e : kSignedWindowTable) {
      if (n <= e.max_n) {
        // Short scalars (toy curves, tiny digests) cap the useful width:
        // more buckets than the windows can fill is pure waste.
        const size_t cap = max_bits < 2 ? 2 : max_bits;
        return e.c < cap ? e.c : cap;
      }
    }
  }
  return AnalyticSignedWindow(n, max_bits);
}

// Signed-digit recoding: writes `windows` digits of k in base 2^c with
// digit in [-2^(c-1), 2^(c-1)-1]. A raw window value >= 2^(c-1) becomes
// (raw - 2^c) plus a carry into the next window; the extra top window
// (callers size windows = ceil(max_bits/c) + 1) absorbs the final carry, so
// the recoding is exact: sum digit_w * 2^(cw) == k. Each window is one or
// two shifted limb reads (c <= 16, so a window straddles at most one limb
// boundary); windows past bit 255 read zero.
inline void SignedDigits(const MsmScalar& k, size_t c, size_t windows,
                         int32_t* out) {
  const uint64_t mask = (uint64_t{1} << c) - 1;
  const int64_t full = int64_t{1} << c;
  const int64_t half = int64_t{1} << (c - 1);
  int64_t carry = 0;
  for (size_t w = 0; w < windows; ++w) {
    const size_t limb = w * c / 64;
    const size_t shift = w * c % 64;
    uint64_t bits = 0;
    if (limb < 4) {
      bits = k[limb] >> shift;
      if (shift + c > 64 && limb + 1 < 4) {
        bits |= k[limb + 1] << (64 - shift);
      }
    }
    int64_t raw = static_cast<int64_t>(bits & mask) + carry;
    if (raw >= half) {
      out[w] = static_cast<int32_t>(raw - full);
      carry = 1;
    } else {
      out[w] = static_cast<int32_t>(raw);
      carry = 0;
    }
  }
}

// Below this many pending pairs a reduction round is not worth its fixed
// cost: the shared inversion is a ~380-mul Fermat exponentiation, while each
// unresolved pair merely adds one ~11-mul mixed add to the suffix walk
// (which handles multi-entry buckets). Purely a constant, so the reduction
// depth stays a function of the entry list alone.
constexpr size_t kMinBatchPairs = 64;

// Scratch arrays for the batch-affine fold. Every reduction round of every
// (window, chunk) cell needs the same staging vectors; allocating them per
// call churned the allocator and cold-missed the heap each window. Callers
// own one scratch per chunk (plus one for the merge) and reuse them across
// all windows, so each vector grows to its high-water mark once.
template <typename Field>
struct MsmFoldScratch {
  std::vector<Field> nx, ny;     // final survivor gather
  std::vector<uint32_t> nb;
  std::vector<uint32_t> counts;  // bucket histogram, then insert cursors
  std::vector<uint32_t> idx, bkt;    // live entries: pool id + bucket
  std::vector<uint32_t> lidx, lbkt;  // this round's leftover run
  std::vector<uint32_t> pbkt;        // this round's pair-result buckets
  std::vector<uint8_t> dbl;          // per-pair doubling flag
  std::vector<Field> sxa, sya, sxb, syb;  // staged pair operands
  std::vector<Field> denom, num, slope;   // batched pair-resolution lanes
};

// Batched pairwise-reduction rounds over a bucket-keyed affine entry list
// (parallel arrays x/y/bucket, modified in place). Each round counting-sorts
// the entries by bucket (stable), pairs same-bucket neighbors, and resolves
// every pending pair of the round (adds and doublings alike) with ONE shared
// inversion via BatchInvertField. Rounds stop when every bucket holds at
// most one entry or when fewer than `stop_below` pending pairs remain
// (pass 1 to force full uniqueness). Entries always leave bucket-sorted.
//
// Determinism: the counting sort is stable and the pair/leftover rule is
// positional, so the reduction tree is a pure function of the entry list.
// (Affine results are canonical anyway, so even the tree shape cannot
// change output bytes.) The batched slope/x3/y3 passes below compute the
// exact same field values as the per-pair formulas they replaced, just in
// SIMD-friendly struct-of-lanes order; likewise the sort-once-then-merge
// round structure reproduces entry-for-entry the order the old per-round
// stable re-sort produced (within a bucket, leftovers precede that round's
// pair results), so the reduction tree is unchanged too.
template <typename Field, typename AParam>
void ReduceEntryRounds(std::vector<Field>* pex, std::vector<Field>* pey,
                       std::vector<uint32_t>* peb, size_t num_buckets,
                       const AParam& curve_a, size_t stop_below,
                       MsmFoldScratch<Field>* scratch) {
  std::vector<Field>& ex = *pex;
  std::vector<Field>& ey = *pey;
  std::vector<uint32_t>& eb = *peb;

  size_t m = eb.size();
  if (m < 2) {
    return;
  }

  std::vector<uint32_t>& counts = scratch->counts;
  std::vector<uint32_t>& idx = scratch->idx;
  std::vector<uint32_t>& bkt = scratch->bkt;
  std::vector<uint32_t>& lidx = scratch->lidx;
  std::vector<uint32_t>& lbkt = scratch->lbkt;
  std::vector<uint32_t>& pbkt = scratch->pbkt;
  std::vector<uint8_t>& dbl = scratch->dbl;
  std::vector<Field>& sxa = scratch->sxa;
  std::vector<Field>& sya = scratch->sya;
  std::vector<Field>& sxb = scratch->sxb;
  std::vector<Field>& syb = scratch->syb;
  std::vector<Field>& denom = scratch->denom;
  std::vector<Field>& num = scratch->num;
  std::vector<Field>& slope = scratch->slope;

  // Stable counting sort of entry IDS by bucket. The rounds below never
  // move coordinate payloads wholesale: they shuffle 4-byte ids, gather
  // this round's pair operands into compact staging arrays for the batched
  // math, and append each fold's result to the payload pool (ex/ey
  // themselves, grown past the original m entries). A round's memory
  // traffic is therefore proportional to its pair count, not to the live
  // list length it used to copy twice per round.
  counts.assign(num_buckets, 0u);
  for (size_t j = 0; j < m; ++j) {
    ++counts[eb[j]];
  }
  uint32_t acc = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    uint32_t cnt = counts[b];
    counts[b] = acc;
    acc += cnt;
  }
  idx.resize(m);
  bkt.resize(m);
  for (size_t j = 0; j < m; ++j) {
    uint32_t pos = counts[eb[j]]++;
    idx[pos] = static_cast<uint32_t>(j);
    bkt[pos] = eb[j];
  }
  // Each fold appends exactly one pooled result and there are at most m-1
  // folds, so one reservation guarantees pushes never reallocate while
  // staged values are in flight.
  ex.reserve(2 * m);
  ey.reserve(2 * m);

  while (m >= 2) {
    bool any_dup = false;
    for (size_t j = 0; j + 1 < m; ++j) {
      if (bkt[j] == bkt[j + 1]) {
        any_dup = true;
        break;
      }
    }
    if (!any_dup) {
      break;  // every bucket holds at most one entry
    }

    // Pair adjacent same-bucket ids; gather the operands and record one
    // denominator per live pair (xb - xa for adds, 2*ya for doublings).
    // P + (-P) drops outright.
    lidx.clear();
    lbkt.clear();
    pbkt.clear();
    dbl.clear();
    sxa.clear();
    sya.clear();
    sxb.clear();
    syb.clear();
    denom.clear();
    size_t j = 0;
    while (j < m) {
      if (j + 1 < m && bkt[j + 1] == bkt[j]) {
        const uint32_t ia = idx[j];
        const uint32_t ib = idx[j + 1];
        const Field& xa = ex[ia];
        const Field& xb = ex[ib];
        if (xa == xb && !(ey[ia] == ey[ib] && !ey[ia].IsZero())) {
          // The pair is P + (-P) == infinity: contributes nothing.
        } else {
          sxa.push_back(xa);
          sya.push_back(ey[ia]);
          sxb.push_back(xb);
          syb.push_back(ey[ib]);
          dbl.push_back(xa == xb ? 1 : 0);
          denom.push_back(xa == xb ? ey[ia].Double() : xb - xa);
          pbkt.push_back(bkt[j]);
        }
        j += 2;
      } else {
        lidx.push_back(idx[j]);
        lbkt.push_back(bkt[j]);
        ++j;
      }
    }
    const size_t np = denom.size();
    if (np < stop_below) {
      break;  // ids stay bucket-sorted; the walk folds the leftovers
    }
    BatchInvertField(&denom);

    const uint32_t base_id = static_cast<uint32_t>(ex.size());
    if constexpr (FieldHasBatchOps<Field>::value) {
      // Resolve all pending pairs with contiguous batched field passes so
      // the SIMD backend sees full lanes: slope = num/denom,
      // x3 = slope^2-xa-xb, y3 = slope*(xa-x3)-ya, the same values the
      // serial formulas produce.
      num.resize(np);
      slope.resize(np);
      // Doubling numerators need xa^2; gather those xa compactly, square in
      // one pass, then expand into 3*xx + a alongside the add numerators.
      size_t nd = 0;
      for (size_t t = 0; t < np; ++t) {
        if (dbl[t]) {
          slope[nd++] = sxa[t];
        }
      }
      FieldSquareBatch(slope.data(), slope.data(), nd);
      nd = 0;
      for (size_t t = 0; t < np; ++t) {
        if (dbl[t]) {
          const Field& xx = slope[nd++];
          num[t] = xx + xx + xx + curve_a;
        } else {
          num[t] = syb[t] - sya[t];
        }
      }
      FieldMulBatch(num.data(), denom.data(), slope.data(), np);
      FieldSquareBatch(slope.data(), num.data(), np);  // num := slope^2
      for (size_t t = 0; t < np; ++t) {
        Field x3 = num[t] - sxa[t] - sxb[t];
        num[t] = sxa[t] - x3;
        ex.push_back(x3);
      }
      FieldMulBatch(slope.data(), num.data(), num.data(), np);
      for (size_t t = 0; t < np; ++t) {
        ey.push_back(num[t] - sya[t]);
      }
    } else {
      // Extension fields (G2's Fp2) have no SIMD lanes: multi-pass staging
      // would be pure memory-traffic overhead there, so keep the fused
      // per-pair formulas.
      for (size_t t = 0; t < np; ++t) {
        Field slope_t;
        if (dbl[t]) {
          Field xx = sxa[t].Square();
          slope_t = (xx + xx + xx + curve_a) * denom[t];
        } else {
          slope_t = (syb[t] - sya[t]) * denom[t];
        }
        Field x3 = slope_t.Square() - sxa[t] - sxb[t];
        ex.push_back(x3);
        ey.push_back(slope_t * (sxa[t] - x3) - sya[t]);
      }
    }

    // Merge the leftover id run with this round's result ids (base_id + t).
    // Both runs are bucket-sorted (each inherits the sorted scan order), and
    // taking leftovers first on equal buckets reproduces exactly the order
    // the old per-round stable re-sort of [leftovers | pairs] produced.
    const size_t nl = lidx.size();
    idx.resize(nl + np);
    bkt.resize(nl + np);
    size_t li = 0, pi = 0, k = 0;
    while (li < nl && pi < np) {
      if (lbkt[li] <= pbkt[pi]) {
        idx[k] = lidx[li];
        bkt[k] = lbkt[li];
        ++li;
      } else {
        idx[k] = base_id + static_cast<uint32_t>(pi);
        bkt[k] = pbkt[pi];
        ++pi;
      }
      ++k;
    }
    for (; li < nl; ++li, ++k) {
      idx[k] = lidx[li];
      bkt[k] = lbkt[li];
    }
    for (; pi < np; ++pi, ++k) {
      idx[k] = base_id + static_cast<uint32_t>(pi);
      bkt[k] = pbkt[pi];
    }
    m = k;
  }

  // Materialize the survivors in id order: the pooled results collapse back
  // into a compact bucket-sorted parallel-array list for the caller.
  std::vector<Field>& nx = scratch->nx;
  std::vector<Field>& ny = scratch->ny;
  std::vector<uint32_t>& nb = scratch->nb;
  nx.resize(m);
  ny.resize(m);
  nb.resize(m);
  for (size_t j = 0; j < m; ++j) {
    nx[j] = ex[idx[j]];
    ny[j] = ey[idx[j]];
    nb[j] = bkt[j];
  }
  ex.swap(nx);
  ey.swap(ny);
  eb.swap(nb);
}

// Batch-affine bucket accumulation for one (window, chunk) cell: gathers the
// chunk's non-zero digits as signed affine entries in input order into
// *sx/*sy/*sb, then runs batched reduction rounds. Survivors leave
// bucket-sorted with at most a handful of entries per bucket.
template <typename Config>
void AccumulateChunk(const std::vector<AffinePoint<Config>>& bases,
                     const int32_t* digits_w, size_t i_lo, size_t i_hi,
                     size_t num_buckets,
                     std::vector<typename Config::Field>* sx,
                     std::vector<typename Config::Field>* sy,
                     std::vector<uint32_t>* sb,
                     MsmFoldScratch<typename Config::Field>* scratch) {
  sx->clear();
  sy->clear();
  sb->clear();
  sx->reserve(i_hi - i_lo);
  sy->reserve(i_hi - i_lo);
  sb->reserve(i_hi - i_lo);
  for (size_t i = i_lo; i < i_hi; ++i) {
    int32_t d = digits_w[i];
    if (d == 0 || bases[i].infinity) {
      continue;
    }
    sb->push_back(d > 0 ? static_cast<uint32_t>(d) - 1
                        : static_cast<uint32_t>(-d) - 1);
    sx->push_back(bases[i].x);
    sy->push_back(d > 0 ? bases[i].y : -bases[i].y);
  }
  ReduceEntryRounds(sx, sy, sb, num_buckets, Config::A(), kMinBatchPairs,
                    scratch);
}
}  // namespace msm_detail

// Signed-digit batch-affine kernel over affine bases. Scalars are treated as
// plain non-negative integers (callers wanting the density split and GLV go
// through MsmAffine).
//
// `cancel` (optional) is polled at window and chunk boundaries: once it
// fires the remaining work is skipped and the returned point is garbage, so
// callers that pass a token must check it after the call and discard the
// result. A null or quiet token leaves the output bit-identical.
// `window_override` forces the window width c (used by the autotune sweep in
// bench_groth16 to measure every cell of the table feeding
// PickSignedWindow); 0 means pick normally.
template <typename Config>
EcPoint<Config> MsmSignedAffine(const std::vector<AffinePoint<Config>>& bases,
                                const std::vector<MsmScalar>& scalars,
                                const CancellationToken* cancel = nullptr,
                                size_t window_override = 0) {
  using Point = EcPoint<Config>;
  using Field = typename Config::Field;
  NOPE_INVARIANT(bases.size() == scalars.size(),
                 "Msm: bases/scalars size mismatch");
  if (bases.empty()) {
    return Point::Infinity();
  }

  const size_t n = bases.size();
  size_t max_bits = 1;
  for (const MsmScalar& k : scalars) {
    max_bits = std::max(max_bits, msm_detail::ScalarBitLength(k));
  }
  const size_t c = window_override != 0
                       ? window_override
                       : msm_detail::PickSignedWindow(n, max_bits);
  const size_t windows = (max_bits + c - 1) / c + 1;
  const size_t num_buckets = size_t{1} << (c - 1);

  ThreadPool& pool = ThreadPool::Global();

  // Digit matrix in window-major layout (digits[w*n + i]) so each window's
  // accumulation pass reads a contiguous slice instead of striding across
  // the whole matrix. Disjoint writes of values that depend only on
  // (scalar, c, windows), so any partition yields identical digits.
  std::vector<int32_t> digits(windows * n);
  pool.ParallelFor(0, n, ThreadPool::ComputeMinChunk(n, 256),
                   [&](size_t lo, size_t hi) {
                     std::vector<int32_t> row(windows);
                     for (size_t i = lo; i < hi; ++i) {
                       msm_detail::SignedDigits(scalars[i], c, windows,
                                                row.data());
                       for (size_t w = 0; w < windows; ++w) {
                         digits[w * n + i] = row[w];
                       }
                     }
                   },
                   cancel);

  // Fixed chunk grid, a function of (n, c) only. ~8 points per bucket keeps
  // the batch-affine rounds dense without inflating the serial merge.
  const size_t chunk_size = std::max<size_t>(512, 8 * num_buckets);
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;

  std::vector<std::vector<Field>> csx(num_chunks), csy(num_chunks);
  std::vector<std::vector<uint32_t>> csb(num_chunks);
  // One fold scratch per chunk (chunks run concurrently) plus one for the
  // serial merge, all reused across windows.
  std::vector<msm_detail::MsmFoldScratch<Field>> cscratch(num_chunks);
  msm_detail::MsmFoldScratch<Field> merge_scratch;
  std::vector<Field> mx, my;
  std::vector<uint32_t> mb;

  // Two-level split of the weighted bucket sum. With B = 2^(c-1) buckets the
  // classic suffix walk pays O(B) point adds per window; writing each weight
  // w = b+1 as (q << lo_bits) + r gives
  //   sum_b (b+1)*B_b = 2^lo_bits * sum_q q*C_q  +  sum_r r*D_r,
  // where C_q (resp. D_r) collects every bucket whose weight has that high
  // (resp. low) digit. Each entry lands in at most two pseudo-buckets, the
  // collisions fold through the same batched-inversion reduction as
  // everything else, and the two remaining walks cover
  // B >> lo_bits + 2^lo_bits ~ 2*sqrt(B) buckets instead of B.
  const size_t lo_bits = (c - 1) / 2;
  const uint32_t lo_mask = (uint32_t{1} << lo_bits) - 1;
  const size_t q_count = num_buckets >> lo_bits;  // q in [1, q_count]
  const size_t r_count = size_t{1} << lo_bits;    // r in [1, r_count-1]
  const size_t total_pseudo = q_count + r_count - 1;
  std::vector<Field> wx, wy;
  std::vector<uint32_t> wb;
  std::vector<uint32_t> seg(total_pseudo + 1, 0);

  Point result = Point::Infinity();
  for (size_t w = windows; w-- > 0;) {
    if (cancel != nullptr && cancel->cancelled()) {
      return result;  // garbage; caller checks the token
    }
    for (size_t d = 0; d < c; ++d) {
      result = result.Double();
    }
    pool.ParallelFor(0, num_chunks, ThreadPool::ComputeMinChunk(num_chunks, 1),
                     [&](size_t lo, size_t hi) {
                       for (size_t ci = lo; ci < hi; ++ci) {
                         if (cancel != nullptr && cancel->cancelled()) {
                           return;  // abandon this share's remaining chunks
                         }
                         msm_detail::AccumulateChunk<Config>(
                             bases, &digits[w * n], ci * chunk_size,
                             std::min(n, (ci + 1) * chunk_size), num_buckets,
                             &csx[ci], &csy[ci], &csb[ci], &cscratch[ci]);
                       }
                     },
                     cancel);
    // Cross-chunk merge: concatenate the chunks' survivor lists in chunk
    // order and reduce with the same batched-inversion machinery -- ~6 field
    // muls per fold instead of an 11-mul mixed add. The concatenation order
    // and reduction are fixed serial code over canonical affine values, so
    // the merge is independent of how chunks were scheduled.
    if (num_chunks == 1) {
      mx.swap(csx[0]);
      my.swap(csy[0]);
      mb.swap(csb[0]);
    } else {
      mx.clear();
      my.clear();
      mb.clear();
      for (size_t ci = 0; ci < num_chunks; ++ci) {
        mx.insert(mx.end(), csx[ci].begin(), csx[ci].end());
        my.insert(my.end(), csy[ci].begin(), csy[ci].end());
        mb.insert(mb.end(), csb[ci].begin(), csb[ci].end());
      }
      msm_detail::ReduceEntryRounds(&mx, &my, &mb, num_buckets, Config::A(),
                                    msm_detail::kMinBatchPairs,
                                    &merge_scratch);
    }

    // Expand each surviving entry into its high- and low-digit
    // pseudo-buckets (skipping zero digits), then fold the collisions with
    // the same batched reduction. Expansion scans the merged list in order
    // and the reduction is fixed serial code, so the result stays
    // independent of chunking and thread count.
    wx.clear();
    wy.clear();
    wb.clear();
    wx.reserve(2 * mb.size());
    wy.reserve(2 * mb.size());
    wb.reserve(2 * mb.size());
    for (size_t j = 0; j < mb.size(); ++j) {
      const uint32_t wgt = mb[j] + 1;
      const uint32_t q = wgt >> lo_bits;
      const uint32_t r = wgt & lo_mask;
      if (q != 0) {
        wx.push_back(mx[j]);
        wy.push_back(my[j]);
        wb.push_back(q - 1);
      }
      if (r != 0) {
        wx.push_back(mx[j]);
        wy.push_back(my[j]);
        wb.push_back(static_cast<uint32_t>(q_count) + r - 1);
      }
    }
    msm_detail::ReduceEntryRounds(&wx, &wy, &wb, total_pseudo, Config::A(),
                                  msm_detail::kMinBatchPairs, &merge_scratch);

    // Serial suffix walks over the two pseudo-bucket zones. Entries are
    // bucket-sorted but a bucket may hold a few entries (the reduction stops
    // once batches get too small); each folds in with a mixed add, in list
    // order. Empty-bucket runs (common at small n after GLV + signed
    // recoding) are folded with a short double-and-add ladder: adding an
    // unchanged `running` k times equals adding k*running once.
    std::fill(seg.begin(), seg.end(), 0u);
    for (uint32_t b : wb) {
      ++seg[b + 1];
    }
    for (size_t idx = 0; idx < total_pseudo; ++idx) {
      seg[idx + 1] += seg[idx];
    }
    auto zone_walk = [&](size_t base, size_t count) {
      Point running = Point::Infinity();
      Point zone_sum = Point::Infinity();
      size_t pending = 0;
      auto flush = [&](size_t k) {
        if (k == 0 || running.IsInfinity()) {
          return;
        }
        if (k <= 2) {
          for (size_t t = 0; t < k; ++t) {
            zone_sum = zone_sum.Add(running);
          }
          return;
        }
        Point acc = running;  // acc = k * running, ladder from the high bit
        for (int bit = 62 - __builtin_clzll(k); bit >= 0; --bit) {
          acc = acc.Double();
          if ((k >> bit) & 1) {
            acc = acc.Add(running);
          }
        }
        zone_sum = zone_sum.Add(acc);
      };
      for (size_t t = count; t-- > 0;) {
        const size_t idx = base + t;
        if (seg[idx] != seg[idx + 1]) {
          flush(pending);
          pending = 0;
          for (size_t j = seg[idx]; j < seg[idx + 1]; ++j) {
            running = running.AddMixed({wx[j], wy[j], false});
          }
        }
        ++pending;
      }
      flush(pending);
      return zone_sum;
    };
    Point window_sum = zone_walk(0, q_count);  // sum_q q*C_q
    for (size_t d = 0; d < lo_bits; ++d) {
      window_sum = window_sum.Double();
    }
    window_sum = window_sum.Add(zone_walk(q_count, r_count - 1));
    result = result.Add(window_sum);
  }
  return result;
}

// Fast MSM over affine bases and fixed-width scalars (scalars[0..n), n ==
// bases.size()). One serial pass in input order splits the instance:
//   - zero scalars and infinity bases contribute nothing and drop out;
//   - scalars of at most 64 bits (the ones of a witness included) run the
//     kernel as one instance, whose window schedule their short length
//     picks;
//   - the full-width rest runs the kernel at full length, except on BN254
//     G1, where each scalar is GLV-decomposed (k == k1 + lambda*k2 mod r,
//     |ki| < 2^130) into a 2m-point instance over half-length scalars with
//     the signs folded into the bases (valid for any scalar because G1 has
//     cofactor 1, so kP == (k mod r)P).
// The result is short part + full part, in that order.
template <typename Config>
EcPoint<Config> MsmAffine(const std::vector<AffinePoint<Config>>& bases,
                          const MsmScalar* scalars, size_t n,
                          const CancellationToken* cancel = nullptr) {
  using Affine = AffinePoint<Config>;
  NOPE_INVARIANT(bases.size() == n, "Msm: bases/scalars size mismatch");
  std::vector<size_t> short_idx, full_idx;
  for (size_t i = 0; i < n; ++i) {
    if (bases[i].infinity) {
      continue;
    }
    const MsmScalar& k = scalars[i];
    if ((k[1] | k[2] | k[3]) != 0) {
      full_idx.push_back(i);
    } else if (k[0] != 0) {
      short_idx.push_back(i);
    }
  }
  auto gather = [&](const std::vector<size_t>& idx, std::vector<Affine>* b,
                    std::vector<MsmScalar>* k) {
    b->resize(idx.size());
    k->resize(idx.size());
    for (size_t j = 0; j < idx.size(); ++j) {
      (*b)[j] = bases[idx[j]];
      (*k)[j] = scalars[idx[j]];
    }
  };

  EcPoint<Config> result = EcPoint<Config>::Infinity();
  if (!short_idx.empty()) {
    std::vector<Affine> b;
    std::vector<MsmScalar> k;
    gather(short_idx, &b, &k);
    result = MsmSignedAffine(b, k, cancel);
  }
  if (full_idx.empty()) {
    return result;
  }
  const size_t m = full_idx.size();
  std::vector<Affine> b;
  std::vector<MsmScalar> k;
  if constexpr (GlvTraits<Config>::kEnabled) {
    b.resize(2 * m);
    k.resize(2 * m);
    ThreadPool::Global().ParallelFor(
        0, m, ThreadPool::ComputeMinChunk(m, 64),
        [&](size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            const Affine& base = bases[full_idx[j]];
            GlvDecomposition d = GlvDecompose(scalars[full_idx[j]]);
            b[j] = d.k1_neg ? base.Negate() : base;
            Affine endo = GlvEndomorphism(base);
            b[m + j] = d.k2_neg ? endo.Negate() : endo;
            k[j] = d.k1;
            k[m + j] = d.k2;
          }
        },
        cancel);
  } else {
    gather(full_idx, &b, &k);
  }
  return result.Add(MsmSignedAffine(b, k, cancel));
}

// Adapter for arbitrary-precision scalars (tests, benchmarks, perfbench's
// trace probes): converts to limbs and runs the fixed-width MsmAffine.
// On BN254 G1 (cofactor 1) scalars are reduced mod r first, so any size is
// accepted; elsewhere a scalar must fit in 256 bits.
template <typename Config>
EcPoint<Config> MsmAffine(const std::vector<AffinePoint<Config>>& bases,
                          const std::vector<BigUInt>& scalars,
                          const CancellationToken* cancel = nullptr) {
  NOPE_INVARIANT(bases.size() == scalars.size(),
                 "Msm: bases/scalars size mismatch");
  std::vector<MsmScalar> limbs(scalars.size(), MsmScalar{});
  for (size_t i = 0; i < scalars.size(); ++i) {
    const BigUInt* k = &scalars[i];
    BigUInt reduced;
    if constexpr (GlvTraits<Config>::kEnabled) {
      if (*k >= Bn254Order()) {
        reduced = *k % Bn254Order();
        k = &reduced;
      }
    }
    NOPE_INVARIANT(k->limbs().size() <= 4, "Msm: scalar wider than 256 bits");
    std::copy(k->limbs().begin(), k->limbs().end(), limbs[i].begin());
  }
  return MsmAffine(bases, limbs.data(), limbs.size(), cancel);
}

}  // namespace nope

#endif  // SRC_EC_MSM_H_
