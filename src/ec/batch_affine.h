// Batch Jacobian -> affine conversion and the shared-inversion (Montgomery
// trick) primitive behind it. One field inversion costs hundreds of
// multiplications; inverting a batch of k elements costs one inversion plus
// 3(k-1) multiplications, so converting MSM bases and Setup query tables to
// affine in bulk is effectively free per point.
//
// The multiplications inside the trick are independent across chain steps
// only in a restructured form: BatchInvertField splits large inputs into W
// contiguous per-lane chains (W = SIMD lane width), advances all chains with
// one vectorized multiply per step, then stitches the W chain totals (plus a
// scalar tail chain) together with a single field inversion. Inverses are
// unique, so the restructured walk produces bit-identical canonical values
// to the serial chain it replaces.
//
// Determinism contract: the block grid is a pure function of the input size
// (fixed kBatchAffineBlock), the lane split is a pure function of block
// length and the process-wide lane width, and blocks write disjoint output
// ranges of canonical affine coordinates -- so the result is bit-identical
// for any thread count, and bit-identical between SIMD and scalar backends.
#ifndef SRC_EC_BATCH_AFFINE_H_
#define SRC_EC_BATCH_AFFINE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/base/threadpool.h"
#include "src/ec/curve.h"
#include "src/ff/fp.h"

namespace nope {

namespace batch_affine_detail {

// Serial Montgomery trick; also the tail/fallback path of the lane version.
template <typename Field>
void BatchInvertSerial(Field* v, size_t n) {
  std::vector<Field> prefix(n);
  Field acc = Field::One();
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    if (!v[i].IsZero()) {
      acc = acc * v[i];
    }
  }
  Field inv = acc.Inverse();
  for (size_t i = n; i-- > 0;) {
    if (!v[i].IsZero()) {
      Field orig = v[i];
      v[i] = inv * prefix[i];
      inv = inv * orig;
    }
  }
}

}  // namespace batch_affine_detail

// Replaces each non-zero element of *vals with its inverse using a single
// field inversion (Montgomery's trick). Zero elements are left untouched --
// callers that batch slope denominators use zero as a "no pair here" hole.
// Serial; callers parallelize by invoking it per block of a fixed grid.
template <typename Field>
void BatchInvertField(std::vector<Field>* vals) {
  std::vector<Field>& v = *vals;
  const size_t n = v.size();
  const size_t w = FieldSimdLanes<Field>();
  if (w < 2 || n < 8 * w) {
    batch_affine_detail::BatchInvertSerial(v.data(), n);
    return;
  }

  // Lane split: lane l owns the contiguous run [l*len, (l+1)*len); the
  // remainder [w*len, n) is a scalar tail chain. Zeros are replaced by One()
  // in the vector multiplies (x1 = no-op on the running product) so every
  // lane advances in lockstep with uniform control flow.
  const size_t len = n / w;
  std::vector<Field> prefix(w * len);
  std::vector<Field> acc(w, Field::One());
  std::vector<Field> gathered(w);
  for (size_t s = 0; s < len; ++s) {
    for (size_t l = 0; l < w; ++l) {
      const Field& x = v[l * len + s];
      prefix[l * len + s] = acc[l];
      gathered[l] = x.IsZero() ? Field::One() : x;
    }
    FieldMulBatch(acc.data(), gathered.data(), acc.data(), w);
  }

  Field tail_acc = Field::One();
  std::vector<Field> tail_prefix(n - w * len);
  for (size_t i = w * len; i < n; ++i) {
    tail_prefix[i - w * len] = tail_acc;
    if (!v[i].IsZero()) {
      tail_acc = tail_acc * v[i];
    }
  }

  // One real inversion for the whole input: mini batch-invert of the w lane
  // totals plus the tail total (all non-zero by construction).
  std::vector<Field> totals(w + 1);
  for (size_t l = 0; l < w; ++l) {
    totals[l] = acc[l];
  }
  totals[w] = tail_acc;
  batch_affine_detail::BatchInvertSerial(totals.data(), w + 1);

  Field inv = totals[w];
  for (size_t i = n; i-- > w * len;) {
    if (!v[i].IsZero()) {
      Field orig = v[i];
      v[i] = inv * tail_prefix[i - w * len];
      inv = inv * orig;
    }
  }

  std::vector<Field> laneinv(w);
  for (size_t l = 0; l < w; ++l) {
    laneinv[l] = totals[l];
  }
  std::vector<Field> res(w);
  for (size_t s = len; s-- > 0;) {
    for (size_t l = 0; l < w; ++l) {
      const Field& x = v[l * len + s];
      gathered[l] = x.IsZero() ? Field::One() : x;
      res[l] = prefix[l * len + s];
    }
    FieldMulBatch(laneinv.data(), res.data(), res.data(), w);
    FieldMulBatch(laneinv.data(), gathered.data(), laneinv.data(), w);
    for (size_t l = 0; l < w; ++l) {
      if (!v[l * len + s].IsZero()) {
        v[l * len + s] = res[l];
      }
    }
  }
}

namespace batch_affine_detail {
// Fixed block size: the grid depends only on input size, never thread count.
constexpr size_t kBatchAffineBlock = 1024;

// Calls block(lo, hi) for each kBatchAffineBlock-sized block of [0, n), on
// the global pool when there is more than one block.
template <typename Block>
void ForEachBlock(size_t n, const Block& block) {
  if (n <= kBatchAffineBlock) {
    if (n > 0) {
      block(0, n);
    }
    return;
  }
  const size_t num_blocks = (n + kBatchAffineBlock - 1) / kBatchAffineBlock;
  ThreadPool::Global().ParallelFor(
      0, num_blocks, ThreadPool::ComputeMinChunk(num_blocks, 1),
      [&](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b) {
          const size_t first = b * kBatchAffineBlock;
          block(first, std::min(n, first + kBatchAffineBlock));
        }
      });
}
}  // namespace batch_affine_detail

// Converts a vector of Jacobian points to canonical affine coordinates with
// one inversion per kBatchAffineBlock-sized block. Points at infinity map to
// AffinePoint::Infinity(). Blocks run on the global pool for large inputs.
template <typename Config>
std::vector<AffinePoint<Config>> BatchToAffine(
    const std::vector<EcPoint<Config>>& points) {
  using Field = typename Config::Field;
  const size_t n = points.size();
  std::vector<AffinePoint<Config>> out(n);
  batch_affine_detail::ForEachBlock(n, [&](size_t lo, size_t hi) {
    const size_t m = hi - lo;
    // zs holds z for finite points and 0 (skipped) for infinities.
    std::vector<Field> zs(m);
    for (size_t i = 0; i < m; ++i) {
      zs[i] = points[lo + i].IsInfinity() ? Field::Zero() : points[lo + i].z;
    }
    BatchInvertField(&zs);
    // x' = x / z^2, y' = y / z^3, vectorized across the block. Infinities
    // ride along on their (canonical) stored coordinates and are overwritten
    // below; y*(zinv2*zinv) associates differently from the old serial
    // (y*zinv2)*zinv but field multiplication is exactly associative, so the
    // canonical results are identical.
    std::vector<Field> zinv2(m);
    std::vector<Field> zinv3(m);
    std::vector<Field> xs(m);
    std::vector<Field> ys(m);
    FieldSquareBatch(zs.data(), zinv2.data(), m);
    FieldMulBatch(zinv2.data(), zs.data(), zinv3.data(), m);
    for (size_t i = 0; i < m; ++i) {
      xs[i] = points[lo + i].x;
      ys[i] = points[lo + i].y;
    }
    FieldMulBatch(xs.data(), zinv2.data(), xs.data(), m);
    FieldMulBatch(ys.data(), zinv3.data(), ys.data(), m);
    for (size_t i = 0; i < m; ++i) {
      if (points[lo + i].IsInfinity()) {
        out[lo + i] = AffinePoint<Config>::Infinity();
      } else {
        out[lo + i] = {xs[i], ys[i], false};
      }
    }
  });
  return out;
}

}  // namespace nope

#endif  // SRC_EC_BATCH_AFFINE_H_
