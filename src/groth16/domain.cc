#include "src/groth16/domain.h"

#include <algorithm>
#include <cstdint>

#include "src/base/check.h"
#include "src/base/threadpool.h"
#include "src/ec/batch_affine.h"

namespace nope {

namespace {

constexpr size_t kTwoAdicity = 28;

// A generator of Fr*: 5^((r - 1) / p) != 1 for every prime p dividing r - 1.
// Every domain's root of unity is a power of it, and 5^n != 1 for every
// domain size n, so it is also the coset shift on every rung.
constexpr uint64_t kGenerator = 5;

// Minimum elements per parallel share. Below these, ParallelFor collapses to
// an inline serial call, so they double as the serial/parallel cutoffs. Call
// sites wrap them in ThreadPool::ComputeMinChunk so an oversubscribed pool
// (more lanes than cores) never fans out past the physical core count.
// Values are order-independent either way (canonical Montgomery form), so
// the cutoffs affect scheduling only, never output bytes.
constexpr size_t kButterflyMinChunk = 256;   // butterflies per FFT share
constexpr size_t kMulBatch = 64;             // elements per Fr::MulBatch call
constexpr size_t kScaleMinChunk = 1024;      // elements per scaling share

// The low `bits` bits of x in reverse order.
size_t ReverseBits(size_t x, size_t bits) {
  // Reverse all 64 bits (swap adjacent bits, pairs, nibbles, then bytes),
  // then drop the 64 - bits low zeros; the split shift keeps bits = 0
  // defined.
  uint64_t v = x;
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0f0f0f0f0f0f0f0full) | ((v & 0x0f0f0f0f0f0f0f0full) << 4);
  return (__builtin_bswap64(v) >> (63 - bits)) >> 1;
}

// The input permutation of the decimation-in-time transform for n = c * m,
// m = 2^log_m and c in {1, 3, 9}. Position R * m + p takes element
// c * rev2(p) + rev3(R): rev2 reverses p's log_m bits and rev3 reverses R's
// base-3 digits (none, one or two). For c = 1 this is the bit reversal; for
// c = 3, position r * m + rev2(q) takes element 3q + r. Each output is
// gathered from a copy of the input, so any partition writes the same
// bytes.
void DigitReverse(std::vector<Fr>* a, size_t log_m) {
  const std::vector<Fr> in = *a;
  const size_t n = a->size();
  const size_t m = size_t{1} << log_m;
  const size_t c = n >> log_m;
  ThreadPool::Global().ParallelFor(
      0, n, ThreadPool::ComputeMinChunk(n, kScaleMinChunk),
      [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      size_t block = i >> log_m;
      size_t rev3 = 0;
      for (size_t d = c; d > 1; d /= 3) {
        rev3 = 3 * rev3 + block % 3;
        block /= 3;
      }
      (*a)[i] = in[c * ReverseBits(i & (m - 1), log_m) + rev3];
    }
  });
}

// In-place mixed radix-2/3 transform: evaluates the coefficients in *a at
// omega^0 .. omega^(n-1), n = c * 2^log_m with c in {1, 3, 9}, reading
// twiddles[j] = omega^j. After the digit reversal, the radix-2 stages build
// the c transforms of length 2^log_m (no block crosses a 2^log_m boundary),
// then each radix-3 stage merges three transforms of length s into one of
// length 3s.
void FftInternal(std::vector<Fr>* a, size_t log_m, const std::vector<Fr>& twiddles,
                 const CancellationToken* cancel) {
  DigitReverse(a, log_m);
  const size_t n = a->size();
  Fr* data = a->data();
  ThreadPool& pool = ThreadPool::Global();
  for (size_t s = 1; s <= log_m; ++s) {
    if (cancel != nullptr && cancel->cancelled()) {
      return;  // *a is garbage; the caller checks the token
    }
    // Stage s combines blocks of 2*half elements; butterfly j of a block
    // multiplies by omega^(j * n / 2^s), table entry j * stride.
    const size_t half = size_t{1} << (s - 1);
    const size_t stride = n >> s;
    // Flatten the stage into n/2 independent butterflies: butterfly t sits at
    // offset j = t % half of its block and touches exactly a[2t - j] and
    // a[2t - j + half], so any partition of [0, n/2) computes identical bytes.
    pool.ParallelFor(0, n / 2,
                     ThreadPool::ComputeMinChunk(n / 2, kButterflyMinChunk),
                     [&](size_t lo, size_t hi) {
      Fr w[kMulBatch];
      Fr odd[kMulBatch];
      size_t even[kMulBatch];
      for (size_t t0 = lo; t0 < hi; t0 += kMulBatch) {
        const size_t cnt = std::min(kMulBatch, hi - t0);
        for (size_t i = 0; i < cnt; ++i) {
          const size_t t = t0 + i;
          const size_t j = t & (half - 1);
          even[i] = 2 * t - j;
          w[i] = twiddles[j * stride];
          odd[i] = data[even[i] + half];
        }
        if (s > 1) {  // stage 1's twiddles are all omega^0 = 1
          Fr::MulBatch(w, odd, odd, cnt);
        }
        for (size_t i = 0; i < cnt; ++i) {
          const Fr u = data[even[i]];
          data[even[i]] = u + odd[i];
          data[even[i] + half] = u - odd[i];
        }
      }
    }, cancel);
  }
  if (n % 3 != 0) {
    return;
  }
  // zeta = omega^(n/3), a primitive cube root of unity; 1 + zeta + zeta^2 = 0.
  const Fr zeta = twiddles[n / 3];
  for (size_t s = size_t{1} << log_m; s < n; s *= 3) {
    if (cancel != nullptr && cancel->cancelled()) {
      return;
    }
    // Butterfly k of a block of 3s takes y0, y1, y2 at offsets k, k + s and
    // k + 2s, with a1 = omega_3s^k y1 and a2 = omega_3s^2k y2 (table entries
    // k * stride and 2k * stride), and writes
    //   a0 + a1 + a2, (a0 - a2) + zeta (a1 - a2), (a0 - a1) - zeta (a1 - a2):
    // three multiplies per three outputs. Flattened as above: butterfly t
    // sits at offset k = t % s and starts at a[3t - 2k].
    const size_t stride = n / (3 * s);
    pool.ParallelFor(0, n / 3,
                     ThreadPool::ComputeMinChunk(n / 3, kButterflyMinChunk),
                     [&](size_t lo, size_t hi) {
      Fr w[2 * kMulBatch];
      Fr y[2 * kMulBatch];
      Fr z[kMulBatch];
      size_t first[kMulBatch];
      std::fill(z, z + kMulBatch, zeta);
      for (size_t t0 = lo; t0 < hi; t0 += kMulBatch) {
        const size_t cnt = std::min(kMulBatch, hi - t0);
        for (size_t i = 0; i < cnt; ++i) {
          const size_t t = t0 + i;
          const size_t k = t % s;
          first[i] = 3 * t - 2 * k;
          w[i] = twiddles[k * stride];
          w[cnt + i] = twiddles[2 * k * stride];
          y[i] = data[first[i] + s];
          y[cnt + i] = data[first[i] + 2 * s];
        }
        Fr::MulBatch(w, y, y, 2 * cnt);  // a1 in y[0, cnt), a2 in y[cnt, 2cnt)
        for (size_t i = 0; i < cnt; ++i) {
          w[i] = y[i] - y[cnt + i];
        }
        Fr::MulBatch(z, w, w, cnt);  // zeta (a1 - a2)
        for (size_t i = 0; i < cnt; ++i) {
          const Fr a0 = data[first[i]];
          const Fr& a1 = y[i];
          const Fr& a2 = y[cnt + i];
          data[first[i]] = a0 + a1 + a2;
          data[first[i] + s] = (a0 - a2) + w[i];
          data[first[i] + 2 * s] = (a0 - a1) - w[i];
        }
      }
    }, cancel);
  }
}

}  // namespace

void BatchInvert(std::vector<Fr>* values) {
  // BatchToAffine's block grid: one inversion per 1,024 elements. Inverses
  // are unique, so the outputs cannot depend on the grid or the thread count.
  batch_affine_detail::ForEachBlock(values->size(), [&](size_t lo, size_t hi) {
    std::vector<Fr> block(values->begin() + lo, values->begin() + hi);
    BatchInvertField(&block);
    std::copy(block.begin(), block.end(), values->begin() + lo);
  });
}

size_t EvaluationDomain::SizeFor(size_t min_size) {
  const size_t want = std::max<size_t>(min_size, 2);
  // Circuit sizes are fixed by the statement builders long before proving;
  // outgrowing the field's subgroups is a build-time defect, not a runtime
  // input condition.
  NOPE_INVARIANT(want <= (size_t{9} << kTwoAdicity),
                 "domain exceeds 9 * 2^28, the 2- and 3-power part of r - 1");
  size_t best = SIZE_MAX;
  for (size_t odd : {1, 3, 9}) {
    size_t n = odd;
    while (n < want && n < (odd << kTwoAdicity)) {
      n <<= 1;
    }
    if (n >= want) {
      best = std::min(best, n);
    }
  }
  return best;
}

EvaluationDomain::EvaluationDomain(size_t min_size) : size_(SizeFor(min_size)) {
  log_two_ = static_cast<size_t>(__builtin_ctzll(size_));
  omega_ = Fr::FromU64(kGenerator).Pow((Fr::params().modulus_big - BigUInt(1)) /
                                       BigUInt(static_cast<uint64_t>(size_)));
  // omega^(k + j) = omega^j * omega^k: each doubling of the table is a run
  // of independent multiplies rather than one dependent chain. The radix-2
  // stages read entries below n/2, the radix-3 stages below 2n/3.
  twiddles_.resize(size_ % 3 == 0 ? 2 * size_ / 3 : size_ / 2);
  twiddles_[0] = Fr::One();
  Fr omega_k = omega_;
  for (size_t k = 1; k < twiddles_.size(); k *= 2) {
    for (size_t j = 0; j < k && k + j < twiddles_.size(); ++j) {
      twiddles_[k + j] = twiddles_[j] * omega_k;
    }
    omega_k = omega_k.Square();
  }
  size_inv_ = Fr::FromU64(size_).Inverse();
  shift_ = Fr::FromU64(kGenerator);
  NOPE_INVARIANT(!VanishingOnCoset().IsZero(), "coset shift lies inside the domain");
  shift_inv_ = shift_.Inverse();
}

void EvaluationDomain::Fft(std::vector<Fr>* a, const CancellationToken* cancel) const {
  NOPE_INVARIANT(a->size() == size_, "FFT input size mismatch");
  FftInternal(a, log_two_, twiddles_, cancel);
}

void EvaluationDomain::Ifft(std::vector<Fr>* a, const CancellationToken* cancel) const {
  NOPE_INVARIANT(a->size() == size_, "IFFT input size mismatch");
  // omega^-1 = omega^(n-1), so the inverse transform is the forward one with
  // outputs 1..n-1 read in reverse, scaled by 1/n. Each index i <= n/2 owns
  // the pair (i, (n - i) mod n), for odd n as for even, so any partition
  // writes identical bytes.
  FftInternal(a, log_two_, twiddles_, cancel);
  const size_t n = size_;
  ThreadPool::Global().ParallelFor(0, n / 2 + 1,
                                   ThreadPool::ComputeMinChunk(
                                       n / 2 + 1, kScaleMinChunk),
                                   [&](size_t lo, size_t hi) {
                                     for (size_t i = lo; i < hi; ++i) {
                                       const size_t r = i == 0 ? 0 : n - i;  // (n - i) mod n
                                       const Fr x = (*a)[i];
                                       (*a)[i] = (*a)[r] * size_inv_;
                                       (*a)[r] = x * size_inv_;
                                     }
                                   },
                                   cancel);
}

// Multiplies a[i] by factor^i for i in [0, a->size()). Shares re-derive
// their starting power with one Pow, then step kMulBatch elements at a time:
// a block's powers are its first power times factor^j (j < kMulBatch), so
// both products per block are batched and none waits on the previous one.
void EvaluationDomain::ScaleByPowers(std::vector<Fr>* a, const Fr& factor) {
  Fr steps[kMulBatch];
  steps[0] = Fr::One();
  for (size_t j = 1; j < kMulBatch; ++j) {
    steps[j] = steps[j - 1] * factor;
  }
  const Fr block_step = steps[kMulBatch - 1] * factor;
  ThreadPool::Global().ParallelFor(
      0, a->size(), ThreadPool::ComputeMinChunk(a->size(), kScaleMinChunk),
      [&](size_t lo, size_t hi) {
        Fr first = (lo == 0) ? Fr::One()
                             : factor.Pow(BigUInt(static_cast<uint64_t>(lo)));
        Fr powers[kMulBatch];
        for (size_t i = lo; i < hi; i += kMulBatch) {
          const size_t cnt = std::min(kMulBatch, hi - i);
          std::fill(powers, powers + cnt, first);
          Fr::MulBatch(powers, steps, powers, cnt);
          Fr::MulBatch(a->data() + i, powers, a->data() + i, cnt);
          first = first * block_step;
        }
      });
}

void EvaluationDomain::CosetFft(std::vector<Fr>* a, const CancellationToken* cancel) const {
  ScaleByPowers(a, shift_);
  Fft(a, cancel);
}

void EvaluationDomain::CosetIfft(std::vector<Fr>* a, const CancellationToken* cancel) const {
  Ifft(a, cancel);
  ScaleByPowers(a, shift_inv_);
}

Fr EvaluationDomain::VanishingOnCoset() const {
  return shift_.Pow(BigUInt(size_)) - Fr::One();
}

Fr EvaluationDomain::EvaluateVanishing(const Fr& x) const {
  return x.Pow(BigUInt(size_)) - Fr::One();
}

std::vector<Fr> EvaluationDomain::LagrangeAt(const Fr& tau) const {
  // L_j(tau) = Z(tau) * omega^j / (n * (tau - omega^j)).
  Fr z = EvaluateVanishing(tau);
  std::vector<Fr> out(size_);
  if (z.IsZero()) {
    // tau happens to be a domain point (measure zero but handled): L_j is an
    // indicator.
    Fr point = Fr::One();
    for (size_t j = 0; j < size_; ++j) {
      out[j] = (point == tau) ? Fr::One() : Fr::Zero();
      point = point * omega_;
    }
    return out;
  }
  std::vector<Fr> denoms(size_);
  ThreadPool& pool = ThreadPool::Global();
  pool.ParallelFor(0, size_, ThreadPool::ComputeMinChunk(size_, kScaleMinChunk),
                   [&](size_t lo, size_t hi) {
    Fr point = (lo == 0) ? Fr::One()
                         : omega_.Pow(BigUInt(static_cast<uint64_t>(lo)));
    Fr scale = Fr::FromU64(size_);
    for (size_t j = lo; j < hi; ++j) {
      denoms[j] = (tau - point) * scale;
      out[j] = z * point;
      point = point * omega_;
    }
  });
  BatchInvert(&denoms);
  pool.ParallelFor(0, size_, ThreadPool::ComputeMinChunk(size_, kScaleMinChunk),
                   [&](size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) {
      out[j] = out[j] * denoms[j];
    }
  });
  return out;
}

}  // namespace nope
