#include "src/groth16/domain.h"

#include <algorithm>
#include <cstdint>

#include "src/base/check.h"
#include "src/base/threadpool.h"
#include "src/ec/batch_affine.h"

namespace nope {

namespace {

constexpr size_t kTwoAdicity = 28;

// Minimum elements per parallel share. Below these, ParallelFor collapses to
// an inline serial call, so they double as the serial/parallel cutoffs. Call
// sites wrap them in ThreadPool::ComputeMinChunk so an oversubscribed pool
// (more lanes than cores) never fans out past the physical core count.
// Values are order-independent either way (canonical Montgomery form), so
// the cutoffs affect scheduling only, never output bytes.
constexpr size_t kButterflyMinChunk = 256;   // butterflies per FFT share
constexpr size_t kMulBatch = 64;             // elements per Fr::MulBatch call
constexpr size_t kScaleMinChunk = 1024;      // elements per scaling share

// An element of order exactly 2^28 in Fr*, found once at startup.
const Fr& TwoAdicRoot() {
  static const Fr root = [] {
    BigUInt order_minus_one = Fr::params().modulus_big - BigUInt(1);
    BigUInt odd_part = order_minus_one >> kTwoAdicity;
    BigUInt half = BigUInt(1) << (kTwoAdicity - 1);
    for (uint64_t candidate = 5;; ++candidate) {
      Fr t = Fr::FromU64(candidate).Pow(odd_part);
      if (t.Pow(half) != Fr::One()) {
        return t;
      }
    }
  }();
  return root;
}

size_t NextPowerOfTwo(size_t v) {
  size_t n = 1;
  while (n < v) {
    n <<= 1;
  }
  return n;
}

void BitReverse(std::vector<Fr>* a, size_t log_n) {
  size_t n = a->size();
  // Each index pair (i, rev(i)) is swapped by exactly one iteration (the one
  // with i < rev(i)); bit-reversal is an involution, so shares write disjoint
  // element pairs and the result is partition-independent.
  ThreadPool::Global().ParallelFor(
      0, n, ThreadPool::ComputeMinChunk(n, kScaleMinChunk),
      [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      // Reverse all 64 bits (swap adjacent bits, pairs, nibbles, then
      // bytes), then drop the 64 - log_n low zeros.
      uint64_t x = i;
      x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
      x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
      x = ((x >> 4) & 0x0f0f0f0f0f0f0f0full) | ((x & 0x0f0f0f0f0f0f0f0full) << 4);
      const size_t j = __builtin_bswap64(x) >> (64 - log_n);
      if (i < j) {
        std::swap((*a)[i], (*a)[j]);
      }
    }
  });
}

// In-place radix-2 transform: evaluates the coefficients in *a at
// omega^0 .. omega^(n-1), reading twiddles[j] = omega^j (j < n/2).
void FftInternal(std::vector<Fr>* a, size_t log_n, const std::vector<Fr>& twiddles,
                 const CancellationToken* cancel) {
  BitReverse(a, log_n);
  const size_t n = a->size();
  Fr* data = a->data();
  ThreadPool& pool = ThreadPool::Global();
  for (size_t s = 1; s <= log_n; ++s) {
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

EvaluationDomain::EvaluationDomain(size_t min_size) {
  size_ = NextPowerOfTwo(std::max<size_t>(min_size, 2));
  log_size_ = 0;
  while ((size_t{1} << log_size_) < size_) {
    ++log_size_;
  }
  // Circuit sizes are fixed by the statement builders long before proving;
  // outgrowing the field's 2-adic subgroup is a build-time defect, not a
  // runtime input condition.
  NOPE_INVARIANT(log_size_ <= kTwoAdicity, "domain exceeds field 2-adicity");
  omega_ = TwoAdicRoot();
  for (size_t i = log_size_; i < kTwoAdicity; ++i) {
    omega_ = omega_.Square();
  }
  // omega^(k + j) = omega^j * omega^k: each doubling of the table is a run
  // of independent multiplies rather than one dependent chain.
  twiddles_.resize(size_ / 2);
  twiddles_[0] = Fr::One();
  Fr omega_k = omega_;
  for (size_t k = 1; k < twiddles_.size(); k *= 2) {
    for (size_t j = 0; j < k; ++j) {
      twiddles_[k + j] = twiddles_[j] * omega_k;
    }
    omega_k = omega_k.Square();
  }
  size_inv_ = Fr::FromU64(size_).Inverse();
  // Coset shift: any element outside the subgroup of order size_.
  for (uint64_t candidate = 5;; ++candidate) {
    Fr g = Fr::FromU64(candidate);
    if (g.Pow(BigUInt(size_)) != Fr::One()) {
      shift_ = g;
      break;
    }
  }
  shift_inv_ = shift_.Inverse();
}

void EvaluationDomain::Fft(std::vector<Fr>* a, const CancellationToken* cancel) const {
  NOPE_INVARIANT(a->size() == size_, "FFT input size mismatch");
  FftInternal(a, log_size_, twiddles_, cancel);
}

void EvaluationDomain::Ifft(std::vector<Fr>* a, const CancellationToken* cancel) const {
  NOPE_INVARIANT(a->size() == size_, "IFFT input size mismatch");
  // omega^-1 = omega^(n-1), so the inverse transform is the forward one with
  // outputs 1..n-1 read in reverse, scaled by 1/n. Each index i <= n/2 owns
  // the pair (i, n - i), so any partition writes identical bytes.
  FftInternal(a, log_size_, twiddles_, cancel);
  const size_t n = size_;
  ThreadPool::Global().ParallelFor(0, n / 2 + 1,
                                   ThreadPool::ComputeMinChunk(
                                       n / 2 + 1, kScaleMinChunk),
                                   [&](size_t lo, size_t hi) {
                                     for (size_t i = lo; i < hi; ++i) {
                                       const size_t r = (n - i) & (n - 1);
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
