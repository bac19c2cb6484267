// Mixed radix-2/3 FFT evaluation domains over BN254's scalar field. Fr* has
// order r - 1 = 2^28 * 3^2 * ..., so it has subgroups of every order 2^k,
// 3 * 2^k and 9 * 2^k (k <= 28), and a domain takes the smallest of them
// that fits. Used by the Groth16 prover's QAP division and by trusted setup.
// Transforms and batch inversion run data-parallel on the global ThreadPool;
// output bytes are independent of the thread count (DESIGN.md, "Parallel
// proving").
#ifndef SRC_GROTH16_DOMAIN_H_
#define SRC_GROTH16_DOMAIN_H_

#include <vector>

#include "src/base/cancellation.h"
#include "src/ff/fp.h"

namespace nope {

class EvaluationDomain {
 public:
  // The domain size for min_size points: the smallest n in {2^k, 3 * 2^k,
  // 9 * 2^k}, k <= 28, with n >= max(min_size, 2). Aborts past 9 * 2^28 --
  // a statement-builder defect, see NOPE_INVARIANT in src/base/check.h.
  static size_t SizeFor(size_t min_size);

  // A domain of SizeFor(min_size) points with omega = 5^((r - 1) / size()),
  // 5 being a generator of Fr*. Also builds the twiddle table omega^j that
  // every transform reads: j < size()/2, or j < 2 * size()/3 when 3 divides
  // size().
  explicit EvaluationDomain(size_t min_size);

  size_t size() const { return size_; }
  const Fr& omega() const { return omega_; }

  // In-place coefficient <-> evaluation transforms on vectors of size().
  // The optional token is polled at butterfly-stage boundaries; once it
  // fires, remaining stages are skipped and *a is garbage, so callers that
  // pass a token must check it afterwards (groth16::Prove does). A null or
  // quiet token leaves the output bit-identical.
  void Fft(std::vector<Fr>* a, const CancellationToken* cancel = nullptr) const;
  void Ifft(std::vector<Fr>* a, const CancellationToken* cancel = nullptr) const;
  // Same over the coset 5 * H.
  void CosetFft(std::vector<Fr>* a, const CancellationToken* cancel = nullptr) const;
  void CosetIfft(std::vector<Fr>* a, const CancellationToken* cancel = nullptr) const;

  // Z(x) = x^size - 1 evaluated on the coset (constant across the coset).
  Fr VanishingOnCoset() const;
  Fr EvaluateVanishing(const Fr& x) const;

  // The j-th Lagrange basis polynomial of this domain evaluated at tau, for
  // all j at once (batch-inverted); used by trusted setup.
  std::vector<Fr> LagrangeAt(const Fr& tau) const;

 private:
  static void ScaleByPowers(std::vector<Fr>* a, const Fr& factor);

  size_t size_;
  size_t log_two_;  // size_ = 2^log_two_ times 1, 3 or 9
  Fr omega_;
  std::vector<Fr> twiddles_;  // omega^j for j < size_/2, or j < 2*size_/3 if 3 | size_
  Fr size_inv_;
  Fr shift_;
  Fr shift_inv_;
};

// Batch inversion (Montgomery's trick, one inversion per 1,024-element
// block, blocks on the global pool); zero entries are left as zero.
void BatchInvert(std::vector<Fr>* values);

}  // namespace nope

#endif  // SRC_GROTH16_DOMAIN_H_
