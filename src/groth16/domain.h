// Radix-2 FFT evaluation domains over BN254's scalar field (2-adicity 28).
// Used by the Groth16 prover's QAP division and by trusted setup.
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
  // Rounds min_size up to the next power of two (aborts past 2^28 -- a
  // statement-builder defect, see NOPE_INVARIANT in src/base/check.h).
  // Also builds the twiddle table omega^j, j < size()/2, that every
  // transform reads.
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
  // Same over the coset shift * H.
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
  size_t log_size_;
  Fr omega_;
  std::vector<Fr> twiddles_;  // omega^j for j < size_ / 2
  Fr size_inv_;
  Fr shift_;
  Fr shift_inv_;
};

// Batch inversion (Montgomery's trick, one inversion per 1,024-element
// block, blocks on the global pool); zero entries are left as zero.
void BatchInvert(std::vector<Fr>* values);

}  // namespace nope

#endif  // SRC_GROTH16_DOMAIN_H_
