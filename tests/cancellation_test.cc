// Cooperative cancellation through the parallel hot paths: ParallelFor, Msm,
// the FFT family, and groth16::Prove. The contract under test:
//   * a token that never fires leaves every result bit-identical to the
//     uncancellable overloads;
//   * a fired token (explicit or deadline) aborts promptly at the next chunk
//     boundary with a typed result, and the global pool stays reusable.
#include "src/base/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/threadpool.h"
#include "src/ec/bn254.h"
#include "src/ec/msm.h"
#include "src/groth16/groth16.h"

namespace nope {
namespace {

ConstraintSystem CubicCircuit(uint64_t w_val, uint64_t x_val) {
  ConstraintSystem cs;
  Var x = cs.AddPublicInput(Fr::FromU64(x_val));
  Var w = cs.AddWitness(Fr::FromU64(w_val));
  Fr w_fr = Fr::FromU64(w_val);
  Var w2 = cs.AddWitness(w_fr * w_fr);
  Var w3 = cs.AddWitness(w_fr * w_fr * w_fr);
  cs.Enforce(LC(w), LC(w), LC(w2));
  cs.Enforce(LC(w2), LC(w), LC(w3));
  cs.EnforceEqual(LC(w3) + LC(w) + LC::Constant(Fr::FromU64(5)), LC(x));
  return cs;
}

TEST(CancellationToken, DefaultNeverFires) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationToken, SourceCancelFiresAllCopies) {
  CancellationSource source;
  CancellationToken token = source.token();
  CancellationToken copy = token;
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancellationToken, DeadlineFiresOnSimClock) {
  SimClock clock(0);
  CancellationToken token = CancellationToken::WithDeadline(Deadline::After(clock, 50));
  EXPECT_FALSE(token.cancelled());
  clock.AdvanceMs(50);
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationToken, SourceTokenWithDeadlineFiresOnEither) {
  SimClock clock(0);
  CancellationSource source;
  CancellationToken token = source.TokenWithDeadline(Deadline::After(clock, 50));
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());

  CancellationSource source2;
  CancellationToken token2 = source2.TokenWithDeadline(Deadline::After(clock, 50));
  clock.AdvanceMs(50);
  EXPECT_TRUE(token2.cancelled());
  EXPECT_FALSE(source2.cancelled());  // the deadline fired, not the source
}

TEST(ParallelFor, PreCancelledTokenSkipsEveryChunk) {
  ThreadPool pool(4);
  CancellationSource source;
  source.Cancel();
  CancellationToken token = source.token();
  std::atomic<size_t> invocations{0};
  pool.ParallelFor(0, 10'000, 1, [&](size_t, size_t) { ++invocations; }, &token);
  EXPECT_EQ(invocations.load(), 0u);

  // The pool survives a cancelled loop and runs the next one normally.
  std::vector<int> seen(1000, 0);
  pool.ParallelFor(0, 1000, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ++seen[i];
    }
  });
  for (int v : seen) {
    EXPECT_EQ(v, 1);
  }
}

TEST(ParallelFor, NullAndQuietTokensCoverFully) {
  ThreadPool pool(4);
  CancellationToken quiet;
  std::vector<int> seen(5000, 0);
  pool.ParallelFor(0, 5000, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ++seen[i];
    }
  }, &quiet);
  for (int v : seen) {
    EXPECT_EQ(v, 1);
  }
}

TEST(ParallelFor, CancelBetweenLoopsSkipsTheRest) {
  // Real workloads (MSM windows, FFT stages) poll the token once per
  // ParallelFor call; a token fired partway through a sequence of loops must
  // skip every remaining loop while each call still joins cleanly.
  ThreadPool pool(4);
  CancellationSource source;
  CancellationToken token = source.token();
  std::atomic<size_t> total{0};
  for (int stage = 0; stage < 50; ++stage) {
    if (stage == 3) {
      source.Cancel();
    }
    pool.ParallelFor(0, 1000, 1, [&](size_t lo, size_t hi) { total += hi - lo; },
                     &token);
  }
  EXPECT_EQ(total.load(), 3000u);  // stages 0-2 only

  std::atomic<size_t> after{0};
  pool.ParallelFor(0, 100, 10, [&](size_t lo, size_t hi) { after += hi - lo; });
  EXPECT_EQ(after.load(), 100u);
}

TEST(ParallelFor, CancelFiredInsideOneShareSuppressesLaterWork) {
  ThreadPool pool(4);
  CancellationSource source;
  CancellationToken token = source.token();
  std::atomic<size_t> covered{0};
  // The first share to run fires the token; shares that have not started yet
  // observe it and skip. How many ran before the flag landed is racy, but the
  // loop must join and the pool must stay healthy either way.
  pool.ParallelFor(0, 4000, 1, [&](size_t lo, size_t hi) {
    source.Cancel();
    covered += hi - lo;
  }, &token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_LE(covered.load(), 4000u);

  std::atomic<size_t> after{0};
  pool.ParallelFor(0, 500, 1, [&](size_t lo, size_t hi) { after += hi - lo; });
  EXPECT_EQ(after.load(), 500u);
}

TEST(Msm, QuietTokenBitIdenticalToPlainCall) {
  Rng rng(1234);
  const size_t n = 700;  // above the parallel cutoff
  std::vector<G1> bases;
  std::vector<BigUInt> scalars;
  G1 p = G1Generator();
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(p);
    p = p.Add(G1Generator());
    scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
  }
  G1 plain = MsmAffine(BatchToAffine(bases), scalars);
  CancellationToken quiet;
  G1 with_token = MsmAffine(BatchToAffine(bases), scalars, &quiet);
  EXPECT_TRUE(plain.Equals(with_token));
}

TEST(Msm, CancelledTokenReturnsWithoutCompleting) {
  Rng rng(99);
  const size_t n = 700;
  std::vector<G1> bases;
  std::vector<BigUInt> scalars;
  G1 p = G1Generator();
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(p);
    p = p.Add(G1Generator());
    scalars.push_back(BigUInt::RandomBelow(&rng, Bn254Order()));
  }
  CancellationSource source;
  source.Cancel();
  CancellationToken token = source.token();
  // The result is garbage by contract; the call must simply return and leave
  // the pool healthy. Nothing to assert about the value itself.
  (void)MsmAffine(BatchToAffine(bases), scalars, &token);
  G1 sane = MsmAffine(BatchToAffine(bases), scalars);
  EXPECT_TRUE(sane.Equals(MsmAffine(BatchToAffine(bases), scalars)));
}

TEST(Fft, QuietTokenBitIdenticalToPlainCall) {
  Rng rng(555);
  EvaluationDomain domain(2048);
  std::vector<Fr> input(domain.size());
  for (auto& v : input) {
    v = Fr::Random(&rng);
  }
  std::vector<Fr> plain = input;
  domain.Fft(&plain);
  std::vector<Fr> with_token = input;
  CancellationToken quiet;
  domain.Fft(&with_token, &quiet);
  ASSERT_EQ(plain.size(), with_token.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i], with_token[i]) << "index " << i;
  }
}

TEST(Prove, QuietTokenMatchesUncancellableOverload) {
  ConstraintSystem cs = CubicCircuit(3, 35);
  Rng rng_a(601), rng_b(601);
  auto pk = groth16::Setup(cs, &rng_a);
  Rng rng_c(700), rng_d(700);
  groth16::Proof plain = groth16::Prove(pk, cs, &rng_c);
  groth16::ProveResult result = groth16::Prove(pk, cs, &rng_d, CancellationToken(), nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.status.ok());
  // Same Rng seed, same proof bytes: the cancellable overload consumes the
  // identical Rng stream when the token never fires.
  EXPECT_EQ(plain.ToBytes(), result.proof.ToBytes());
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, result.proof));
}

TEST(Prove, ExpiredDeadlineReturnsCancelledPromptly) {
  ConstraintSystem cs = CubicCircuit(3, 35);
  Rng rng(601);
  auto pk = groth16::Setup(cs, &rng);

  SimClock clock(1000);
  Deadline already_expired = Deadline::After(clock, 0);
  ASSERT_TRUE(already_expired.Expired());
  CancellationToken token = CancellationToken::WithDeadline(already_expired);
  Rng prng(700);
  groth16::ProveResult result = groth16::Prove(pk, cs, &prng, token, nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.error().code, ErrorCode::kCancelled);
  EXPECT_STREQ(ErrorCodeName(result.status.error().code), "cancelled");

  // The global pool is still healthy: a fresh uncancelled run succeeds and
  // verifies.
  Rng prng2(701);
  groth16::ProveResult ok = groth16::Prove(pk, cs, &prng2, CancellationToken(), nullptr);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(35)}, ok.proof));
}

TEST(Prove, ExplicitCancelFromAnotherThread) {
  ConstraintSystem cs = CubicCircuit(2, 15);
  Rng rng(602);
  auto pk = groth16::Setup(cs, &rng);

  // The circuit is tiny, so the race between proving and cancelling can land
  // either way — both outcomes are valid; the invariant is that a kOk result
  // carries a verifying proof and a kCancelled one is reported as such.
  CancellationSource source;
  CancellationToken token = source.token();
  std::thread canceller([&source] { source.Cancel(); });
  Rng prng(800);
  groth16::ProveResult result = groth16::Prove(pk, cs, &prng, token, nullptr);
  canceller.join();
  if (result.ok()) {
    EXPECT_TRUE(groth16::Verify(pk.vk(), {Fr::FromU64(15)}, result.proof));
  } else {
    EXPECT_EQ(result.status.error().code, ErrorCode::kCancelled);
  }
}

}  // namespace
}  // namespace nope
