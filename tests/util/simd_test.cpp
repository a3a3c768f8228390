// Dispatch-forcing bit-exactness tests for the SIMD scoring kernels
// (util/simd.h): every kernel available on this host must reproduce
// auction::score bit for bit over adversarial inputs — denormals, exact
// ties, signed zeros, large magnitudes, every tail length — with and
// without penalties. A diverging kernel is a bug in the kernel; these
// checks must never be loosened to a tolerance.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "auction/types.h"
#include "util/rng.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace sfl::util::simd {
namespace {

std::vector<ScoreKernel> available_kernels() {
  std::vector<ScoreKernel> kernels;
  for (const ScoreKernel k :
       {ScoreKernel::kScalar, ScoreKernel::kAvx2, ScoreKernel::kNeon}) {
    if (kernel_available(k)) kernels.push_back(k);
  }
  return kernels;
}

/// Bit-for-bit comparison of one kernel against the one scoring expression
/// (auction::score), with and without the penalties pointer.
void expect_kernel_matches_score(ScoreKernel kernel,
                                 const std::vector<double>& values,
                                 const std::vector<double>& bids,
                                 const std::vector<double>& penalties,
                                 double value_weight, double bid_weight,
                                 const std::string& label) {
  const sfl::auction::ScoreWeights weights{.value_weight = value_weight,
                                           .bid_weight = bid_weight};
  const std::size_t n = values.size();
  std::vector<double> got(n, 42.0);

  // With penalties.
  score_span_with(kernel, values.data(), bids.data(), penalties.data(),
                  got.data(), n, value_weight, bid_weight);
  for (std::size_t i = 0; i < n; ++i) {
    const double want =
        sfl::auction::score(values[i], bids[i], weights, penalties[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want))
        << label << ": kernel " << kernel_name(kernel) << " diverges at row "
        << i << " (with penalties): got " << got[i] << " want " << want;
  }

  // Null penalties must equal the explicit all-zero subtraction: the
  // kernels skip the subtract, and x - (+0.0) == x for every non-NaN x.
  std::vector<double> got_null(n, 42.0);
  score_span_with(kernel, values.data(), bids.data(), nullptr, got_null.data(),
                  n, value_weight, bid_weight);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = sfl::auction::score(values[i], bids[i], weights, 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got_null[i]),
              std::bit_cast<std::uint64_t>(want))
        << label << ": kernel " << kernel_name(kernel) << " diverges at row "
        << i << " (null penalties)";
  }
}

TEST(SimdTest, ScalarKernelIsAlwaysAvailableAndActiveKernelIsAvailable) {
  EXPECT_TRUE(kernel_available(ScoreKernel::kScalar));
  EXPECT_TRUE(kernel_available(active_kernel()));
  EXPECT_STREQ(kernel_name(ScoreKernel::kScalar), "scalar");
}

TEST(SimdTest, UnavailableKernelThrows) {
  // At most one of AVX2/NEON can exist on one host; the other must throw
  // from the dispatch-forcing entry rather than silently fall back.
  for (const ScoreKernel k : {ScoreKernel::kAvx2, ScoreKernel::kNeon}) {
    if (kernel_available(k)) continue;
    double x = 1.0;
    EXPECT_THROW(score_span_with(k, &x, &x, nullptr, &x, 1, 1.0, 1.0),
                 std::invalid_argument);
  }
}

TEST(SimdTest, AdversarialValuesMatchScoreBitForBitOnEveryKernel) {
  // The battery: denormals, ±0.0, exact ties, magnitudes near overflow,
  // values whose products would differ under FMA contraction.
  const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MIN * 4.0,
      1.0,
      1.0 + DBL_EPSILON,
      1.0 / 3.0,
      2.0 / 3.0,
      1e-300,
      1e300,
      6.626070156e-34,
      9.8765432109876543,
      123456789.123456789,
      0.1,
      0.2,
      0.3};
  const std::vector<double> bids = {
      0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MIN,
      1.0,  // exact tie with value at weight 1: score hits ±0.0
      1.0,
      1.0 / 3.0,  // tie again
      1.0 / 3.0,
      1e-300,
      1e300,  // large cancellation
      6.626070156e-34,
      9.8765432109876543,
      123456789.123456789,
      0.3,
      0.2,
      0.1};
  const std::vector<double> penalties = {
      0.0, -0.0, 0.0,    DBL_MIN, 1e-17, 0.0, DBL_EPSILON, 0.0,   1.0 / 3.0,
      0.0, 1e284, 1e-40, 0.25,    1e8,   0.0, 0.07,        -0.03};
  ASSERT_EQ(values.size(), bids.size());
  ASSERT_EQ(values.size(), penalties.size());

  const std::vector<std::pair<double, double>> weight_sets = {
      {1.0, 1.0},       {10.0, 12.5},     {1.0 / 3.0, 2.0 / 3.0},
      {1e-200, 1e200},  {1e155, 1e155},   {0.0, DBL_MIN}};
  for (const ScoreKernel kernel : available_kernels()) {
    for (const auto& [vw, bw] : weight_sets) {
      expect_kernel_matches_score(kernel, values, bids, penalties, vw, bw,
                                  "adversarial vw=" + std::to_string(vw));
    }
  }
}

TEST(SimdTest, EveryTailLengthMatchesOnEveryKernel) {
  // Lengths 0..17 cover empty spans, pure-tail spans, and full vector
  // widths plus every tail remainder for both 2-wide and 4-wide kernels.
  sfl::util::Rng rng(20260808);
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<double> values(n);
    std::vector<double> bids(n);
    std::vector<double> penalties(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = rng.uniform(0.0, 10.0);
      bids[i] = rng.uniform(0.0, 5.0);
      penalties[i] = rng.uniform(0.0, 1.0);
    }
    for (const ScoreKernel kernel : available_kernels()) {
      expect_kernel_matches_score(kernel, values, bids, penalties, 10.0, 11.5,
                                  "tail n=" + std::to_string(n));
    }
  }
}

TEST(SimdTest, SeededRandomSweepMatchesOnEveryKernelAndDefaultDispatch) {
  sfl::util::Rng rng(0xfeedface);
  const sfl::auction::ScoreWeights weights{.value_weight = 7.25,
                                           .bid_weight = 9.75};
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_index(257));
    std::vector<double> values(n);
    std::vector<double> bids(n);
    std::vector<double> penalties(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = rng.uniform(0.0, 100.0);
      bids[i] = rng.uniform(0.0, 50.0);
      penalties[i] = rng.uniform(0.0, 5.0);
    }
    for (const ScoreKernel kernel : available_kernels()) {
      expect_kernel_matches_score(kernel, values, bids, penalties,
                                  weights.value_weight, weights.bid_weight,
                                  "random trial " + std::to_string(trial));
    }
    // The default dispatch must agree with whatever kernel it selected.
    std::vector<double> got(n);
    score_span(values.data(), bids.data(), penalties.data(), got.data(), n,
               weights.value_weight, weights.bid_weight);
    for (std::size_t i = 0; i < n; ++i) {
      const double want =
          sfl::auction::score(values[i], bids[i], weights, penalties[i]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want));
    }
  }
}

#if defined(__x86_64__)
/// XINUSE (XGETBV with ECX=1) bit 2: the upper halves of the YMM registers
/// are not in their initial (zeroed) state.
bool avx_upper_state_in_use() {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 0x4U) != 0;
}
#endif

// A vector kernel that returns with a dirty upper YMM state makes every
// later legacy-SSE double instruction on the thread pay a transition
// penalty (the whole FL loop, which is built without -mavx). Every exit of
// the AVX2 kernel must leave the state clean.
TEST(SimdTest, Avx2KernelLeavesUpperStateClean) {
#if defined(__x86_64__)
  if (!kernel_available(ScoreKernel::kAvx2)) {
    GTEST_SKIP() << "AVX2 unavailable on this host";
  }
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_count(0x0D, 1, &eax, &ebx, &ecx, &edx) == 0 ||
      (eax & 0x4U) == 0) {
    GTEST_SKIP() << "XGETBV with ECX=1 (XINUSE) unsupported on this host";
  }
  asm volatile("vzeroupper");
  if (avx_upper_state_in_use()) {
    GTEST_SKIP() << "this host does not report a cleared upper state";
  }
  sfl::util::Rng rng(7);
  for (const std::size_t n : {0, 1, 3, 4, 37}) {
    std::vector<double> values(n);
    std::vector<double> bids(n);
    std::vector<double> penalties(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = rng.uniform(0.0, 10.0);
      bids[i] = rng.uniform(0.0, 5.0);
      penalties[i] = rng.uniform(0.0, 1.0);
    }
    std::vector<double> out(n);
    for (const bool with_penalties : {false, true}) {
      score_span_with(ScoreKernel::kAvx2, values.data(), bids.data(),
                      with_penalties ? penalties.data() : nullptr, out.data(),
                      n, 10.0, 11.5);
      const bool dirty = avx_upper_state_in_use();
      EXPECT_FALSE(dirty) << "n=" << n << " penalties=" << with_penalties;
    }
  }
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

}  // namespace
}  // namespace sfl::util::simd
