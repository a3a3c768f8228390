// Runtime-dispatched SIMD kernels for the auction scoring inner loop.
//
// The one hot expression of the whole engine is
//
//   phi_i = value_weight * v_i - bid_weight * b_i - penalty_i
//
// (auction::score in auction/types.h). This header provides vectorized
// evaluations of that expression over contiguous spans — AVX2 on x86-64,
// NEON on aarch64 — selected at runtime, with the scalar loop always
// compiled as the portable fallback and as the tail of every vector kernel.
//
// Bit-exactness contract: every kernel evaluates phi_i with the exact IEEE
// operation tree of auction::score — two multiplies, then two subtractions,
// no fused multiply-add, no reassociation. The vector kernels use explicit
// mul/sub intrinsics (never contracted), the scalar kernel is out-of-line
// in a translation unit built with -ffp-contract=off (pinned globally in
// CMakeLists.txt), and a null `penalties` skips the final subtraction —
// bit-identical because x - (+0.0) == x for every non-NaN x. The
// dispatch-forcing test (tests/util/simd_test.cpp) sweeps denormals, ties,
// signed zeros, and large magnitudes across every available kernel and
// compares the results bit for bit against auction::score; a kernel that
// diverges is a bug in the kernel, never a tolerance to loosen.
//
// Upper-state contract: every x86 vector kernel executes vzeroupper before
// it calls or returns to non-VEX code. The rest of the library is built
// without -mavx, so a dirty upper YMM state left behind by a kernel makes
// every later legacy-SSE instruction on that thread pay a transition
// penalty. The compiler's automatic insertion is not enough: GCC emitted no
// vzeroupper before the sibling-call tail into the scalar kernel, and the
// FL loop ran about 6.5x slower for it. tests/util/simd_test.cpp reads the
// XINUSE bit after every AVX2 exit path.
#pragma once

#include <cstddef>

namespace sfl::util::simd {

/// The scoring kernels a host may offer. kScalar is always available.
enum class ScoreKernel {
  kScalar,
  kAvx2,  ///< x86-64 with AVX2 (runtime-detected)
  kNeon,  ///< aarch64 baseline
};

/// Human-readable kernel name ("scalar", "avx2", "neon").
[[nodiscard]] const char* kernel_name(ScoreKernel kernel) noexcept;

/// True when `kernel` can run on this host.
[[nodiscard]] bool kernel_available(ScoreKernel kernel) noexcept;

/// The kernel score_span dispatches to: the widest available one, detected
/// once and cached. The SFL_SIMD environment variable ("scalar", "avx2",
/// "neon") overrides the choice at process start; an unavailable or unknown
/// value falls back to auto-detection.
[[nodiscard]] ScoreKernel active_kernel() noexcept;

/// out[i] = value_weight * values[i] - bid_weight * bids[i] - penalties[i]
/// for i in [0, n), on the active kernel. `penalties` may be null (all-zero
/// penalties; the subtraction is skipped — bit-identical, see above). Spans
/// may be unaligned; `out` must not alias the inputs.
void score_span(const double* values, const double* bids,
                const double* penalties, double* out, std::size_t n,
                double value_weight, double bid_weight);

/// score_span on one specific kernel — the dispatch-forcing entry the
/// bit-exactness test sweeps. Throws std::invalid_argument when `kernel`
/// is not available on this host.
void score_span_with(ScoreKernel kernel, const double* values,
                     const double* bids, const double* penalties, double* out,
                     std::size_t n, double value_weight, double bid_weight);

}  // namespace sfl::util::simd
