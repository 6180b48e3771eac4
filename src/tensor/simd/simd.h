/// \file simd.h
/// \brief Runtime-dispatched SIMD kernels for the flat-vector, GEMM, and
/// quantizer hot paths.
///
/// Two implementations of every kernel exist: a portable scalar reference
/// (`ScalarKernels()`, always compiled, genuinely scalar — its translation
/// unit disables auto-vectorization and FP contraction so it *is* the
/// semantics) and an AVX2+FMA implementation (`Avx2Kernels()`, compiled
/// only when the toolchain supports `-mavx2 -mfma`; selected only when the
/// host CPU reports AVX2 and FMA). `ActiveKernels()` picks once, at first
/// use: the `FEDADMM_FORCE_SCALAR` environment variable (or
/// `ForceIsaForTesting`) pins the scalar table regardless of the CPU.
///
/// ## Determinism contract
///
/// Both tables produce **bitwise identical** results for every kernel, on
/// every input — this is what lets the engine's replay/equivalence suites
/// stay green across machines and across the dispatch override:
///
///  * Elementwise kernels (`axpy`, `add`, `add_scaled`, `sub`, `scale`,
///    `gemm_axpy_row`, `prox_sgd_step`, `quantize_uniform`,
///    `dequantize_grid`) perform one correctly-rounded IEEE multiply and/or
///    add per element in a fixed order; SSE/AVX lanes compute exactly what
///    the scalar expression computes, so vectorization cannot change a bit.
///    The AVX2 versions deliberately use separate multiply + add (no FMA
///    contraction) to match the scalar two-rounding sequence.
///  * `prox_sgd_step` fuses the local solver's gradient term into the SGD
///    step. Per element, in this order and each op rounded to float:
///    `d = w - anchor`, `p = rho * d`, `t = offset + p`, `g' = grad + t`,
///    `w = w + neg_lr * g'` (two roundings, never an FMA). A missing
///    anchor drops `d`/`p` (`t = offset`); a missing offset makes `t = p`;
///    with neither, `g' = grad`. That is exactly the former two-pass
///    sequence "grad += offset + rho * (w - anchor)" then
///    `axpy(neg_lr, grad, w)`, so fusing it cannot change a bit.
///  * Double-accumulator reductions (`dot`, `squared_l2`,
///    `squared_distance`) define the **lane-striped order as canonical**:
///    `kReduceLanes` (= 8) double accumulators, lane `j` summing elements
///    `i ≡ j (mod 8)`, combined in ascending lane order. The scalar table
///    emulates the stripes. For `dot`/`squared_l2` the per-element product
///    of two floats is exact in double (24+24 < 53 mantissa bits), so the
///    AVX2 FMA accumulation is bitwise equal to scalar multiply-then-add.
///    `squared_distance` squares a rounded double difference (inexact), so
///    both tables use multiply-then-add there.
///  * `dot_rows` is `dot` for several rows of x at once, with x **already
///    widened to double** (every x value must be a float value: that keeps
///    each product exact, so the AVX2 FMA stays bitwise equal to
///    multiply-then-add). Each output keeps its own `kReduceLanes` stripes.
///    The ascending-lane combine may run several outputs side by side (the
///    AVX2 table transposes four outputs' stripes and sums them with vector
///    adds starting from +0.0): per output that is the same add sequence
///    `((0 + lane0) + lane1) + ... + lane7`, so `dot_rows` on a widened row
///    is bitwise `dot` on the float row.
///  * `max_abs` is a max-reduction: associative and commutative over
///    non-NaN values, hence order-independent. NaN elements are excluded
///    from the running max and reported through `saw_nan`.
///  * `pack_codes`/`unpack_codes` are pure bit manipulation — identical
///    output bytes by construction.

#ifndef FEDADMM_TENSOR_SIMD_SIMD_H_
#define FEDADMM_TENSOR_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>

namespace fedadmm::simd {

/// Number of interleaved double accumulators in the canonical reduction
/// order (`dot`, `squared_l2`, `squared_distance`): lane `j` accumulates
/// elements `i` with `i % kReduceLanes == j`; lanes combine in ascending
/// order. Chosen to fill two 4-double AVX2 registers.
inline constexpr size_t kReduceLanes = 8;

/// Rows `dot_rows` keeps in registers at once (AVX2: two 4-double
/// accumulators per row, twelve of the sixteen ymm registers). Callers that
/// widen x panel by panel size their panels to this.
inline constexpr size_t kDotRowsBlock = 6;

/// \brief One complete set of hot-path kernels. Pointers are never null.
///
/// All span-like arguments are raw pointer + length; buffers may be
/// arbitrarily aligned (kernels use unaligned loads) and must not overlap
/// unless a kernel documents aliasing (as `vec.h` does for its wrappers).
struct KernelTable {
  /// y[i] += alpha * x[i]
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  /// y[i] += x[i]  (a plain add — not axpy(1), though bitwise equal)
  void (*add)(const float* x, float* y, size_t n);
  /// out[i] = x[i] + alpha * y[i]; out may alias x or y
  void (*add_scaled)(const float* x, float alpha, const float* y, float* out,
                     size_t n);
  /// out[i] = x[i] - y[i]; out may alias either
  void (*sub)(const float* x, const float* y, float* out, size_t n);
  /// x[i] *= alpha
  void (*scale)(float alpha, float* x, size_t n);
  /// Lane-striped sum of x[i]*y[i] in double.
  double (*dot)(const float* x, const float* y, size_t n);
  /// `rows` lane-striped dots against one row: for r in [0, rows),
  ///   out[r] = dot of x[r*ldx .. r*ldx+n) with y[0 .. n).
  /// x holds float values widened to double (see the contract above) and
  /// ldx >= n. Register-blocks `kDotRowsBlock` rows at a time, so each
  /// chunk of y is widened once per block rather than once per row.
  void (*dot_rows)(const double* x, size_t ldx, size_t rows, const float* y,
                   size_t n, double* out);
  /// Lane-striped sum of x[i]^2 in double.
  double (*squared_l2)(const float* x, size_t n);
  /// Lane-striped sum of (x[i]-y[i])^2 in double.
  double (*squared_distance)(const float* x, const float* y, size_t n);
  /// Largest |x[i]| over non-NaN elements (0 for empty); `*saw_nan` is set
  /// to true when any element is NaN, left untouched otherwise.
  float (*max_abs)(const float* x, size_t n, bool* saw_nan);

  /// GEMM row microkernel: for p in [0, kb): if (a[p] != 0)
  ///   c[j] += a[p] * b[p*ldb + j] for j in [0, n).
  /// Per element of c this is the mul+add chain of the scalar ikj loop,
  /// including the exact-zero row skip, so blocking over j cannot change a
  /// bit. `a` is a contiguous strip of kb multipliers (one row of A over a
  /// k-block), `b` the matching rows of B.
  void (*gemm_axpy_row)(const float* a, const float* b, float* c, int64_t kb,
                        int64_t n, int64_t ldb);

  /// Local SGD step with the proximal term fused in: for i in [0, n),
  ///   w[i] += neg_lr * (grad[i] + (offset[i] + rho * (w[i] - anchor[i])))
  /// with the op order of the contract above. `offset` and/or `anchor` may
  /// be nullptr (term absent). `w` must not overlap the inputs.
  void (*prox_sgd_step)(const float* grad, const float* offset,
                        const float* anchor, float rho, float neg_lr,
                        float* w, size_t n);

  /// Deterministic uniform quantization of one chunk onto the grid of
  /// `levels` steps over [-scale, +scale]:
  ///   x = scale > 0 ? ((double)v[i]/(double)scale + 1.0) / 2.0 * levels : 0
  ///   codes[i] = min((uint32)floor(x + 0.5), levels)
  /// `levels` must fit uint16_t. Inputs must be finite (checked upstream).
  void (*quantize_uniform)(const float* v, size_t n, float scale, int levels,
                           uint16_t* codes);
  /// Inverse grid map: out[i] = scale == 0 ? 0
  ///   : (float)((2.0 * codes[i] / levels - 1.0) * (double)scale)
  void (*dequantize_grid)(const uint16_t* codes, size_t n, float scale,
                          int levels, float* out);
  /// Packs n codes of `bits` (1..16) bits each, little-endian within and
  /// across bytes, final partial byte zero-padded — byte-identical to
  /// `wire::BitPacker` (util/wire.h). `out` must hold
  /// BitPacker::PackedBytes(n, bits).
  void (*pack_codes)(const uint16_t* codes, size_t n, int bits, uint8_t* out);
  /// Inverse of `pack_codes`; reads PackedBytes(n, bits) bytes.
  void (*unpack_codes)(const uint8_t* bytes, size_t n, int bits,
                       uint16_t* codes);
};

/// Instruction sets a kernel table can be built for.
enum class Isa {
  kScalar,
  kAvx2,
};

/// Human-readable ISA name ("scalar", "avx2") for logs and bench context.
const char* IsaName(Isa isa);

/// The always-available scalar reference table.
const KernelTable& ScalarKernels();

/// The AVX2+FMA table, or nullptr when it was not compiled in or the CPU
/// lacks AVX2/FMA. Exposed so property tests and benchmarks can compare
/// implementations explicitly.
const KernelTable* Avx2Kernels();

/// The table every hot path dispatches through. Resolved once on first
/// use: `FEDADMM_FORCE_SCALAR` (truthy) pins scalar; otherwise the best
/// table the host supports.
const KernelTable& ActiveKernels();

/// ISA of `ActiveKernels()`.
Isa ActiveIsa();

/// Testing/benchmark override of the dispatch decision. `Isa::kScalar`
/// forces the fallback, `Isa::kAvx2` requires `Avx2Kernels() != nullptr`
/// (CHECKs otherwise), `nullopt` re-resolves from the environment and
/// cpuid. Not thread-safe against kernels in flight: call only from
/// single-threaded setup code. Both tables are bitwise identical, so
/// flipping this mid-run can never change results — only speed.
void ForceIsaForTesting(std::optional<Isa> isa);

}  // namespace fedadmm::simd

#endif  // FEDADMM_TENSOR_SIMD_SIMD_H_
