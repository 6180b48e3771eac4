/// \file simd_kernels_test.cc
/// \brief Scalar-vs-AVX2 bitwise equality property tests for every kernel
/// in the dispatch table — the executable form of the determinism contract
/// in tensor/simd/simd.h.
///
/// Each test draws random sizes (covering vector-width remainders 0..15),
/// random data with sign flips, signed zeros, denormals, and huge/tiny
/// magnitudes, runs both tables on identical inputs, and requires bit
/// equality of every output float (compared as bits, so -0.0 vs +0.0 and
/// NaN payloads count). On hosts without AVX2 the tests skip.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/simd/simd.h"
#include "util/rng.h"

namespace fedadmm::simd {
namespace {

uint32_t Bits(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Random vector with adversarial values mixed in: signed zeros, denormals,
/// huge and tiny magnitudes, exact powers of two.
std::vector<float> RandomVector(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng->UniformInt(0, 9)) {
      case 0:
        v[i] = 0.0f;
        break;
      case 1:
        v[i] = -0.0f;
        break;
      case 2:
        v[i] = std::numeric_limits<float>::denorm_min() *
               static_cast<float>(rng->UniformInt(1, 100));
        break;
      case 3:
        v[i] = static_cast<float>(rng->Uniform(-1.0, 1.0)) * 1e30f;
        break;
      case 4:
        v[i] = static_cast<float>(rng->Uniform(-1.0, 1.0)) * 1e-30f;
        break;
      case 5:
        v[i] = std::ldexp(1.0f, static_cast<int>(rng->UniformInt(-20, 20))) *
               (rng->UniformInt(0, 1) ? 1.0f : -1.0f);
        break;
      default:
        v[i] = static_cast<float>(rng->Normal(0.0, 1.0));
        break;
    }
  }
  return v;
}

/// Sizes covering every 8-lane remainder plus block-ish lengths.
std::vector<size_t> TestSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {31, 32, 33, 63, 64, 65, 100, 255, 256, 257,
                             1000, 4096, 8191});
  return sizes;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (Avx2Kernels() == nullptr) {
      GTEST_SKIP() << "AVX2 kernels unavailable on this host";
    }
  }
};

TEST_F(SimdKernelsTest, ElementwiseBitwiseEqual) {
  Rng rng(0xA1);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  for (size_t n : TestSizes()) {
    for (int rep = 0; rep < 4; ++rep) {
      const std::vector<float> x = RandomVector(&rng, n);
      const std::vector<float> y = RandomVector(&rng, n);
      const float alpha = static_cast<float>(rng.Normal(0.0, 2.0));

      std::vector<float> ys = y, ya = y;
      s.axpy(alpha, x.data(), ys.data(), n);
      a.axpy(alpha, x.data(), ya.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(ys[i]), Bits(ya[i])) << "axpy n=" << n << " i=" << i;
      }

      ys = y;
      ya = y;
      s.add(x.data(), ys.data(), n);
      a.add(x.data(), ya.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(ys[i]), Bits(ya[i])) << "add n=" << n << " i=" << i;
      }

      std::vector<float> os(n), oa(n);
      s.add_scaled(x.data(), alpha, y.data(), os.data(), n);
      a.add_scaled(x.data(), alpha, y.data(), oa.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(os[i]), Bits(oa[i]))
            << "add_scaled n=" << n << " i=" << i;
      }

      s.sub(x.data(), y.data(), os.data(), n);
      a.sub(x.data(), y.data(), oa.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(os[i]), Bits(oa[i])) << "sub n=" << n << " i=" << i;
      }

      ys = x;
      ya = x;
      s.scale(alpha, ys.data(), n);
      a.scale(alpha, ya.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(ys[i]), Bits(ya[i])) << "scale n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(SimdKernelsTest, UnalignedOffsetsBitwiseEqual) {
  // Kernels must accept any pointer alignment: run axpy on every offset
  // into an aligned backing array.
  Rng rng(0xA2);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  const size_t kTotal = 200;
  const std::vector<float> x = RandomVector(&rng, kTotal);
  const std::vector<float> y = RandomVector(&rng, kTotal);
  for (size_t off = 0; off < 16; ++off) {
    const size_t n = kTotal - off - 7;
    std::vector<float> ys = y, ya = y;
    s.axpy(1.5f, x.data() + off, ys.data() + off, n);
    a.axpy(1.5f, x.data() + off, ya.data() + off, n);
    for (size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(Bits(ys[i]), Bits(ya[i])) << "off=" << off << " i=" << i;
    }
    const double ds = s.dot(x.data() + off, y.data() + off, n);
    const double da = a.dot(x.data() + off, y.data() + off, n);
    ASSERT_EQ(Bits(ds), Bits(da)) << "dot off=" << off;
  }
}

TEST_F(SimdKernelsTest, ReductionsBitwiseEqual) {
  Rng rng(0xA3);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  for (size_t n : TestSizes()) {
    for (int rep = 0; rep < 4; ++rep) {
      const std::vector<float> x = RandomVector(&rng, n);
      const std::vector<float> y = RandomVector(&rng, n);
      ASSERT_EQ(Bits(s.dot(x.data(), y.data(), n)),
                Bits(a.dot(x.data(), y.data(), n)))
          << "dot n=" << n;
      ASSERT_EQ(Bits(s.squared_l2(x.data(), n)),
                Bits(a.squared_l2(x.data(), n)))
          << "squared_l2 n=" << n;
      ASSERT_EQ(Bits(s.squared_distance(x.data(), y.data(), n)),
                Bits(a.squared_distance(x.data(), y.data(), n)))
          << "squared_distance n=" << n;
    }
  }
}

TEST_F(SimdKernelsTest, MaxAbsEqualAndNanReported) {
  Rng rng(0xA4);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  for (size_t n : TestSizes()) {
    std::vector<float> x = RandomVector(&rng, n);
    bool ns = false, na = false;
    ASSERT_EQ(Bits(s.max_abs(x.data(), n, &ns)),
              Bits(a.max_abs(x.data(), n, &na)))
        << "max_abs n=" << n;
    ASSERT_EQ(ns, na);
    ASSERT_FALSE(ns);
    if (n == 0) continue;
    // Poison one element per lane position; both tables must report NaN
    // and agree on the max over the remaining values.
    for (size_t pos : {size_t{0}, n / 2, n - 1}) {
      std::vector<float> p = x;
      p[pos] = std::numeric_limits<float>::quiet_NaN();
      ns = na = false;
      const float ms = s.max_abs(p.data(), n, &ns);
      const float ma = a.max_abs(p.data(), n, &na);
      ASSERT_EQ(Bits(ms), Bits(ma)) << "max_abs NaN n=" << n;
      ASSERT_TRUE(ns);
      ASSERT_TRUE(na);
    }
    // Infinity is a value, not an error, at the kernel level.
    std::vector<float> inf = x;
    inf[n - 1] = -std::numeric_limits<float>::infinity();
    ns = na = false;
    const float ms = s.max_abs(inf.data(), n, &ns);
    const float ma = a.max_abs(inf.data(), n, &na);
    ASSERT_EQ(Bits(ms), Bits(ma));
    ASSERT_TRUE(std::isinf(ms));
    ASSERT_FALSE(ns);
    ASSERT_FALSE(na);
  }
}

TEST_F(SimdKernelsTest, GemmAxpyRowBitwiseEqual) {
  Rng rng(0xA5);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  for (int64_t kb : {1, 2, 7, 64}) {
    for (int64_t n : {1, 7, 8, 31, 32, 33, 100, 257}) {
      const int64_t ldb = n + 3;  // exercise ldb > n
      std::vector<float> av =
          RandomVector(&rng, static_cast<size_t>(kb));
      // Sprinkle exact zeros to exercise the row-skip path.
      for (auto& v : av) {
        if (rng.UniformInt(0, 3) == 0) v = 0.0f;
      }
      const std::vector<float> b =
          RandomVector(&rng, static_cast<size_t>(kb * ldb));
      const std::vector<float> c0 =
          RandomVector(&rng, static_cast<size_t>(n));
      std::vector<float> cs = c0, ca = c0;
      s.gemm_axpy_row(av.data(), b.data(), cs.data(), kb, n, ldb);
      a.gemm_axpy_row(av.data(), b.data(), ca.data(), kb, n, ldb);
      for (int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(Bits(cs[static_cast<size_t>(j)]),
                  Bits(ca[static_cast<size_t>(j)]))
            << "gemm kb=" << kb << " n=" << n << " j=" << j;
      }
    }
  }
}

TEST_F(SimdKernelsTest, QuantizeDequantizeBitwiseEqual) {
  Rng rng(0xA6);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  for (size_t n : TestSizes()) {
    for (int bits : {1, 4, 8, 12, 16}) {
      const int levels = (1 << bits) - 1;
      std::vector<float> v(n);
      float scale = 0.0f;
      for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<float>(rng.Normal(0.0, 1.0));
        scale = std::max(scale, std::fabs(v[i]));
      }
      std::vector<uint16_t> cs(n), ca(n);
      s.quantize_uniform(v.data(), n, scale, levels, cs.data());
      a.quantize_uniform(v.data(), n, scale, levels, ca.data());
      ASSERT_EQ(cs, ca) << "quantize n=" << n << " bits=" << bits;
      std::vector<float> ds(n), da(n);
      s.dequantize_grid(cs.data(), n, scale, levels, ds.data());
      a.dequantize_grid(ca.data(), n, scale, levels, da.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(ds[i]), Bits(da[i]))
            << "dequantize n=" << n << " bits=" << bits << " i=" << i;
      }
      // Zero scale: all codes 0, all values decode to exactly 0.
      s.quantize_uniform(v.data(), n, 0.0f, levels, cs.data());
      a.quantize_uniform(v.data(), n, 0.0f, levels, ca.data());
      ASSERT_EQ(cs, ca);
      for (uint16_t c : ca) ASSERT_EQ(c, 0);
    }
  }
}

TEST_F(SimdKernelsTest, PackUnpackAllWidthsByteEqual) {
  Rng rng(0xA7);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  for (int bits = 1; bits <= 16; ++bits) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{15}, size_t{16},
                     size_t{17}, size_t{33}, size_t{256}, size_t{1000}}) {
      std::vector<uint16_t> codes(n);
      const uint32_t maxc = (1u << bits) - 1u;
      for (auto& c : codes) {
        c = static_cast<uint16_t>(rng.UniformInt(0, maxc));
      }
      const size_t bytes = (n * static_cast<size_t>(bits) + 7) / 8;
      std::vector<uint8_t> ps(bytes, 0xCC), pa(bytes, 0x33);
      s.pack_codes(codes.data(), n, bits, ps.data());
      a.pack_codes(codes.data(), n, bits, pa.data());
      ASSERT_EQ(ps, pa) << "pack bits=" << bits << " n=" << n;
      std::vector<uint16_t> us(n), ua(n);
      s.unpack_codes(ps.data(), n, bits, us.data());
      a.unpack_codes(pa.data(), n, bits, ua.data());
      ASSERT_EQ(us, codes) << "unpack bits=" << bits << " n=" << n;
      ASSERT_EQ(ua, codes) << "unpack bits=" << bits << " n=" << n;
    }
  }
}

/// Every table this host can run: the scalar reference always, AVX2 when
/// present. The dot_rows and fused-step cases below hold on each table by
/// itself, so they also run on hosts without AVX2;
/// `DotRowsAndProxSgdStepBitwiseEqualAcrossTables` compares the tables.
std::vector<std::pair<const char*, const KernelTable*>> AvailableTables() {
  std::vector<std::pair<const char*, const KernelTable*>> tables = {
      {"scalar", &ScalarKernels()}};
  if (Avx2Kernels() != nullptr) tables.emplace_back("avx2", Avx2Kernels());
  return tables;
}

/// RandomVector plus infinities and NaNs.
std::vector<float> RandomVectorWithNonFinite(Rng* rng, size_t n) {
  std::vector<float> v = RandomVector(rng, n);
  for (auto& x : v) {
    switch (rng->UniformInt(0, 39)) {
      case 0:
        x = std::numeric_limits<float>::infinity();
        break;
      case 1:
        x = -std::numeric_limits<float>::infinity();
        break;
      case 2:
        x = std::numeric_limits<float>::quiet_NaN();
        break;
      default:
        break;
    }
  }
  return v;
}

TEST(SimdDotRowsTest, EqualsPerRowDotOnEveryTable) {
  for (const auto& [name, table] : AvailableTables()) {
    SCOPED_TRACE(name);
    const KernelTable& k = *table;
    Rng rng(0xB1);
    for (size_t rows = 1; rows <= 13; ++rows) {
      for (size_t n : {0, 1, 7, 8, 9, 143, 144, 145}) {
        for (bool non_finite : {false, true}) {
          const size_t ldx = n + 1 + static_cast<size_t>(rng.UniformInt(0, 4));
          // The +1 / +3 offsets put both operands off 32-byte alignment.
          const std::vector<float> xf =
              non_finite ? RandomVectorWithNonFinite(&rng, rows * ldx + 1)
                         : RandomVector(&rng, rows * ldx + 1);
          const std::vector<float> yv =
              non_finite ? RandomVectorWithNonFinite(&rng, n + 3)
                         : RandomVector(&rng, n + 3);
          const std::vector<double> xd(xf.begin(), xf.end());
          const float* y = yv.data() + 3;
          // Preset outputs past `rows` must survive untouched.
          std::vector<double> out(rows + 1, 7.0);
          k.dot_rows(xd.data() + 1, ldx, rows, y, n, out.data());
          for (size_t r = 0; r < rows; ++r) {
            const double want = k.dot(xf.data() + 1 + r * ldx, y, n);
            ASSERT_EQ(Bits(out[r]), Bits(want))
                << "rows=" << rows << " n=" << n << " r=" << r
                << " non_finite=" << non_finite;
          }
          ASSERT_EQ(out[rows], 7.0);
        }
      }
    }
  }
}

// The former two-pass local step: the term added to the gradient in place
// (grad += offset + rho * (w - anchor), parts absent when null), then
// axpy(neg_lr, grad, w) on the same table.
void TwoPassStep(const KernelTable& k, std::vector<float> grad,
                 const float* offset, const float* anchor, float rho,
                 float neg_lr, std::vector<float>* w) {
  for (size_t i = 0; i < grad.size(); ++i) {
    if (offset != nullptr && anchor != nullptr) {
      grad[i] += offset[i] + rho * ((*w)[i] - anchor[i]);
    } else if (anchor != nullptr) {
      grad[i] += rho * ((*w)[i] - anchor[i]);
    } else if (offset != nullptr) {
      grad[i] += offset[i];
    }
  }
  k.axpy(neg_lr, grad.data(), w->data(), grad.size());
}

TEST(SimdProxSgdStepTest, EqualsTwoPassStepForEveryTermShape) {
  for (const auto& [name, table] : AvailableTables()) {
    SCOPED_TRACE(name);
    const KernelTable& k = *table;
    Rng rng(0xB2);
    for (size_t n : TestSizes()) {
      for (int shape = 0; shape < 4; ++shape) {
        const bool has_offset = (shape & 1) != 0;
        const bool has_anchor = (shape & 2) != 0;
        const std::vector<float> grad = RandomVectorWithNonFinite(&rng, n + 1);
        const std::vector<float> offset = RandomVector(&rng, n + 1);
        const std::vector<float> anchor = RandomVector(&rng, n + 1);
        const std::vector<float> w0 = RandomVector(&rng, n + 1);
        const float rho = static_cast<float>(rng.Uniform(0.0, 4.0));
        const float neg_lr = -static_cast<float>(rng.Uniform(0.0, 0.5));
        // One-element offsets: unaligned operands.
        const float* off = has_offset ? offset.data() + 1 : nullptr;
        const float* anc = has_anchor ? anchor.data() + 1 : nullptr;
        std::vector<float> want(w0.begin() + 1, w0.end());
        TwoPassStep(k, std::vector<float>(grad.begin() + 1, grad.end()), off,
                    anc, rho, neg_lr, &want);
        std::vector<float> got = w0;
        k.prox_sgd_step(grad.data() + 1, off, anc, rho, neg_lr,
                        got.data() + 1, n);
        ASSERT_EQ(Bits(got[0]), Bits(w0[0]));
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(got[i + 1]), Bits(want[i]))
              << "n=" << n << " shape=" << shape << " i=" << i;
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, DotRowsAndProxSgdStepBitwiseEqualAcrossTables) {
  Rng rng(0xB3);
  const KernelTable& s = ScalarKernels();
  const KernelTable& a = *Avx2Kernels();
  for (size_t n : TestSizes()) {
    const size_t rows = static_cast<size_t>(rng.UniformInt(1, 13));
    const std::vector<float> xf = RandomVector(&rng, rows * n);
    const std::vector<double> xd(xf.begin(), xf.end());
    const std::vector<float> y = RandomVector(&rng, n);
    std::vector<double> os(rows), oa(rows);
    s.dot_rows(xd.data(), n, rows, y.data(), n, os.data());
    a.dot_rows(xd.data(), n, rows, y.data(), n, oa.data());
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(Bits(os[r]), Bits(oa[r])) << "dot_rows n=" << n << " r=" << r;
    }

    const std::vector<float> grad = RandomVector(&rng, n);
    const std::vector<float> offset = RandomVector(&rng, n);
    const std::vector<float> anchor = RandomVector(&rng, n);
    const std::vector<float> w0 = RandomVector(&rng, n);
    for (int shape = 0; shape < 4; ++shape) {
      const float* off = (shape & 1) != 0 ? offset.data() : nullptr;
      const float* anc = (shape & 2) != 0 ? anchor.data() : nullptr;
      std::vector<float> ws = w0, wa = w0;
      s.prox_sgd_step(grad.data(), off, anc, 0.75f, -0.1f, ws.data(), n);
      a.prox_sgd_step(grad.data(), off, anc, 0.75f, -0.1f, wa.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(ws[i]), Bits(wa[i]))
            << "prox_sgd_step n=" << n << " shape=" << shape << " i=" << i;
      }
    }
  }
}

TEST(SimdDispatchTest, ForceScalarOverridePinsTable) {
  ForceIsaForTesting(Isa::kScalar);
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_EQ(&ActiveKernels(), &ScalarKernels());
  if (Avx2Kernels() != nullptr) {
    ForceIsaForTesting(Isa::kAvx2);
    EXPECT_EQ(ActiveIsa(), Isa::kAvx2);
    EXPECT_EQ(&ActiveKernels(), Avx2Kernels());
  }
  ForceIsaForTesting(std::nullopt);  // restore environment resolution
}

TEST(SimdDispatchTest, IsaNamesStable) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
}

}  // namespace
}  // namespace fedadmm::simd
