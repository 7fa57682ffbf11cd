/// Cross-checks the soft-float implementation against the host compiler's
/// native _Float16 arithmetic (x86-64 AVX512-FP16 or soft-fp lowering), when
/// available. Native _Float16 follows IEEE binary16 with RNE, which is
/// exactly our default configuration.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fp16/float16.hpp"

namespace redmule::fp16 {
namespace {

#if defined(__FLT16_MAX__)
using NativeF16 = _Float16;

uint16_t native_bits(NativeF16 v) {
  uint16_t b;
  static_assert(sizeof(v) == 2);
  __builtin_memcpy(&b, &v, 2);
  return b;
}

NativeF16 native_from_bits(uint16_t b) {
  NativeF16 v;
  __builtin_memcpy(&v, &b, 2);
  return v;
}

bool both_nan(uint16_t a, uint16_t b) {
  auto is_nan = [](uint16_t x) { return (x & 0x7C00) == 0x7C00 && (x & 0x3FF) != 0; };
  return is_nan(a) && is_nan(b);
}

TEST(Fp16Native, ExhaustiveConversionToFloat) {
  for (uint32_t b = 0; b <= 0xFFFF; ++b) {
    const Float16 f = Float16::from_bits(static_cast<uint16_t>(b));
    const float ours = f.to_float();
    const float native = static_cast<float>(native_from_bits(static_cast<uint16_t>(b)));
    if (f.is_nan()) {
      EXPECT_TRUE(std::isnan(native));
    } else {
      EXPECT_EQ(ours, native) << std::hex << b;
    }
  }
}

TEST(Fp16Native, ExhaustiveConversionFromFloatSamples) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 500000; ++i) {
    // Random float32 patterns biased toward the fp16 range.
    uint32_t bits = static_cast<uint32_t>(rng.next_u64());
    float x;
    __builtin_memcpy(&x, &bits, 4);
    if (std::isnan(x)) continue;
    const uint16_t ours = Float16::from_float(x).bits();
    const uint16_t native = native_bits(static_cast<NativeF16>(x));
    if (both_nan(ours, native)) continue;
    EXPECT_EQ(ours, native) << "float bits 0x" << std::hex << bits;
  }
}

TEST(Fp16Native, RandomizedAdd) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 500000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::add(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) + native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, RandomizedMul) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 500000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::mul(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) * native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, RandomizedDiv) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 300000; ++i) {
    const uint16_t a = rng.next_u16(), b = rng.next_u16();
    const uint16_t ours = Float16::div(Float16::from_bits(a), Float16::from_bits(b)).bits();
    const uint16_t native = native_bits(native_from_bits(a) / native_from_bits(b));
    if (both_nan(ours, native)) continue;
    ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
  }
}

TEST(Fp16Native, SubnormalOperands) {
  // Directed sweep over subnormal x subnormal and subnormal x normal edges.
  for (uint32_t a = 0; a <= 0x3FF; a += 7) {
    for (uint32_t b = 0x8000; b <= 0x83FF; b += 13) {
      const uint16_t ua = static_cast<uint16_t>(a), ub = static_cast<uint16_t>(b);
      const uint16_t ours = Float16::add(Float16::from_bits(ua), Float16::from_bits(ub)).bits();
      const uint16_t native = native_bits(native_from_bits(ua) + native_from_bits(ub));
      ASSERT_EQ(ours, native) << std::hex << "a=0x" << a << " b=0x" << b;
    }
  }
}
#else
TEST(Fp16Native, Unavailable) {
  GTEST_SKIP() << "toolchain has no native _Float16; cross-check skipped";
}
#endif

// ---------------------------------------------------------------------------
// Fast-path FMA vs soft-float core. Float16::fma() dispatches normal/RNE/
// flag-free operands to a native-arithmetic fast path; Float16::fma_soft()
// is the bit-exact oracle. These tests pin the dispatch contract: bit-equal
// results everywhere, identical flag behavior, correct fallback on every
// eligibility edge (subnormals, NaN/Inf, non-RNE, flag observers).
// ---------------------------------------------------------------------------

TEST(Fp16FastFma, FuzzRneBitExact) {
  // >= 10M uniform-random encoding triples under the dispatching entry point
  // (RNE, no flags): the configuration where the fast path actually engages.
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(1234);
  for (int i = 0; i < 4'000'000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    const uint16_t fast = Float16::fma(a, b, c).bits();
    const uint16_t soft = Float16::fma_soft(a, b, c).bits();
    ASSERT_EQ(fast, soft) << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits()
                          << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, FuzzRneNormalBiasedBitExact) {
  // Uniform encodings make ~94% of triples all-normal but most products
  // over/underflow. Bias exponents toward the middle so results land in the
  // normal range and the fast path's pack (not just its bail-out) is hit.
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(5678);
  auto mid_normal = [&rng]() {
    const uint16_t sign = static_cast<uint16_t>((rng.next_u16() & 1u) << 15);
    const uint16_t e = static_cast<uint16_t>(8 + (rng.next_u16() % 15));  // 8..22
    const uint16_t frac = static_cast<uint16_t>(rng.next_u16() & 0x3FF);
    return Float16::from_bits(static_cast<uint16_t>(sign | (e << 10) | frac));
  };
  for (int i = 0; i < 6'000'000; ++i) {
    const Float16 a = mid_normal(), b = mid_normal(), c = mid_normal();
    const uint16_t fast = Float16::fma(a, b, c).bits();
    const uint16_t soft = Float16::fma_soft(a, b, c).bits();
    ASSERT_EQ(fast, soft) << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits()
                          << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, AllRoundingModesWithAndWithoutFlags) {
  // Non-RNE modes and flag observers must fall back to (and agree with) the
  // soft core, with identical flag behavior.
  Xoshiro256 rng(91);
  const RoundingMode modes[] = {RoundingMode::kRNE, RoundingMode::kRTZ,
                                RoundingMode::kRDN, RoundingMode::kRUP,
                                RoundingMode::kRMM};
  for (int i = 0; i < 400'000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    for (const RoundingMode rm : modes) {
      Flags fl_fast, fl_soft;
      const uint16_t fast = Float16::fma(a, b, c, rm, &fl_fast).bits();
      const uint16_t soft = Float16::fma_soft(a, b, c, rm, &fl_soft).bits();
      ASSERT_EQ(fast, soft) << std::hex << "rm=" << static_cast<int>(rm) << " a=0x"
                            << a.bits() << " b=0x" << b.bits() << " c=0x" << c.bits();
      ASSERT_EQ(fl_fast.to_fflags(), fl_soft.to_fflags())
          << std::hex << "rm=" << static_cast<int>(rm) << " a=0x" << a.bits()
          << " b=0x" << b.bits() << " c=0x" << c.bits();
      const uint16_t fast_nf = Float16::fma(a, b, c, rm).bits();
      ASSERT_EQ(fast_nf, soft) << std::hex << "rm=" << static_cast<int>(rm) << " a=0x"
                               << a.bits() << " b=0x" << b.bits() << " c=0x"
                               << c.bits();
    }
  }
}

TEST(Fp16FastFma, DirectedEligibilityEdges) {
  // Sweep the boundary encodings where the fast path must either engage and
  // round identically or detect ineligibility: around the subnormal/normal
  // border, max normal (overflow bail), min normal (underflow bail), zeros,
  // infinities and NaNs, plus exact cancellations (v == 0).
  const uint16_t interesting[] = {
      0x0000, 0x8000,          // +-0
      0x0001, 0x8001,          // min subnormal
      0x03FF, 0x83FF,          // max subnormal
      0x0400, 0x8400,          // min normal
      0x0401, 0x8401,          // just above min normal
      0x3BFF, 0x3C00, 0x3C01,  // around 1.0
      0x7BFF, 0xFBFF,          // max normal
      0x7BFE, 0x7800,          // near max normal
      0x7C00, 0xFC00,          // +-inf
      0x7E00, 0x7D55, 0x7C01,  // quiet and signaling NaNs
      0x0402, 0x1400, 0x2E66,  // assorted normals
  };
  for (const uint16_t ab : interesting)
    for (const uint16_t bb : interesting)
      for (const uint16_t cb : interesting) {
        const Float16 a = Float16::from_bits(ab);
        const Float16 b = Float16::from_bits(bb);
        const Float16 c = Float16::from_bits(cb);
        const uint16_t fast = Float16::fma(a, b, c).bits();
        const uint16_t soft = Float16::fma_soft(a, b, c).bits();
        ASSERT_EQ(fast, soft) << std::hex << "a=0x" << ab << " b=0x" << bb << " c=0x"
                              << cb;
      }
  // Exact cancellation a*b == -c: the binary64 sum is exactly +0.0, which
  // the fast path returns as-is (the soft core's RNE result is +0 too).
  const Float16 one = Float16::from_bits(0x3C00);
  const Float16 two = Float16::from_bits(0x4000);
  const Float16 neg_two = Float16::from_bits(0xC000);
  EXPECT_EQ(Float16::fma(one, two, neg_two).bits(),
            Float16::fma_soft(one, two, neg_two).bits());
}

// Exact-zero results take the fast path (binary64's signed zero); these
// class-targeted sets pin them against the soft core.

TEST(Fp16FastFma, SignedZeroOperandsBitExact) {
  // Every +-0 operand position against every encoding: zero products with
  // zero, normal and special addends, and zero addends under any product.
  ASSERT_TRUE(fast_fma_enabled());
  const uint16_t zeros[] = {0x0000, 0x8000};
  const uint16_t addends[] = {0x0000, 0x8000, 0x3C00, 0xBC00, 0x0400, 0x8001,
                              0x7BFF, 0x7C00, 0xFC00, 0x7E00};
  for (uint32_t e = 0; e <= 0xFFFF; ++e) {
    const Float16 v = Float16::from_bits(static_cast<uint16_t>(e));
    for (const uint16_t zb : zeros) {
      const Float16 z = Float16::from_bits(zb);
      for (const uint16_t cb : addends) {
        const Float16 c = Float16::from_bits(cb);
        ASSERT_EQ(Float16::fma(z, v, c).bits(), Float16::fma_soft(z, v, c).bits())
            << std::hex << "a=0x" << zb << " b=0x" << e << " c=0x" << cb;
        ASSERT_EQ(Float16::fma(v, z, c).bits(), Float16::fma_soft(v, z, c).bits())
            << std::hex << "a=0x" << e << " b=0x" << zb << " c=0x" << cb;
      }
      for (const uint16_t ab : zeros) {  // a*b with one zero factor, c = +-0
        const Float16 a = Float16::from_bits(ab);
        ASSERT_EQ(Float16::fma(a, v, z).bits(), Float16::fma_soft(a, v, z).bits())
            << std::hex << "a=0x" << ab << " b=0x" << e << " c=0x" << zb;
      }
    }
  }
  // Nonzero products onto +-0 (including products that underflow to zero).
  Xoshiro256 rng(404);
  for (int i = 0; i < 1'000'000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits((rng.next_u16() & 1u) ? 0x8000 : 0x0000);
    ASSERT_EQ(Float16::fma(a, b, c).bits(), Float16::fma_soft(a, b, c).bits())
        << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits() << " c=0x" << c.bits();
  }
}

TEST(Fp16FastFma, ZeroTimesZeroPlusNegativeZero) {
  // 0*0 + (-0): RNE's exact-zero sum of opposite-signed zeros is +0; only
  // a negative product onto -0 stays -0.
  const Float16 pz = Float16::from_bits(0x0000);
  const Float16 nz = Float16::from_bits(0x8000);
  EXPECT_EQ(Float16::fma(pz, pz, nz).bits(), 0x0000);
  EXPECT_EQ(Float16::fma(nz, nz, nz).bits(), 0x0000);
  EXPECT_EQ(Float16::fma(nz, pz, nz).bits(), 0x8000);
  EXPECT_EQ(Float16::fma(pz, nz, nz).bits(), 0x8000);
  EXPECT_EQ(Float16::fma(nz, pz, pz).bits(), 0x0000);
  for (const Float16 a : {pz, nz})
    for (const Float16 b : {pz, nz})
      for (const Float16 c : {pz, nz})
        EXPECT_EQ(Float16::fma(a, b, c).bits(), Float16::fma_soft(a, b, c).bits());
}

TEST(Fp16FastFma, ExactCancellationsBitExact) {
  // a*b == -c exactly, over every pair of operand exponents: factors with
  // short significands keep the product exact, and c is its negation
  // whenever that is representable. Every such sum is an exact zero (+0
  // under RNE); the sweep also keeps the near misses where c rounded.
  ASSERT_TRUE(fast_fma_enabled());
  Xoshiro256 rng(2718);
  int exact = 0;
  for (int ea = -14; ea <= 15; ++ea) {
    for (int eb = -14; eb <= 15; ++eb) {
      for (int i = 0; i < 24; ++i) {
        const double ma = 1.0 + static_cast<double>(rng.next_below(32)) / 32.0;
        const double mb = 1.0 + static_cast<double>(rng.next_below(32)) / 32.0;
        const double sa = (rng.next_u16() & 1u) ? -1.0 : 1.0;
        const double sb = (rng.next_u16() & 1u) ? -1.0 : 1.0;
        const Float16 a = f16(sa * std::ldexp(ma, ea));
        const Float16 b = f16(sb * std::ldexp(mb, eb));
        const double p = a.to_double() * b.to_double();
        const Float16 c = f16(-p);
        const uint16_t fast = Float16::fma(a, b, c).bits();
        ASSERT_EQ(fast, Float16::fma_soft(a, b, c).bits())
            << std::hex << "a=0x" << a.bits() << " b=0x" << b.bits() << " c=0x"
            << c.bits();
        if (c.is_finite() && c.to_double() == -p && p != 0.0) {
          ASSERT_EQ(fast, 0x0000) << std::hex << "a=0x" << a.bits() << " b=0x"
                                  << b.bits();
          ++exact;
        }
      }
    }
  }
  EXPECT_GT(exact, 5000);  // the sweep really exercised exact cancellations
}

TEST(Fp16FastFma, KillSwitchForcesSoftCore) {
  // The bench kill switch must route every call through the soft core.
  set_fast_fma_enabled(false);
  EXPECT_FALSE(fast_fma_enabled());
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Float16 a = Float16::from_bits(rng.next_u16());
    const Float16 b = Float16::from_bits(rng.next_u16());
    const Float16 c = Float16::from_bits(rng.next_u16());
    ASSERT_EQ(Float16::fma(a, b, c).bits(), Float16::fma_soft(a, b, c).bits());
  }
  set_fast_fma_enabled(true);
  EXPECT_TRUE(fast_fma_enabled());
}

}  // namespace
}  // namespace redmule::fp16
