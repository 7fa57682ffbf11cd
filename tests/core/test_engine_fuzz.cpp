/// Randomized end-to-end fuzz: random shapes, random geometries, random data
/// (including specials), always compared bit-for-bit against the padded
/// golden model. The self-checking datapath tags abort on any scheduling
/// corruption, so surviving the sweep is a strong invariant.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "core/golden.hpp"
#include "isa/assembler.hpp"
#include "workloads/gemm.hpp"

namespace redmule::core {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::RedmuleDriver;

workloads::MatrixF16 fuzz_matrix(size_t rows, size_t cols, Xoshiro256& rng) {
  workloads::MatrixF16 m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // 1/16 of entries are raw random encodings (subnormals, inf, NaN, -0);
      // the rest are benign values.
      if (rng.next_below(16) == 0) {
        m(r, c) = fp16::Float16::from_bits(rng.next_u16());
      } else {
        m(r, c) = fp16::Float16::from_double(rng.next_double(-2.0, 2.0));
      }
    }
  }
  return m;
}

bool same_fp16(fp16::Float16 a, fp16::Float16 b) {
  if (a.is_nan() && b.is_nan()) return true;  // payloads canonicalized anyway
  return a.bits() == b.bits();
}

TEST(EngineFuzz, RandomShapesDefaultGeometry) {
  Xoshiro256 rng(0xF00D);
  Cluster cl;
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.next_below(40));
    const uint32_t n = 1 + static_cast<uint32_t>(rng.next_below(50));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.next_below(40));
    RedmuleDriver drv(cl);
    const auto x = fuzz_matrix(m, n, rng);
    const auto w = fuzz_matrix(n, k, rng);
    const auto res = drv.gemm(x, w);
    const auto golden = golden_gemm_padded(x, w, cl.config().geometry);
    for (uint32_t i = 0; i < m; ++i)
      for (uint32_t j = 0; j < k; ++j)
        ASSERT_TRUE(same_fp16(res.z(i, j), golden(i, j)))
            << "trial " << trial << " shape " << m << "x" << n << "x" << k << " at ("
            << i << "," << j << "): got " << res.z(i, j).to_string() << " want "
            << golden(i, j).to_string();
  }
}

TEST(EngineFuzz, RandomGeometries) {
  Xoshiro256 rng(0xBEEF);
  for (int trial = 0; trial < 12; ++trial) {
    const unsigned h = 1 + static_cast<unsigned>(rng.next_below(6));
    const unsigned l = 1 + static_cast<unsigned>(rng.next_below(16));
    const unsigned p = static_cast<unsigned>(rng.next_below(4));
    const Geometry g{h, l, p};
    if (g.j_slots() > 32 || g.j_slots() < 2) continue;  // cycle-model bounds
    ClusterConfig cfg;
    cfg.geometry = g;
    Cluster cl(cfg);
    RedmuleDriver drv(cl);
    const uint32_t m = 1 + static_cast<uint32_t>(rng.next_below(24));
    const uint32_t n = 1 + static_cast<uint32_t>(rng.next_below(24));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.next_below(24));
    const auto x = fuzz_matrix(m, n, rng);
    const auto w = fuzz_matrix(n, k, rng);
    const auto res = drv.gemm(x, w);
    const auto golden = golden_gemm_padded(x, w, g);
    for (uint32_t i = 0; i < m; ++i)
      for (uint32_t j = 0; j < k; ++j)
        ASSERT_TRUE(same_fp16(res.z(i, j), golden(i, j)))
            << "H" << h << " L" << l << " P" << p << " " << m << "x" << n << "x" << k;
  }
}

TEST(EngineFuzz, RandomAccumulateJobs) {
  Xoshiro256 rng(0xACC);
  Cluster cl;
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.next_below(20));
    const uint32_t n = 1 + static_cast<uint32_t>(rng.next_below(20));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.next_below(20));
    RedmuleDriver drv(cl);
    const auto x = fuzz_matrix(m, n, rng);
    const auto w = fuzz_matrix(n, k, rng);
    const auto y = fuzz_matrix(m, k, rng);
    const auto res = drv.gemm_acc(x, w, y);
    const auto golden = golden_gemm_padded(x, w, cl.config().geometry, &y);
    for (uint32_t i = 0; i < m; ++i)
      for (uint32_t j = 0; j < k; ++j)
        ASSERT_TRUE(same_fp16(res.z(i, j), golden(i, j))) << trial;
  }
}

TEST(EngineFuzz, ResultsUnaffectedByCoreTraffic) {
  // Contention may change *when* things happen but never *what* is computed.
  Xoshiro256 rng(0xAB);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t m = 8 + static_cast<uint32_t>(rng.next_below(16));
    const uint32_t n = 8 + static_cast<uint32_t>(rng.next_below(16));
    const uint32_t k = 8 + static_cast<uint32_t>(rng.next_below(16));
    const auto x = fuzz_matrix(m, n, rng);
    const auto w = fuzz_matrix(n, k, rng);

    Cluster quiet;
    RedmuleDriver dq(quiet);
    const auto zq = dq.gemm(x, w);

    Cluster noisy;
    RedmuleDriver dn(noisy);
    const uint32_t xa = dn.place_matrix(x);
    const uint32_t wa = dn.place_matrix(w);
    const uint32_t za = dn.alloc(m * k * 2);
    const isa::Program hammer = isa::assemble(R"(
      li t3, 100000
      lp.setup t3, e
        lw t1, 0(a0)
    e:
      halt
    )");
    for (unsigned c = 0; c < noisy.n_cores(); ++c) {
      noisy.core(c).load_program(hammer);
      noisy.core(c).set_reg(10, xa + 4 * c);
    }
    dn.run_gemm(xa, wa, za, m, n, k);
    const auto zn = dn.read_matrix(za, m, k);
    for (uint32_t i = 0; i < m; ++i)
      for (uint32_t j = 0; j < k; ++j)
        ASSERT_TRUE(same_fp16(zq.z(i, j), zn(i, j))) << trial;
  }
}

/// Everything a job leaves behind: Z, the counters and the whole TCDM.
struct JobImage {
  workloads::MatrixF16 z;
  JobStats stats;
  std::vector<uint8_t> tcdm;
};

JobImage run_image(const Geometry& g, const workloads::MatrixF16& x,
                   const workloads::MatrixF16& w, const workloads::MatrixF16* y) {
  ClusterConfig cfg;
  cfg.geometry = g;
  Cluster cl(cfg);
  RedmuleDriver drv(cl);
  auto res = y != nullptr ? drv.gemm_acc(x, w, *y) : drv.gemm(x, w);
  JobImage img{std::move(res.z), res.stats, {}};
  const auto& tc = cl.tcdm().config();
  img.tcdm.resize(tc.size_bytes());
  cl.tcdm().backdoor_read(tc.base_addr, img.tcdm.data(), tc.size_bytes());
  return img;
}

/// Y seeds that stress the first-traversal injection: -0, +-Inf, NaN and
/// subnormals, mixed with benign values.
workloads::MatrixF16 special_y(size_t rows, size_t cols, Xoshiro256& rng) {
  const uint16_t specials[] = {0x8000, 0x7C00, 0xFC00, 0x7E00, 0x0001, 0x83FF};
  workloads::MatrixF16 m(rows, cols);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) {
      const uint64_t pick = rng.next_below(10);
      m(r, c) = pick < 6 ? fp16::Float16::from_bits(specials[pick])
                         : fp16::Float16::from_double(rng.next_double(-2.0, 2.0));
    }
  return m;
}

/// Restores the FMA fast path (and with it liveness elision) on scope exit.
struct FullComputeScope {
  FullComputeScope() { fp16::set_fast_fma_enabled(false); }
  ~FullComputeScope() { fp16::set_fast_fma_enabled(true); }
};

TEST(EngineFuzz, ElisionMatchesFullComputeOracle) {
  // Liveness elision leaves dead lanes stale; nothing a job leaves behind
  // may show it. Each job runs with elision on (the default) and again
  // with the fast path off, which computes every lane in the soft core.
  // Shapes are ragged in all three dimensions, so every job has dead rows
  // (m % L), padded columns (n % H) and dead j-slots (k % j_slots).
  Xoshiro256 rng(0xE11DE);
  ASSERT_TRUE(fp16::fast_fma_enabled());
  for (int job = 0; job < 64; ++job) {
    const unsigned h = 2 + static_cast<unsigned>(rng.next_below(5));
    const unsigned l = 2 + static_cast<unsigned>(rng.next_below(15));
    const unsigned p = static_cast<unsigned>(rng.next_below(4));
    const Geometry g{h, l, p};  // j_slots <= 24, inside the cycle model
    const unsigned js = g.j_slots();
    const uint32_t m = l * static_cast<uint32_t>(rng.next_below(3)) + 1 +
                       static_cast<uint32_t>(rng.next_below(l - 1));
    const uint32_t n = h * static_cast<uint32_t>(rng.next_below(4)) + 1 +
                       static_cast<uint32_t>(rng.next_below(h - 1));
    const uint32_t k = js * static_cast<uint32_t>(rng.next_below(3)) + 1 +
                       static_cast<uint32_t>(rng.next_below(js - 1));
    const bool accumulate = (job % 2) == 1;
    const auto x = fuzz_matrix(m, n, rng);
    const auto w = fuzz_matrix(n, k, rng);
    const auto y = special_y(m, k, rng);
    const workloads::MatrixF16* yp = accumulate ? &y : nullptr;

    const JobImage elided = run_image(g, x, w, yp);
    JobImage full;
    {
      FullComputeScope scope;
      full = run_image(g, x, w, yp);
    }
    const std::string what = "H" + std::to_string(h) + " L" + std::to_string(l) +
                             " P" + std::to_string(p) + " " + std::to_string(m) +
                             "x" + std::to_string(n) + "x" + std::to_string(k) +
                             (accumulate ? " acc" : "");
    EXPECT_EQ(elided.stats.cycles, full.stats.cycles) << what;
    EXPECT_EQ(elided.stats.advance_cycles, full.stats.advance_cycles) << what;
    EXPECT_EQ(elided.stats.stall_cycles, full.stats.stall_cycles) << what;
    EXPECT_EQ(elided.stats.fma_ops, full.stats.fma_ops) << what;
    ASSERT_TRUE(elided.tcdm == full.tcdm) << what;
    const auto golden = golden_gemm_padded(x, w, g, yp);
    for (uint32_t i = 0; i < m; ++i)
      for (uint32_t j = 0; j < k; ++j) {
        ASSERT_EQ(elided.z(i, j).bits(), full.z(i, j).bits()) << what;
        ASSERT_TRUE(same_fp16(elided.z(i, j), golden(i, j)))
            << what << " at (" << i << "," << j << "): got "
            << elided.z(i, j).to_string() << " want " << golden(i, j).to_string();
      }
  }
  EXPECT_TRUE(fp16::fast_fma_enabled());
}

}  // namespace
}  // namespace redmule::core
