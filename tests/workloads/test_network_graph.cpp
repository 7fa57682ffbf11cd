// NetworkGraph as the one model of the paper's network: the TinyMLPerf
// autoencoder's dimension chain, its GEMM lowering (names, extents, order,
// MACs, footprints), its pinned weight draws, and the behaviour of the
// golden reference executors on it (finite, close to a double-precision
// chain, and able to fit a batch over SGD steps).
#include "workloads/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.hpp"

namespace redmule::workloads {
namespace {

using Phase = AeGemm::Phase;

TEST(NetworkGraph, AutoencoderDimChain) {
  AutoencoderConfig cfg;
  const auto d = cfg.dims();
  ASSERT_EQ(d.size(), 11u);
  EXPECT_EQ(d.front(), 640u);
  EXPECT_EQ(d.back(), 640u);
  EXPECT_EQ(d[5], 8u);  // bottleneck

  Xoshiro256 rng(1);
  const NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  ASSERT_EQ(net.n_layers(), cfg.n_layers());
  for (size_t l = 0; l < net.n_layers(); ++l) {
    EXPECT_EQ(net.layer(l).in_dim(), d[l]) << l;
    EXPECT_EQ(net.layer(l).out_dim(), d[l + 1]) << l;
    EXPECT_EQ(net.layer(l).relu, l + 1 < net.n_layers()) << l;
    EXPECT_TRUE(net.layer(l).bias.empty()) << l;
  }
}

TEST(NetworkGraph, ForwardGemmsMapKToBatch) {
  Xoshiro256 rng(1);
  const NetworkGraph net = NetworkGraph::autoencoder(AutoencoderConfig{}, rng);
  const auto gemms = net.forward_gemms(4);
  ASSERT_EQ(gemms.size(), 10u);
  for (const auto& g : gemms) {
    EXPECT_EQ(g.shape.k, 4u);  // K = B: the paper's utilization bottleneck
    EXPECT_EQ(g.phase, Phase::kForward);
  }
  EXPECT_EQ(gemms[0].shape.m, 128u);
  EXPECT_EQ(gemms[0].shape.n, 640u);
}

TEST(NetworkGraph, TrainingGemmsIncludeBothGradients) {
  Xoshiro256 rng(1);
  const NetworkGraph net = NetworkGraph::autoencoder(AutoencoderConfig{}, rng);
  const auto gemms = net.training_gemms(2);
  // 10 forward + 10 dW + 9 dX (no dX for layer 0).
  ASSERT_EQ(gemms.size(), 29u);
  unsigned dw = 0, dx = 0;
  bool large_dw_k = false;
  for (const auto& g : gemms) {
    if (g.phase == Phase::kGradWeight) {
      ++dw;
      EXPECT_EQ(g.shape.n, 2u);  // N = B for dW
      // The paper's "significant advantages in backward": dW has K = in_dim.
      if (g.shape.k >= 128) large_dw_k = true;
    }
    if (g.phase == Phase::kGradInput) {
      ++dx;
      EXPECT_EQ(g.shape.k, 2u);  // K = B for dX
    }
  }
  EXPECT_EQ(dw, 10u);
  EXPECT_EQ(dx, 9u);
  EXPECT_TRUE(large_dw_k);
}

TEST(NetworkGraph, TrainingLoweringMatchesFig4cRows) {
  // Exactly the rows bench_fig4c_autoencoder prints for the full
  // 640-128^4-8-128^4-640 network at B = 1, in execution order.
  Xoshiro256 rng(1);
  const NetworkGraph net = NetworkGraph::autoencoder(AutoencoderConfig{}, rng);
  using Row = std::tuple<std::string, uint32_t, uint32_t, uint32_t>;
  const std::vector<Row> want = {
      {"L0.fw", 128, 640, 1}, {"L1.fw", 128, 128, 1}, {"L2.fw", 128, 128, 1},
      {"L3.fw", 128, 128, 1}, {"L4.fw", 8, 128, 1},   {"L5.fw", 128, 8, 1},
      {"L6.fw", 128, 128, 1}, {"L7.fw", 128, 128, 1}, {"L8.fw", 128, 128, 1},
      {"L9.fw", 640, 128, 1}, {"L9.dW", 640, 1, 128}, {"L9.dX", 128, 640, 1},
      {"L8.dW", 128, 1, 128}, {"L8.dX", 128, 128, 1}, {"L7.dW", 128, 1, 128},
      {"L7.dX", 128, 128, 1}, {"L6.dW", 128, 1, 128}, {"L6.dX", 128, 128, 1},
      {"L5.dW", 128, 1, 8},   {"L5.dX", 8, 128, 1},   {"L4.dW", 8, 1, 128},
      {"L4.dX", 128, 8, 1},   {"L3.dW", 128, 1, 128}, {"L3.dX", 128, 128, 1},
      {"L2.dW", 128, 1, 128}, {"L2.dX", 128, 128, 1}, {"L1.dW", 128, 1, 128},
      {"L1.dX", 128, 128, 1}, {"L0.dW", 128, 1, 640},
  };
  const auto gemms = net.training_gemms(1);
  ASSERT_EQ(gemms.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const GemmShape& s = gemms[i].shape;
    EXPECT_EQ(Row(s.name, s.m, s.n, s.k), want[i]) << "row " << i;
  }
  EXPECT_EQ(net.training_macs(1), 710656u);
  EXPECT_EQ(net.training_macs(16), 11370496u);
  uint64_t sum = 0;
  for (const auto& g : net.training_gemms(16)) sum += g.shape.macs();
  EXPECT_EQ(net.training_macs(16), sum);
}

TEST(NetworkGraph, FootprintMatchesPaperBallpark) {
  // Paper Fig. 4d: the B=16 configuration has a ~184 kB working footprint.
  Xoshiro256 rng(1);
  const NetworkGraph net = NetworkGraph::autoencoder(AutoencoderConfig{}, rng);
  const size_t act = net.activation_bytes(16);
  EXPECT_GT(act, 50u * 1024);
  EXPECT_LT(act, 200u * 1024);
  // Weights: ~264k FP16 parameters.
  EXPECT_EQ(net.weight_bytes(), 2u * (640 * 128 + 128 * 128 * 3 + 128 * 8 +
                                      8 * 128 + 128 * 128 * 3 + 128 * 640));
}

TEST(NetworkGraph, AutoencoderDrawsPinnedByBenchNetworkMse) {
  // The committed BENCH_network.json B1.mse: the loss of one step of the
  // full network with weights from Xoshiro256(2022) on an input from
  // Xoshiro256(77). Any change to the weight draws moves this value.
  Xoshiro256 rng(2022), rng_x(77);
  NetworkGraph net = NetworkGraph::autoencoder(AutoencoderConfig{}, rng);
  const auto x = random_matrix(net.input_dim(), 1, rng_x, -0.5, 0.5);
  const auto ref = reference_training_step(net, x, x, 0.0, core::Geometry{});
  EXPECT_EQ(ref.mse, 0.085610409162681894);
}

TEST(NetworkGraph, ReferenceForwardIsFinite) {
  Xoshiro256 rng(1);
  const NetworkGraph net = NetworkGraph::autoencoder(AutoencoderConfig{}, rng);
  const auto x = random_matrix(net.input_dim(), 2, rng, -0.5, 0.5);
  const auto ref = reference_forward(net, x, core::Geometry{});
  ASSERT_EQ(ref.pre.size(), net.n_layers());
  for (const auto& o : ref.pre)
    for (size_t r = 0; r < o.rows(); ++r)
      for (size_t c = 0; c < o.cols(); ++c) EXPECT_TRUE(o(r, c).is_finite());
  EXPECT_EQ(ref.out.rows(), 640u);
  EXPECT_EQ(ref.out.cols(), 2u);
}

TEST(NetworkGraph, ReferenceForwardMatchesDoubleChainLoosely) {
  // FP16 forward vs double-precision forward: relative error bounded by the
  // FP16 accumulation depth.
  AutoencoderConfig cfg;
  cfg.input_dim = 64;
  cfg.hidden = {32, 8, 32};
  Xoshiro256 rng(2);
  const NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  const auto x = random_matrix(64, 1, rng, -0.5, 0.5);

  std::vector<double> cur(64);
  for (size_t i = 0; i < 64; ++i) cur[i] = x(i, 0).to_double();
  for (size_t l = 0; l < net.n_layers(); ++l) {
    const MatrixF16& w = net.layer(l).weight;
    std::vector<double> next(w.rows(), 0.0);
    for (size_t r = 0; r < w.rows(); ++r)
      for (size_t c = 0; c < w.cols(); ++c)
        next[r] += w(r, c).to_double() * cur[c];
    if (net.layer(l).relu)
      for (auto& v : next) v = std::max(v, 0.0);
    cur = std::move(next);
  }

  const auto ref = reference_forward(net, x, core::Geometry{});
  for (size_t i = 0; i < 64; ++i)
    EXPECT_NEAR(ref.out(i, 0).to_double(), cur[i],
                std::max(0.05, std::abs(cur[i]) * 0.05));
}

TEST(NetworkGraph, ReferenceTrainingReducesReconstructionError) {
  // A small AE overfits one structured (low-rank) batch: the adaptive-edge
  // scenario the paper motivates. MSE must collapse over SGD steps.
  AutoencoderConfig cfg;
  cfg.input_dim = 32;
  cfg.hidden = {16, 8, 16};
  Xoshiro256 rng(3);
  NetworkGraph net = NetworkGraph::autoencoder(cfg, rng);
  MatrixF16 x(32, 4);
  for (int i = 0; i < 32; ++i)
    for (int b = 0; b < 4; ++b)
      x(i, b) = fp16::Float16::from_double(0.5 * std::sin(0.2 * i + b));
  const core::Geometry g;
  const double first = reference_training_step(net, x, x, 0.1, g).mse;
  double last = first;
  for (int i = 0; i < 200; ++i) last = reference_training_step(net, x, x, 0.1, g).mse;
  EXPECT_LT(last, first * 0.1);
}

}  // namespace
}  // namespace redmule::workloads
