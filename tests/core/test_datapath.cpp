#include "core/datapath.hpp"

#include <gtest/gtest.h>

namespace redmule::core {
namespace {

using fp16::f16;
using fp16::Float16;

/// Drives a single column through a full traversal-0 schedule by hand and
/// checks the pipeline latency and arithmetic.
TEST(Datapath, SingleColumnLatency) {
  Geometry g{1, 2, 3};  // H=1, L=2, P=3: latency 4, j_slots 4
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);
  std::vector<Float16> x(2);

  // Issue 4 ops (tau 0..3) of the only traversal (tag last_traversal).
  for (uint32_t tau = 0; tau < 4; ++tau) {
    auto& is = issues[0];
    is.active = true;
    is.tag = PipeTag{0, 0, tau, true};
    is.first_traversal = true;
    is.w = f16(2.0);
    x = {f16(1.0 + tau), f16(10.0 + tau)};
    is.x = x.data();
    const auto cap = dp.advance(issues);
    EXPECT_FALSE(cap.has_value());  // nothing emerges during fill
  }
  // Drain: captures appear exactly fma_latency cycles after each issue.
  issues[0].active = false;
  for (uint32_t tau = 0; tau < 4; ++tau) {
    const auto cap = dp.advance(issues);
    ASSERT_TRUE(cap.has_value()) << tau;
    EXPECT_EQ(cap->tag.tau, tau);
    EXPECT_EQ(cap->values[0].to_double(), 2.0 * (1.0 + tau));
    EXPECT_EQ(cap->values[1].to_double(), 2.0 * (10.0 + tau));
  }
  EXPECT_TRUE(dp.drained());
  EXPECT_EQ(dp.fma_ops(), 4u * 2u);
}

TEST(Datapath, ResetClearsState) {
  Geometry g{1, 1, 0};
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);
  const Float16 one = f16(1.0);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, false};
  issues[0].first_traversal = true;
  issues[0].w = one;
  issues[0].x = &one;
  dp.advance(issues);
  EXPECT_FALSE(dp.drained());
  dp.reset();
  EXPECT_TRUE(dp.drained());
  EXPECT_EQ(dp.fma_ops(), 0u);
}

TEST(Datapath, MisalignedScheduleAborts) {
  // Feeding column 1 before column 0's result is ready must trip the
  // self-checking tags (death test: the model refuses to compute garbage).
  Geometry g{2, 1, 0};  // two columns, latency 1
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(2);
  const Float16 one = f16(1.0);
  issues[1].active = true;  // column 1 with no upstream data
  issues[1].tag = PipeTag{0, 0, 0, false};
  issues[1].w = one;
  issues[1].x = &one;
  EXPECT_DEATH(dp.advance(issues), "upstream column bubble");
}

TEST(Datapath, MisalignedFeedbackAborts) {
  // A later traversal whose feedback partial carries another j-slot must
  // abort, whatever its live lane count.
  Geometry g{1, 1, 0};  // one column, latency 1: feedback arrives next cycle
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);
  const Float16 one = f16(1.0);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, false};
  issues[0].first_traversal = true;
  issues[0].w = one;
  issues[0].x = &one;
  dp.advance(issues);
  issues[0].tag = PipeTag{0, 1, 1, true};  // tau 1 meets tau 0's partial
  issues[0].first_traversal = false;
  issues[0].live_lanes = 0;
  EXPECT_DEATH(dp.advance(issues), "feedback schedule misaligned");
}

/// Full row pipeline: H=2 columns, P=0 (latency 1), L=1, j_slots=2.
/// Schedule: col c active at ac in [c, 2*n_chunks + c), tau = (ac-c) % 2.
TEST(Datapath, TwoColumnAccumulationWithFeedback) {
  Geometry g{2, 1, 0};
  Datapath dp(g);
  // Z[0][j] over N=4 (two traversals): x = [1, 2, 3, 4],
  // W = [[5, 6], [7, 8], [9, 10], [11, 12]] (n x j).
  const double x[4] = {1, 2, 3, 4};
  const double w[4][2] = {{5, 6}, {7, 8}, {9, 10}, {11, 12}};
  // Expected: z[j] = sum_n x[n]*w[n][j].
  const double ez0 = 1 * 5 + 2 * 7 + 3 * 9 + 4 * 11;
  const double ez1 = 1 * 6 + 2 * 8 + 3 * 10 + 4 * 12;

  std::vector<Datapath::ColumnIssue> issues(2);
  Float16 x_regs[2];
  std::vector<double> captured(2, -1);
  const unsigned n_chunks = 2, js = 2;
  for (unsigned ac = 0; ac < n_chunks * js + js; ++ac) {
    for (unsigned c = 0; c < 2; ++c) {
      auto& is = issues[c];
      const int local = static_cast<int>(ac) - static_cast<int>(c);
      if (local < 0 || local >= static_cast<int>(n_chunks * js)) {
        is = Datapath::ColumnIssue{};
        continue;
      }
      const unsigned trav = static_cast<unsigned>(local) / js;
      const unsigned tau = static_cast<unsigned>(local) % js;
      const unsigned n = trav * 2 + c;
      is.active = true;
      is.tag = PipeTag{0, trav, tau, trav == n_chunks - 1};
      is.first_traversal = trav == 0;
      is.w = f16(w[n][tau]);
      x_regs[c] = f16(x[n]);
      is.x = &x_regs[c];
    }
    const auto cap = dp.advance(issues);
    if (cap.has_value()) captured[cap->tag.tau] = cap->values[0].to_double();
  }
  EXPECT_EQ(captured[0], ez0);
  EXPECT_EQ(captured[1], ez1);
  EXPECT_TRUE(dp.drained());
}

TEST(Datapath, FmaOpsCountsAllLanes) {
  Geometry g{1, 4, 0};
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);
  const std::vector<Float16> x(4, f16(1.0));
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, false};
  issues[0].first_traversal = true;
  issues[0].w = f16(1.0);
  issues[0].x = x.data();
  dp.advance(issues);
  EXPECT_EQ(dp.fma_ops(), 4u);  // one issue x L rows
}

/// Runs an H=2, L=4, P=1 row schedule over two traversals (j_slots 4) with
/// \p live lanes per issue, seeding the first traversal from Y, and returns
/// every capture's values (j-slot major) plus the FMA count.
struct RowRun {
  std::vector<std::vector<Float16>> captures;
  uint64_t fma_ops = 0;
};
RowRun run_row(unsigned live) {
  const Geometry g{2, 4, 1};
  const unsigned js = g.j_slots(), n_chunks = 2, lat = g.fma_latency();
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(2);
  std::vector<Float16> x_regs(2 * g.l), y(g.l);
  RowRun run;
  run.captures.assign(js, {});
  for (unsigned ac = 0; ac < n_chunks * js + (g.h - 1) * lat + lat; ++ac) {
    for (unsigned c = 0; c < g.h; ++c) {
      auto& is = issues[c];
      const int local = static_cast<int>(ac) - static_cast<int>(c * lat);
      if (local < 0 || local >= static_cast<int>(n_chunks * js)) {
        is = Datapath::ColumnIssue{};
        continue;
      }
      const unsigned trav = static_cast<unsigned>(local) / js;
      const unsigned tau = static_cast<unsigned>(local) % js;
      const unsigned n = trav * g.h + c;
      is = Datapath::ColumnIssue{};
      is.active = true;
      is.tag = PipeTag{0, trav, tau, trav == n_chunks - 1};
      is.first_traversal = trav == 0;
      is.w = f16(0.5 + n + 0.25 * tau);
      for (unsigned r = 0; r < g.l; ++r) x_regs[c * g.l + r] = f16(1.0 + r - 0.125 * n);
      is.x = &x_regs[c * g.l];
      if (c == 0 && trav == 0) {
        for (unsigned r = 0; r < g.l; ++r) y[r] = f16(-3.0 + r + tau);
        is.init_acc = y.data();
      }
      is.live_lanes = live;
    }
    const auto cap = dp.advance(issues);
    if (cap.has_value())
      run.captures[cap->tag.tau].assign(cap->values, cap->values + g.l);
  }
  EXPECT_TRUE(dp.drained());
  run.fma_ops = dp.fma_ops();
  return run;
}

TEST(Datapath, LiveLanesElideOnlyDeadRows) {
  const RowRun full = run_row(~0u);
  for (const unsigned live : {0u, 1u, 3u}) {
    const RowRun part = run_row(live);
    // The FMA count covers every issued lane, live or not.
    EXPECT_EQ(part.fma_ops, full.fma_ops) << live;
    for (unsigned tau = 0; tau < full.captures.size(); ++tau) {
      ASSERT_EQ(part.captures[tau].size(), 4u);
      for (unsigned r = 0; r < live; ++r)
        EXPECT_EQ(part.captures[tau][r].bits(), full.captures[tau][r].bits())
            << "live " << live << " tau " << tau << " row " << r;
    }
  }
  // 2 columns x 2 traversals x 4 j-slots x L=4 lanes.
  EXPECT_EQ(full.fma_ops, 2u * 2u * 4u * 4u);
}

TEST(Datapath, CaptureViewHoldsUntilNextAdvance) {
  // H=1, P=0: the partial issued in one cycle is captured in the next, and
  // the view must keep its values while the next issue enters the pipe.
  Geometry g{1, 2, 0};
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);
  Float16 x[2] = {f16(3.0), f16(5.0)};
  issues[0].active = true;
  issues[0].first_traversal = true;
  issues[0].w = f16(2.0);
  issues[0].x = x;
  issues[0].tag = PipeTag{0, 0, 0, true};
  EXPECT_FALSE(dp.advance(issues).has_value());

  // Capture tau 0 while tau 1 issues from different operands.
  x[0] = f16(7.0);
  x[1] = f16(11.0);
  issues[0].tag = PipeTag{0, 0, 1, true};
  const auto cap0 = dp.advance(issues);
  ASSERT_TRUE(cap0.has_value());
  EXPECT_EQ(cap0->tag.tau, 0u);
  EXPECT_EQ(cap0->values[0].to_double(), 6.0);
  EXPECT_EQ(cap0->values[1].to_double(), 10.0);
  EXPECT_FALSE(dp.drained());  // tau 1 is in flight
  EXPECT_EQ(cap0->values[0].to_double(), 6.0);  // a const query moves nothing

  issues[0].active = false;
  const auto cap1 = dp.advance(issues);
  ASSERT_TRUE(cap1.has_value());
  EXPECT_EQ(cap1->tag.tau, 1u);
  EXPECT_EQ(cap1->values[0].to_double(), 14.0);
  EXPECT_EQ(cap1->values[1].to_double(), 22.0);
  // Fully drained, although the retired position still holds tau 1's valid
  // output (and the view into it still reads correctly).
  EXPECT_TRUE(dp.drained());
  EXPECT_EQ(cap1->values[1].to_double(), 22.0);
  EXPECT_FALSE(dp.advance(issues).has_value());
  EXPECT_TRUE(dp.drained());
  dp.reset();
  EXPECT_TRUE(dp.drained());
}

}  // namespace
}  // namespace redmule::core
