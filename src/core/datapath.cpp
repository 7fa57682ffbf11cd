#include "core/datapath.hpp"

#include <algorithm>

namespace redmule::core {

using fp16::Float16;

Datapath::Datapath(const Geometry& g) : geom_(g), ring_(g.fma_latency() + 1) {
  g.validate();
  const size_t slots = static_cast<size_t>(g.h) * ring_;
  vals_.resize(slots * g.l);
  tags_.resize(slots);
  valid_.resize(slots);
}

void Datapath::reset() {
  head_ = 0;
  std::fill(vals_.begin(), vals_.end(), Float16{});
  std::fill(tags_.begin(), tags_.end(), PipeTag{});
  std::fill(valid_.begin(), valid_.end(), uint8_t{0});
  fma_ops_ = 0;
}

bool Datapath::drained() const {
  // Every position but the retired one holds a stage; the retired position
  // may still hold last cycle's (already consumed) output.
  const unsigned retired = retired_pos();
  for (unsigned c = 0; c < geom_.h; ++c)
    for (unsigned i = 0; i < ring_; ++i)
      if (i != retired && valid_[slot(c, i)]) return false;
  return true;
}

std::optional<Datapath::Capture> Datapath::advance(
    const std::vector<ColumnIssue>& issues) {
  const unsigned h = geom_.h;
  const unsigned l = geom_.l;
  REDMULE_ASSERT(issues.size() == h);

  // Shift every pipe one stage deeper by moving the head onto the free
  // position. Last cycle's stage P -- each column's registered output --
  // becomes the retired position and stays intact until the next advance,
  // so it can feed the next column (or column 0, through feedback) while
  // this cycle's issues are written into the new stage 0.
  head_ = retired_pos();
  const unsigned out = retired_pos();

  for (unsigned c = 0; c < h; ++c) {
    const ColumnIssue& issue = issues[c];
    const size_t in = slot(c, head_);
    valid_[in] = issue.active;
    if (!issue.active) continue;
    REDMULE_ASSERT(issue.x != nullptr);
    tags_[in] = issue.tag;

    // Accumulation input: previous column's output, the feedback path for
    // column 0, or the init values (null: zero) on a tile's first traversal.
    const Float16* acc = issue.init_acc;
    if (c > 0) {
      const size_t up = slot(c - 1, out);
      REDMULE_ASSERT_MSG(valid_[up], "upstream column bubble at issue time");
      REDMULE_ASSERT_MSG(tags_[up] == issue.tag, "systolic schedule misaligned");
      acc = &vals_[up * l];
    } else if (!issue.first_traversal) {
      const size_t fb = slot(h - 1, out);
      const PipeTag& t = tags_[fb];
      REDMULE_ASSERT_MSG(valid_[fb], "feedback bubble at issue time");
      REDMULE_ASSERT_MSG(t.tile == issue.tag.tile && t.trav + 1 == issue.tag.trav &&
                             t.tau == issue.tag.tau,
                         "feedback schedule misaligned");
      acc = &vals_[fb * l];
    }

    // A lane only ever feeds the same lane of the same (tile, tau) -- the
    // tags asserted above -- so lanes at or above live_lanes are dead all
    // the way to the Z-buffer and are left stale.
    Float16* dst = &vals_[in * l];
    const unsigned live = std::min(issue.live_lanes, l);
    if (acc != nullptr) {
      for (unsigned r = 0; r < live; ++r) dst[r] = Float16::fma(issue.x[r], issue.w, acc[r]);
    } else {
      for (unsigned r = 0; r < live; ++r)
        dst[r] = Float16::fma(issue.x[r], issue.w, Float16{});
    }
    fma_ops_ += l;
  }

  // A last-traversal entry emerging from the final column is a finished
  // chunk of Z destined for the Z-buffer.
  const size_t last = slot(h - 1, out);
  if (valid_[last] && tags_[last].last_traversal)
    return Capture{tags_[last], &vals_[last * l]};
  return std::nullopt;
}

}  // namespace redmule::core
