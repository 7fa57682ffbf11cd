#include "core/engine.hpp"

#include <algorithm>

namespace redmule::core {

using fp16::Float16;

RedmuleEngine::RedmuleEngine(const Geometry& g, mem::Hci& hci)
    : geom_(g),
      hci_(hci),
      datapath_(g),
      xbuf_(g),
      ybuf_(g),
      wbuf_(g),
      zbuf_(g),
      streamer_(g, hci, xbuf_, ybuf_, wbuf_, zbuf_) {
  g.validate();
  // The streamer must fit a whole (possibly 16-bit-misaligned) line into one
  // shallow access: j_slots/2 words of payload + 1 word for misalignment.
  REDMULE_REQUIRE(g.j_slots() / 2 + 1 <= hci.config().shallow_words,
                  "HCI shallow port too narrow for this geometry");
  REDMULE_REQUIRE(g.j_slots() <= 32,
                  "cycle model supports up to 32 j-slots (use the analytical "
                  "model for wider geometries)");
  x_regs_.assign(static_cast<size_t>(g.h) * g.l, Float16{});
  y_init_.assign(g.l, Float16{});
  cursors_.resize(g.h);
  issues_.resize(g.h);
}

void RedmuleEngine::reg_write(uint32_t offset, uint32_t value) {
  const bool triggered = regfile_.write(offset, value);
  if (offset == kRegSoftClear) {
    // Abort any running job and clear all state.
    state_ = Fsm::kIdle;
    datapath_.reset();
    xbuf_.reset();
    ybuf_.reset();
    wbuf_.reset();
    zbuf_.reset();
    streamer_.soft_clear();
    done_event_ = false;
    return;
  }
  if (triggered) start_job();
}

void RedmuleEngine::reset() {
  state_ = Fsm::kIdle;
  regfile_.reset();
  datapath_.reset();
  xbuf_.reset();
  ybuf_.reset();
  wbuf_.reset();
  zbuf_.reset();
  streamer_.reset();
  job_ = Job{};
  tiling_.reset();
  ac_ = 0;
  total_span_ = 0;
  done_event_ = false;
  elide_ = false;
  close_mt_ = 0;
  close_kt_ = 0;
  std::fill(x_regs_.begin(), x_regs_.end(), Float16{});
  std::fill(y_init_.begin(), y_init_.end(), Float16{});
  std::fill(cursors_.begin(), cursors_.end(), ColCursor{});
  std::fill(issues_.begin(), issues_.end(), Datapath::ColumnIssue{});
  cur_stats_ = JobStats{};
  last_stats_ = JobStats{};
}

RedmuleEngine::State RedmuleEngine::save_state() const {
  REDMULE_REQUIRE(is_idle(), "engine snapshot requires an idle accelerator");
  State s;
  s.regfile = regfile_;
  s.cur_stats = cur_stats_;
  s.last_stats = last_stats_;
  s.done_event = done_event_;
  s.streamer = streamer_.save_state();
  return s;
}

void RedmuleEngine::restore_state(const State& s) {
  reset();
  regfile_ = s.regfile;
  cur_stats_ = s.cur_stats;
  last_stats_ = s.last_stats;
  done_event_ = s.done_event;
  streamer_.restore_state(s.streamer);
}

bool RedmuleEngine::take_done_event() {
  const bool e = done_event_;
  done_event_ = false;
  return e;
}

void RedmuleEngine::start_job() {
  job_ = regfile_.job();
  job_.validate();
  tiling_.emplace(job_, geom_);
  regfile_.on_job_started();
  datapath_.reset();
  streamer_.start(job_);
  ac_ = 0;
  total_span_ = static_cast<uint64_t>(tiling_->tiles()) * tiling_->n_chunks *
                geom_.j_slots();
  // Full compute for observers (they see every lane) and under the FMA
  // kill switch (the soft-core reference computes everything).
  elide_ = !observer_active_ && fp16::fast_fma_enabled();
  close_mt_ = 0;
  close_kt_ = 0;
  std::fill(x_regs_.begin(), x_regs_.end(), Float16{});
  std::fill(y_init_.begin(), y_init_.end(), Float16{});
  for (unsigned c = 0; c < geom_.h; ++c) {
    ColCursor& cu = cursors_[c];
    cu = ColCursor{};
    cu.local = -static_cast<int64_t>(c) * geom_.fma_latency();
    enter_tile(cu, c, 0, 0);
  }
  std::fill(issues_.begin(), issues_.end(), Datapath::ColumnIssue{});
  cur_stats_ = JobStats{};
  cur_stats_.macs = job_.macs();
  state_ = Fsm::kRunning;
}

void RedmuleEngine::finish_job() {
  streamer_.stop();
  cur_stats_.fma_ops = datapath_.fma_ops();
  last_stats_ = cur_stats_;
  regfile_.on_job_finished();
  done_event_ = true;
  state_ = Fsm::kIdle;
}

void RedmuleEngine::enter_tile(ColCursor& cu, unsigned c, unsigned mt,
                               unsigned kt) const {
  const unsigned js = geom_.j_slots();
  cu.mt = mt;
  cu.kt = kt;
  cu.trav = 0;
  cu.tau = 0;
  cu.n = c;  // c < H <= j_slots: group 0, offset c
  cu.q = 0;
  cu.off = c;
  // The same extents close_tile() stores. Past the last tile the column is
  // idle and the extents are never read.
  if (mt < tiling_->m_tiles) {
    cu.live_rows = std::min<unsigned>(geom_.l, job_.m - mt * geom_.l);
    cu.live_cols = std::min<unsigned>(js, job_.k - kt * js);
  }
}

void RedmuleEngine::step_cursor(ColCursor& cu, unsigned c) const {
  if (cu.local++ < 0) return;  // not yet at slot 0
  const unsigned js = geom_.j_slots();
  if (++cu.tau < js) return;
  cu.tau = 0;
  if (++cu.trav < tiling_->n_chunks) {
    cu.n += geom_.h;
    cu.off += geom_.h;  // H <= j_slots: wraps at most once
    if (cu.off >= js) {
      cu.off -= js;
      ++cu.q;
    }
    return;
  }
  ++cu.tile;
  if (cu.kt + 1 < tiling_->k_tiles)
    enter_tile(cu, c, cu.mt, cu.kt + 1);
  else
    enter_tile(cu, c, cu.mt + 1, 0);
}

bool RedmuleEngine::try_advance() {
  const unsigned h = geom_.h;
  const unsigned l = geom_.l;
  const unsigned js = geom_.j_slots();
  const uint32_t last_trav = tiling_->n_chunks - 1;
  const int64_t span = static_cast<int64_t>(total_span_);

  // --- Phase 1: check every requirement; stall on any miss (global HWPE
  // enable, nothing moves on a stall -- the cursors included).
  for (unsigned c = 0; c < h; ++c) {
    ColCursor& cu = cursors_[c];
    if (cu.local < 0 || cu.local >= span) continue;
    if (cu.n < job_.n) {  // padded columns (n >= N) involve no buffer
      // The W element is consumed from the column's shift register every
      // cycle of the traversal window.
      cu.wline = wbuf_.front_if(c, cu.tile, cu.trav);
      if (cu.wline == nullptr) return false;
      // The X operand registers load from the X-buffer at tau == 0 only;
      // afterwards the line may be retired (the operands are held locally).
      if (cu.tau == 0 && xbuf_.find_ready(cu.tile, cu.q) == nullptr) return false;
    }
    // Accumulation input: column 0 injects Y on the first traversal.
    if (job_.accumulate && c == 0 && cu.trav == 0 &&
        ybuf_.find_ready(cu.tile, 0) == nullptr)
      return false;
    // Z capture-buffer reservation at the start of a tile's last traversal
    // in the final column; the capture itself begins fma_latency later.
    if (c == h - 1 && cu.trav == last_trav && cu.tau == 0 && !zbuf_.can_open_tile())
      return false;
  }

  // --- Phase 2: all operands present; perform latches, pops, and the
  // datapath step.
  for (unsigned c = 0; c < h; ++c) {
    const ColCursor& cu = cursors_[c];
    Datapath::ColumnIssue& issue = issues_[c];
    if (cu.local < 0 || cu.local >= span) {
      issue = Datapath::ColumnIssue{};  // observers see no stale operands
      continue;
    }
    const bool padded = cu.n >= job_.n;
    Float16* x_reg = &x_regs_[static_cast<size_t>(c) * l];
    if (cu.tau == 0) {
      // Operand-register load: latch the X elements for this traversal.
      if (padded) {
        std::fill(x_reg, x_reg + l, Float16{});
      } else {
        XGroup* grp = xbuf_.find_ready(cu.tile, cu.q);
        REDMULE_ASSERT(grp != nullptr);
        for (unsigned r = 0; r < l; ++r) x_reg[r] = grp->rows[r][cu.off];
        // Retire the line group once its last operand load happened.
        ++grp->uses;
        const uint32_t n0 = cu.q * js;
        const uint32_t expected = std::min<uint32_t>(js, job_.n - n0);
        if (grp->uses == expected) xbuf_.pop_front();
      }
    }

    issue.active = true;
    issue.tag = PipeTag{cu.tile, cu.trav, cu.tau, cu.trav == last_trav};
    issue.first_traversal = cu.trav == 0;
    issue.x = x_reg;
    issue.init_acc = nullptr;
    // Liveness: only the Z elements close_tile() stores are computed.
    issue.live_lanes = !elide_ ? l : cu.tau < cu.live_cols ? cu.live_rows : 0;
    if (job_.accumulate && c == 0 && cu.trav == 0) {
      XGroup* ygrp = ybuf_.find_ready(cu.tile, 0);
      REDMULE_ASSERT(ygrp != nullptr);
      for (unsigned r = 0; r < l; ++r) y_init_[r] = ygrp->rows[r][cu.tau];
      issue.init_acc = y_init_.data();
      if (cu.tau == js - 1) ybuf_.pop_front();  // Y tile fully injected
    }
    // Padded columns broadcast zero: a stale W from an earlier cycle
    // (possibly Inf/NaN) must not leak into their FMAs.
    issue.w = Float16{};
    if (!padded) {
      REDMULE_ASSERT(cu.wline != nullptr);
      issue.w = cu.wline->elems[cu.tau];
      if (cu.tau == js - 1) wbuf_.pop(c);  // line fully broadcast
    }
    if (c == h - 1 && cu.trav == last_trav && cu.tau == 0) zbuf_.open_tile(cu.tile);
  }

  const std::optional<Datapath::Capture> cap = datapath_.advance(issues_);
  if (observer_active_) observer_(ac_, issues_, cap);
  if (cap.has_value()) {
    zbuf_.capture(cap->tag.tile, cap->tag.tau, cap->values);
    if (cap->tag.tau == js - 1) {  // tile fully captured: emit row stores
      zbuf_.close_tile(cap->tag.tile, job_.z_ptr, job_, close_mt_, close_kt_);
      if (++close_kt_ == tiling_->k_tiles) {
        close_kt_ = 0;
        ++close_mt_;
      }
    }
  }
  for (unsigned c = 0; c < h; ++c) step_cursor(cursors_[c], c);
  ++ac_;
  return true;
}

void RedmuleEngine::tick() {
  if (state_ == Fsm::kRunning) {
    ++cur_stats_.cycles;
    if (ac_ < total_span_ + geom_.j_slots()) {
      if (try_advance())
        ++cur_stats_.advance_cycles;
      else
        ++cur_stats_.stall_cycles;
    }
    // Job completes when the schedule ran out, the array drained, and every
    // Z store left the cluster.
    if (ac_ >= total_span_ + geom_.j_slots() && datapath_.drained() &&
        zbuf_.drained() && streamer_.idle()) {
      finish_job();
    }
  }
  streamer_.tick();
}

void RedmuleEngine::commit() { streamer_.commit(); }

}  // namespace redmule::core
