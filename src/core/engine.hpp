/// \file engine.hpp
/// \brief RedMulE top level: Scheduler + Controller FSM driving the datapath,
///        the three buffers and the streamer (paper Fig. 1, right side).
///
/// The engine executes offloaded jobs Z = X * W. Per cycle it either
/// *advances* the array (all columns issue according to the rigid systolic
/// schedule of §II-C) or *stalls globally* when an operand line has not
/// arrived or the Z-buffer is full -- the all-or-nothing enable of a real
/// HWPE. Cycle counts therefore include startup (X-buffer preload), pipeline
/// fill, memory contention, and drain, which is exactly what the paper's
/// utilization plots measure.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/buffers.hpp"
#include "core/config.hpp"
#include "core/datapath.hpp"
#include "core/regfile.hpp"
#include "core/streamer.hpp"
#include "mem/hci.hpp"
#include "sim/simulator.hpp"

namespace redmule::core {

/// Per-job performance counters.
struct JobStats {
  uint64_t cycles = 0;          ///< trigger to done
  uint64_t advance_cycles = 0;  ///< cycles the array moved
  uint64_t stall_cycles = 0;    ///< cycles the array was frozen
  uint64_t macs = 0;            ///< useful MACs (M*N*K)
  uint64_t fma_ops = 0;         ///< FMA issues incl. padded and elided lanes

  double macs_per_cycle() const {
    return cycles == 0 ? 0.0 : static_cast<double>(macs) / static_cast<double>(cycles);
  }
  /// Fraction of the ideal (H*L MACs/cycle) actually achieved.
  double utilization(const Geometry& g) const {
    return macs_per_cycle() / static_cast<double>(g.n_fmas());
  }
};

class RedmuleEngine : public sim::Clocked {
 public:
  RedmuleEngine(const Geometry& g, mem::Hci& hci);

  // --- Peripheral-interconnect side (cores program the accelerator) --------
  /// Register write; a TRIGGER write validates and starts the job.
  void reg_write(uint32_t offset, uint32_t value);
  uint32_t reg_read(uint32_t offset) const { return regfile_.read(offset); }

  bool busy() const { return state_ == Fsm::kRunning; }
  /// Event line toward the cluster event unit; cleared by the reader.
  bool take_done_event();

  const Geometry& geometry() const { return geom_; }
  const RegFile& regfile() const { return regfile_; }
  const JobStats& last_job_stats() const { return last_stats_; }
  const Streamer& streamer() const { return streamer_; }

  /// Debug/visualization hook: invoked after every successful array advance
  /// with the schedule counter, the issue set (inactive columns have
  /// active = false) and the capture, if any. Used by the Fig. 2 schedule
  /// bench and by schedule-verification tests; zero cost when unset. A job
  /// started while an observer is attached computes every lane (no
  /// liveness elision), so the issues and captures it sees are complete.
  using ScheduleObserver =
      std::function<void(uint64_t ac, const std::vector<Datapath::ColumnIssue>&,
                         const std::optional<Datapath::Capture>&)>;
  void set_schedule_observer(ScheduleObserver obs) {
    observer_ = std::move(obs);
    // Cache the engaged/empty state so the hot loop tests one bool instead
    // of dispatching through the std::function emptiness check every advance.
    observer_active_ = static_cast<bool>(observer_);
  }

  /// In-place re-initialization to the freshly-constructed state: aborts any
  /// running job, clears datapath/buffers/streamer/register file and all
  /// job statistics. Strictly stronger than a kRegSoftClear write (which
  /// keeps job ids and programmed job registers). Part of the cluster reset
  /// path used by pooled batch workers; the debug observer is testbench
  /// wiring and survives.
  void reset();

  // --- Snapshot surface (state/snapshot.hpp) --------------------------------
  /// Persistent engine state at quiescence: the register file (programmed
  /// job registers *and* the hwpe-ctrl job-id/finished counters), the job
  /// statistics, the pending done event, and the streamer's cumulative
  /// counters. Everything else -- datapath, buffers, schedule scratch -- is
  /// rebuilt by start_job() and drained at job end, so restore_state()
  /// reconstructs it with reset() and installs the persistent side.
  struct State {
    RegFile regfile;
    JobStats cur_stats;
    JobStats last_stats;
    bool done_event = false;
    Streamer::State streamer;
  };
  /// Requires is_idle(): a running engine is mid-schedule, not capturable.
  State save_state() const;
  void restore_state(const State& s);

  // --- Clocked ---------------------------------------------------------------
  void tick() override;
  void commit() override;
  /// Quiescent when no job is running and the streamer has fully drained;
  /// the only way to wake up is an external reg_write(), so tick()/commit()
  /// are no-ops until then (see sim::Clocked::is_idle contract).
  bool is_idle() const override {
    return state_ == Fsm::kIdle && streamer_.idle();
  }

 private:
  enum class Fsm { kIdle, kRunning };

  /// One column's position in the systolic schedule. Column c runs the same
  /// sequence of (tile, trav, tau) slots as column 0, fma_latency() cycles
  /// later; the cursor steps through it by one slot per array advance, so
  /// the hot loop never divides.
  struct ColCursor {
    int64_t local = 0;   ///< slot index; negative while the column waits
    uint64_t tile = 0;
    uint32_t trav = 0;
    uint32_t tau = 0;
    unsigned mt = 0;     ///< tile / k_tiles
    unsigned kt = 0;     ///< tile % k_tiles
    uint64_t n = 0;      ///< X column / W row: trav * H + c
    uint32_t q = 0;      ///< X group holding n: n / j_slots
    unsigned off = 0;    ///< n % j_slots
    unsigned live_rows = 0;  ///< Z rows the tile stores: valid_rows(mt)
    unsigned live_cols = 0;  ///< Z columns the tile stores: valid_cols(kt)
    const WLine* wline = nullptr;  ///< phase-1 lookup, consumed by phase 2
  };

  void start_job();
  void finish_job();
  bool try_advance();
  /// Moves \p cu to its first slot of tile (mt, kt) and loads the tile's
  /// liveness extents.
  void enter_tile(ColCursor& cu, unsigned c, unsigned mt, unsigned kt) const;
  void step_cursor(ColCursor& cu, unsigned c) const;

  Geometry geom_;
  mem::Hci& hci_;
  RegFile regfile_;
  Datapath datapath_;
  XBuffer xbuf_;
  XBuffer ybuf_;  ///< Y-accumulation lines (extension; one group per tile)
  WBuffer wbuf_;
  ZBuffer zbuf_;
  Streamer streamer_;

  Fsm state_ = Fsm::kIdle;
  Job job_;
  std::optional<Tiling> tiling_;
  uint64_t ac_ = 0;          ///< array schedule counter (advance steps)
  uint64_t total_span_ = 0;  ///< issue window length = tiles * n_chunks * j_slots
  bool done_event_ = false;
  /// Compute only the lanes a Z store can observe. Decided per job in
  /// start_job(): off while a schedule observer is attached (it sees every
  /// lane) or the FMA fast path is switched off (the soft-core reference).
  bool elide_ = false;
  /// (mt, kt) of the next tile to close; tiles close in sequence order.
  unsigned close_mt_ = 0;
  unsigned close_kt_ = 0;
  /// Per-column X operand registers, [H][L]: loaded from the X-buffer at the
  /// first j-slot of each traversal and held for the whole H*(P+1) window,
  /// as the paper describes ("X-matrix elements of each FMA are held
  /// steady"). Issues point into it.
  std::vector<fp16::Float16> x_regs_;
  /// Column 0's Y-injection operands of the current cycle (L of them).
  std::vector<fp16::Float16> y_init_;
  /// Per-column schedule cursors and issue descriptors: sized once at
  /// construction (H entries each), reset in start_job(), reused every
  /// cycle without allocation.
  std::vector<ColCursor> cursors_;
  std::vector<Datapath::ColumnIssue> issues_;

  JobStats cur_stats_;
  JobStats last_stats_;
  ScheduleObserver observer_;
  bool observer_active_ = false;  ///< cached observer_ engagement (hot path)
};

}  // namespace redmule::core
