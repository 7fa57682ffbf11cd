/// \file datapath.hpp
/// \brief RedMulE's semi-systolic FMA array (paper Fig. 2b/2d).
///
/// L rows by H columns of FP16 FMA units. Within a row, column c passes its
/// result to column c+1 through P+1 pipeline stages; the last column feeds
/// back into the first one (accumulation input), so a row keeps
/// H*(P+1) partial dot products ("j-slots") in flight at all times.
///
/// The model simulates every pipeline register -- with real FP16 arithmetic
/// on every lane a Z store can observe -- and carries (tile, traversal,
/// j-slot) tags alongside the data. The tags are
/// redundant with the schedule -- the hardware has none -- but let the model
/// assert, every cycle, that operands meet exactly when the schedule says
/// they must. A scheduling bug therefore aborts instead of silently
/// computing garbage.
///
/// Lanes whose result no Z store can observe are not computed: an issue's
/// \c live_lanes bounds the rows that run their FMA, and the rows above it
/// keep stale values (see "Liveness" in docs/ARCHITECTURE.md). Tags, timing
/// and the FMA count cover every lane either way. The engine asks for every
/// lane when a schedule observer is attached or the FMA fast path is
/// switched off: fp16::set_fast_fma_enabled(false) thus selects both the
/// soft-float core and full compute.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "fp16/float16.hpp"

namespace redmule::core {

/// Identity of one in-flight partial result.
struct PipeTag {
  uint64_t tile = 0;    ///< global tile sequence number
  uint32_t trav = 0;    ///< feedback traversal index t (n-chunk)
  uint32_t tau = 0;     ///< j-slot index within the tile (0 .. j_slots-1)
  bool last_traversal = false;  ///< completes a Z element when true

  bool operator==(const PipeTag&) const = default;
};

class Datapath {
 public:
  explicit Datapath(const Geometry& g);

  /// Issue descriptor for one column in the current cycle.
  struct ColumnIssue {
    bool active = false;
    PipeTag tag;
    bool first_traversal = false;        ///< accumulate from init, not feedback
    fp16::Float16 w;                     ///< broadcast W element
    const fp16::Float16* x = nullptr;    ///< per-row X operands (L of them)
    /// First-traversal accumulator initialization: zeros for Z = X*W, the
    /// streamed Y elements (L of them) for the Z = Y + X*W extension. Null
    /// means zeros.
    const fp16::Float16* init_acc = nullptr;
    /// Rows that run their FMA this cycle (clamped to L); rows at or above
    /// it keep stale values. Defaults to every row.
    unsigned live_lanes = ~0u;
  };

  /// Finished Z-row chunk emerging from the last column. A view into the
  /// pipeline: \c values stays valid until the next advance() or reset().
  struct Capture {
    PipeTag tag;
    const fp16::Float16* values = nullptr;  ///< one Z element per row (L)
  };

  /// Advances the array by one (unstalled) cycle. \p issues has exactly H
  /// entries. Returns the capture output if a last-traversal entry emerged.
  std::optional<Capture> advance(const std::vector<ColumnIssue>& issues);

  /// Clears all pipeline state (soft clear).
  void reset();

  const Geometry& geometry() const { return geom_; }
  /// FMA operations issued (L per active column and cycle, padded and
  /// elided lanes included), for the power model's activity factor.
  uint64_t fma_ops() const { return fma_ops_; }
  /// True if no valid data is in flight.
  bool drained() const;

 private:
  /// Ring position of the output retired by the last advance(); stage s
  /// (0 = newest, P = output) sits at head_ + s, modulo the ring.
  unsigned retired_pos() const { return head_ == 0 ? ring_ - 1 : head_ - 1; }
  size_t slot(unsigned c, unsigned position) const {
    return static_cast<size_t>(c) * ring_ + position;
  }

  Geometry geom_;
  /// P+1 stages plus one free position per column: advance() writes the new
  /// stage 0 into the free position, so every column's previous output
  /// stays readable for the whole cycle (column c reads c-1's, column 0
  /// reads H-1's feedback). All columns shift together, so one head serves
  /// every ring.
  unsigned ring_;
  unsigned head_ = 0;  ///< ring position of stage 0
  /// Partials, [H][ring][L]; tags and valid bits, [H][ring].
  std::vector<fp16::Float16> vals_;
  std::vector<PipeTag> tags_;
  std::vector<uint8_t> valid_;
  uint64_t fma_ops_ = 0;
};

}  // namespace redmule::core
