// Configuration of a conventional shared-memory multiprocessor model.
//
// The model captures exactly the machine characteristics the paper's
// conventional-platform results depend on:
//   - an effective per-processor compute rate (instructions/second, folding
//     clock speed, issue width and pipeline efficiency into one calibrated
//     number),
//   - a memory system with a per-processor draw limit and a total shared-bus
//     limit (the ratio of the two bounds the speedup of memory-bound
//     programs such as Terrain Masking),
//   - OS-level thread and lock costs, which the paper contrasts with the
//     Tera MTA's few-cycle equivalents.
#pragma once

#include <string>

#include "core/units.hpp"

namespace tc3i::smp {

struct SmpConfig {
  std::string name;

  int num_processors = 1;
  double clock_hz = 0.0;

  /// Effective sequential compute rate of one processor (abstract
  /// instructions per second). Calibrated from the paper's sequential rows.
  double compute_rate_ips = 0.0;

  /// Bytes/second a single processor can draw from memory.
  double mem_bw_single = 0.0;

  /// Total bytes/second the shared bus sustains across all processors.
  /// mem_bw_total / mem_bw_single bounds memory-bound speedup.
  double mem_bw_total = 0.0;

  /// OS thread creation cost ("tens of thousands to hundreds of thousands
  /// of cycles" on conventional platforms, per the paper).
  Cycles thread_spawn_cycles = 50'000.0;

  /// Lock acquire/release overhead ("hundreds to thousands of cycles").
  Cycles lock_cycles = 400.0;

  [[nodiscard]] Seconds spawn_seconds() const {
    return thread_spawn_cycles / clock_hz;
  }
  [[nodiscard]] Seconds lock_seconds() const { return lock_cycles / clock_hz; }

  /// Checks the configuration is physically sensible. Returns an empty
  /// string when valid, else a description of the defect.
  [[nodiscard]] std::string validate() const;
};

}  // namespace tc3i::smp
