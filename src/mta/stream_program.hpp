// Abstract instruction streams executed by the MTA simulator.
//
// A StreamProgram is a generator of abstract instructions. The simulator
// does not interpret real Tera assembly; it models the *costs and
// synchronization behaviour* of instruction streams, which is what the
// paper's results depend on: issue-slot pressure, memory latency masking,
// full/empty-bit blocking, and thread creation overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mta/sync_memory.hpp"

namespace tc3i::mta {

class StreamProgram;

// Region annotations -------------------------------------------------------
//
// Workload builders tag each StreamProgram with a region — a named phase of
// the benchmark ("correlate", "masking_row", ...) — and the machine rolls
// issued instructions and stream lifetimes up per region (RunRecord's
// `regions` section). Region ids are process-global, get-or-create, and
// id 0 is always "main". Names must use the counter-name charset
// [a-z0-9_.].

/// Returns the id for `name`, interning it on first use.
[[nodiscard]] int region_id(std::string_view name);

/// The name behind an id previously returned by region_id().
[[nodiscard]] const std::string& region_name(int id);

/// Number of interned regions (ids are [0, region_count())).
[[nodiscard]] int region_count();

struct Instr {
  enum class Op : std::uint8_t {
    Compute,    ///< `count` back-to-back ALU instructions
    Load,       ///< unsynchronized memory read
    Store,      ///< unsynchronized memory write
    SyncLoad,   ///< full/empty synchronized read (blocks until FULL)
    SyncStore,  ///< full/empty synchronized write (blocks until EMPTY)
    Spawn,      ///< create a new stream running `spawn`
    Quit,       ///< stream terminates
  };

  // The one-byte fields follow the 8-byte ones, so no padding sits
  // between them: programs hold millions of these.
  std::uint64_t count = 1;        ///< Compute/Load/Store: repeat count
  Address addr = 0;               ///< memory ops
  Word value = 0;                 ///< stores
  StreamProgram* spawn = nullptr; ///< Spawn only (non-owning)
  Op op = Op::Quit;
  bool software_spawn = false;    ///< 50-100 cycle software thread creation
};
static_assert(sizeof(Instr) <= 40);

/// Interface: yields the next instruction, returns false at end of stream
/// (equivalent to an implicit Quit).
class StreamProgram {
 public:
  virtual ~StreamProgram() = default;

  /// Produces the next instruction. Returns false when the stream is done.
  virtual bool next(Instr& out) = 0;

  /// Called with the value delivered by a completed synchronized load,
  /// for programs whose control flow depends on loaded data.
  virtual void deliver(Word /*value*/) {}

  /// Non-null when this program is a VectorProgram. The simulator's issue
  /// loop fetches through the concrete type (a direct, inlinable call)
  /// when it can — trace replay is the dominant workload.
  [[nodiscard]] virtual class VectorProgram* as_vector() { return nullptr; }

  /// The region this stream's work is attributed to (default 0, "main").
  [[nodiscard]] int region() const { return region_; }
  void set_region(int id) { region_ = id; }

 private:
  int region_ = 0;
};

/// A fixed pre-built instruction sequence (the workhorse for trace replay).
class VectorProgram final : public StreamProgram {
 public:
  VectorProgram() = default;
  explicit VectorProgram(std::vector<Instr> instrs)
      : instrs_(std::move(instrs)) {}

  // Builder interface -------------------------------------------------------
  void compute(std::uint64_t n);
  void load(Address addr, std::uint64_t n = 1);
  void store(Address addr, Word value = 0, std::uint64_t n = 1);
  void sync_load(Address addr);
  void sync_store(Address addr, Word value = 0);
  void spawn(StreamProgram* program, bool software = false);

  [[nodiscard]] std::size_t instruction_entries() const {
    return instrs_.size();
  }
  [[nodiscard]] std::uint64_t total_instructions() const;

  bool next(Instr& out) override {
    if (pos_ >= instrs_.size()) return false;
    out = instrs_[pos_++];
    return true;
  }
  [[nodiscard]] VectorProgram* as_vector() override { return this; }

 private:
  std::vector<Instr> instrs_;
  std::size_t pos_ = 0;
};

/// A program defined by a callback (used by tests and by programs whose
/// behaviour depends on synchronized loads, e.g. fetch-and-add loops).
class CallbackProgram final : public StreamProgram {
 public:
  using NextFn = std::function<bool(Instr&)>;
  using DeliverFn = std::function<void(Word)>;

  explicit CallbackProgram(NextFn next_fn, DeliverFn deliver_fn = nullptr)
      : next_fn_(std::move(next_fn)), deliver_fn_(std::move(deliver_fn)) {}

  bool next(Instr& out) override { return next_fn_(out); }
  void deliver(Word value) override {
    if (deliver_fn_) deliver_fn_(value);
  }

 private:
  NextFn next_fn_;
  DeliverFn deliver_fn_;
};

/// Owns a set of programs with stable addresses (spawn targets must outlive
/// the machine run).
class ProgramPool {
 public:
  VectorProgram* make_vector();
  CallbackProgram* make_callback(CallbackProgram::NextFn next_fn,
                                 CallbackProgram::DeliverFn deliver_fn = nullptr);

  [[nodiscard]] std::size_t size() const { return programs_.size(); }

 private:
  std::vector<std::unique_ptr<StreamProgram>> programs_;
};

}  // namespace tc3i::mta
