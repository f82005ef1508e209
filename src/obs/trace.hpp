#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/prof.hpp"

namespace mhm::obs {

/// The span ring behind `/trace`, `mhm_tool metrics --spans` and the
/// `== trace ==` section of .mhmi bundles.
///
/// Spans are written by `PROF_ZONE` (obs/prof): an outermost zone appends
/// one SpanRecord on exit, parented on the innermost zone still open on
/// the calling thread. A record names its stage, not a string, so every
/// name the ring can render is a `prof::stage_name()` literal. A ring write
/// is one mutex'd slot copy and allocates nothing.

/// One completed span.
struct SpanRecord {
  std::uint64_t id = 0;         ///< Process-unique, 1-based.
  std::uint64_t parent_id = 0;  ///< 0 = root span of its thread.
  prof::Stage stage = prof::Stage::kAnalyze;
  std::size_t thread_shard = 0; ///< obs::thread_shard() of the recording thread.
  std::uint64_t start_ns = 0;   ///< Monotonic (steady_clock) nanoseconds.
  std::uint64_t duration_ns = 0;

  const char* name() const { return prof::stage_name(stage); }
};

/// Process-wide bounded ring of completed spans; oldest entries are
/// overwritten once `capacity()` is exceeded.
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  static SpanBuffer& instance();

  /// Oldest-to-newest copy of the retained records.
  std::vector<SpanRecord> snapshot() const;

  /// Spans recorded since process start (including overwritten ones).
  std::uint64_t total_recorded() const;

  std::size_t capacity() const;
  /// Resize the ring; existing records are dropped (tests).
  void set_capacity(std::size_t capacity);
  void clear();

  /// Append one completed record (closing zones; tests inject their own).
  void record(const SpanRecord& rec);

 private:
  explicit SpanBuffer(std::size_t capacity);

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;        ///< Next write position.
  std::size_t size_ = 0;        ///< Valid records in the ring.
  std::uint64_t total_ = 0;
};

}  // namespace mhm::obs
