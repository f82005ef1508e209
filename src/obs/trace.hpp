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
/// name the ring can render is a `prof::stage_name()` literal.
///
/// Each recording thread writes a ring of its own: a record is five relaxed
/// atomic stores into the thread's next slot between a claim and a release
/// of the thread's head, so the zone path takes no lock, makes no
/// read-modify-write and allocates nothing (a thread's first record claims
/// its ring under the reader mutex; rings of exited threads are reused,
/// records and all). Readers lock, copy each ring's published slots and
/// drop any slot a writer claimed meanwhile.

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

/// Process-wide bounded store of completed spans; the oldest are dropped
/// once `capacity()` is exceeded, and no thread keeps more than
/// `kDefaultCapacity` of its own.
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  static SpanBuffer& instance();

  /// Oldest-to-newest copy of the retained records: each thread's in the
  /// order it recorded them, threads merged by end time.
  std::vector<SpanRecord> snapshot() const;

  /// Spans recorded since process start or clear() (including dropped ones).
  std::uint64_t total_recorded() const;

  std::size_t capacity() const;
  /// Set how many records snapshot() keeps; existing records are dropped
  /// (tests).
  void set_capacity(std::size_t capacity);
  void clear();

  /// Append one completed record to the calling thread's ring (closing
  /// zones; tests inject their own).
  void record(const SpanRecord& rec);

 private:
  struct Ring;

  explicit SpanBuffer(std::size_t capacity);

  Ring* claim_ring();
  friend struct ThreadRingHandle;
  void release_ring(Ring* ring);

  mutable std::mutex mu_;
  std::vector<Ring*> rings_;  ///< Every ring ever claimed (never freed).
  std::vector<Ring*> free_;   ///< Rings of exited threads, for reuse.
  std::size_t capacity_ = 0;
};

}  // namespace mhm::obs
