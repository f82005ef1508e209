#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>

namespace mhm::obs {

/// One thread's ring. Only its owning thread writes `claimed`, `head` and
/// the slots, so a record is plain stores; the watermarks belong to
/// readers and are guarded by SpanBuffer::mu_.
struct SpanBuffer::Ring {
  struct Slot {
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> parent_id{0};
    std::atomic<std::uint64_t> meta{0};  ///< stage | thread_shard << 8.
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> duration_ns{0};
  };

  std::atomic<std::uint64_t> claimed{0};  ///< Records whose write began.
  std::atomic<std::uint64_t> head{0};     ///< Records completely written.
  std::uint64_t visible_from = 0;  ///< First record snapshot() shows.
  std::uint64_t counted_from = 0;  ///< First record total_recorded() counts.
  std::array<Slot, kDefaultCapacity> slots;
};

/// Hands the calling thread's ring back for reuse when the thread exits.
struct ThreadRingHandle {
  SpanBuffer::Ring* ring = nullptr;
  ~ThreadRingHandle() {
    if (ring != nullptr) SpanBuffer::instance().release_ring(ring);
    ring = nullptr;  // A zone closing later in thread exit claims anew.
  }
};

namespace {

thread_local ThreadRingHandle tl_ring;

/// First record of a ring that `count` records have not yet overwritten.
std::uint64_t oldest_kept(std::uint64_t count) {
  return count > SpanBuffer::kDefaultCapacity
             ? count - SpanBuffer::kDefaultCapacity
             : 0;
}

}  // namespace

SpanBuffer::SpanBuffer(std::size_t capacity) : capacity_(capacity) {}

SpanBuffer& SpanBuffer::instance() {
  static SpanBuffer* buf =
      new SpanBuffer(kDefaultCapacity);  // Leaked: outlives static dtors.
  return *buf;
}

SpanBuffer::Ring* SpanBuffer::claim_ring() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!free_.empty()) {
    Ring* ring = free_.back();
    free_.pop_back();
    return ring;
  }
  rings_.push_back(new Ring);  // Never freed: readers may hold it.
  return rings_.back();
}

void SpanBuffer::release_ring(Ring* ring) {
  std::lock_guard<std::mutex> lk(mu_);
  free_.push_back(ring);
}

void SpanBuffer::record(const SpanRecord& rec) {
  Ring* ring = tl_ring.ring;
  if (ring == nullptr) ring = tl_ring.ring = claim_ring();
  // Seqlock order: claim the slot, then write it, then publish it. A
  // reader that saw any of the new stores also sees the claim.
  const std::uint64_t n = ring->head.load(std::memory_order_relaxed);
  Ring::Slot& slot = ring->slots[n % kDefaultCapacity];
  ring->claimed.store(n + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.id.store(rec.id, std::memory_order_relaxed);
  slot.parent_id.store(rec.parent_id, std::memory_order_relaxed);
  slot.meta.store(static_cast<std::uint64_t>(rec.stage) |
                      (static_cast<std::uint64_t>(rec.thread_shard) << 8),
                  std::memory_order_relaxed);
  slot.start_ns.store(rec.start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(rec.duration_ns, std::memory_order_relaxed);
  ring->head.store(n + 1, std::memory_order_release);
}

std::vector<SpanRecord> SpanBuffer::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> out;
  for (const Ring* ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t first = std::max(ring->visible_from, oldest_kept(head));
    const std::size_t begin = out.size();
    for (std::uint64_t n = first; n < head; ++n) {
      const Ring::Slot& slot = ring->slots[n % kDefaultCapacity];
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      constexpr auto kRelaxed = std::memory_order_relaxed;
      out.push_back({.id = slot.id.load(kRelaxed),
                     .parent_id = slot.parent_id.load(kRelaxed),
                     .stage = static_cast<prof::Stage>(meta & 0xff),
                     .thread_shard = static_cast<std::size_t>(meta >> 8),
                     .start_ns = slot.start_ns.load(kRelaxed),
                     .duration_ns = slot.duration_ns.load(kRelaxed)});
    }
    // Drop the slots the writer claimed again while they were copied.
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t intact = std::max(
        first, oldest_kept(ring->claimed.load(std::memory_order_relaxed)));
    const auto torn = static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(intact - first, out.size() - begin));
    const auto ring_begin = out.begin() + static_cast<std::ptrdiff_t>(begin);
    out.erase(ring_begin, ring_begin + torn);
  }
  // A thread records a span when it ends, so each ring is already in end
  // order; a stable sort by end time merges the threads.
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns + a.duration_ns <
                            b.start_ns + b.duration_ns;
                   });
  if (out.size() > capacity_) {
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  return out;
}

std::uint64_t SpanBuffer::total_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const Ring* ring : rings_) {
    total += ring->head.load(std::memory_order_acquire) - ring->counted_from;
  }
  return total;
}

std::size_t SpanBuffer::capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return capacity_;
}

void SpanBuffer::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = capacity;
  for (Ring* ring : rings_) {
    ring->visible_from = ring->head.load(std::memory_order_acquire);
  }
}

void SpanBuffer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (Ring* ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    ring->visible_from = head;
    ring->counted_from = head;
  }
}

}  // namespace mhm::obs
