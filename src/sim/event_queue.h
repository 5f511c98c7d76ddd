// Deterministic discrete-event queue over typed, allocation-free events.
//
// Events are small POD payloads ordered by (time, insertion sequence): two
// events at the same tick always fire in the order they were scheduled,
// which makes every run bit-for-bit reproducible regardless of heap
// internals.
//
// There is no per-event heap allocation and no hash-set bookkeeping. The
// heap itself holds only 16-byte (time, seq, handle) keys while payloads
// sit still in a slot-recycled table; the root lives at index 3 so every
// 4-child sibling group is one 64-byte-aligned cache line, and sift-down
// prefetches the grandchild groups (4 contiguous lines) to hide the
// dependent-miss chain. Cancel() is an O(1) flag on the table entry;
// flagged keys are dropped when they surface, and the heap is compacted
// whenever cancelled entries outnumber live ones, so memory stays
// proportional to the high-water number of *live* events — not the total
// scheduled — even under heavy schedule/cancel churn.
//
// Streams whose times never go backwards (trace arrivals, fixed-threshold
// re-checks) can bypass the heap through a FIFO lane: ScheduleFifo() appends
// to a ring, and Pop() takes the smallest (time, seq) rank among the heap
// top and the lane heads. A lane event draws its seq from the same counter
// as Schedule(), so it fires exactly where it would have fired from the
// heap; an event that would break the lane's order goes to the heap instead.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace netbatch::sim {

// An event handle: (generation << 32 | table index), opaque to callers.
// Only values returned by Schedule() are valid arguments to Cancel().
using EventSeq = std::uint64_t;

// Sentinel for "no event"; cancelling it is a no-op.
inline constexpr EventSeq kNoEvent = ~EventSeq{0};

// One scheduled event. `time` and `seq` form the ordering key and are
// assigned by the queue; everything else is an opaque payload the dispatcher
// interprets. `kind` selects the dispatch case, `stamp` carries a generation
// stamp so a dispatcher can drop events invalidated after scheduling with a
// single integer compare, and the id operands name the entities involved.
struct Event {
  Ticks time = 0;             // absolute fire time (set by the queue)
  std::uint64_t seq = 0;      // insertion sequence (set by the queue)
  std::uint64_t stamp = 0;    // generation stamp checked at dispatch
  JobId job;
  PoolId pool;
  MachineId machine;
  std::uint32_t aux = 0;      // free-form operand (e.g. a callback slot)
  std::uint32_t handle = 0;   // payload-table index, or kLaneHandle for a
                              // lane event (set by the queue)
  std::uint16_t kind = 0;     // dispatcher-defined event type
};
static_assert(std::is_trivially_copyable_v<Event>,
              "Event must stay a POD payload");
static_assert(sizeof(Event) <= 48, "Event payload grew past a cache-ish 48B");

// Minimal 64-byte-aligned allocator so sibling groups line up with cache
// lines (std::allocator only guarantees alignof(T)).
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{64});
  }
  bool operator==(const CacheAlignedAllocator&) const { return true; }
};

// A flat 4-ary min-heap of event keys, keyed by (time, seq), plus
// kLaneCount FIFO lanes for in-order streams.
class EventQueue {
 public:
  static constexpr std::size_t kLaneCount = 2;
  // Event::handle of an event that was queued on a lane.
  static constexpr std::uint32_t kLaneHandle = 0xffffffffu;

  // Schedules `ev` at absolute time `at`; returns a handle for Cancel().
  // `ev.time`, `ev.seq`, and `ev.handle` are overwritten by the queue.
  EventSeq Schedule(Ticks at, Event ev);

  // Schedules `ev` on FIFO lane `lane` when `at` is no earlier than the
  // lane's newest event; the event then fires exactly where Schedule() would
  // have put it, but cannot be cancelled (returns kNoEvent). Otherwise the
  // event falls back to Schedule() and its handle is returned.
  EventSeq ScheduleFifo(std::size_t lane, Ticks at, Event ev);

  // Logically removes a pending event and returns it. Cancelling an
  // already-fired, cancelled, or unknown handle is a no-op (nullopt).
  std::optional<Event> Cancel(EventSeq handle);

  bool Empty() const { return live_ == 0; }
  std::size_t LiveCount() const { return live_; }

  // Time of the earliest live event; requires !Empty(). Non-const because
  // it sheds cancelled keys that have surfaced at the top of the heap.
  Ticks PeekTime();

  // Removes and returns the earliest live event. Requires !Empty().
  Event Pop();

  // Pre-sizes internal storage for `events` simultaneously-live events.
  void Reserve(std::size_t events);

  // Pre-sizes lane `lane` for `events` simultaneously-queued events.
  void ReserveLane(std::size_t lane, std::size_t events);

  // ScheduleFifo() calls that fell back to the heap.
  std::uint64_t LaneFallbacks() const { return lane_fallbacks_; }

  // Bytes of internal storage currently held. Regression tests use this to
  // assert memory stays proportional to live events under cancel churn.
  std::size_t MemoryFootprintBytes() const;

 private:
  // Heap key: everything a sift needs to order and identify an event. The
  // payload stays put in payloads_[handle] while keys move. `rank` packs
  // (time << 32 | seq) so ordering is one native unsigned compare; that
  // caps event times at 2^32 ticks (~136 years of simulated time at 60
  // ticks/minute) and sequences at 2^32 scheduled events — both enforced
  // with a hard CHECK in Schedule(), far beyond any realistic run.
  struct Key {
    std::uint64_t rank;
    std::uint32_t handle;
    std::uint32_t pad = 0;
  };
  static_assert(sizeof(Key) == 16, "4 keys must fill one cache line");

  // The root's index: groups [4k, 4k+3] (k >= 1) are the sibling groups,
  // each exactly one 64-byte line; children of i are [4i-8, 4i-5] and the
  // parent of i is i/4 + 2. Slots 0-2 are never used.
  static constexpr std::size_t kRoot = 3;

  // meta_[handle] packs (generation << 1 | cancelled). The generation bumps
  // when the entry leaves the heap, so a stale EventSeq fails the compare
  // instead of aliasing the slot's next tenant; handles are only recycled
  // once their key has left the heap, so an in-heap key's handle is always
  // unambiguous.
  static constexpr std::uint32_t kCancelledBit = 1;

  // Rank of an empty source; larger than any real (time << 32 | seq).
  static constexpr std::uint64_t kNoRank = ~std::uint64_t{0};

  // A FIFO lane: a ring of whole events (no key, no handle) in rank order.
  // `head_rank` caches the front event's rank (kNoRank when empty) so Pop()
  // compares sources without touching the ring.
  struct Lane {
    // Slots [0, ring.capacity()); only [0, ring.size()) were ever written.
    std::vector<Event> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::uint64_t head_rank = kNoRank;
    Ticks back_time = 0;      // time of the newest queued event

    void Push(const Event& ev);
    Event PopFront();
    void Grow(std::size_t capacity);
  };

  static std::uint64_t Rank(Ticks at, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(at) << 32) |
           static_cast<std::uint32_t>(seq);
  }
  // Stamps `ev` with its time and the next sequence number.
  void Stamp(Ticks at, Event& ev);
  // The lane holding the earliest live event, or kLaneCount for the heap.
  std::size_t EarliestSource();

  bool Cancelled(std::uint32_t handle) const {
    return (meta_[handle] & kCancelledBit) != 0;
  }
  // Bumps the generation and returns the handle to the free list.
  void ReleaseHandle(std::uint32_t handle);
  // Appends a key past the current last slot and restores the heap.
  void PushKey(Key key);
  // Pops the heap top (the key only), refilling the hole from the bottom.
  Key PopTopKey();
  // Sheds cancelled keys that have reached the heap top.
  void DropCancelledTop();
  // Rebuilds the heap without the cancelled keys once they dominate.
  void MaybeCompact();
  void SiftUp(std::size_t slot);
  void SiftDown(std::size_t slot);

  // Keys at [kRoot, heap_.size()); heap_.size() - kRoot keys when non-empty.
  std::vector<Key, CacheAlignedAllocator<Key>> heap_;
  std::vector<Event> payloads_;      // indexed by handle; high-water sized
  std::vector<std::uint32_t> meta_;  // generation<<1 | cancelled
  std::vector<std::uint32_t> free_;  // recycled handle-table indices
  Lane lanes_[kLaneCount];
  std::size_t live_ = 0;       // live events in the heap and the lanes
  std::size_t heap_live_ = 0;  // live (uncancelled) keys in the heap
  std::size_t cancelled_in_heap_ = 0;
  std::uint64_t lane_fallbacks_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace netbatch::sim
