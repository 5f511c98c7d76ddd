// Global JobId -> shard routing table for the sharded daemon.
//
// Each job admitted by any shard registers here so every shard can route a
// job op (complete / suspend / resume / query / kill) to the event loop
// that owns the job. The table is the only cluster-wide mutable state the
// shards share, and it sits on the admission path: TryInsert runs on every
// submit (and for every job a restarting shard recovers), Lookup on every
// job op, EraseIfOwner on every terminal reclamation. Internal duplicate
// jobs (the duplication extension's twins) are shard-local and never
// registered.
//
// Ids below kDenseCap — the JobArena's own dense-index cap — resolve
// through a chunked array of atomic cells, lock-free: 0 means free and
// shard + 1 means owned, so each operation is one CAS or one load. Chunks
// of 16k cells (64 KiB) are allocated on first touch and published with a
// CAS; memory follows the ids actually used, 64 MiB at worst. Ids at or
// above the cap fall back to a striped mutex + hash map.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/ids.h"

namespace netbatch::service {

class JobDirectory {
 public:
  ~JobDirectory() {
    for (std::atomic<Cell*>& chunk : chunks_) {
      delete[] chunk.load(std::memory_order_relaxed);
    }
  }

  // Claims `id` for `shard`. Returns false (and changes nothing) when the
  // id is already claimed — the cluster-wide duplicate-submit check.
  bool TryInsert(JobId id, std::uint32_t shard) {
    const JobId::ValueType v = id.value();
    if (v >= kDenseCap) {
      Stripe& stripe = StripeFor(v);
      std::lock_guard<std::mutex> lock(stripe.mu);
      return stripe.map.emplace(id, shard).second;
    }
    std::uint32_t expected = kFree;
    return ChunkFor(v)[v & kChunkMask].compare_exchange_strong(
        expected, shard + 1, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  std::optional<std::uint32_t> Lookup(JobId id) const {
    const JobId::ValueType v = id.value();
    if (v >= kDenseCap) {
      const Stripe& stripe = StripeFor(v);
      std::lock_guard<std::mutex> lock(stripe.mu);
      const auto it = stripe.map.find(id);
      if (it == stripe.map.end()) return std::nullopt;
      return it->second;
    }
    const Cell* chunk =
        chunks_[v >> kChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) return std::nullopt;
    const std::uint32_t cell =
        chunk[v & kChunkMask].load(std::memory_order_acquire);
    if (cell == kFree) return std::nullopt;
    return cell - 1;
  }

  // Releases `id` if (and only if) `shard` owns it. The owner check keeps a
  // shard reclaiming one of its internal duplicate ids from releasing an
  // unrelated client job that happens to share the number on another shard.
  void EraseIfOwner(JobId id, std::uint32_t shard) {
    const JobId::ValueType v = id.value();
    if (v >= kDenseCap) {
      Stripe& stripe = StripeFor(v);
      std::lock_guard<std::mutex> lock(stripe.mu);
      const auto it = stripe.map.find(id);
      if (it != stripe.map.end() && it->second == shard) stripe.map.erase(it);
      return;
    }
    Cell* chunk = chunks_[v >> kChunkBits].load(std::memory_order_acquire);
    if (chunk == nullptr) return;
    std::uint32_t expected = shard + 1;
    chunk[v & kChunkMask].compare_exchange_strong(
        expected, kFree, std::memory_order_acq_rel, std::memory_order_acquire);
  }

 private:
  using Cell = std::atomic<std::uint32_t>;

  static constexpr JobId::ValueType kDenseCap = 1u << 24;
  static constexpr unsigned kChunkBits = 14;
  static constexpr JobId::ValueType kChunkMask = (1u << kChunkBits) - 1;
  static constexpr std::size_t kChunks = kDenseCap >> kChunkBits;
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::size_t kStripes = 64;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<JobId, std::uint32_t> map;
  };

  // The chunk holding dense id `v`, allocated (zeroed, i.e. all free) on
  // first touch. Racing allocators CAS the same slot; the loser frees its
  // chunk and uses the winner's.
  Cell* ChunkFor(JobId::ValueType v) {
    std::atomic<Cell*>& slot = chunks_[v >> kChunkBits];
    Cell* chunk = slot.load(std::memory_order_acquire);
    if (chunk != nullptr) return chunk;
    Cell* fresh = new Cell[std::size_t{1} << kChunkBits]();
    if (slot.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;
    return chunk;
  }

  Stripe& StripeFor(JobId::ValueType v) { return stripes_[v % kStripes]; }
  const Stripe& StripeFor(JobId::ValueType v) const {
    return stripes_[v % kStripes];
  }

  std::atomic<Cell*> chunks_[kChunks] = {};
  Stripe stripes_[kStripes];
};

}  // namespace netbatch::service
