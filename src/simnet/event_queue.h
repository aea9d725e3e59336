// Scheduling primitives of the flit-level simulator.
//
// EventQueue is a global queue keyed by simulation cycle with a
// deterministic total order: events pop in nondecreasing cycle order and,
// within a cycle, in ascending payload-id order — so replaying the same
// pushes always fires events in the same order regardless of push order.
// The simulator uses it for message-arrival events (payload = host id).
//
// ActiveSet is a fixed-size bitmap of "things that may do work this cycle"
// (dirty switches, busy channels, injecting hosts...). Sweep() visits active
// indices in ascending order, exactly like one ascending loop over every
// index that skips the inactive ones: indices activated ahead of the cursor
// are picked up in the same sweep (a later loop iteration seeing state
// written by an earlier one); activations at or behind the cursor persist to
// the next sweep. ArmAll() activates every index, which turns a sweep into
// that dense loop.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace commsched::sim {

class EventQueue {
 public:
  void Clear() { heap_.clear(); }

  [[nodiscard]] bool Empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t Size() const { return heap_.size(); }

  void Push(std::size_t cycle, std::size_t id) {
    heap_.push_back(Entry{cycle, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Cycle of the earliest pending event. Requires !Empty().
  [[nodiscard]] std::size_t NextCycle() const {
    CS_CHECK(!heap_.empty(), "NextCycle on an empty event queue");
    return heap_.front().cycle;
  }

  /// Pops the earliest (cycle, id) event and returns its id.
  std::size_t Pop() {
    CS_CHECK(!heap_.empty(), "Pop on an empty event queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const std::size_t id = heap_.back().id;
    heap_.pop_back();
    return id;
  }

 private:
  struct Entry {
    std::size_t cycle;
    std::size_t id;
  };
  // Min-heap on (cycle, id): strict total order makes pops deterministic.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.cycle != b.cycle ? a.cycle > b.cycle : a.id > b.id;
    }
  };
  std::vector<Entry> heap_;
};

class ActiveSet {
 public:
  void Reset(std::size_t n) {
    n_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  void Add(std::size_t i) {
    CS_DCHECK(i < n_, "ActiveSet index out of range");
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  [[nodiscard]] bool Contains(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  [[nodiscard]] bool Any() const {
    return std::any_of(words_.begin(), words_.end(), [](std::uint64_t w) { return w != 0; });
  }

  [[nodiscard]] std::size_t Count() const {
    std::size_t count = 0;
    for (const std::uint64_t w : words_) count += static_cast<std::size_t>(std::popcount(w));
    return count;
  }

  void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

  /// Activates every index in [0, n).
  void ArmAll() {
    std::fill(words_.begin(), words_.end(), ~0ULL);
    if (n_ % 64 != 0) words_.back() = (1ULL << (n_ % 64)) - 1;
  }

  /// Visits active indices in ascending order; `visit(i)` returns true to
  /// keep i active for the next sweep, false to deactivate it. Indices the
  /// callback activates ahead of the cursor are visited in this sweep;
  /// indices it activates at or behind the cursor are not, even within the
  /// same 64-bit word.
  template <typename Visit>
  void Sweep(Visit&& visit) {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t ahead = ~0ULL;  // bits strictly after the cursor
      while (true) {
        // Re-read the word each round: visit() may set bits ahead of us.
        const std::uint64_t pending = words_[wi] & ahead;
        if (pending == 0) break;
        const int bit = std::countr_zero(pending);
        const std::uint64_t mask = 1ULL << bit;
        ahead = ~((mask << 1) - 1);  // 0 once bit 63 is visited
        if (!visit((wi << 6) + static_cast<std::size_t>(bit))) words_[wi] &= ~mask;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t n_ = 0;
};

}  // namespace commsched::sim
