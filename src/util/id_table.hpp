// A table of entries keyed by a small unsigned id, for the per-object and
// per-task state that every replicated update looks up.
//
// The entries sit in one vector in ascending id order, so iteration is the
// deterministic order a std::map gave (the digests depend on it), and an
// entry costs no allocation of its own.  A lookup is one probe of an
// open-addressing slot index (linear probing, load at most 1/2) that maps
// the id to its entry's position; a table of at most kScanLimit entries
// has no index and is scanned instead.  Inserting an id above every held
// one appends and places one slot; any other insert or erase shifts the
// entries after it and rebuilds the index, which is O(size) — inserts and
// erases are rare next to lookups.
//
// A pointer or reference to an entry is valid until the next insert into
// or erase from the table (either may move every entry).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace rtpb {

template <typename Id, typename T>
class IdTable {
  static_assert(std::is_unsigned_v<Id> && sizeof(Id) <= sizeof(std::uint64_t));
  // A growing vector moves its entries only if moving cannot throw; else
  // it copies them, and a copied value no longer owns the buffer that a
  // borrowed view of the old one points into.
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  using Entry = std::pair<Id, T>;
  /// Tables up to this size are scanned, not indexed: a scan of a few ids
  /// costs no more than a probe, and an index would be one more allocation
  /// per small table.
  static constexpr std::size_t kScanLimit = 8;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Ascending-id iteration; `auto& [id, value]` binds an entry.
  [[nodiscard]] auto begin() { return entries_.begin(); }
  [[nodiscard]] auto end() { return entries_.end(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  /// The value held for `id`, or nullptr.
  [[nodiscard]] T* find(Id id) {
    const std::size_t pos = locate(id);
    return pos == kAbsent ? nullptr : &entries_[pos].second;
  }
  [[nodiscard]] const T* find(Id id) const {
    const std::size_t pos = locate(id);
    return pos == kAbsent ? nullptr : &entries_[pos].second;
  }
  [[nodiscard]] bool contains(Id id) const { return locate(id) != kAbsent; }

  /// Insert `value` under `id` unless `id` is held; returns the held value
  /// and whether it was inserted.
  std::pair<T*, bool> insert(Id id, T value) {
    if (T* held = find(id)) return {held, false};
    return {&insert_new(id, std::move(value)), true};
  }
  /// The value held for `id`, value-initialised first if absent.
  T& operator[](Id id) {
    if (T* held = find(id)) return *held;
    return insert_new(id, T{});
  }

  bool erase(Id id) {
    const std::size_t pos = locate(id);
    if (pos == kAbsent) return false;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pos));
    reindex();
    return true;
  }

 private:
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();
  /// Slot value meaning "empty"; a filled slot holds an entry's position + 1.
  static constexpr std::uint32_t kEmpty = 0;

  /// Fibonacci hashing: the top bits of id × 2^64/φ, so dense and strided
  /// ids alike spread over the slots.
  [[nodiscard]] std::size_t home(Id id) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  [[nodiscard]] std::size_t locate(Id id) const {
    if (slots_.empty()) {
      for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
        if (entries_[pos].first == id) return pos;
      }
      return kAbsent;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = home(id);; s = (s + 1) & mask) {
      const std::uint32_t slot = slots_[s];
      if (slot == kEmpty) return kAbsent;
      if (entries_[slot - 1].first == id) return slot - 1;
    }
  }

  /// Place the entry at `pos` in the first free slot of its probe run.
  void place(std::size_t pos) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = home(entries_[pos].first);
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = static_cast<std::uint32_t>(pos + 1);
  }

  T& insert_new(Id id, T value) {
    RTPB_EXPECTS(entries_.size() < std::numeric_limits<std::uint32_t>::max());
    if (entries_.empty()) entries_.reserve(kScanLimit);
    const bool append = entries_.empty() || entries_.back().first < id;
    if (append) {
      entries_.emplace_back(id, std::move(value));
      if (!slots_.empty() && 2 * entries_.size() <= slots_.size()) {
        place(entries_.size() - 1);
      } else {
        reindex();
      }
      return entries_.back().second;
    }
    const auto at = std::lower_bound(entries_.begin(), entries_.end(), id,
                                     [](const Entry& e, Id key) { return e.first < key; });
    const auto pos = static_cast<std::size_t>(at - entries_.begin());
    entries_.emplace(at, id, std::move(value));
    reindex();
    return entries_[pos].second;
  }

  /// Rebuild the index for the current entries: none up to kScanLimit,
  /// else the smallest power of two of slots that keeps the load ≤ 1/2.
  void reindex() {
    if (entries_.size() <= kScanLimit) {
      slots_.clear();
      return;
    }
    const std::size_t n = std::bit_ceil(2 * entries_.size());
    shift_ = 64 - std::countr_zero(n);
    slots_.assign(n, kEmpty);
    for (std::size_t pos = 0; pos < entries_.size(); ++pos) place(pos);
  }

  std::vector<Entry> entries_;         ///< ascending id
  std::vector<std::uint32_t> slots_;   ///< empty while size() ≤ kScanLimit
  int shift_ = 64;                     ///< 64 − log2(slots_.size())
};

}  // namespace rtpb
