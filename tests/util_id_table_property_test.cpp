// Property suite for IdTable: random insert, erase, find, operator[] and
// ordered-iteration sequences run against a std::map reference.  Each run
// swings the table between insert-heavy and erase-heavy phases, so its
// size crosses the scan/index boundary (IdTable::kScanLimit) and the
// index grows and shrinks, over three id pools: dense ids, ids strided by
// 2^16, and random ids over the whole 32-bit range with 0 and UINT32_MAX.
// Values are heap-allocated strings, so a sanitizer build reports any
// access through an entry an insert or erase moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/id_table.hpp"
#include "util/rng.hpp"

namespace rtpb {
namespace {

using Table = IdTable<std::uint32_t, std::string>;
using Model = std::map<std::uint32_t, std::string>;

enum class Pool { kDense, kStrided, kSparse };

std::vector<std::uint32_t> make_pool(Pool kind, std::size_t n, Rng& rng) {
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case Pool::kDense: ids.push_back(static_cast<std::uint32_t>(i)); break;
      case Pool::kStrided: ids.push_back(static_cast<std::uint32_t>(i << 16)); break;
      case Pool::kSparse: ids.push_back(static_cast<std::uint32_t>(rng.next_u64())); break;
    }
  }
  if (kind == Pool::kSparse) {
    ids.push_back(0);
    ids.push_back(std::numeric_limits<std::uint32_t>::max());
  }
  return ids;
}

/// A value long enough to live on the heap.
std::string value_for(std::uint64_t n) {
  return std::string("value-of-some-length-").append(std::to_string(n));
}

void expect_same(const Table& table, const Model& model, const std::vector<std::uint32_t>& pool) {
  ASSERT_EQ(table.size(), model.size());
  ASSERT_EQ(table.empty(), model.empty());
  std::vector<std::pair<std::uint32_t, std::string>> seen(table.begin(), table.end());
  ASSERT_EQ(seen, (std::vector<std::pair<std::uint32_t, std::string>>(model.begin(), model.end())));
  for (const std::uint32_t id : pool) {
    const std::string* held = table.find(id);
    const auto it = model.find(id);
    ASSERT_EQ(held != nullptr, it != model.end()) << "id " << id;
    ASSERT_EQ(table.contains(id), it != model.end()) << "id " << id;
    if (held != nullptr) {
      ASSERT_EQ(*held, it->second) << "id " << id;
    }
  }
}

void run_model(Pool kind, std::size_t pool_size, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::uint32_t> pool = make_pool(kind, pool_size, rng);
  const auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  Table table;
  Model model;
  std::uint64_t next_value = 0;
  constexpr int kPhases = 6;
  for (int phase = 0; phase < kPhases; ++phase) {
    // Even phases mostly insert, odd ones mostly erase.
    const std::int64_t insert_weight = phase % 2 == 0 ? 70 : 10;
    const std::size_t steps = 4 * pool.size();
    for (std::size_t step = 0; step < steps; ++step) {
      const std::uint32_t id = pick();
      const std::int64_t roll = rng.uniform(0, 99);
      if (roll < insert_weight) {
        const std::string value = value_for(next_value++);
        const auto [held, inserted] = table.insert(id, value);
        const auto [it, model_inserted] = model.emplace(id, value);
        ASSERT_EQ(inserted, model_inserted) << "insert " << id;
        ASSERT_EQ(*held, it->second) << "insert " << id;
      } else if (roll < 80) {
        ASSERT_EQ(table.erase(id), model.erase(id) > 0) << "erase " << id;
      } else if (roll < 90) {
        // operator[] value-initialises a missing id; half the time the
        // returned reference is written through.
        std::string& held = table[id];
        std::string& expected = model[id];
        ASSERT_EQ(held, expected) << "operator[] " << id;
        if (rng.bernoulli(0.5)) {
          held = value_for(next_value);
          expected = value_for(next_value++);
        }
      } else {
        const std::string* held = table.find(id);
        const auto it = model.find(id);
        ASSERT_EQ(held != nullptr, it != model.end()) << "find " << id;
        if (held != nullptr) {
          ASSERT_EQ(*held, it->second) << "find " << id;
        }
      }
      ASSERT_EQ(table.size(), model.size());
      if (step % 16 == 0) expect_same(table, model, pool);
    }
    expect_same(table, model, pool);
  }
}

struct Case {
  const char* name;
  Pool kind;
};

constexpr Case kCases[] = {{"dense", Pool::kDense}, {"strided", Pool::kStrided},
                           {"sparse", Pool::kSparse}};
// Pools around the scan limit, and ones whose swings span index growth.
constexpr std::size_t kPoolSizes[] = {4, Table::kScanLimit, Table::kScanLimit + 1, 20, 64, 600};

TEST(IdTableModel, MatchesStdMapOverRandomOperations) {
  for (const Case& c : kCases) {
    for (const std::size_t pool_size : kPoolSizes) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << c.name << " pool " << pool_size << " seed " << seed);
        run_model(c.kind, pool_size, seed);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(IdTableModel, SizesCrossTheScanLimitBothWays) {
  // Fill in descending order (every insert lands in front), then empty in
  // ascending order: each size from 0 to 3 × kScanLimit is held once on
  // the way up and once on the way down.
  Table table;
  Model model;
  const auto n = static_cast<std::uint32_t>(3 * Table::kScanLimit);
  std::vector<std::uint32_t> pool;
  for (std::uint32_t i = 0; i < n; ++i) pool.push_back(std::numeric_limits<std::uint32_t>::max() - 7 * i);
  for (const std::uint32_t id : pool) {
    table.insert(id, value_for(id));
    model.emplace(id, value_for(id));
    expect_same(table, model, pool);
  }
  for (auto it = pool.rbegin(); it != pool.rend(); ++it) {
    EXPECT_TRUE(table.erase(*it));
    model.erase(*it);
    expect_same(table, model, pool);
  }
  EXPECT_TRUE(table.empty());
}

}  // namespace
}  // namespace rtpb
