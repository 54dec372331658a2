#include "core/object_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace rtpb::core {
namespace {

ObjectSpec spec(ObjectId id) {
  ObjectSpec s;
  s.id = id;
  s.name = "obj" + std::to_string(id);
  s.client_period = millis(10);
  s.client_exec = millis(1);
  s.update_exec = millis(1);
  s.delta_primary = millis(20);
  s.delta_backup = millis(60);
  return s;
}

TEST(ObjectStore, InsertAndLookup) {
  ObjectStore store;
  EXPECT_TRUE(store.insert(spec(1)));
  EXPECT_TRUE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(1).version, 0u);
}

TEST(ObjectStore, DuplicateInsertRejected) {
  ObjectStore store;
  EXPECT_TRUE(store.insert(spec(1)));
  EXPECT_FALSE(store.insert(spec(1)));
}

TEST(ObjectStore, WriteBumpsVersionAndTimestamps) {
  ObjectStore store;
  store.insert(spec(1));
  EXPECT_EQ(store.write(1, Bytes{1}, TimePoint{100}), 1u);
  EXPECT_EQ(store.write(1, Bytes{2}, TimePoint{200}), 2u);
  const ObjectState& s = store.get(1);
  EXPECT_EQ(s.version, 2u);
  EXPECT_EQ(s.timestamp, TimePoint{200});
  EXPECT_EQ(s.origin_timestamp, TimePoint{200});
  EXPECT_EQ(s.value, Bytes{2});
}

TEST(ObjectStore, ApplyAcceptsOnlyNewerVersions) {
  ObjectStore store;
  store.insert(spec(1));
  EXPECT_TRUE(store.apply(1, 3, TimePoint{30}, Bytes{3}, TimePoint{35}));
  EXPECT_FALSE(store.apply(1, 3, TimePoint{30}, Bytes{3}, TimePoint{40}));  // duplicate
  EXPECT_FALSE(store.apply(1, 2, TimePoint{20}, Bytes{2}, TimePoint{45}));  // stale
  EXPECT_TRUE(store.apply(1, 5, TimePoint{50}, Bytes{5}, TimePoint{55}));   // gap is fine
  const ObjectState& s = store.get(1);
  EXPECT_EQ(s.version, 5u);
  EXPECT_EQ(s.origin_timestamp, TimePoint{50});
  EXPECT_EQ(s.timestamp, TimePoint{55});  // local apply time
}

TEST(ObjectStore, SameSizeApplyAndWriteKeepTheHeldBuffer) {
  // write() and apply() copy into the held value, so once it has grown, a
  // same-size update reuses its buffer instead of replacing it.
  ObjectStore store;
  store.insert(spec(1));
  store.write(1, Bytes(64, 0x01), TimePoint{10});
  const std::uint8_t* held = store.peek(1)->value.data();
  store.write(1, Bytes(64, 0x02), TimePoint{20});
  EXPECT_EQ(store.peek(1)->value.data(), held);
  EXPECT_EQ(store.peek(1)->value, Bytes(64, 0x02));
  EXPECT_TRUE(store.apply(1, 5, TimePoint{25}, Bytes(64, 0x05), TimePoint{30}));
  EXPECT_EQ(store.peek(1)->value.data(), held);
  EXPECT_EQ(store.peek(1)->value, Bytes(64, 0x05));

  // A stale apply changes nothing, bytes included.
  EXPECT_FALSE(store.apply(1, 4, TimePoint{26}, Bytes(64, 0x04), TimePoint{31}));
  EXPECT_EQ(store.peek(1)->value.data(), held);
  EXPECT_EQ(store.peek(1)->value, Bytes(64, 0x05));
  EXPECT_EQ(store.peek(1)->version, 5u);
  EXPECT_EQ(store.peek(1)->timestamp, TimePoint{30});
}

TEST(ObjectStore, EraseRemoves) {
  ObjectStore store;
  store.insert(spec(1));
  EXPECT_TRUE(store.erase(1));
  EXPECT_FALSE(store.erase(1));
  EXPECT_FALSE(store.contains(1));
}

TEST(ObjectStore, FindReturnsNulloptForMissing) {
  ObjectStore store;
  EXPECT_FALSE(store.find(9).has_value());
  store.insert(spec(9));
  EXPECT_TRUE(store.find(9).has_value());
}

TEST(ObjectStore, PeekSeesLaterWritesWhereFindIsASnapshot) {
  ObjectStore store;
  EXPECT_EQ(store.peek(9), nullptr);
  store.insert(spec(9));
  const ObjectState* live = store.peek(9);
  ASSERT_NE(live, nullptr);
  const std::optional<ObjectState> before = store.find(9);
  store.write(9, Bytes{7}, TimePoint{100});
  EXPECT_EQ(live, store.peek(9));
  EXPECT_EQ(live->version, 1u);
  EXPECT_EQ(live->value, Bytes{7});
  EXPECT_EQ(before->version, 0u);
}

TEST(ObjectStore, ForEachIteratesInIdOrder) {
  ObjectStore store;
  store.insert(spec(3));
  store.insert(spec(1));
  store.insert(spec(2));
  std::vector<ObjectId> seen;
  store.for_each([&](const ObjectState& s) { seen.push_back(s.spec.id); });
  EXPECT_EQ(seen, (std::vector<ObjectId>{1, 2, 3}));
  EXPECT_EQ(store.ids(), seen);
}

TEST(ObjectStore, IdsStayAscendingAndValuesKeepTheirBuffersAcrossMoves) {
  ObjectStore store;
  for (const ObjectId id : {5u, 1u, 3u}) store.insert(spec(id));
  std::vector<ObjectId> seen;
  store.for_each([&](const ObjectState& s) { seen.push_back(s.spec.id); });
  EXPECT_EQ(seen, (std::vector<ObjectId>{1, 3, 5}));
  EXPECT_EQ(store.ids(), seen);

  // Inserts in front of and erases before object 3 move its state (past
  // the scan limit the index is rebuilt too), but a moved value keeps its
  // buffer: bytes borrowed from it stay valid.
  store.write(3, Bytes(64, 0xAB), TimePoint{100});
  const std::uint8_t* borrowed = store.get(3).value.data();
  for (ObjectId id = 40; id > 5; --id) store.insert(spec(id));
  store.insert(spec(0));
  store.erase(1);
  EXPECT_EQ(store.get(3).value.data(), borrowed);
  EXPECT_EQ(store.get(3).value, Bytes(64, 0xAB));
  const std::vector<ObjectId> ids = store.ids();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.size(), 38u);
  EXPECT_EQ(ids.front(), 0u);
  EXPECT_EQ(ids[1], 3u);
}

TEST(ObjectSpec, WindowIsDeltaDifference) {
  const ObjectSpec s = spec(1);
  EXPECT_EQ(s.window(), millis(40));
}

}  // namespace
}  // namespace rtpb::core
