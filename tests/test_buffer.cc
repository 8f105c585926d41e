// Unit tests: the shared LRU buffer pool.

#include <gtest/gtest.h>

#include <string_view>
#include <thread>

#include "src/buffer/buffer_pool.h"

namespace invfs {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() {
    sw_.Register(kDeviceMagneticDisk,
                 std::make_unique<MagneticDiskDevice>(&store_, &clock_, DiskParams{}));
  }

  void CreateRel(Oid rel) {
    ASSERT_TRUE(sw_.Get(kDeviceMagneticDisk)->CreateRelation(rel).ok());
    sw_.BindRelation(rel, kDeviceMagneticDisk);
  }

  SimClock clock_;
  MemBlockStore store_;
  DeviceSwitch sw_;
};

TEST_F(BufferPoolTest, ExtendPinWriteRead) {
  CreateRel(1);
  BufferPool pool(&sw_, 8, &clock_);
  uint32_t block = 0;
  {
    auto ref = pool.Extend(1, &block);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(block, 0u);
    ref->data()[100] = std::byte{0x42};
    ref->MarkDirty();
  }
  EXPECT_EQ(*pool.NumBlocks(1), 1u);
  {
    auto ref = pool.Pin(1, 0);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[100], std::byte{0x42});
  }
  EXPECT_GE(pool.hits(), 1u);
}

TEST_F(BufferPoolTest, DirtyPageSurvivesEviction) {
  CreateRel(1);
  BufferPool pool(&sw_, 2, &clock_);  // tiny pool forces eviction
  for (int i = 0; i < 6; ++i) {
    uint32_t block = 0;
    auto ref = pool.Extend(1, &block);
    ASSERT_TRUE(ref.ok());
    ref->data()[0] = std::byte{static_cast<uint8_t>(i + 1)};
    ref->MarkDirty();
  }
  for (uint32_t b = 0; b < 6; ++b) {
    auto ref = pool.Pin(1, b);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], std::byte{static_cast<uint8_t>(b + 1)}) << b;
  }
}

TEST_F(BufferPoolTest, EvictionAndWriteBackCounters) {
  CreateRel(1);
  BufferPool pool(&sw_, 2, &clock_);  // tiny pool forces eviction
  EXPECT_EQ(pool.evictions(), 0u);
  EXPECT_EQ(pool.write_backs(), 0u);
  for (int i = 0; i < 6; ++i) {
    uint32_t block = 0;
    auto ref = pool.Extend(1, &block);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  // 6 extends through 2 frames: 4 frames were reclaimed, each flushing its
  // dirty page on the way out.
  EXPECT_EQ(pool.evictions(), 4u);
  EXPECT_GE(pool.write_backs(), 4u);
  const uint64_t misses_before = pool.misses();
  auto ref = pool.Pin(1, 0);  // long evicted: a fresh device read
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(pool.misses(), misses_before + 1);
}

TEST_F(BufferPoolTest, SharedRegistryExposesBufferCounters) {
  // When the pool is handed an external registry (as Database does), the same
  // counters are visible through registry snapshots under buffer.* names.
  CreateRel(1);
  MetricsRegistry reg;
  BufferPool pool(&sw_, 8, &clock_, CpuParams{}, /*partitions=*/0, &reg);
  uint32_t block = 0;
  auto ref = pool.Extend(1, &block);
  ASSERT_TRUE(ref.ok());
  ref->Release();
  auto again = pool.Pin(1, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(reg.GetCounter("buffer.hits")->Value(), pool.hits());
  EXPECT_GE(pool.hits(), 1u);
}

TEST_F(BufferPoolTest, EvictAndWriteBackSpansNameTheirPages) {
  // Two frames; block 0 stays pinned, so extending a third block evicts
  // block 1. Writing block 1 first forces pending block 0 out, and each page
  // written gets its own buffer.write_back span, the sibling's nested inside.
  CreateRel(1);
  MetricsRegistry reg;
  BufferPool pool(&sw_, 2, &clock_, CpuParams{}, /*partitions=*/0, &reg);
  uint32_t b0 = 0, b1 = 0, b2 = 0;
  auto r0 = pool.Extend(1, &b0);
  ASSERT_TRUE(r0.ok());
  r0->MarkDirty();
  {
    auto r1 = pool.Extend(1, &b1);
    ASSERT_TRUE(r1.ok());
    r1->MarkDirty();
  }
  auto r2 = pool.Extend(1, &b2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(pool.evictions(), 1u);

  const SpanRecord* evict = nullptr;
  const SpanRecord* own = nullptr;
  const SpanRecord* sibling = nullptr;
  const auto snap = reg.spans().Snapshot();
  for (const SpanRecord& r : snap) {
    const std::string_view name(r.name);
    if (name == "buffer.evict" && r.a == 1) {
      evict = &r;
    } else if (name == "buffer.write_back" && r.a == 1) {
      (r.b == b1 ? own : sibling) = &r;
    }
  }
  ASSERT_NE(evict, nullptr);
  EXPECT_EQ(evict->b, b1);
  ASSERT_NE(own, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(sibling->b, b0);
  EXPECT_EQ(sibling->parent_id, own->span_id);
  EXPECT_EQ(own->parent_id, evict->span_id);
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  CreateRel(1);
  BufferPool pool(&sw_, 2, &clock_);
  uint32_t b0 = 0, b1 = 0;
  auto r0 = pool.Extend(1, &b0);
  auto r1 = pool.Extend(1, &b1);
  ASSERT_TRUE(r0.ok() && r1.ok());
  // Both frames pinned: a third allocation must fail, not evict.
  uint32_t b2 = 0;
  auto r2 = pool.Extend(1, &b2);
  EXPECT_EQ(r2.status().code(), ErrorCode::kResourceExhausted);
  r0->Release();
  auto r3 = pool.Extend(1, &b2);
  EXPECT_TRUE(r3.ok());
}

TEST_F(BufferPoolTest, FlushRelationWritesDirtyPagesInOrder) {
  CreateRel(1);
  BufferPool pool(&sw_, 16, &clock_);
  for (int i = 0; i < 5; ++i) {
    uint32_t block = 0;
    auto ref = pool.Extend(1, &block);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  EXPECT_EQ(*store_.NumBlocks(1), 0u) << "nothing on device before flush";
  ASSERT_TRUE(pool.FlushRelation(1).ok());
  EXPECT_EQ(*store_.NumBlocks(1), 5u);
}

TEST_F(BufferPoolTest, OutOfOrderEvictionPreservesDeviceContiguity) {
  // Extended blocks may be evicted out of order; the pool must write lower
  // pending blocks first so the device never sees a hole.
  CreateRel(1);
  BufferPool pool(&sw_, 4, &clock_);
  uint32_t blocks[3];
  auto r0 = pool.Extend(1, &blocks[0]);
  auto r1 = pool.Extend(1, &blocks[1]);
  auto r2 = pool.Extend(1, &blocks[2]);
  ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok());
  r2->MarkDirty();
  r0->MarkDirty();
  r1->MarkDirty();
  // Touch 0 and 1 so block 2's frame is the LRU victim.
  r0->Release();
  r1->Release();
  r2->Release();
  {
    auto again = pool.Pin(1, 0);
    ASSERT_TRUE(again.ok());
  }
  {
    auto again = pool.Pin(1, 1);
    ASSERT_TRUE(again.ok());
  }
  // Force an eviction: fill the pool with another relation.
  CreateRel(2);
  for (int i = 0; i < 4; ++i) {
    uint32_t nb = 0;
    auto ref = pool.Extend(2, &nb);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  // Whatever the order, the store must now hold blocks without holes.
  auto n = store_.NumBlocks(1);
  ASSERT_TRUE(n.ok());
  std::vector<std::byte> out(kPageSize);
  for (uint32_t b = 0; b < *n; ++b) {
    EXPECT_TRUE(store_.Read(1, b, out).ok()) << "hole at block " << b;
  }
}

TEST_F(BufferPoolTest, NumBlocksIncludesPendingExtensions) {
  CreateRel(1);
  BufferPool pool(&sw_, 8, &clock_);
  uint32_t block = 0;
  auto ref = pool.Extend(1, &block);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(*pool.NumBlocks(1), 1u);
  EXPECT_EQ(*store_.NumBlocks(1), 0u);  // not on the device yet
}

TEST_F(BufferPoolTest, FlushAndInvalidateDropsCleanState) {
  CreateRel(1);
  BufferPool pool(&sw_, 8, &clock_);
  {
    uint32_t block = 0;
    auto ref = pool.Extend(1, &block);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());
  const uint64_t misses_before = pool.misses();
  {
    auto ref = pool.Pin(1, 0);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pool.misses(), misses_before + 1) << "pin after invalidate must re-read";
}

TEST_F(BufferPoolTest, DiscardAllLosesDirtyData) {
  // Crash semantics: unflushed data vanishes.
  CreateRel(1);
  BufferPool pool(&sw_, 8, &clock_);
  {
    uint32_t block = 0;
    auto ref = pool.Extend(1, &block);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  pool.DiscardAll();
  EXPECT_EQ(*store_.NumBlocks(1), 0u);
  EXPECT_EQ(*pool.NumBlocks(1), 0u);
}

TEST_F(BufferPoolTest, DiscardRelationOnlyAffectsThatRelation) {
  CreateRel(1);
  CreateRel(2);
  BufferPool pool(&sw_, 8, &clock_);
  uint32_t b = 0;
  {
    auto r1 = pool.Extend(1, &b);
    ASSERT_TRUE(r1.ok());
    r1->data()[0] = std::byte{0xAA};
    r1->MarkDirty();
  }
  {
    auto r2 = pool.Extend(2, &b);
    ASSERT_TRUE(r2.ok());
    r2->MarkDirty();
  }
  pool.DiscardRelation(2);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(*store_.NumBlocks(1), 1u);
  EXPECT_EQ(*store_.NumBlocks(2), 0u);
}

TEST_F(BufferPoolTest, LruEvictsColdestFrame) {
  CreateRel(1);
  BufferPool pool(&sw_, 3, &clock_);
  for (int i = 0; i < 3; ++i) {
    uint32_t block = 0;
    auto ref = pool.Extend(1, &block);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  // Touch blocks 1 and 2; block 0 becomes LRU.
  (void)*pool.Pin(1, 1);
  (void)*pool.Pin(1, 2);
  const uint64_t misses_before = pool.misses();
  CreateRel(3);
  uint32_t nb = 0;
  ASSERT_TRUE(pool.Extend(3, &nb).ok());  // evicts block 0
  (void)*pool.Pin(1, 1);                  // still cached
  (void)*pool.Pin(1, 2);                  // still cached
  EXPECT_EQ(pool.misses(), misses_before);
  (void)*pool.Pin(1, 0);  // must re-read
  EXPECT_EQ(pool.misses(), misses_before + 1);
}

// Regression: releasing a PageRef on a thread other than the one that pinned
// it used to decrement the *releasing* thread's pin counter, driving it
// negative and leaving the pinning thread's counter stuck positive (which the
// lock manager reads to police latch-then-lock ordering).
TEST_F(BufferPoolTest, CrossThreadReleaseBalancesPinAccounting) {
  CreateRel(1);
  BufferPool pool(&sw_, 2, &clock_);
  {
    auto ref = pool.Extend(1, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  EXPECT_EQ(BufferPool::ThreadPinCount(), 0);
  auto ref = pool.Pin(1, 0);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(BufferPool::ThreadPinCount(), 1);

  std::thread other([&] {
    EXPECT_EQ(BufferPool::ThreadPinCount(), 0)
        << "a fresh thread holds no pins";
    ref->Release();
    EXPECT_EQ(BufferPool::ThreadPinCount(), 0)
        << "releasing a foreign pin must not charge the releasing thread";
  });
  other.join();

  EXPECT_EQ(BufferPool::ThreadPinCount(), 0)
      << "the pinning thread must be debited by the remote release";
  // And the frame is genuinely unpinned: invalidation refuses pinned frames.
  EXPECT_TRUE(pool.FlushAndInvalidate().ok());
}

TEST_F(BufferPoolTest, PartitionCountRoundsUpToPowerOfTwo) {
  CreateRel(1);
  BufferPool defaulted(&sw_, 4, &clock_);
  EXPECT_EQ(defaulted.num_partitions(), kDefaultPoolPartitions);
  BufferPool single(&sw_, 4, &clock_, CpuParams{}, 1);
  EXPECT_EQ(single.num_partitions(), 1u);
  BufferPool odd(&sw_, 4, &clock_, CpuParams{}, 3);
  EXPECT_EQ(odd.num_partitions(), 4u);
}

// Forwards to an NvramDevice but fails every WriteBlock while armed: lets
// the tests below exercise write-back failure on the eviction path.
class FailingWriteDevice final : public DeviceManager {
 public:
  explicit FailingWriteDevice(BlockStore* store) : inner_(store) {}

  std::string_view name() const override { return "failing-write"; }
  Status CreateRelation(Oid rel) override { return inner_.CreateRelation(rel); }
  Status DropRelation(Oid rel) override { return inner_.DropRelation(rel); }
  bool RelationExists(Oid rel) const override { return inner_.RelationExists(rel); }
  Result<uint32_t> NumBlocks(Oid rel) const override { return inner_.NumBlocks(rel); }
  Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) override {
    return inner_.ReadBlock(rel, block, out);
  }
  Status WriteBlock(Oid rel, uint32_t block, std::span<const std::byte> data) override {
    if (fail_writes.load()) {
      return Status::Internal("injected write failure");
    }
    return inner_.WriteBlock(rel, block, data);
  }

  std::atomic<bool> fail_writes{false};

 private:
  NvramDevice inner_;
};

// Regression: eviction used to unmap the victim *before* the dirty
// write-back, so a failed device write left the page unreachable and its
// data silently lost. The write-back must come first; a failure leaves the
// dirty page mapped and retryable.
TEST(BufferPoolFailureTest, EvictionWriteFailureKeepsDirtyPageReachable) {
  MemBlockStore store;
  SimClock clock;
  DeviceSwitch sw;
  auto owned = std::make_unique<FailingWriteDevice>(&store);
  FailingWriteDevice* dev = owned.get();
  sw.Register(kDeviceNvram, std::move(owned));
  for (Oid rel : {1, 2}) {
    ASSERT_TRUE(dev->CreateRelation(rel).ok());
    sw.BindRelation(rel, kDeviceNvram);
  }

  BufferPool pool(&sw, 4, &clock);
  // Seed rel 1 on the device so a later Pin of it misses and must evict.
  for (int b = 0; b < 4; ++b) {
    auto ref = pool.Extend(1, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());

  // Fill every frame with dirty, unflushed pages of rel 2.
  for (int b = 0; b < 4; ++b) {
    auto ref = pool.Extend(2, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->data()[kPageHeaderSize] = std::byte{static_cast<uint8_t>(b + 1)};
    ref->MarkDirty();
  }

  dev->fail_writes.store(true);
  // The miss forces an eviction whose write-back fails: the Pin reports the
  // error, and the victim's dirty page must still be mapped and dirty.
  EXPECT_FALSE(pool.Pin(1, 0).ok());
  dev->fail_writes.store(false);

  // Retry succeeds and no page was lost.
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());
  for (uint32_t b = 0; b < 4; ++b) {
    auto ref = pool.Pin(2, b);
    ASSERT_TRUE(ref.ok()) << "block " << b;
    EXPECT_EQ(ref->data()[kPageHeaderSize], std::byte{static_cast<uint8_t>(b + 1)})
        << "block " << b;
  }
}

// The mapping is sharded but the frames are shared: a relation hashed to one
// shard must still be able to use every frame in the pool.
TEST_F(BufferPoolTest, ShardedPoolSharesFramesAcrossPartitions) {
  CreateRel(1);
  BufferPool pool(&sw_, 8, &clock_, CpuParams{}, 8);
  std::vector<PageRef> refs;
  for (int i = 0; i < 8; ++i) {
    auto ref = pool.Extend(1, nullptr);
    ASSERT_TRUE(ref.ok()) << "frame " << i << " must be allocatable";
    ref->MarkDirty();
    refs.push_back(std::move(*ref));
  }
  // All 8 frames pinned; a 9th page must fail with every buffer pinned.
  EXPECT_FALSE(pool.Extend(1, nullptr).ok());
  refs.clear();
  EXPECT_TRUE(pool.Extend(1, nullptr).ok());
}

}  // namespace
}  // namespace invfs
