// invfs_check: the offline structural verifier. A clean workload must verify
// clean; each deliberate corruption must be reported under the specific
// invariant it breaks.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/access/btree_layout.h"
#include "src/check/checker.h"
#include "src/inversion/inv_fs.h"
#include "src/storage/page.h"
#include "src/util/bytes.h"
#include "src/vacuum/vacuum.h"

namespace invfs {
namespace {

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto session = fs_->NewSession();
    ASSERT_TRUE(session.ok());
    s_ = std::move(*session);
  }

  void MakeFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_creat(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  // Overwrite an existing file, superseding its fileatt version.
  void OverwriteFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_open(path, OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  // Flush the live database to stable storage and verify the image.
  CheckReport Check() {
    EXPECT_TRUE(db_->FlushCaches().ok());
    auto report = CheckImage(env_);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : CheckReport{};
  }

  Oid ChunkTableOid(const std::string& path) {
    const Snapshot snap{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
    auto oid = fs_->ResolvePath(path, snap);
    EXPECT_TRUE(oid.ok());
    auto table = db_->catalog().GetTable("inv" + std::to_string(*oid));
    EXPECT_TRUE(table.ok());
    return (*table)->oid;
  }

  // Corruption helper: mutate one stored page, then re-stamp its CRC so
  // deeper invariants (not the checksum) are what the checker trips on.
  void MutateAndRestamp(Oid rel, uint32_t block,
                        const std::function<void(std::byte*)>& mutate) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(env_.disk_store->Read(rel, block, buf).ok());
    mutate(buf.data());
    Page(buf.data()).UpdateChecksum();
    ASSERT_TRUE(env_.disk_store->Write(rel, block, buf).ok());
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

TEST_F(CheckTest, CleanImageAfterFileWorkload) {
  MakeFile("/a.txt", std::string(500, 'a'));
  MakeFile("/b.txt", std::string(20000, 'b'));  // multi-chunk
  ASSERT_TRUE(s_->mkdir("/sub").ok());
  MakeFile("/sub/c.txt", "nested");
  OverwriteFile("/a.txt", "overwritten");  // second version of fileatt row
  ASSERT_TRUE(s_->unlink("/b.txt").ok());

  const CheckReport report = Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.relations_checked, 5u);
  EXPECT_GT(report.pages_checked, 0u);
  EXPECT_GT(report.tuples_checked, 0u);
  EXPECT_GT(report.index_entries_checked, 0u);
}

TEST_F(CheckTest, CrashedInFlightTransactionLeavesCleanImage) {
  MakeFile("/durable.txt", "committed");
  // An uncommitted transaction whose pages reach stable storage before the
  // crash: the commit log makes its tuples dead, not the image corrupt.
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/inflight.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data(3000, 'x');
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
  ASSERT_TRUE(db_->buffers().FlushAll().ok());

  s_.reset();
  fs_.reset();
  db_->Crash();
  db_.reset();

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();

  // Recovery (= reopening) changes nothing about that verdict.
  auto db = Database::Open(&env_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  const CheckReport after = Check();
  EXPECT_TRUE(after.ok()) << after.ToString();
}

TEST_F(CheckTest, FlippedByteYieldsChecksumViolation) {
  MakeFile("/victim.txt", std::string(2000, 'v'));
  ASSERT_TRUE(db_->FlushCaches().ok());
  const Oid chunks = ChunkTableOid("/victim.txt");
  auto* store = static_cast<MemBlockStore*>(env_.disk_store.get());
  ASSERT_TRUE(store->CorruptByte(chunks, 0, kPageSize - 50).ok());

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("page-checksum")) << report->ToString();
}

TEST_F(CheckTest, CutVersionChainYieldsDuplicateCurrent) {
  MakeFile("/v.txt", "one");
  OverwriteFile("/v.txt", "two");  // supersedes: old fileatt version gets an xmax
  ASSERT_TRUE(db_->FlushCaches().ok());

  auto fileatt = db_->catalog().GetTable("fileatt");
  ASSERT_TRUE(fileatt.ok());
  const Oid rel = (*fileatt)->oid;
  auto nblocks = env_.disk_store->NumBlocks(rel);
  ASSERT_TRUE(nblocks.ok());
  // Cut the version chain: find a superseded version and clear its xmax, so
  // two committed versions of the same file are simultaneously current.
  bool cut = false;
  for (uint32_t b = 0; b < *nblocks && !cut; ++b) {
    MutateAndRestamp(rel, b, [&](std::byte* frame) {
      const uint16_t nslots = GetU16(frame + 2);
      for (uint16_t slot = 0; slot < nslots; ++slot) {
        const std::byte* lp = frame + kPageHeaderSize + slot * kLinePointerSize;
        const uint16_t off = GetU16(lp);
        const uint16_t len = GetU16(lp + 2);
        if (len < kTupleFixedHeader || GetU32(frame + off + 8) == kInvalidTxn) {
          continue;
        }
        PutU32(frame + off + 8, kInvalidTxn);  // xmax := never deleted
        cut = true;
        return;
      }
    });
  }
  ASSERT_TRUE(cut) << "no superseded fileatt version found";

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("duplicate-current-version")) << report->ToString();
}

TEST_F(CheckTest, OutOfOrderBtreeKeyDetected) {
  for (int i = 0; i < 20; ++i) {
    MakeFile("/f" + std::to_string(100 + i), "x");
  }
  ASSERT_TRUE(db_->FlushCaches().ok());

  auto naming = db_->catalog().GetTable("naming");
  ASSERT_TRUE(naming.ok());
  ASSERT_FALSE((*naming)->indexes.empty());
  const Oid index = (*naming)->indexes[0]->oid;
  auto nblocks = env_.disk_store->NumBlocks(index);
  ASSERT_TRUE(nblocks.ok());

  namespace bl = btree_layout;
  bool swapped = false;
  for (uint32_t b = 1; b < *nblocks && !swapped; ++b) {
    MutateAndRestamp(index, b, [&](std::byte* frame) {
      if (static_cast<uint8_t>(frame[bl::kOffType]) != bl::kNodeLeaf ||
          GetU16(frame + bl::kOffNKeys) < 2) {
        return;
      }
      // First two entries: u16 klen + key + 6-byte TID payload each. Swap the
      // first differing key byte (outside the TID suffix) between them, which
      // inverts their memcmp order.
      std::byte* e0 = frame + bl::kOffEntries;
      const uint16_t k0len = GetU16(e0);
      std::byte* k0 = e0 + 2;
      std::byte* e1 = e0 + 2 + k0len + 6;
      const uint16_t k1len = GetU16(e1);
      std::byte* k1 = e1 + 2;
      const size_t common = std::min(k0len, k1len) - bl::kTidSuffix;
      for (size_t p = 0; p < common; ++p) {
        if (k0[p] != k1[p]) {
          std::swap(k0[p], k1[p]);
          swapped = true;
          return;
        }
      }
    });
  }
  ASSERT_TRUE(swapped) << "no leaf with two distinguishable keys found";

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("btree-key-order")) << report->ToString();
}

TEST_F(CheckTest, OrphanChunkTableDetected) {
  // A chunk table whose file oid no fileatt version references: unreachable
  // storage that a lost delete (or botched vacuum) would leave behind.
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  const Schema chunk_schema{{"chunkno", TypeId::kInt4},
                            {"data", TypeId::kBytea},
                            {"selfid", TypeId::kInt8},
                            {"rawlen", TypeId::kInt4}};
  auto table = db_->catalog().CreateTable(*txn, "inv77777", chunk_schema,
                                          kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  const CheckReport report = Check();
  EXPECT_TRUE(report.Has("orphan-chunk-table")) << report.ToString();
}

TEST_F(CheckTest, VacuumedUnlinkLeavesCleanImage) {
  // Vacuum moves an unlinked file's fileatt rows into the archive relation
  // "a,fileatt"; time travel still reads the file's chunk table through
  // them, so that chunk table is referenced, not orphaned.
  MakeFile("/doomed.txt", std::string(3000, 'd'));
  ASSERT_TRUE(s_->unlink("/doomed.txt").ok());
  VacuumCleaner vacuum(db_.get());
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  auto stats = vacuum.VacuumAll(*txn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->archived, 0u);
  ASSERT_TRUE(db_->Commit(*txn).ok());

  const CheckReport report = Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(CheckTest, MissingRelationDetected) {
  MakeFile("/gone.txt", "data");
  ASSERT_TRUE(db_->FlushCaches().ok());
  const Oid chunks = ChunkTableOid("/gone.txt");
  ASSERT_TRUE(env_.disk_store->Drop(chunks).ok());

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("relation-missing")) << report->ToString();
}

TEST_F(CheckTest, UnreferencedRelationDetected) {
  MakeFile("/any.txt", "data");
  ASSERT_TRUE(db_->FlushCaches().ok());
  ASSERT_TRUE(env_.disk_store->Create(4242).ok());

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("relation-unreferenced")) << report->ToString();
}

TEST_F(CheckTest, ChunkSelfIdentMismatchDetected) {
  MakeFile("/w.txt", std::string(1000, 'w'));
  ASSERT_TRUE(db_->FlushCaches().ok());
  const Oid chunks = ChunkTableOid("/w.txt");

  // Rewrite the selfid of the first chunk record to a wrong value. The first
  // tuple sits at the very end of the page and selfid is its last (or
  // second-to-last, when rawlen is stored) column; rather than chase the exact
  // offset, flip each candidate byte of the tuple tail until the record-level
  // check (not the page CRC, which we re-stamp) fires.
  bool hit = false;
  for (uint32_t off = kPageSize - 1; off > kPageSize - 24 && !hit; --off) {
    MutateAndRestamp(chunks, 0, [&](std::byte* frame) { frame[off] ^= std::byte{0xFF}; });
    auto report = CheckImage(env_);
    ASSERT_TRUE(report.ok());
    if (report->Has("chunk-self-ident")) {
      hit = true;
    } else {
      MutateAndRestamp(chunks, 0,
                       [&](std::byte* frame) { frame[off] ^= std::byte{0xFF}; });
    }
  }
  EXPECT_TRUE(hit) << "no byte in the tuple tail tripped the selfid check";
}

}  // namespace
}  // namespace invfs
