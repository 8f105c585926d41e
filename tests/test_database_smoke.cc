// End-to-end smoke tests of the storage engine: bootstrap, DDL, DML, MVCC
// visibility, time travel, crash recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "src/catalog/database.h"
#include "src/inversion/inv_fs.h"

namespace invfs {
namespace {

Schema TestSchema() {
  return Schema{{"k", TypeId::kInt4}, {"v", TypeId::kText}};
}

TEST(DatabaseSmoke, BootstrapAndReopen) {
  StorageEnv env;
  {
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->catalog().GetTable("pg_class").ok());
  }
  {
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->catalog().GetTable("pg_class").ok());
  }
}

TEST(DatabaseSmoke, CreateInsertScanCommit) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto table = db.catalog().CreateTable(*txn, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (int i = 0; i < 100; ++i) {
    auto tid = db.InsertRow(*txn, *table,
                            {Value::Int4(i), Value::Text("row" + std::to_string(i))});
    ASSERT_TRUE(tid.ok()) << tid.status().ToString();
  }
  ASSERT_TRUE(db.Commit(*txn).ok());

  auto txn2 = db.Begin();
  ASSERT_TRUE(txn2.ok());
  Snapshot snap = db.SnapshotFor(*txn2);
  int count = 0;
  auto it = (*table)->heap->Scan(snap);
  while (it.Next()) {
    ++count;
  }
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(count, 100);
  ASSERT_TRUE(db.Commit(*txn2).ok());
}

TEST(DatabaseSmoke, AbortHidesRows) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto setup = db.Begin();
  auto table = db.catalog().CreateTable(*setup, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db.Commit(*setup).ok());

  auto txn = db.Begin();
  ASSERT_TRUE(db.InsertRow(*txn, *table, {Value::Int4(1), Value::Text("x")}).ok());
  ASSERT_TRUE(db.Abort(*txn).ok());

  auto reader = db.Begin();
  auto it = (*table)->heap->Scan(db.SnapshotFor(*reader));
  EXPECT_FALSE(it.Next());
  ASSERT_TRUE(db.Commit(*reader).ok());
}

TEST(DatabaseSmoke, TimeTravelSeesOldVersions) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto setup = db.Begin();
  auto table = db.catalog().CreateTable(*setup, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  auto tid = db.InsertRow(*setup, *table, {Value::Int4(1), Value::Text("old")});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db.Commit(*setup).ok());

  const Timestamp before_update = db.Now();

  auto update = db.Begin();
  auto new_tid =
      db.ReplaceRow(*update, *table, *tid, {Value::Int4(1), Value::Text("new")});
  ASSERT_TRUE(new_tid.ok());
  ASSERT_TRUE(db.Commit(*update).ok());

  // Current snapshot sees "new".
  auto reader = db.Begin();
  auto now_it = (*table)->heap->Scan(db.SnapshotFor(*reader));
  ASSERT_TRUE(now_it.Next());
  EXPECT_EQ(now_it.row()[1].AsText(), "new");
  EXPECT_FALSE(now_it.Next());
  ASSERT_TRUE(db.Commit(*reader).ok());

  // Historical snapshot sees "old".
  auto old_it = (*table)->heap->Scan(db.SnapshotAt(before_update));
  ASSERT_TRUE(old_it.Next());
  EXPECT_EQ(old_it.row()[1].AsText(), "old");
  EXPECT_FALSE(old_it.Next());
}

TEST(DatabaseSmoke, CrashRecoveryRollsBackInFlight) {
  StorageEnv env;
  Oid table_oid = kInvalidOid;
  {
    auto db_or = Database::Open(&env);
    ASSERT_TRUE(db_or.ok());
    Database& db = **db_or;
    auto setup = db.Begin();
    auto table =
        db.catalog().CreateTable(*setup, "t", TestSchema(), kDeviceMagneticDisk);
    ASSERT_TRUE(table.ok());
    table_oid = (*table)->oid;
    ASSERT_TRUE(db.InsertRow(*setup, *table, {Value::Int4(1), Value::Text("durable")})
                    .ok());
    ASSERT_TRUE(db.Commit(*setup).ok());

    // In-flight transaction at crash time.
    auto inflight = db.Begin();
    ASSERT_TRUE(
        db.InsertRow(*inflight, *table, {Value::Int4(2), Value::Text("doomed")}).ok());
    // Force its pages out so the uncommitted tuple IS on stable storage; the
    // commit log is what must hide it.
    ASSERT_TRUE(db.buffers().FlushAll().ok());
    db.Crash();
  }
  {
    auto db_or = Database::Open(&env);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database& db = **db_or;
    auto table = db.catalog().GetTableByOid(table_oid);
    ASSERT_TRUE(table.ok());
    auto reader = db.Begin();
    auto it = (*table)->heap->Scan(db.SnapshotFor(*reader));
    ASSERT_TRUE(it.Next());
    EXPECT_EQ(it.row()[1].AsText(), "durable");
    EXPECT_FALSE(it.Next()) << "uncommitted tuple visible after crash";
    ASSERT_TRUE(db.Commit(*reader).ok());
  }
}

// What Database::Open reads from a crashed image of `files` committed 32 KB
// files, taken from the device.read.* spans (rel in `a`, block in `b`).
struct RecoveryReads {
  std::set<uint64_t> log_blocks;  // commit-log blocks read
  uint64_t chunk_reads = 0;       // blocks read of any file's chunk relation
  uint64_t image_pages = 0;       // magnetic-disk pages in the image
};

void RecoverCrashedImage(int files, RecoveryReads* out) {
  StorageEnv env;
  std::set<Oid> chunk_rels;
  {
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    InversionFs fs(db->get());
    ASSERT_TRUE(fs.Mount().ok());
    const std::vector<Oid> mounted = env.disk_store->ListRelations();
    auto session = fs.NewSession();
    ASSERT_TRUE(session.ok());
    const std::string data(32 * 1024, 'x');
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE((*session)->p_begin().ok());
      auto fd = (*session)->p_creat("/f" + std::to_string(i));
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      ASSERT_TRUE((*session)
                      ->p_write(*fd, std::as_bytes(std::span(data.data(), data.size())))
                      .ok());
      ASSERT_TRUE((*session)->p_close(*fd).ok());
      ASSERT_TRUE((*session)->p_commit().ok());
    }
    // The tables the file creations added are the files' chunk relations
    // (their chunk-number B-trees are indexes, not tables).
    for (Oid rel : env.disk_store->ListRelations()) {
      if (std::find(mounted.begin(), mounted.end(), rel) == mounted.end() &&
          (*db)->catalog().GetTableByOid(rel).ok()) {
        chunk_rels.insert(rel);
      }
    }
    ASSERT_EQ(chunk_rels.size(), static_cast<size_t>(files));
    (*db)->Crash();
  }
  for (Oid rel : env.disk_store->ListRelations()) {
    auto blocks = env.disk_store->NumBlocks(rel);
    ASSERT_TRUE(blocks.ok());
    out->image_pages += *blocks;
  }
  auto db = Database::Open(&env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const SpanRing& spans = (*db)->metrics().spans();
  ASSERT_EQ(spans.TotalDropped(), 0u);
  for (const SpanRecord& span : spans.Snapshot()) {
    if (std::string_view(span.name).starts_with("device.read.")) {
      if (span.a == kCommitLogRelOid) {
        out->log_blocks.insert(span.b);
      }
      out->chunk_reads += chunk_rels.count(static_cast<Oid>(span.a));
    }
  }
}

// "Instantaneous crash recovery": Open is reading the commit log, so what it
// reads tracks the log, not the data. An image of 64 times the files costs
// the same log blocks, and neither reads a block of any file's chunks.
TEST(DatabaseSmoke, RecoveryReadsCommitLogNotData) {
  RecoveryReads small;
  RecoveryReads large;
  ASSERT_NO_FATAL_FAILURE(RecoverCrashedImage(4, &small));
  ASSERT_NO_FATAL_FAILURE(RecoverCrashedImage(256, &large));
  EXPECT_GT(large.image_pages, 10 * small.image_pages);
  EXPECT_FALSE(small.log_blocks.empty());
  EXPECT_EQ(small.log_blocks, large.log_blocks);
  EXPECT_EQ(small.chunk_reads, 0u);
  EXPECT_EQ(large.chunk_reads, 0u);
}

TEST(DatabaseSmoke, IndexLookupFindsRows) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto txn = db.Begin();
  auto table = db.catalog().CreateTable(*txn, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  auto index = db.catalog().CreateIndex(*txn, *table, {0});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        db.InsertRow(*txn, *table, {Value::Int4(i), Value::Text("v" + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(db.Commit(*txn).ok());

  auto tids = (*index)->btree->Lookup(EncodeInt4Key(250));
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 1u);
  auto reader = db.Begin();
  auto row = (*table)->heap->Fetch(db.SnapshotFor(*reader), (*tids)[0]);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsText(), "v250");
  ASSERT_TRUE(db.Commit(*reader).ok());
  ASSERT_TRUE((*index)->btree->CheckInvariants().ok());
}

}  // namespace
}  // namespace invfs
