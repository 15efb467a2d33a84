// DHSG segment format coverage: round-trips, every malformed-input error
// path (a Status, never a crash), the LSM compaction contract, and the
// fault-injection sites of the ingest I/O — including the
// quarantine-and-recompute loop of WriteSegmentVerified under a
// bit-flipping disk.

#include "ingest/segment.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "io/file_util.h"
#include "io/forum_io.h"
#include "test_util/scratch_path.h"

namespace dehealth {
namespace ingest {
namespace {

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

DeltaSegment MakeSegment(uint64_t parent, uint64_t result) {
  DeltaSegment segment;
  segment.parent_fingerprint = parent;
  segment.result_fingerprint = result;
  segment.base_posts = 4;
  segment.num_users_after = 3;
  segment.num_threads_after = 2;
  segment.posts = {
      {0, 0, "my migraines are back again"},
      {2, 1, "ask about a preventative\ndose"},
      {1, 0, ""},
  };
  return segment;
}

class SegmentTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(SegmentTest, EncodeDecodeRoundTrip) {
  const DeltaSegment segment = MakeSegment(11, 22);
  auto decoded = DecodeSegment(EncodeSegment(segment));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->parent_fingerprint, 11u);
  EXPECT_EQ(decoded->result_fingerprint, 22u);
  EXPECT_EQ(decoded->shard_index, 0u);
  EXPECT_EQ(decoded->shard_count, 1u);
  EXPECT_EQ(decoded->base_posts, 4u);
  EXPECT_EQ(decoded->num_users_after, 3);
  EXPECT_EQ(decoded->num_threads_after, 2);
  ASSERT_EQ(decoded->posts.size(), 3u);
  EXPECT_EQ(decoded->posts[1].user_id, 2);
  EXPECT_EQ(decoded->posts[1].thread_id, 1);
  EXPECT_EQ(decoded->posts[1].text, "ask about a preventative\ndose");
  EXPECT_EQ(decoded->posts[2].text, "");
}

TEST_F(SegmentTest, DecodeRejectsBadMagic) {
  std::string bytes = EncodeSegment(MakeSegment(1, 2));
  bytes[0] = 'X';
  auto decoded = DecodeSegment(bytes);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, DecodeRejectsFutureVersion) {
  std::string bytes = EncodeSegment(MakeSegment(1, 2));
  bytes[4] = 99;  // u32 version, little-endian low byte
  auto decoded = DecodeSegment(bytes);
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

TEST_F(SegmentTest, DecodeRejectsVersionZero) {
  // A zeroed version byte is an invalid file, not "an old version" — it
  // must never be silently parsed with the v1 layout.
  std::string bytes = EncodeSegment(MakeSegment(1, 2));
  bytes[4] = 0;
  auto decoded = DecodeSegment(bytes);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, FileMagicProbeDistinguishesSegments) {
  ScratchFile segment_file("dhsg_magic_probe.dhsg");
  ASSERT_TRUE(SaveSegmentFile(MakeSegment(1, 2), segment_file.path()).ok());
  EXPECT_TRUE(FileHasSegmentMagic(segment_file.path()));
  ScratchFile other_file("dhsg_magic_probe.txt");
  ASSERT_TRUE(
      WriteStringToFileAtomic("not a segment", other_file.path()).ok());
  EXPECT_FALSE(FileHasSegmentMagic(other_file.path()));
  EXPECT_FALSE(FileHasSegmentMagic(ScratchDir().File("missing.dhsg")));
  // Shorter than the magic itself.
  ScratchFile tiny_file("dhsg_magic_probe_tiny.bin");
  ASSERT_TRUE(WriteStringToFileAtomic("DH", tiny_file.path()).ok());
  EXPECT_FALSE(FileHasSegmentMagic(tiny_file.path()));
}

TEST_F(SegmentTest, DecodeRejectsFlippedBitAnywhere) {
  const std::string clean = EncodeSegment(MakeSegment(1, 2));
  // Flip one bit in every byte past the header; the checksum (or a bounds
  // check, for bytes in the trailer itself) must catch each one.
  for (size_t i = 8; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    EXPECT_FALSE(DecodeSegment(bytes).ok()) << "byte " << i;
  }
}

TEST_F(SegmentTest, DecodeRejectsTruncation) {
  const std::string clean = EncodeSegment(MakeSegment(1, 2));
  for (size_t keep = 0; keep < clean.size(); keep += 7)
    EXPECT_FALSE(DecodeSegment(clean.substr(0, keep)).ok())
        << "kept " << keep;
}

TEST_F(SegmentTest, DecodeRejectsNegativePostIds) {
  DeltaSegment bad = MakeSegment(1, 2);
  bad.posts[0].user_id = -1;
  EXPECT_EQ(DecodeSegment(EncodeSegment(bad)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, DecodeRejectsPostBeyondUniverse) {
  DeltaSegment bad = MakeSegment(1, 2);
  bad.posts[0].user_id = bad.num_users_after;  // == num_users_after is oob
  EXPECT_FALSE(DecodeSegment(EncodeSegment(bad)).ok());
}

TEST_F(SegmentTest, SaveLoadRoundTrip) {
  ScratchFile file("dhsg_roundtrip.dhsg");
  const DeltaSegment segment = MakeSegment(7, 8);
  ASSERT_TRUE(SaveSegmentFile(segment, file.path()).ok());
  auto loaded = LoadSegmentFile(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeSegment(*loaded), EncodeSegment(segment));
}

TEST_F(SegmentTest, LoadMissingFileIsNotFound) {
  auto loaded = LoadSegmentFile(ScratchDir().File("missing.dhsg"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SegmentTest, SaveFaultSitePropagates) {
  ScratchFile file("dhsg_save_fault.dhsg");
  ASSERT_TRUE(
      FaultInjector::Global().Configure("segment.save:enospc:1").ok());
  EXPECT_FALSE(SaveSegmentFile(MakeSegment(1, 2), file.path()).ok());
}

TEST_F(SegmentTest, LoadFaultSitePropagates) {
  ScratchFile file("dhsg_load_fault.dhsg");
  ASSERT_TRUE(SaveSegmentFile(MakeSegment(1, 2), file.path()).ok());
  ASSERT_TRUE(
      FaultInjector::Global().Configure("segment.load:fail:1").ok());
  EXPECT_FALSE(LoadSegmentFile(file.path()).ok());
}

TEST_F(SegmentTest, LoadDataFaultIsCaughtByChecksum) {
  ScratchFile file("dhsg_load_flip.dhsg");
  ASSERT_TRUE(SaveSegmentFile(MakeSegment(1, 2), file.path()).ok());
  ASSERT_TRUE(
      FaultInjector::Global().Configure("segment.load.data:flip:1").ok());
  auto loaded = LoadSegmentFile(file.path());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// The satellite contract: a bit flip on the write path is detected by the
// read-back, the corrupt file is quarantined, and the recomputed rewrite
// succeeds — the final artifact on disk is clean.
TEST_F(SegmentTest, WriteVerifiedQuarantinesAndRecomputes) {
  ScratchFile file("dhsg_write_flip.dhsg");
  const DeltaSegment segment = MakeSegment(5, 6);
  ASSERT_TRUE(
      FaultInjector::Global().Configure("segment.write.data:flip:1").ok());
  Status written = WriteSegmentVerified(segment, file.path());
  ASSERT_TRUE(written.ok()) << written.ToString();
  // The poisoned first write was moved aside...
  EXPECT_TRUE(FileExists(file.path() + ".quarantined"));
  // ...and the rewrite is bit-exact.
  FaultInjector::Global().Reset();
  auto loaded = LoadSegmentFile(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeSegment(*loaded), EncodeSegment(segment));
}

TEST_F(SegmentTest, WriteVerifiedGivesUpOnPersistentCorruption) {
  ScratchFile file("dhsg_write_dead_disk.dhsg");
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("segment.write.data:flip:1:0")
                  .ok());
  EXPECT_FALSE(WriteSegmentVerified(MakeSegment(5, 6), file.path()).ok());
}

TEST_F(SegmentTest, CompactMergesAChain) {
  DeltaSegment a = MakeSegment(10, 20);
  DeltaSegment b = MakeSegment(20, 30);
  b.base_posts = a.base_posts + a.posts.size();
  b.num_users_after = 5;
  b.num_threads_after = 4;
  b.posts = {{4, 3, "new clinic opened"}};
  auto merged = CompactSegments({a, b});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->parent_fingerprint, 10u);
  EXPECT_EQ(merged->result_fingerprint, 30u);
  EXPECT_EQ(merged->base_posts, a.base_posts);
  EXPECT_EQ(merged->num_users_after, 5);
  EXPECT_EQ(merged->num_threads_after, 4);
  ASSERT_EQ(merged->posts.size(), a.posts.size() + b.posts.size());
  EXPECT_EQ(merged->posts.back().text, "new clinic opened");
}

TEST_F(SegmentTest, CompactRejectsEmptyChain) {
  EXPECT_EQ(CompactSegments({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SegmentTest, CompactRejectsBrokenFingerprintChain) {
  DeltaSegment a = MakeSegment(10, 20);
  DeltaSegment b = MakeSegment(999, 30);  // does not apply to a's result
  EXPECT_EQ(CompactSegments({a, b}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SegmentTest, CompactRejectsMixedShardIdentity) {
  DeltaSegment a = MakeSegment(10, 20);
  DeltaSegment b = MakeSegment(20, 30);
  b.shard_index = 1;
  b.shard_count = 4;
  EXPECT_EQ(CompactSegments({a, b}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SegmentTest, CompactFaultSitePropagates) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("segment.compact:fail:1").ok());
  EXPECT_FALSE(CompactSegments({MakeSegment(1, 2)}).ok());
}

TEST_F(SegmentTest, TailReaderSkipsCoveredPrefix) {
  ScratchFile file("dhsg_tail.jsonl");
  ForumDataset forum;
  forum.num_users = 3;
  forum.num_threads = 2;
  forum.posts = {{0, 0, "one"}, {1, 0, "two"}, {2, 1, "three"}};
  ASSERT_TRUE(SaveForumDataset(forum, file.path()).ok());
  auto tail = LoadTailPosts(file.path(), 2);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].text, "three");
  // An offset past the end means the log was truncated or rotated.
  auto truncated = LoadTailPosts(file.path(), 4);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated or rotated"),
            std::string::npos);
}

TEST_F(SegmentTest, TailReaderDataFaultFailsClosed) {
  ScratchFile file("dhsg_tail_fault.jsonl");
  ForumDataset forum;
  forum.num_users = 1;
  forum.num_threads = 1;
  forum.posts = {{0, 0, "only"}};
  ASSERT_TRUE(SaveForumDataset(forum, file.path()).ok());
  ASSERT_TRUE(
      FaultInjector::Global().Configure("forum.tail.data:short:1").ok());
  EXPECT_FALSE(LoadTailPosts(file.path(), 0).ok());
}

}  // namespace
}  // namespace ingest
}  // namespace dehealth
