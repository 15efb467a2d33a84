#include "io/file_util.h"

#include <string>

#include <gtest/gtest.h>

#include "test_util/scratch_path.h"

namespace dehealth {
namespace {

TEST(FileUtilTest, RoundTripsBinaryContent) {
  const ScratchFile file("file_util_test.bin");
  const std::string& path = file.path();
  std::string content = "binary\0payload\nwith\tstuff";
  content += '\0';
  content += '\xFF';
  ASSERT_TRUE(WriteStringToFile(content, path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
}

TEST(FileUtilTest, RoundTripsEmptyFile) {
  const ScratchFile file("file_util_empty.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(WriteStringToFile("", path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST(FileUtilTest, MissingFileIsNotFound) {
  auto r = ReadFileToString(ScratchDir().File("missing.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(FileUtilTest, UnwritableDirectoryIsNotFound) {
  auto s = WriteStringToFile("x", "/nonexistent_dir/file.bin");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(FileUtilTest, AtomicWriteRoundTripsAndLeavesNoTempFile) {
  const ScratchFile file("file_util_atomic.bin");
  const std::string& path = file.path();
  std::string content = "snapshot\0bytes";
  content += '\xFE';
  ASSERT_TRUE(WriteStringToFileAtomic(content, path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);
  // The crash-window staging file must not survive a successful write.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
}

TEST(FileUtilTest, AtomicWriteReplacesExistingFileWholesale) {
  const ScratchFile file("file_util_atomic_replace.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(WriteStringToFile("old content, longer than new", path).ok());
  ASSERT_TRUE(WriteStringToFileAtomic("new", path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  // Rename semantics: the old bytes are gone entirely, never a mixed
  // prefix/suffix as in-place truncating writes can leave on a crash.
  EXPECT_EQ(*read, "new");
}

TEST(FileUtilTest, AtomicWriteRecoversFromStaleTempFile) {
  const ScratchFile file("file_util_atomic_stale.bin");
  const std::string& path = file.path();
  // Simulate a crash mid-write from an earlier process: a stale .tmp left
  // behind must not block (or corrupt) the next atomic write.
  ASSERT_TRUE(WriteStringToFile("half-written garb", path + ".tmp").ok());
  ASSERT_TRUE(WriteStringToFileAtomic("fresh", path).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "fresh");
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
}

TEST(FileUtilTest, AtomicWriteToUnwritableDirectoryIsNotFound) {
  auto s = WriteStringToFileAtomic("x", "/nonexistent_dir/file.bin");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("cannot open for writing"), std::string::npos);
}

}  // namespace
}  // namespace dehealth
