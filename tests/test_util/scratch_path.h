#ifndef DEHEALTH_TESTS_TEST_UTIL_SCRATCH_PATH_H_
#define DEHEALTH_TESTS_TEST_UTIL_SCRATCH_PATH_H_

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace dehealth {

/// A fresh scratch directory owned by one test, removed recursively on
/// destruction (files inside — snapshots, segments, their ".quarantined"
/// siblings — go with it). The path is
///   <::testing::TempDir()>/dehealth-<Suite>.<Test>-<pid>-<n>
/// so parameterized instances, concurrent `ctest -j` processes and several
/// directories inside one test never share a location.
class ScratchDir {
 public:
  ScratchDir() {
    static std::atomic<int> counter{0};
    std::string name = "unknown";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info())
      name = std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : name)
      if (c == '/' || c == ' ') c = '_';
    name = "dehealth-" + name + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(counter++);
    path_ = (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

/// One file path `name` inside its own ScratchDir; the file (if the test
/// creates it) is removed with the directory.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name) : path_(dir_.File(name)) {}
  const std::string& path() const { return path_; }

 private:
  ScratchDir dir_;
  std::string path_;
};

}  // namespace dehealth

#endif  // DEHEALTH_TESTS_TEST_UTIL_SCRATCH_PATH_H_
