// Shared fixture for storage-layer tests: a fresh StorageEngine in a
// temporary file.

#ifndef SEDNA_TESTS_STORAGE_STORAGE_TEST_UTIL_H_
#define SEDNA_TESTS_STORAGE_STORAGE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/storage_engine.h"
#include "tests/common/test_paths.h"

namespace sedna {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string("st_") + info->test_suite_name() + "_" + info->name();
    // Parameterized test names contain '/', which breaks file paths.
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = TestTempPath(name) + ".sedna";
    auto engine = StorageEngine::Create(StorageOptions{path_, 256});
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  void Reopen() {
    engine_.reset();
    auto engine = StorageEngine::Open(StorageOptions{path_, 256});
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  StorageEnv* env() { return engine_->env(); }
  OpCtx ctx_;  // system context
  std::string path_;
  std::unique_ptr<StorageEngine> engine_;
};

}  // namespace sedna

#endif  // SEDNA_TESTS_STORAGE_STORAGE_TEST_UTIL_H_
