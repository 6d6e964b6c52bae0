// Scratch file names for tests. A fixture that names its files after the
// running test would share them with a second process running the same
// test (two builds side by side, or a repeated run in parallel), so every
// name carries the process id as well.

#ifndef SEDNA_TESTS_COMMON_TEST_PATHS_H_
#define SEDNA_TESTS_COMMON_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace sedna {

/// `::testing::TempDir()` + `name` + "_" + this process's id. Callers add
/// their own extension.
inline std::string TestTempPath(const std::string& name) {
  return ::testing::TempDir() + name + "_" + std::to_string(::getpid());
}

}  // namespace sedna

#endif  // SEDNA_TESTS_COMMON_TEST_PATHS_H_
