// Helpers shared by the gtest suites.
//
//   * testDir(): a scratch directory private to the running test.  ctest
//     runs every discovered test as its own process, in parallel, so a
//     fixed ::testing::TempDir() + "name" path is shared by concurrent
//     tests, which then overwrite each other's files.
//   * referencePositionalPatch(): the first-match scan the positional-
//     patch rule was first written as, kept as the reference that
//     net::patchEdges, Graph::applyDelta and dataset::applyPositionalPatch
//     are checked against.
//   * expectCheckError(): a call must throw a CheckError whose message
//     contains a given text.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "net/graph.h"
#include "util/check.h"

namespace dynet::testsupport {

namespace detail {

/// Removes every directory testDir() handed out when the process exits.
struct ScratchDirs {
  std::vector<std::filesystem::path> dirs;
  ~ScratchDirs() {
    for (const std::filesystem::path& dir : dirs) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

inline ScratchDirs& scratchDirs() {
  static ScratchDirs dirs;
  return dirs;
}

}  // namespace detail

/// "<TempDir>/dynet-<pid>-<Suite>.<Test>/", created on first use and
/// removed at process exit.  Paths under it are unique to one test in one
/// process, so the suites stay hermetic under `ctest -j` and repeats.
inline std::string testDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key = info == nullptr ? std::string("no-test")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  // Parameterized names carry '/'; keep the path one shell-safe word.
  std::replace_if(
      key.begin(), key.end(),
      [](char c) { return !std::isalnum(static_cast<unsigned char>(c)) &&
                          c != '.' && c != '-' && c != '_'; },
      '_');
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("dynet-" + std::to_string(::getpid()) + "-" + key);
  if (!std::filesystem::exists(dir)) {
    std::filesystem::create_directories(dir);
    detail::scratchDirs().dirs.push_back(dir);
  }
  return dir.string() + "/";
}

/// Expects `fn()` to throw a util::CheckError whose message contains
/// `needle`.
inline void expectCheckError(const auto& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected a CheckError mentioning '" << needle << "'";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

/// The positional-patch rule as a first-match scan: removed[i] takes the
/// first slot equal to it that no removed[j], j < i, took; added[i]
/// overwrites that slot while both lists last, extra adds append, extra
/// holes close by a stable shift.  Returns removed.size(), or the index of
/// the first removed edge with no slot (leaving `edges` untouched).
inline std::size_t referencePositionalPatch(
    std::vector<net::Edge>& edges, const std::vector<net::Edge>& removed,
    const std::vector<net::Edge>& added) {
  std::vector<std::size_t> removed_at(removed.size());
  for (std::size_t i = 0; i < removed.size(); ++i) {
    std::size_t pos = edges.size();
    for (std::size_t j = 0; j < edges.size(); ++j) {
      if (edges[j] == removed[i] &&
          std::find(removed_at.begin(), removed_at.begin() + i, j) ==
              removed_at.begin() + i) {
        pos = j;
        break;
      }
    }
    if (pos == edges.size()) {
      return i;
    }
    removed_at[i] = pos;
  }
  const std::size_t paired = std::min(removed.size(), added.size());
  for (std::size_t i = 0; i < paired; ++i) {
    edges[removed_at[i]] = added[i];
  }
  for (std::size_t i = paired; i < added.size(); ++i) {
    edges.push_back(added[i]);
  }
  if (removed.size() > paired) {
    std::vector<std::size_t> holes(
        removed_at.begin() + static_cast<std::ptrdiff_t>(paired),
        removed_at.end());
    std::sort(holes.begin(), holes.end());
    std::size_t out = holes.front();
    std::size_t next_hole = 0;
    for (std::size_t j = holes.front(); j < edges.size(); ++j) {
      if (next_hole < holes.size() && j == holes[next_hole]) {
        ++next_hole;
        continue;
      }
      edges[out++] = edges[j];
    }
    edges.resize(out);
  }
  return removed.size();
}

}  // namespace dynet::testsupport
