//===- tests/ConfigMatrixTest.cpp - Corpus × configuration sweep ------------===//
//
// Every light corpus program must keep its expected verdict under every
// combination of checker configuration: {full, abstract monitor} ×
// {BFS, DFS} × {ε-collapse on, off}. BFS is the deterministic BFS
// reference (explore/Explorer.h); DFS is checkRobustness at one worker,
// whose own deque pops LIFO. The verdict is a semantic property of the
// program (Theorem 5.3); none of these engineering knobs may change it.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "litmus/Corpus.h"
#include "rocker/RobustnessChecker.h"

#include <gtest/gtest.h>

using namespace rocker;

namespace {

/// Fig. 7 entries that explore >100k states; excluded from the matrix to
/// keep the sweep fast (they are covered once each in Fig7Test).
bool isHeavy(const std::string &Name) {
  return Name == "seqlock" || Name == "nbw-w-lr-rl" || Name == "rcu" ||
         Name == "rcu-offline" || Name == "lamport2-3-ra";
}

std::vector<std::string> allLightPrograms() {
  std::vector<std::string> Names;
  for (const CorpusEntry &E : litmusTests())
    Names.push_back(E.Name);
  for (const CorpusEntry &E : extraLitmusTests())
    Names.push_back(E.Name);
  for (const CorpusEntry &E : morePrograms())
    Names.push_back(E.Name);
  for (const CorpusEntry &E : figure7Programs())
    if (!isHeavy(E.Name))
      Names.push_back(E.Name);
  return Names;
}

/// Exploration order of one matrix cell (see the file comment).
enum class SearchOrder : uint8_t { BFS, DFS };

} // namespace

using MatrixParam = std::tuple<std::string, bool, SearchOrder, bool>;

class ConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ConfigMatrix, VerdictIsConfigurationInvariant) {
  const auto &[Name, Abstract, Order, Collapse] = GetParam();
  const CorpusEntry &E = findCorpusEntry(Name);
  Program P = E.parse();
  RockerOptions O;
  O.UseCriticalAbstraction = Abstract;
  O.CollapseLocalSteps = Collapse;
  O.RecordTrace = false;
  O.MaxStates = 4'000'000;
  RockerReport R = Order == SearchOrder::BFS ? test::bfsReference(P, O)
                                             : checkRobustness(P, O);
  ASSERT_TRUE(R.Complete) << Name;
  EXPECT_EQ(R.Robust, E.ExpectRobust) << Name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ConfigMatrix,
    ::testing::Combine(::testing::ValuesIn(allLightPrograms()),
                       ::testing::Bool(),
                       ::testing::Values(SearchOrder::BFS, SearchOrder::DFS),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MatrixParam> &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      Name += std::get<1>(Info.param) ? "_abs" : "_full";
      Name += std::get<2>(Info.param) == SearchOrder::DFS ? "_dfs" : "_bfs";
      Name += std::get<3>(Info.param) ? "_collapse" : "_plain";
      return Name;
    });
