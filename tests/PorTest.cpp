//===- tests/PorTest.cpp - Ample-set POR soundness --------------------------===//
//
// The monitor-aware ample-set partial-order reduction (explore/Por.h)
// must preserve every observable of a verification run:
//
//  * verdicts (robustness, assertion failures, races) corpus-wide and on
//    random programs, at 1 and 4 worker threads;
//  * the *set* of violation tuples in full explorations (StopOnViolation
//    off) — every violation reachable in the full graph has a commuted
//    counterpart in the reduced graph with identical check inputs, so the
//    deduplicated tuple sets coincide exactly;
//  * the exact deadlock-state count (ample steps are never blocked, and
//    every full-graph deadlock remains reachable);
//  * counterexample replay — non-robust verdicts under POR cross-checked
//    against the direct execution-graph oracle;
//  * the sequential/parallel engines' agreement on the reduced graph
//    (deterministic per-state ample selection).
//
// The TSO machine's POR support (empty-buffer states only) is exercised
// by direct assert-checking TSO explorations.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "litmus/Corpus.h"
#include "memory/TSOMachine.h"
#include "rocker/Oracles.h"
#include "rocker/RobustnessChecker.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace rocker;
using namespace rocker::test;

namespace {

constexpr uint64_t Budget = 60'000;

std::vector<std::pair<std::string, Program>> loadCorpusDir() {
  std::vector<std::pair<std::string, Program>> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ROCKER_PROGRAMS_DIR)) {
    if (Entry.path().extension() != ".rkr")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buf;
    Buf << In.rdbuf();
    ParseResult R = parseProgram(Buf.str());
    if (!R.ok())
      ADD_FAILURE() << "cannot parse " << Entry.path();
    else
      Out.emplace_back(Entry.path().filename().string(),
                       std::move(*R.Prog));
  }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  EXPECT_GT(Out.size(), 40u) << "corpus went missing?";
  return Out;
}

RockerOptions fullOpts(unsigned Threads, bool UsePor) {
  RockerOptions O;
  O.StopOnViolation = false;
  O.RecordTrace = false;
  O.MaxStates = Budget;
  O.Threads = Threads;
  O.UsePor = UsePor;
  return O;
}

/// The state-independent content of a violation. StateId is excluded by
/// design: the reduced graph numbers states differently. The full graph
/// may also report the same logical violation from several (commuted)
/// states, so callers compare deduplicated sets, not multisets.
std::string violationKey(const Violation &V) {
  std::string K;
  K += std::to_string(static_cast<int>(V.K));
  K += '|';
  K += std::to_string(V.Thread);
  K += '|';
  K += std::to_string(V.Pc);
  K += '|';
  K += std::to_string(V.Loc);
  K += '|';
  K += std::to_string(V.Witness);
  K += '|';
  K += std::to_string(static_cast<int>(V.Type));
  K += '|';
  K += V.Detail;
  return K;
}

std::set<std::string> violationSet(const std::vector<Violation> &Vs) {
  std::set<std::string> S;
  for (const Violation &V : Vs)
    S.insert(violationKey(V));
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Corpus-wide equivalence, sequential engine
//===----------------------------------------------------------------------===//

TEST(Por, CorpusVerdictsViolationsAndDeadlocksIdentical) {
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    RockerReport On = checkRobustness(P, fullOpts(1, true));
    RockerReport Off = checkRobustness(P, fullOpts(1, false));
    if (!On.Complete || !Off.Complete)
      continue; // Truncated runs stop at different frontiers.
    EXPECT_EQ(On.Robust, Off.Robust) << Name;
    EXPECT_EQ(violationSet(On.Violations), violationSet(Off.Violations))
        << Name;
    EXPECT_EQ(On.Stats.NumDeadlockStates, Off.Stats.NumDeadlockStates)
        << Name;
    EXPECT_LE(On.Stats.NumStates, Off.Stats.NumStates) << Name;
    ++Compared;
  }
  EXPECT_GT(Compared, 40u);
}

TEST(Por, RandomProgramsVerdictEquivalence) {
  std::mt19937 Rng(20260805);
  RandomProgramOptions PO;
  PO.AllowBlocking = true; // Wait/BCAS never enter ample sets.
  PO.NumNaLocs = 1;        // Race checking stays exact too.
  for (unsigned I = 0; I != 150; ++I) {
    Program P = randomProgram(Rng, PO);
    RockerReport On = checkRobustness(P, fullOpts(1, true));
    RockerReport Off = checkRobustness(P, fullOpts(1, false));
    ASSERT_TRUE(On.Complete && Off.Complete);
    EXPECT_EQ(On.Robust, Off.Robust) << toString(P);
    EXPECT_EQ(violationSet(On.Violations), violationSet(Off.Violations))
        << toString(P);
    EXPECT_EQ(On.Stats.NumDeadlockStates, Off.Stats.NumDeadlockStates)
        << toString(P);
  }
}

TEST(Por, ReducesStatesOnIndependentWriters) {
  // Two threads hammering disjoint locations: the ample set serializes
  // them, so the reduced graph is a single path instead of the full
  // interleaving grid.
  Program P = parseProgramOrDie(R"(
vals 2
locs x y
thread t0
  x := 1
  x := 0
  x := 1
  x := 0
  x := 1
thread t1
  y := 1
  y := 0
  y := 1
  y := 0
  y := 1
)");
  RockerReport On = checkRobustness(P, fullOpts(1, true));
  RockerReport Off = checkRobustness(P, fullOpts(1, false));
  EXPECT_TRUE(On.Robust);
  EXPECT_TRUE(Off.Robust);
  // Full grid: 6x6 = 36 pc combinations. The reduced graph is one
  // 11-state path, and the engine fast-forwards every state along its
  // ample chain before interning, so only the chain's endpoint — here
  // the final all-halted state — is ever stored, traced or not.
  EXPECT_EQ(Off.Stats.NumStates, 36u);
  EXPECT_EQ(On.Stats.NumStates, 1u);
  RockerOptions TraceOpts = fullOpts(1, true);
  TraceOpts.RecordTrace = true;
  RockerReport Trace = checkRobustness(P, TraceOpts);
  EXPECT_TRUE(Trace.Robust);
  EXPECT_EQ(Trace.Stats.NumStates, 1u);

  // The trace replay's BFS records parents, which stores every reduced
  // state so counterexamples stay step-exact: the full 11-state path.
  RockerReport Replay = test::bfsReference(P, TraceOpts);
  EXPECT_TRUE(Replay.Robust);
  EXPECT_EQ(Replay.Stats.NumStates, 11u);
}

TEST(Por, ReplayedCounterexamplesMatchGraphOracle) {
  // Non-robust programs keep their counterexamples under POR, and the
  // verdict agrees with the direct execution-graph oracle (which is
  // exponential, hence loop-free litmus programs only).
  for (const char *Name : {"SB", "IRIW", "2+2W"}) {
    Program P = findCorpusEntry(Name).parse();
    RockerOptions O;
    O.UsePor = true;
    O.RecordTrace = true;
    RockerReport R = checkRobustness(P, O);
    ASSERT_FALSE(R.Robust) << Name;
    EXPECT_FALSE(R.FirstViolationTrace.empty()) << Name;
    EXPECT_FALSE(R.FirstViolationText.empty()) << Name;
    OracleResult Oracle = checkGraphRobustnessOracle(P);
    ASSERT_TRUE(Oracle.Complete) << Name;
    EXPECT_FALSE(Oracle.Robust) << Name << ": POR found a violation the "
                                << "graph oracle disputes";
  }
}

TEST(Por, RobustVerdictsMatchGraphOracle) {
  for (const char *Name : {"MP", "2RMW", "SB+RMWs"}) {
    Program P = findCorpusEntry(Name).parse();
    RockerOptions O;
    O.UsePor = true;
    RockerReport R = checkRobustness(P, O);
    OracleResult Oracle = checkGraphRobustnessOracle(P);
    ASSERT_TRUE(Oracle.Complete) << Name;
    EXPECT_EQ(R.Robust, Oracle.Robust) << Name;
  }
}

//===----------------------------------------------------------------------===//
// TSO machine POR support (direct explorations)
//===----------------------------------------------------------------------===//

TEST(Por, TsoExplorerAssertEquivalence) {
  // Assert-checking explorations of the TSO machine: the reduction only
  // fires at empty-buffer states (TSOMachine::porEligible), and must
  // preserve assertion verdicts and deadlock counts exactly.
  std::mt19937 Rng(77);
  RandomProgramOptions PO;
  PO.AllowBlocking = true;
  for (unsigned I = 0; I != 60; ++I) {
    Program P = randomProgram(Rng, PO);
    TSOMachine Mem(P, 2);
    ExploreResult Results[2];
    for (bool UsePor : {false, true}) {
      ExploreOptions EO;
      EO.RecordParents = false;
      EO.StopOnViolation = false;
      EO.MaxStates = Budget;
      EO.UsePor = UsePor;
      ProductExplorer<TSOMachine> Ex(P, Mem, EO);
      Results[UsePor] = Ex.run();
    }
    if (Results[0].Stats.Truncated || Results[1].Stats.Truncated)
      continue;
    EXPECT_EQ(Results[0].hasViolation(), Results[1].hasViolation())
        << toString(P);
    EXPECT_EQ(violationSet(Results[0].Violations),
              violationSet(Results[1].Violations))
        << toString(P);
    EXPECT_EQ(Results[0].Stats.NumDeadlockStates,
              Results[1].Stats.NumDeadlockStates)
        << toString(P);
    EXPECT_LE(Results[1].Stats.NumStates, Results[0].Stats.NumStates)
        << toString(P);
  }
}

//===----------------------------------------------------------------------===//
// Parallel engine: same reduced graph, same verdicts
//===----------------------------------------------------------------------===//

TEST(PorParallel, SeqParIdenticalReducedGraph) {
  // Ample selection is a pure function of the state, so the sequential
  // and work-stealing engines explore the identical reduced graph.
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    RockerReport Seq = checkRobustness(P, fullOpts(1, true));
    RockerReport Par = checkRobustness(P, fullOpts(4, true));
    if (!Seq.Complete || !Par.Complete)
      continue;
    EXPECT_EQ(Seq.Robust, Par.Robust) << Name;
    EXPECT_EQ(Seq.Stats.NumStates, Par.Stats.NumStates) << Name;
    EXPECT_EQ(Seq.Stats.NumTransitions, Par.Stats.NumTransitions) << Name;
    EXPECT_EQ(Seq.Stats.NumDeadlockStates, Par.Stats.NumDeadlockStates)
        << Name;
    ++Compared;
  }
  EXPECT_GT(Compared, 40u);
}

TEST(PorParallel, CorpusVerdictsIdenticalAtFourThreads) {
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    RockerReport On = checkRobustness(P, fullOpts(4, true));
    RockerReport Off = checkRobustness(P, fullOpts(4, false));
    if (!On.Complete || !Off.Complete)
      continue;
    EXPECT_EQ(On.Robust, Off.Robust) << Name;
    EXPECT_EQ(violationSet(On.Violations), violationSet(Off.Violations))
        << Name;
    EXPECT_EQ(On.Stats.NumDeadlockStates, Off.Stats.NumDeadlockStates)
        << Name;
    ++Compared;
  }
  EXPECT_GT(Compared, 40u);
}

TEST(PorParallel, ReplayedTraceMatchesSequential) {
  // The parallel engine reconstructs traces by a sequential replay that
  // inherits the POR configuration, so the text is byte-identical to the
  // sequential engine's.
  for (const char *Name : {"SB", "dekker-sc"}) {
    Program P = findCorpusEntry(Name).parse();
    RockerOptions Seq;
    Seq.UsePor = true;
    RockerOptions Par = Seq;
    Par.Threads = 4;
    RockerReport RSeq = checkRobustness(P, Seq);
    RockerReport RPar = checkRobustness(P, Par);
    ASSERT_FALSE(RSeq.Robust) << Name;
    ASSERT_FALSE(RPar.Robust) << Name;
    EXPECT_EQ(RSeq.FirstViolationText, RPar.FirstViolationText) << Name;
  }
}
