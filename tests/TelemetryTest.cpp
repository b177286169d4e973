//===- tests/TelemetryTest.cpp - Telemetry subsystem correctness ------------===//
//
// Covers src/obs: span self-time attribution, counter aggregation across
// concurrent workers, the phase-sum property on a real verification run
// (per-phase times of a single-threaded run sum to the engine-reported
// Seconds), the JSON report schema round-trip, clean progress-reporter
// shutdown on runs faster than its interval, and verdict neutrality of
// the progress machinery. Timing assertions are skipped when the
// subsystem is compiled out (-DROCKER_NO_TELEMETRY); the compile-out
// variant instead asserts that every entry point is an empty shell.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"
#include "obs/Json.h"
#include "obs/RunReport.h"
#include "obs/Telemetry.h"
#include "rocker/RobustnessChecker.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace rocker;

namespace {

/// Spins (does not sleep — sleeping time is still attributed, but spinning
/// keeps the cycle counter honest on all tick sources) for \p Ms.
void busyWait(double Ms) {
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration<double, std::milli>(Ms);
  while (std::chrono::steady_clock::now() < End) {
  }
}

} // namespace

// The phase and counter taxonomies are maintained by hand in three
// places (enum, Num constant, name switch); the static_asserts in
// Telemetry.h pin the counts, and this pins the names: total (every
// value has one), non-empty, and unique — a copy-pasted duplicate name
// would silently merge two report keys.
TEST(Telemetry, PhaseAndCounterNamesTotalUniqueNonEmpty) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I != obs::NumPhases; ++I) {
    const char *N = obs::phaseName(static_cast<obs::Phase>(I));
    ASSERT_NE(N, nullptr);
    EXPECT_STRNE(N, "") << "phase " << I << " has an empty name";
    EXPECT_TRUE(Seen.insert(N).second)
        << "phase name '" << N << "' is not unique";
  }
  EXPECT_EQ(Seen.size(), obs::NumPhases);

  Seen.clear();
  for (unsigned I = 0; I != obs::NumCounters; ++I) {
    const char *N = obs::counterName(static_cast<obs::Ctr>(I));
    ASSERT_NE(N, nullptr);
    EXPECT_STRNE(N, "") << "counter " << I << " has an empty name";
    EXPECT_TRUE(Seen.insert(N).second)
        << "counter name '" << N << "' is not unique";
  }
  EXPECT_EQ(Seen.size(), obs::NumCounters);
}

#ifndef ROCKER_NO_TELEMETRY

TEST(Telemetry, SpanSelfTimeAttribution) {
  obs::Snapshot Before = obs::snapshot();
  {
    obs::Span Outer(obs::Phase::Parse);
    busyWait(20);
    {
      // A nested span pauses the enclosing phase: its time must land on
      // Explore, not Parse.
      obs::Span Inner(obs::Phase::Explore);
      busyWait(20);
    }
    busyWait(10);
  }
  obs::Snapshot D = obs::diff(obs::snapshot(), Before);
  EXPECT_NEAR(D.phase(obs::Phase::Parse), 0.030, 0.015);
  EXPECT_NEAR(D.phase(obs::Phase::Explore), 0.020, 0.015);
}

TEST(Telemetry, CountersAggregateAcrossThreads) {
  // ProgressTicks is bumped only by the reporter thread, which is not
  // running here, so the delta is exactly what these workers add. Worker
  // threads exit before the final snapshot, covering the retired-thread
  // fold path as well as the live one.
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t PerThread = 10'000;
  obs::Snapshot Before = obs::snapshot();
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != NumThreads; ++I)
    Ts.emplace_back([] {
      for (uint64_t N = 0; N != PerThread; ++N)
        obs::add(obs::Ctr::ProgressTicks);
    });
  for (std::thread &T : Ts)
    T.join();
  obs::Snapshot D = obs::diff(obs::snapshot(), Before);
  EXPECT_EQ(D.counter(obs::Ctr::ProgressTicks), NumThreads * PerThread);
}

// The acceptance property: for a single-threaded verification run, the
// per-phase times bracket-summed around it match the time the spans can
// cover, the worker's own lifetime — self-time spans charge each instant
// to exactly one phase, so this holds by construction, not by luck. The
// run's wall Seconds also counts the main thread's thread start and join,
// which stretch under a loaded machine, so it only bounds the sum.
TEST(Telemetry, PhaseTimesSumToExploreSeconds) {
  Program P = findCorpusEntry("lamport2-ra").parse();
  RockerOptions O;
  O.StopOnViolation = false;
  O.RecordTrace = false;
  obs::Snapshot Before = obs::snapshot();
  RockerReport R = checkRobustness(P, O);
  obs::Snapshot D = obs::diff(obs::snapshot(), Before);
  ASSERT_TRUE(R.Complete);
  ASSERT_EQ(R.Stats.Workers.size(), 1u);
  double Sum = D.attributedSeconds();
  double Lifetime = R.Stats.Workers[0].Seconds;
  EXPECT_NEAR(Sum, Lifetime, 0.05 * Lifetime + 0.002)
      << "phase times must sum to the worker's lifetime";
  EXPECT_LE(Lifetime, R.Stats.Seconds);
  // The hot-loop phases dominate; the monitor and visited set both saw
  // real work.
  EXPECT_GT(D.phase(obs::Phase::Explore), 0.0);
  EXPECT_GT(D.phase(obs::Phase::VisitedProbe), 0.0);
  EXPECT_GT(D.counter(obs::Ctr::MonitorChecks), 0u);
  EXPECT_EQ(D.counter(obs::Ctr::VisitedInserts), R.Stats.NumStates);
  EXPECT_EQ(D.counter(obs::Ctr::DedupHits), R.Stats.DedupHits);
}

// Retired-thread fold: a worker that records span time and counters and
// then *exits* must still be visible to a later snapshot() — its
// ThreadBlock is folded into the registry's retired totals on thread
// exit, not dropped. (CountersAggregateAcrossThreads covers the counter
// half; this pins the phase-cycle half, which takes a different path
// through the cycles→seconds calibration.)
TEST(Telemetry, RetiredThreadSnapshotFold) {
  obs::Snapshot Before = obs::snapshot();
  std::thread Worker([] {
    obs::Span S(obs::Phase::OracleSweep);
    busyWait(20);
    obs::add(obs::Ctr::SweptStates, 7);
  });
  Worker.join(); // The worker's block is retired before this snapshot.
  obs::Snapshot D = obs::diff(obs::snapshot(), Before);
  EXPECT_NEAR(D.phase(obs::Phase::OracleSweep), 0.020, 0.015)
      << "retired thread's span cycles were lost in the fold";
  EXPECT_EQ(D.counter(obs::Ctr::SweptStates), 7u)
      << "retired thread's counters were lost in the fold";
}

TEST(Telemetry, CompiledIn) {
  EXPECT_TRUE(obs::telemetryEnabled());
  EXPECT_GT(sizeof(obs::Span), 1u); // Holds a TLS reference + phase.
}

#else // ROCKER_NO_TELEMETRY

TEST(Telemetry, CompiledOut) {
  EXPECT_FALSE(obs::telemetryEnabled());
  EXPECT_EQ(sizeof(obs::Span), 1u); // Empty shell.
  obs::Snapshot S = obs::snapshot();
  EXPECT_EQ(S.attributedSeconds(), 0.0);
  for (unsigned I = 0; I != obs::NumCounters; ++I)
    EXPECT_EQ(S.Counters[I], 0u);
}

#endif // ROCKER_NO_TELEMETRY

TEST(Telemetry, ProgressReporterShutsDownCleanly) {
  // A run faster than the reporter interval: destruction must join the
  // thread promptly mid-interval, not wait the interval out.
  auto T0 = std::chrono::steady_clock::now();
  {
    obs::ProgressReporter R(/*IntervalSeconds=*/30.0);
    busyWait(5);
  }
  double Waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  EXPECT_LT(Waited, 5.0) << "reporter destruction blocked on its interval";

  // stop() is idempotent, and an inert (<= 0 interval) reporter is safe.
  obs::ProgressReporter R2(0.05);
  R2.stop();
  R2.stop();
  obs::ProgressReporter Inert(0);
  Inert.stop();
}

TEST(Telemetry, ProgressDoesNotChangeVerdicts) {
  Program P = findCorpusEntry("SB").parse();
  RockerOptions O;
  O.RecordTrace = false;
  RockerReport Plain = checkRobustness(P, O);
  RockerReport WithProgress = [&] {
    obs::ProgressReporter R(0.01); // Fires several times during the run.
    busyWait(25);                  // Let it tick with no run active, too.
    return checkRobustness(P, O);
  }();
  EXPECT_EQ(Plain.Robust, WithProgress.Robust);
  EXPECT_EQ(Plain.Stats.NumStates, WithProgress.Stats.NumStates);
  EXPECT_EQ(Plain.Stats.NumTransitions, WithProgress.Stats.NumTransitions);
}

TEST(Json, ParseBasics) {
  auto V = obs::json::parse(
      R"({"a": [1, 2.5, "x\n", true, null], "b": {}, "c": -3})");
  ASSERT_TRUE(V.has_value());
  const obs::json::Value *A = V->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->items().size(), 5u);
  EXPECT_EQ(A->items()[0].asUInt(), 1u);
  EXPECT_DOUBLE_EQ(A->items()[1].asDouble(), 2.5);
  EXPECT_EQ(A->items()[2].asString(), "x\n");
  EXPECT_TRUE(A->items()[3].asBool());
  EXPECT_TRUE(A->items()[4].isNull());
  ASSERT_NE(V->find("b"), nullptr);
  EXPECT_EQ(V->find("b")->members().size(), 0u);
  EXPECT_DOUBLE_EQ(V->find("c")->asDouble(), -3.0);

  EXPECT_FALSE(obs::json::parse("{").has_value());
  EXPECT_FALSE(obs::json::parse("[1,]").has_value());
  EXPECT_FALSE(obs::json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::json::parse("\"unterminated").has_value());
}

// A report must survive dump → parse with its key fields intact — this is
// the schema contract bench/report_diff.py relies on.
TEST(Json, RunReportRoundTrip) {
  Program P = findCorpusEntry("SB").parse();
  RockerOptions O;
  O.RecordTrace = false;
  obs::Snapshot Before = obs::snapshot();
  RockerReport R = checkRobustness(P, O);
  obs::RunReport Rep = obs::buildRunReport("SB", "robustness", O, R,
                                           Before, obs::snapshot());
  std::string Text = obs::toJson(Rep).dump();
  auto V = obs::json::parse(Text);
  ASSERT_TRUE(V.has_value()) << "report does not re-parse:\n" << Text;

  EXPECT_EQ(V->find("schema")->asString(), "rocker-run-report/1");
  EXPECT_EQ(V->find("program")->asString(), "SB");
  EXPECT_EQ(V->find("mode")->asString(), "robustness");
  EXPECT_EQ(V->find("verdict")->find("robust")->asBool(), R.Robust);
  EXPECT_EQ(V->find("verdict")->find("violations")->asUInt(),
            R.Violations.size());
  EXPECT_EQ(V->find("stats")->find("states")->asUInt(), R.Stats.NumStates);
  EXPECT_EQ(V->find("config")->find("engine")->asString(), "exact");
  EXPECT_EQ(V->find("tool")->find("telemetry")->asBool(),
            obs::telemetryEnabled());

  // One phase entry per non-idle phase, one counter entry per counter.
  const obs::json::Value *Phases = V->find("telemetry")->find("phases");
  ASSERT_NE(Phases, nullptr);
  EXPECT_EQ(Phases->members().size(), obs::NumPhases - 1 + 1); // + total.
  const obs::json::Value *Counters = V->find("telemetry")->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->members().size(), obs::NumCounters);

  // Workers array mirrors ExploreStats::Workers.
  const obs::json::Value *Workers = V->find("workers");
  ASSERT_NE(Workers, nullptr);
  ASSERT_EQ(Workers->items().size(), R.Stats.Workers.size());
  EXPECT_EQ(Workers->items()[0].find("expanded")->asUInt(),
            R.Stats.Workers[0].Expanded);
}

TEST(Json, DumpEscapesAndReparses) {
  obs::json::Value O = obs::json::Value::object();
  O.set("s", std::string("quote\" slash\\ nl\n tab\t ctl\x01"));
  O.set("big", static_cast<uint64_t>(1) << 62);
  O.set("neg", -1.5);
  auto V = obs::json::parse(O.dump());
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->find("s")->asString(), "quote\" slash\\ nl\n tab\t ctl\x01");
  EXPECT_EQ(V->find("big")->asUInt(), static_cast<uint64_t>(1) << 62);
  EXPECT_DOUBLE_EQ(V->find("neg")->asDouble(), -1.5);
}
