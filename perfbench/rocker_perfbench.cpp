//===- perfbench/rocker_perfbench.cpp - Time-to-verdict benchmark ---------===//
//
// Rocker's end-to-end benchmark: how long it takes to get a checked
// robustness verdict, on three workloads drawn from the bundled corpus,
// driven through the libraries' public API (parseProgram,
// computeCriticalValues, checkRobustness) with RockerOptions{} — the same
// options `rocker_cli` uses by default.
//
// Usage: rocker_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                         [--out-dir DIR] [--programs a,b,...]
//                         [--rounds N] [--expect-wrong PROGRAM]
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// readable table of the same numbers with units and sample counts, plus the
// effective configuration. DIR/<workload>.trace<0|1>.json holds the full
// record (configuration, per-program counts and times, sample counts).
//
// Workloads (why each was chosen):
//
//  fig7-large-seq  The five Figure 7 programs with >= 1e5 states
//                  (lamport2-3-ra, seqlock, nbw-w-lr-rl, rcu, rcu-offline)
//                  at 1 worker. State storage does most of the work here:
//                  lamport2-3-ra profiles as visited probe 55%, explore
//                  44%, monitor step 1.3%.
//  fig7-large-par  The same five programs at Threads = 4 (the parallel
//                  engine and its lock-free visited tier).
//  corpus-small    The other 48 corpus programs (21 not robust) at 1
//                  worker, in-process, closed loop: per-check fixed cost
//                  and the counterexample path dominate. Runnable, but not
//                  among BENCHMARK.json's workloads: its 48 programs move
//                  together with the host's speed, which swung +-25%
//                  between 6-second slices of one run, and in one set of
//                  ten 35-second runs verdict_s_sum spread 0.28 of its
//                  median (quartiles), beyond the 0.25 bound. The traced
//                  runs of every workload still time its checks for the
//                  robust/not-robust split.
//
// End-to-end metrics (--trace 0), the same five on every workload:
// setup_s, verdict_s_gmean and verdict_s_sum (geometric mean and sum over
// programs of each program's median check time), peak_rss_mb and
// checks_per_s (checks per second spent in checks, fork and wait
// included). corpus-small also prints verdict_p50_ms and verdict_p99_ms
// over its >= 1000 checks. They are not in the result line: the fork
// workloads make a few checks of five different programs each, where a
// percentile would only pick out one program's time.
//
// Noise controls. The host is a shared 4-vCPU VM without a hardware PMU;
// the contention on it is in memory bandwidth (a DRAM pointer chase swung
// 4.6-6.5 s while a compute loop stayed within 0.52-0.64 s), so a single
// rcu check took 277-311 ms at one moment and 411-565 ms eight minutes
// later, with the same binary; a fresh-process lamport2-3-ra check took
// 6.2-7.9 s, 1430 MB peak RSS and 378k minor faults. Hence:
//  - every large-program check runs in its own forked child, so it starts
//    from a cold heap and pays the page faults a `rocker_cli` call pays (a
//    second in-process lamport2-3-ra check took 17k minor faults instead of
//    378k and ran 4.9-6.8 s);
//  - the order of programs within each round is shuffled from --seed, so a
//    burst of host contention spreads across programs;
//  - times are per-program medians over rounds, and a percentile is only
//    taken over a sample with at least ten values beyond it;
//  - set-up is repeated and its median reported.
// What remains is host drift over minutes, which moves every program of a
// run together and is not normalised away: in one set of ten back-to-back
// runs fig7-large-par stepped from 0.52 s to 0.40 s gmean half-way.
//
// Correctness gate: a check fails when its verdict differs from the
// corpus entry's ExpectRobust, when it is not robust but carries no
// violation trace, when it is incomplete, approximate or degraded, or when
// its child exits abnormally. State and transition counts are recorded but
// not gated: legitimate reductions change them.
//
//===----------------------------------------------------------------------===//

#include "lang/CriticalValues.h"
#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "rocker/RobustnessChecker.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace rocker;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The ≥1e5-state Figure 7 programs.
const char *const LargePrograms[] = {"lamport2-3-ra", "seqlock",
                                     "nbw-w-lr-rl", "rcu", "rcu-offline"};

struct WorkloadSpec {
  const char *Name;
  bool Large;       ///< The five large programs, forked; else corpus-small.
  unsigned Threads; ///< RockerOptions::Threads.
};

const WorkloadSpec Workloads[] = {
    {"fig7-large-seq", true, 1},
    {"fig7-large-par", true, 4},
    {"corpus-small", false, 1},
};

/// The five large programs, or the rest of the corpus, in a fixed order.
std::vector<CorpusEntry> corpusPrograms(bool Large) {
  std::vector<CorpusEntry> In;
  if (Large) {
    for (const char *N : LargePrograms)
      In.push_back(findCorpusEntry(N));
    return In;
  }
  for (const auto *Set : {&litmusTests(), &extraLitmusTests(),
                          &figure7Programs(), &morePrograms()})
    for (const CorpusEntry &E : *Set)
      if (std::find(std::begin(LargePrograms), std::end(LargePrograms),
                    E.Name) == std::end(LargePrograms))
        In.push_back(E);
  return In;
}

/// What one check reports back (trivially copyable: crosses the fork pipe
/// as bytes).
struct CheckRecord {
  double Seconds = 0;
  uint8_t Verdict = 0;
  bool Complete = false;
  bool Approximate = false;
  bool Degraded = false;
  bool HasTrace = false;
  uint64_t States = 0;
  uint64_t Transitions = 0;
  uint64_t VisitedBytes = 0;
  uint64_t VisitedRawBytes = 0;
  uint32_t Workers = 0;
  double WorkerImbalance = 1; ///< max / mean Workers[i].Expanded.
  obs::Snapshot Layers;       ///< obs::diff around the check (traced runs).
};

static_assert(std::is_trivially_copyable_v<CheckRecord>);

/// Resource use of one check: the forked child's rusage, or the process's
/// rusage delta for an in-process check.
struct Usage {
  double CpuSeconds = 0;
  double MinorFaults = 0;
  double MaxRssMb = 0; ///< Forked checks only.
};

/// Runs one check in the calling process.
CheckRecord runCheck(const Program &P, const RockerOptions &Opts,
                     bool Snapshots) {
  CheckRecord C;
  obs::Snapshot Before;
  if (Snapshots)
    Before = obs::snapshot();
  Clock::time_point T0 = Clock::now();
  RockerReport R = checkRobustness(P, Opts);
  C.Seconds = secondsSince(T0);
  if (Snapshots)
    C.Layers = obs::diff(obs::snapshot(), Before);
  C.Verdict = static_cast<uint8_t>(R.verdictClass());
  C.Complete = R.Complete;
  C.Approximate = R.Approximate;
  C.Degraded = R.Stats.Resilience.degraded();
  C.HasTrace = !R.FirstViolationTrace.empty();
  C.States = R.Stats.NumStates;
  C.Transitions = R.Stats.NumTransitions;
  C.VisitedBytes = R.Stats.VisitedBytes;
  C.VisitedRawBytes = R.Stats.VisitedRawBytes;
  C.Workers = static_cast<uint32_t>(R.Stats.Workers.size());
  uint64_t Max = 0, Sum = 0;
  for (const auto &Wk : R.Stats.Workers) {
    Max = std::max(Max, Wk.Expanded);
    Sum += Wk.Expanded;
  }
  if (Sum)
    C.WorkerImbalance = static_cast<double>(Max) * C.Workers / Sum;
  return C;
}

double tvSeconds(const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; }

double cpuSeconds(const rusage &RU) {
  return tvSeconds(RU.ru_utime) + tvSeconds(RU.ru_stime);
}

/// Runs one check in the calling process and measures its rusage delta.
CheckRecord inProcessCheck(const Program &P, const RockerOptions &Opts,
                           bool Snapshots, Usage &U) {
  rusage A{}, B{};
  getrusage(RUSAGE_SELF, &A);
  CheckRecord C = runCheck(P, Opts, Snapshots);
  getrusage(RUSAGE_SELF, &B);
  U.CpuSeconds = cpuSeconds(B) - cpuSeconds(A);
  U.MinorFaults = static_cast<double>(B.ru_minflt - A.ru_minflt);
  return C;
}

/// Runs one check in a forked child, so it starts from a cold heap. The
/// child writes its CheckRecord to a pipe; wait4 gives its rusage. With a
/// \p TracePath the child records the check with the flight recorder and
/// writes the Perfetto JSON there. Returns false when the child crashed,
/// timed out or sent no complete record.
bool forkCheck(const Program &P, const RockerOptions &Opts, bool Snapshots,
               const std::string &TracePath, CheckRecord &C, Usage &U) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return false;
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    return false;
  }
  if (Pid == 0) {
    close(Fd[0]);
    alarm(150); // A hung check fails the run instead of stalling it.
    if (!TracePath.empty())
      obs::traceConfigure(TracePath);
    CheckRecord R = runCheck(P, Opts, Snapshots);
    if (!TracePath.empty()) {
      obs::traceStop();
      if (!obs::traceWrite().Ok)
        _exit(3);
    }
    const char *B = reinterpret_cast<const char *>(&R);
    size_t Left = sizeof(R);
    while (Left) {
      ssize_t N = write(Fd[1], B, Left);
      if (N <= 0)
        _exit(2);
      B += N;
      Left -= static_cast<size_t>(N);
    }
    _exit(0);
  }
  close(Fd[1]);
  char Buf[sizeof(CheckRecord)];
  size_t Got = 0;
  while (Got < sizeof(Buf)) {
    ssize_t N = read(Fd[0], Buf + Got, sizeof(Buf) - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got += static_cast<size_t>(N);
  }
  close(Fd[0]);
  int Status = 0;
  rusage RU{};
  while (wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  U.CpuSeconds = cpuSeconds(RU);
  U.MinorFaults = static_cast<double>(RU.ru_minflt);
  U.MaxRssMb = RU.ru_maxrss / 1024.0;
  if (Got != sizeof(Buf) || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return false;
  std::memcpy(&C, Buf, sizeof(C));
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Linear-interpolation percentile (Q in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - Lo) * (V[Hi] - V[Lo]);
}

/// Minimal JSON object writer for the result and record files.
class JsonObj {
public:
  JsonObj &num(const std::string &K, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", std::isfinite(V) ? V : 0.0);
    return raw(K, Buf);
  }
  JsonObj &str(const std::string &K, const std::string &V) {
    std::string Q = "\"";
    for (char C : V)
      Q += (C == '"' || C == '\\') ? std::string("\\") + C : std::string(1, C);
    return raw(K, Q + "\"");
  }
  JsonObj &boolean(const std::string &K, bool V) {
    return raw(K, V ? "true" : "false");
  }
  JsonObj &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "\"" : ", \"") + K + "\": " + V;
    return *this;
  }
  std::string str() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string numList(const std::vector<double> &V) {
  std::string Out = "[";
  char Buf[32];
  for (size_t I = 0; I != V.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.6g", I ? ", " : "", V[I]);
    Out += Buf;
  }
  return Out + "]";
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Samples; ///< How the value was obtained (sample count).
};

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string OutDir = ".bench_out";
  std::vector<std::string> Programs; ///< Overrides the workload's list.
  unsigned Rounds = 0;               ///< Exact timed rounds (0 = by time).
  std::string ExpectWrong;           ///< Flip this program's expectation.
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", A.c_str());
      return false;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = *End == '\0' && O.Seconds > 0;
    } else if (A == "--trace") {
      HaveTrace = V == "0" || V == "1";
      O.Trace = V == "1";
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else if (A == "--programs") {
      for (size_t P = 0; P <= V.size();) {
        size_t C = std::min(V.find(',', P), V.size());
        if (C > P)
          O.Programs.push_back(V.substr(P, C - P));
        P = C + 1;
      }
    } else if (A == "--rounds") {
      O.Rounds = static_cast<unsigned>(std::strtoul(V.c_str(), &End, 10));
    } else if (A == "--expect-wrong") {
      O.ExpectWrong = V;
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n", A.c_str());
      return false;
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace) {
    std::fprintf(stderr, "usage: rocker_perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--out-dir DIR] "
                         "[--programs a,b] [--rounds N] "
                         "[--expect-wrong PROGRAM]\n");
    return false;
  }
  return true;
}

/// Each of these silently changes what is measured.
bool refuseOverrides() {
  bool Bad = false;
  for (const char *E : {"ROCKER_NO_POR", "ROCKER_NO_COMPRESS", "ROCKER_VISITED",
                        "ROCKER_TRACE", "ROCKER_FI"})
    if (std::getenv(E)) {
      std::fprintf(stderr, "error: %s is set; unset it to benchmark the "
                           "default configuration\n", E);
      Bad = true;
    }
  return Bad;
}

/// One timed check, kept compactly: corpus-small makes ~1000 checks a
/// second, so the store is allocated and touched before timing starts and
/// does not move the process's peak RSS while the loop runs.
struct Timing {
  uint32_t Prog = 0;
  bool Recorder = false;
  uint8_t Verdict = 0;
  double Seconds = 0;
};

/// Per-layer sums over the recorder-on checks of a traced run.
struct LayerSums {
  obs::Snapshot Tot;
  double Wall = 0, Cpu = 0, WorkerWall = 0, Faults = 0, Unattributed = 0;
  double Bytes = 0, RawBytes = 0;
  std::vector<double> Imbalance;
  size_t Checks = 0;

  void add(const CheckRecord &R, const Usage &U) {
    for (unsigned I = 0; I != obs::NumPhases; ++I)
      Tot.PhaseSeconds[I] += R.Layers.PhaseSeconds[I];
    for (unsigned I = 0; I != obs::NumCounters; ++I)
      Tot.Counters[I] += R.Layers.Counters[I];
    unsigned Workers = std::max<uint32_t>(1, R.Workers);
    Wall += R.Seconds;
    Cpu += U.CpuSeconds;
    WorkerWall += R.Seconds * Workers;
    Faults += U.MinorFaults;
    // Phase self-times add up CPU seconds over the workers; per worker
    // they cover the check's wall time.
    Unattributed +=
        std::max(0.0, R.Seconds - R.Layers.attributedSeconds() / Workers);
    Bytes += static_cast<double>(R.VisitedBytes);
    RawBytes += static_cast<double>(R.VisitedRawBytes);
    Imbalance.push_back(R.WorkerImbalance);
    ++Checks;
  }
};

/// The last check of each program, for the per-program rows.
struct ProgramLast {
  CheckRecord R;
  Usage U;
  CheckRecord Traced; ///< Last recorder-on check (traced runs).
  bool HaveTraced = false;
};

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  if (refuseOverrides())
    return 2;
  const WorkloadSpec *W = nullptr;
  for (const WorkloadSpec &S : Workloads)
    if (O.Workload == S.Name)
      W = &S;
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", O.Workload.c_str());
    return 2;
  }

  std::vector<CorpusEntry> Inputs = corpusPrograms(W->Large);
  if (!O.Programs.empty()) {
    Inputs.clear();
    for (const std::string &N : O.Programs)
      Inputs.push_back(findCorpusEntry(N));
  }
  for (CorpusEntry &In : Inputs)
    if (In.Name == O.ExpectWrong)
      In.ExpectRobust = !In.ExpectRobust;
  const size_t NP = Inputs.size();

  RockerOptions Opts;
  Opts.Threads = W->Threads;
  std::mt19937_64 Rng(O.Seed);
  mkdir(O.OutDir.c_str(), 0755);

  uint64_t Attempted = 0, Failed = 0;
  // Applies the correctness gate to one check and counts it.
  auto Gate = [&](const CheckRecord &R, bool Ran, const std::string &Name,
                  bool ExpectRobust) {
    auto V = static_cast<VerdictClass>(R.Verdict);
    VerdictClass Want =
        ExpectRobust ? VerdictClass::Robust : VerdictClass::NotRobust;
    bool Bad = !Ran || V != Want || !R.Complete || R.Approximate ||
               R.Degraded || (V == VerdictClass::NotRobust && !R.HasTrace);
    ++Attempted;
    if (Bad) {
      ++Failed;
      std::fprintf(stderr, "FAILED check: %s (verdict %s, expected %s%s)\n",
                   Name.c_str(), Ran ? verdictClassName(V) : "none",
                   verdictClassName(Want), Ran ? "" : ", child failed");
    }
  };

  // ---- Set-up, repeated; its median is setup_s. -------------------------
  // Parse and analyse every input; corpus-small then runs one warm-up round
  // of checks. The fork workloads have no warm-up: each check starts in a
  // fresh child, so nothing the parent warms would reach it, and a forked
  // warm-up check only adds fork and wake-up latency, which moved the
  // median set-up time by 30% between sets of runs. Their set-up takes
  // ~0.2 ms, too short to span the host's slow and fast spells (one set-up
  // took 0.15 or 0.23 ms depending on the moment), so they repeat it after
  // every round as well and the median covers the whole run.
  std::vector<Program> Progs;
  std::vector<double> SetupS, ParseS, CritS;
  const unsigned SetupReps = W->Large ? 41 : 9;
  auto SetUp = [&] {
    Clock::time_point T0 = Clock::now();
    std::vector<Program> Parsed;
    double Parse = 0, Crit = 0;
    for (const CorpusEntry &In : Inputs) {
      Clock::time_point P0 = Clock::now();
      ParseResult Res = parseProgram(In.Source);
      Parse += secondsSince(P0);
      if (!Res.ok()) {
        std::fprintf(stderr, "error: %s does not parse\n", In.Name.c_str());
        return false;
      }
      Clock::time_point C0 = Clock::now();
      std::vector<BitSet64> CV = computeCriticalValues(*Res.Prog);
      Crit += secondsSince(C0);
      (void)CV;
      Parsed.push_back(std::move(*Res.Prog));
    }
    if (!W->Large)
      for (size_t I = 0; I != NP; ++I)
        Gate(runCheck(Parsed[I], Opts, false), true, Inputs[I].Name,
             Inputs[I].ExpectRobust);
    SetupS.push_back(secondsSince(T0));
    ParseS.push_back(Parse);
    CritS.push_back(Crit);
    Progs = std::move(Parsed);
    return true;
  };
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep)
    if (!SetUp())
      return 2;

  // ---- Timed loop. ------------------------------------------------------
  // Rounds of one check per program in seeded shuffled order, until the
  // next round, at the mean round time so far, would overrun --seconds. A
  // traced run needs untraced checks too, to measure the recorder's
  // overhead in the same run: the fork workloads check each program twice
  // per round (recorder on and off), corpus-small alternates recorder-on
  // and recorder-off rounds.
  const unsigned MinRounds = O.Trace && !W->Large ? 2 : 1;
  const size_t MinChecks = W->Large ? 0 : 1000; // p99 needs 10 beyond.
  std::vector<Timing> Store(W->Large ? 4096 : size_t(1) << 18);
  size_t NT = 0;
  std::vector<ProgramLast> Last(NP);
  LayerSums Layers;
  double PeakRss = 0;
  const std::string TraceBase = O.OutDir + "/" + W->Name;
  const unsigned FirstRecorderRound = Rng() & 1;
  // Wall time of the recorder-off checks, fork and wait included: the
  // denominator of checks_per_s, which leaves out the repeated set-ups.
  double PlainCheckSeconds = 0;
  Clock::time_point Loop0 = Clock::now();
  unsigned Rounds = 0;
  for (;;) {
    double Elapsed = secondsSince(Loop0);
    size_t RoundChecks = O.Trace && W->Large ? 2 * NP : NP;
    if (NT + RoundChecks > Store.size())
      break;
    if (O.Rounds) {
      if (Rounds == O.Rounds)
        break;
    } else if (Rounds >= MinRounds && NT >= MinChecks &&
               Elapsed + Elapsed / Rounds > O.Seconds) {
      break;
    }
    bool RecorderRound = O.Trace && (Rounds + FirstRecorderRound) % 2 == 0;
    std::vector<std::pair<size_t, bool>> Order;
    for (size_t I = 0; I != NP; ++I) {
      if (O.Trace && W->Large) {
        Order.push_back({I, true});
        Order.push_back({I, false});
      } else {
        Order.push_back({I, RecorderRound});
      }
    }
    std::shuffle(Order.begin(), Order.end(), Rng);
    if (RecorderRound && !W->Large)
      obs::traceConfigure(TraceBase + ".perfetto.json");
    for (auto [I, Rec] : Order) {
      CheckRecord C;
      Usage U;
      bool Ran = true;
      Clock::time_point C0 = Clock::now();
      if (W->Large)
        Ran = forkCheck(Progs[I], Opts, O.Trace,
                        Rec ? TraceBase + "." + Inputs[I].Name +
                                  ".perfetto.json"
                            : "",
                        C, U);
      else
        C = inProcessCheck(Progs[I], Opts, O.Trace, U);
      if (!Rec)
        PlainCheckSeconds += secondsSince(C0);
      Gate(C, Ran, Inputs[I].Name, Inputs[I].ExpectRobust);
      Store[NT++] = {static_cast<uint32_t>(I), Rec, C.Verdict, C.Seconds};
      PeakRss = std::max(PeakRss, U.MaxRssMb);
      Last[I].R = C;
      Last[I].U = U;
      if (Rec) {
        Layers.add(C, U);
        Last[I].Traced = C;
        Last[I].HaveTraced = true;
      }
    }
    if (RecorderRound && !W->Large)
      obs::traceStop();
    ++Rounds;
    if (W->Large)
      for (unsigned Rep = 0; Rep != SetupReps; ++Rep)
        SetUp();
  }
  double LoopSeconds = secondsSince(Loop0);
  if (O.Trace && !W->Large && obs::traceConfigured() &&
      !obs::traceWrite().Ok) {
    std::fprintf(stderr, "error: could not write the Perfetto trace\n");
    return 2;
  }
  if (!W->Large) {
    rusage Self{};
    getrusage(RUSAGE_SELF, &Self);
    PeakRss = Self.ru_maxrss / 1024.0;
  }

  // ---- End-to-end metrics (from recorder-off checks only). --------------
  auto Times = [&](size_t Prog, bool Rec) {
    std::vector<double> T;
    for (size_t K = 0; K != NT; ++K)
      if (Store[K].Prog == Prog && Store[K].Recorder == Rec)
        T.push_back(Store[K].Seconds);
    return T;
  };
  std::vector<std::vector<double>> PlainTimes(NP);
  std::vector<double> ProgMedian(NP), AllMs;
  double LogSum = 0, Sum = 0;
  for (size_t I = 0; I != NP; ++I) {
    PlainTimes[I] = Times(I, false);
    ProgMedian[I] = median(PlainTimes[I]);
    LogSum += std::log(ProgMedian[I]);
    Sum += ProgMedian[I];
  }
  for (size_t K = 0; K != NT; ++K)
    if (!Store[K].Recorder)
      AllMs.push_back(Store[K].Seconds * 1e3);
  std::string PerProg = std::to_string(NP) + " programs x median of " +
                        std::to_string(PlainTimes[0].size()) + " checks";

  std::vector<Metric> M;
  M.push_back({"setup_s", median(SetupS), "s",
               "median of " + std::to_string(SetupS.size()) + " set-ups"});
  M.push_back({"verdict_s_gmean", std::exp(LogSum / NP), "s", PerProg});
  M.push_back({"verdict_s_sum", Sum, "s", PerProg});
  M.push_back({"peak_rss_mb", PeakRss, "MB",
               W->Large ? "max over " + std::to_string(NT) + " forked checks"
                        : "process peak"});
  M.push_back({"checks_per_s", AllMs.size() / PlainCheckSeconds, "1/s",
               std::to_string(AllMs.size()) + " checks in " +
                   std::to_string(PlainCheckSeconds) + " s of checking"});

  // Per-check percentiles, printed but not in the result line: they need
  // at least ten checks beyond the 99th percentile (>= 1000 checks), which
  // only corpus-small makes. Over the fork workloads' few checks of five
  // programs a percentile would just be one program's time.
  std::vector<Metric> Pct;
  std::map<std::string, std::string> Unavailable;
  std::string PctSamples = std::to_string(AllMs.size()) + " checks";
  Pct.push_back({"verdict_p50_ms", 0, "ms", PctSamples});
  Pct.push_back({"verdict_p99_ms", 0, "ms", PctSamples});
  if (AllMs.size() >= 1000) {
    Pct[0].Value = percentile(AllMs, 0.50);
    Pct[1].Value = percentile(AllMs, 0.99);
  } else {
    for (const Metric &X : Pct)
      Unavailable[X.Name] = "needs >= 1000 checks (corpus-small only)";
  }

  // ---- Per-layer metrics (traced runs, recorder-on checks). -------------
  std::vector<Metric> L;
  if (O.Trace) {
    const obs::Snapshot &Tot = Layers.Tot;
    unsigned RecRounds = NP ? static_cast<unsigned>(Layers.Checks / NP) : 0;
    double PerRound = RecRounds ? 1.0 / RecRounds : 0;
    auto Ph = [&](obs::Phase P) { return Tot.phase(P) * PerRound; };
    auto Ct = [&](obs::Ctr C) { return Tot.counter(C) * PerRound; };
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    auto CtRatio = [&](obs::Ctr A, obs::Ctr B) {
      return Ratio(static_cast<double>(Tot.counter(A)),
                   static_cast<double>(Tot.counter(B)));
    };
    std::string RS = "per round: " + std::to_string(RecRounds) +
                     " recorder-on rounds of " + std::to_string(NP) +
                     " checks";
    std::string SetupSamples =
        "median of " + std::to_string(SetupS.size()) + " set-ups";

    L.push_back({"lang.parse_s", median(ParseS), "s", SetupSamples});
    L.push_back(
        {"lang.critical_values_s", median(CritS), "s", SetupSamples});
    for (const char *N : LargePrograms) {
      std::string Key = std::string("rocker.check_s.") + N;
      size_t I = 0;
      while (I != NP && Inputs[I].Name != N)
        ++I;
      std::vector<double> T = I != NP ? Times(I, true) : std::vector<double>{};
      if (T.empty())
        Unavailable[Key] = "program not in this workload";
      L.push_back({Key, median(T), "s",
                   "median of " + std::to_string(T.size()) + " checks"});
    }
    // The verdict split, robust against not robust (whose checks also
    // build the counterexample trace), over in-process 1-worker checks of
    // the small corpus programs: the large programs are all robust.
    {
      std::vector<CorpusEntry> Small = corpusPrograms(false);
      std::vector<Program> SmallProgs;
      for (const CorpusEntry &E : Small)
        SmallProgs.push_back(E.parse());
      RockerOptions P1 = Opts;
      P1.Threads = 1;
      std::vector<double> RobustMs, NotRobustMs;
      for (unsigned Pass = 0; Pass != 5; ++Pass) {
        std::vector<size_t> Order(Small.size());
        for (size_t I = 0; I != Order.size(); ++I)
          Order[I] = I;
        std::shuffle(Order.begin(), Order.end(), Rng);
        for (size_t I : Order) {
          CheckRecord C = runCheck(SmallProgs[I], P1, false);
          Gate(C, true, Small[I].Name, Small[I].ExpectRobust);
          (Small[I].ExpectRobust ? RobustMs : NotRobustMs)
              .push_back(C.Seconds * 1e3);
        }
      }
      std::string Of = " in-process checks of the small corpus programs";
      L.push_back({"rocker.robust_p50_ms", median(RobustMs), "ms",
                   std::to_string(RobustMs.size()) + " robust" + Of});
      L.push_back({"rocker.not_robust_p50_ms", median(NotRobustMs), "ms",
                   std::to_string(NotRobustMs.size()) + " not-robust" + Of});
    }
    L.push_back(
        {"rocker.unattributed_s", Layers.Unattributed * PerRound, "s", RS});
    L.push_back({"rocker.minor_faults", Layers.Faults * PerRound, "count", RS});
    L.push_back({"explore.self_s", Ph(obs::Phase::Explore), "s", RS});
    L.push_back({"explore.expansions", Ct(obs::Ctr::Expansions), "count", RS});
    L.push_back(
        {"explore.transitions", Ct(obs::Ctr::Transitions), "count", RS});
    L.push_back({"explore.expansions_per_s",
                 Ratio(static_cast<double>(Tot.counter(obs::Ctr::Expansions)),
                       Layers.Wall),
                 "1/s", "expansions / check wall time"});
    L.push_back({"por.ample_share",
                 CtRatio(obs::Ctr::AmpleHits, obs::Ctr::Expansions), "ratio",
                 "ample states / expansions"});
    L.push_back(
        {"por.chained_states", Ct(obs::Ctr::PorChainedStates), "count", RS});
    L.push_back({"monitor.step_s", Ph(obs::Phase::MonitorStep), "s", RS});
    L.push_back({"monitor.checks", Ct(obs::Ctr::MonitorChecks), "count", RS});
    L.push_back({"visited.probe_s", Ph(obs::Phase::VisitedProbe), "s", RS});
    L.push_back({"visited.probes", Ct(obs::Ctr::VisitedProbes), "count", RS});
    L.push_back(
        {"visited.inserts", Ct(obs::Ctr::VisitedInserts), "count", RS});
    L.push_back({"visited.dedup_share",
                 CtRatio(obs::Ctr::DedupHits, obs::Ctr::VisitedProbes),
                 "ratio", "dedup hits / probes"});
    L.push_back({"visited.bytes", Layers.Bytes * PerRound, "B", RS});
    L.push_back({"visited.compression_ratio",
                 Ratio(Layers.RawBytes, Layers.Bytes), "ratio",
                 "raw key bytes / stored bytes"});
    if (Tot.counter(obs::Ctr::VisitedProbeSteps) == 0)
      for (const char *K : {"visited.probe_steps_per_probe",
                            "visited.cas_retries", "visited.growths"})
        Unavailable[K] = "lock-free tier not used (1 worker)";
    L.push_back({"visited.probe_steps_per_probe",
                 CtRatio(obs::Ctr::VisitedProbeSteps, obs::Ctr::VisitedProbes),
                 "ratio", "probe steps / probes"});
    L.push_back(
        {"visited.cas_retries", Ct(obs::Ctr::VisitedCasRetries), "count", RS});
    L.push_back({"visited.growths", Ct(obs::Ctr::VisitedGrowths), "count", RS});
    L.push_back({"parexplore.cpu_util", Ratio(Layers.Cpu, Layers.WorkerWall),
                 "ratio", "CPU time / (wall x workers)"});
    L.push_back({"parexplore.worker_imbalance", median(Layers.Imbalance),
                 "ratio", "median over checks of max/mean expanded"});
    if (Tot.counter(obs::Ctr::StealAttempts) == 0)
      for (const char *K : {"parexplore.steal_success", "parexplore.steal_batch"})
        Unavailable[K] = "no steal attempted (1 worker)";
    L.push_back({"parexplore.steal_success",
                 CtRatio(obs::Ctr::Steals, obs::Ctr::StealAttempts), "ratio",
                 "steals / attempts"});
    L.push_back({"parexplore.steal_batch",
                 CtRatio(obs::Ctr::StealBatchItems, obs::Ctr::Steals),
                 "ratio", "items / steals"});
    // The parallel engine's fixed cost: a 4-worker check of the 9-state SB.
    {
      const CorpusEntry &SB = findCorpusEntry("SB");
      Program SBProg = SB.parse();
      RockerOptions P4 = Opts;
      P4.Threads = 4;
      std::vector<double> T;
      for (unsigned I = 0; I != 11; ++I) {
        CheckRecord C = runCheck(SBProg, P4, false);
        Gate(C, true, SB.Name, SB.ExpectRobust);
        T.push_back(C.Seconds * 1e3);
      }
      L.push_back({"parexplore.startup_ms", median(T), "ms",
                   "median of 11 in-process 4-worker SB checks"});
    }
    double Traced = 0, Plain = 0;
    for (size_t I = 0; I != NP; ++I) {
      Traced += median(Times(I, true));
      Plain += ProgMedian[I];
    }
    L.push_back({"obs.trace_overhead", Ratio(Traced, Plain), "ratio",
                 "sum of per-program medians, recorder on / off"});
  }

  // ---- Output. ----------------------------------------------------------
  const char *GitSha = std::getenv("PERFBENCH_GIT_SHA");
  JsonObj Config;
  Config.str("workload", W->Name)
      .num("seed", static_cast<double>(O.Seed))
      .boolean("trace", O.Trace)
      .boolean("UsePor", Opts.UsePor)
      .boolean("CompressVisited", Opts.CompressVisited)
      .str("Visited", visitedImplName(Opts.Visited))
      .boolean("RecordTrace", Opts.RecordTrace)
      .num("Threads", Opts.Threads)
      .boolean("fork_per_check", W->Large)
      .str("git_sha", GitSha ? GitSha : "unknown")
      .num("hardware_threads", std::thread::hardware_concurrency())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("rounds", Rounds)
      .num("timed_checks", static_cast<double>(NT))
      .num("loop_s", LoopSeconds)
      .num("checking_s", PlainCheckSeconds);
  std::printf("config %s\n", Config.str().c_str());

  std::printf("%-18s %12s %7s %10s %12s\n", "program", "median_s", "checks",
              "states", "transitions");
  std::string Rows = "[";
  for (size_t I = 0; I != NP; ++I) {
    const ProgramLast &PL = Last[I];
    std::printf("%-18s %12.6f %7zu %10llu %12llu\n", Inputs[I].Name.c_str(),
                ProgMedian[I], PlainTimes[I].size(),
                static_cast<unsigned long long>(PL.R.States),
                static_cast<unsigned long long>(PL.R.Transitions));
    JsonObj Row;
    Row.str("program", Inputs[I].Name)
        .boolean("expect_robust", Inputs[I].ExpectRobust)
        .num("median_s", ProgMedian[I])
        .raw("times_s", numList(PlainTimes[I]))
        .num("states", static_cast<double>(PL.R.States))
        .num("transitions", static_cast<double>(PL.R.Transitions))
        .num("minor_faults", PL.U.MinorFaults)
        .num("peak_rss_mb", PL.U.MaxRssMb);
    if (PL.HaveTraced) {
      // The layer split of the last recorder-on check of this program.
      const obs::Snapshot &S = PL.Traced.Layers;
      Row.num("check_s", PL.Traced.Seconds)
          .num("explore_self_s", S.phase(obs::Phase::Explore))
          .num("visited_probe_s", S.phase(obs::Phase::VisitedProbe))
          .num("monitor_step_s", S.phase(obs::Phase::MonitorStep));
      if (W->Large)
        std::printf("%-18s split of one check: explore.self_s %.4f  "
                    "visited.probe_s %.4f  monitor.step_s %.4f\n",
                    "", S.phase(obs::Phase::Explore),
                    S.phase(obs::Phase::VisitedProbe),
                    S.phase(obs::Phase::MonitorStep));
    }
    Rows += (I ? ", " : "") + Row.str();
  }
  Rows += "]";

  // The result line carries exactly the end-to-end (untraced) or per-layer
  // (traced) metrics; the untraced percentiles go to the table and record.
  std::vector<Metric> Out = O.Trace ? L : M;
  const size_t InResult = Out.size();
  if (!O.Trace)
    Out.insert(Out.end(), Pct.begin(), Pct.end());
  JsonObj Metrics, Detail;
  for (size_t K = 0; K != Out.size(); ++K) {
    const Metric &X = Out[K];
    auto U = Unavailable.find(X.Name);
    bool Avail = U == Unavailable.end();
    std::printf("%-32s %14.6g %-6s (%s)%s%s\n", X.Name.c_str(), X.Value,
                X.Unit.c_str(), X.Samples.c_str(),
                Avail ? "" : " unavailable: ",
                Avail ? "" : U->second.c_str());
    JsonObj V;
    V.num("value", X.Value).str("unit", X.Unit);
    if (K < InResult)
      Metrics.raw(X.Name, V.str());
    V.str("samples", X.Samples);
    if (!Avail)
      V.str("unavailable", U->second);
    Detail.raw(X.Name, V.str());
  }

  JsonObj Record;
  Record.raw("config", Config.str())
      .raw("programs", Rows)
      .raw("metrics", Detail.str())
      .num("attempted", static_cast<double>(Attempted))
      .num("failed", static_cast<double>(Failed));
  std::string RecordPath = O.OutDir + "/" + W->Name + ".trace" +
                           (O.Trace ? "1" : "0") + ".json";
  if (FILE *F = std::fopen(RecordPath.c_str(), "w")) {
    std::fprintf(F, "%s\n", Record.str().c_str());
    std::fclose(F);
  }

  JsonObj Result;
  Result.boolean("correct", Failed == 0)
      .num("attempted", static_cast<double>(Attempted))
      .num("failed", static_cast<double>(Failed))
      .raw("metrics", Metrics.str());
  std::printf("%s\n", Result.str().c_str());
  return 0;
}
