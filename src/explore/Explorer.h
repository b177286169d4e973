//===- explore/Explorer.h - Deterministic BFS reference engine -*- C++ -*-===//
///
/// \file
/// Shared exploration types (violations, traces, statistics) and the
/// deterministic breadth-first explorer over the product of a concurrent
/// program (Section 2.2 LTS) and a memory subsystem (Definition 2.4
/// concurrent system). Rocker reduces robustness to reachability under
/// the instrumented-SC subsystem SCM, so one generic reachability loop
/// serves SC, SCM, RA, TSO and the execution-graph subsystems alike.
///
/// Every exhaustive check runs on the work-stealing engine
/// (parexplore/ParallelExplorer.h). ProductExplorer is that engine's
/// trace replay: when a run finds a violation, the same options are
/// re-run here in BFS order with parent edges, so counterexample traces
/// are shortest and byte-identical whatever the worker count. It is also
/// the reference the differential tests compare the engine against.
///
/// A memory subsystem MemSys provides:
///   using State;                    // copyable, ==
///   State initial() const;
///   void enumerate(const State&, ThreadId, const MemAccess&, Fn) const;
///       // Fn(const Label&, State&&) for every allowed transition
///   void enumerateInternal(const State&, Fn) const;
///       // Fn(ThreadId, State&&) for internal steps (e.g. TSO flushes)
///   void serialize(const State&, std::string&) const;
/// and optionally stepInPlace (explore/Por.h), the POR chain walk's
/// copy-free single step.
///
/// The explorer performs: deduplication via a hashed visited map of
/// serialized product states, parent tracking for counterexample traces,
/// assertion checking, the Definition 6.1 data-race check on non-atomic
/// locations, a per-access hook (used for the Theorem 5.3 robustness
/// conditions), ample-set POR (explore/Por.h), and optional collection
/// of reachable program-state projections.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_EXPLORE_EXPLORER_H
#define ROCKER_EXPLORE_EXPLORER_H

#include "explore/Por.h"
#include "lang/Printer.h"
#include "lang/Program.h"
#include "lang/Step.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "resilience/Resilience.h"
#include "support/BinCodec.h"
#include "support/StateInterner.h"
#include "support/StateKey.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace rocker {

/// What went wrong (or was detected) in an explored state.
struct Violation {
  enum class Kind : uint8_t {
    AssertFail,     ///< assert(e) evaluated to 0 (under SC).
    Robustness,     ///< Theorem 5.3 condition failed (non-robust).
    Race,           ///< Definition 6.1 racy state on a non-atomic location.
    MemoryViolation ///< Subsystem-specific (e.g. RAG+NA ⊥ transition).
  };
  Kind K;
  uint64_t StateId;
  ThreadId Thread;
  uint32_t Pc;
  LocId Loc = 0;
  /// For robustness: the witnessing readable-but-stale value (0xff when
  /// the witness is a non-critical value tracked only disjunctively).
  Val Witness = 0;
  AccessType Type = AccessType::R;
  std::string Detail;
};

/// One step of a counterexample trace.
struct TraceStep {
  ThreadId Thread;
  bool Internal;  ///< Memory-internal step (e.g. TSO buffer flush).
  bool IsAccess;  ///< True when L holds the access label of this step.
  Label L;        ///< Valid when IsAccess.
  std::string Text;
};

/// Exploration statistics.
struct ExploreStats {
  uint64_t NumStates = 0;
  uint64_t NumTransitions = 0;
  /// States where no thread can step although not all have halted —
  /// blocked wait/BCAS instructions that can never be satisfied from
  /// there. Not an error (blocking is legal, Section 2.3), but useful
  /// diagnostics for protocol encodings.
  uint64_t NumDeadlockStates = 0;
  /// Transitions that led to an already-visited state. The dedup hit
  /// rate DedupHits / (DedupHits + NumStates) measures how much of the
  /// enumeration work the visited set absorbs.
  uint64_t DedupHits = 0;
  /// Maximum number of discovered-but-unexpanded states at any point.
  uint64_t PeakFrontier = 0;
  /// Estimated heap bytes held by the visited set at the end of the run.
  uint64_t VisitedBytes = 0;
  /// Estimated heap bytes a raw (full serialized key per state) visited
  /// set would have held; equals VisitedBytes when compression is off.
  uint64_t VisitedRawBytes = 0;
  /// Engine-reported wall-clock time of the exploration; benches consume
  /// this instead of re-timing externally.
  double Seconds = 0;
  bool Truncated = false; ///< Hit the state budget: result is partial.
  /// Resilience outcome: degradation-ladder provenance, checkpoint
  /// activity, interruption/deadline/watchdog flags (resilience/
  /// Resilience.h). Default-constructed for runs with no resilience
  /// events.
  resilience::ResilienceReport Resilience;
  /// Expansion throughput, one entry per worker.
  std::vector<double> PerThreadStatesPerSec;

  /// Per-worker counters, one entry per worker. Totals across entries
  /// equal the whole-run counters above on full explorations.
  struct WorkerCounters {
    uint64_t Expanded = 0;    ///< States popped and expanded.
    uint64_t Transitions = 0; ///< Successor transitions generated.
    uint64_t DedupHits = 0;   ///< Successors that were already visited.
    uint64_t Deadlocks = 0;   ///< Deadlock states detected.
    uint64_t Steals = 0;      ///< Successful work steals (parallel only).
    double Seconds = 0;       ///< Worker wall time.
    double statesPerSec() const {
      return Seconds > 0 ? Expanded / Seconds : 0.0;
    }
  };
  std::vector<WorkerCounters> Workers;

  /// Visited-set compression ratio (raw / actual); 1 when uncompressed.
  double compressionRatio() const {
    return VisitedBytes
               ? static_cast<double>(VisitedRawBytes) / VisitedBytes
               : 1.0;
  }
};

/// Options of the BFS reference engine.
struct ExploreOptions {
  uint64_t MaxStates = UINT64_MAX;
  /// Record parent edges for trace(). This also stores every reduced
  /// state instead of only ample-chain endpoints (see fastForward), so
  /// traces are step-exact; the work-stealing engine never does either.
  bool RecordParents = true;
  bool StopOnViolation = true;
  bool CheckAssertions = true;
  bool CheckRaces = false;
  /// Collect the program-state projections (pcs + registers) of all
  /// reachable states, for state-robustness comparisons.
  bool CollectProgramStates = false;
  /// Collapse deterministic chains of thread-local (ε) steps into single
  /// transitions. Sound for violation detection — local steps neither
  /// touch memory nor change any thread's enabled accesses — but it
  /// changes the set of *stored* program states, so it must not be
  /// combined with CollectProgramStates.
  bool CollapseLocalSteps = false;
  /// Monitor-aware ample-set partial-order reduction (explore/Por.h):
  /// verdicts, violation sets, deadlock counts, and counterexample
  /// replay are preserved while typically far fewer states are expanded.
  /// Inert for subsystems without POR support and for
  /// CollectProgramStates runs (projection sets need the full state
  /// space). Default on; ROCKER_NO_POR=1 flips the default.
  bool UsePor = defaultUsePor();
};

/// Result of an exploration.
struct ExploreResult {
  ExploreStats Stats;
  std::vector<Violation> Violations;
  /// Serialized program-state projections (when requested).
  std::unordered_set<std::string, StateKeyHash> ProgramStates;

  bool hasViolation() const { return !Violations.empty(); }
};

/// A pending non-atomic access, for the Definition 6.1 race check.
struct NaAccess {
  ThreadId T;
  LocId Loc;
  bool IsWrite;
  uint32_t Pc;
};

/// The Definition 6.1 race check over one state's pending non-atomic
/// accesses \p Na (both engines): racy iff two threads enable accesses to
/// the same NA location, at least one writing. Passes each race (StateId
/// 0) to \p Report, which returns false to stop; returns false when
/// stopped.
template <typename ReportFn>
bool checkNaRaces(const Program &P, const std::vector<NaAccess> &Na,
                  ReportFn Report) {
  for (unsigned I = 0; I != Na.size(); ++I) {
    for (unsigned J = I + 1; J != Na.size(); ++J) {
      if (Na[I].Loc != Na[J].Loc || (!Na[I].IsWrite && !Na[J].IsWrite))
        continue;
      Violation V;
      V.K = Violation::Kind::Race;
      V.StateId = 0;
      V.Thread = Na[I].T;
      V.Pc = Na[I].Pc;
      V.Loc = Na[I].Loc;
      V.Detail = "data race on non-atomic '" + P.locName(Na[I].Loc) +
                 "' between t" + std::to_string(Na[I].T) + " and t" +
                 std::to_string(Na[J].T);
      if (!Report(std::move(V)))
        return false;
    }
  }
  return true;
}

/// Checkpoint codec for violations.
inline void encodeViolation(BinWriter &W, const Violation &V) {
  W.u8(static_cast<uint8_t>(V.K));
  W.u64(V.StateId);
  W.u8(V.Thread);
  W.varu64(V.Pc);
  W.u8(V.Loc);
  W.u8(V.Witness);
  W.u8(static_cast<uint8_t>(V.Type));
  W.str(V.Detail);
}

inline Violation decodeViolation(BinReader &R) {
  Violation V;
  V.K = static_cast<Violation::Kind>(R.u8());
  V.StateId = R.u64();
  V.Thread = R.u8();
  V.Pc = static_cast<uint32_t>(R.varu64());
  V.Loc = R.u8();
  V.Witness = R.u8();
  V.Type = static_cast<AccessType>(R.u8());
  V.Detail = R.str();
  return V;
}

/// True when \p MemSys provides the fixed-length checkpoint codec
/// (encodeState/decodeState) the resilience layer needs to serialize
/// frontier payloads. Subsystems without it still run under memory/time
/// budgets; --checkpoint/--resume are rejected for them.
template <typename MemSys>
concept HasStateCodec =
    requires(const MemSys &M, const typename MemSys::State &S,
             std::string &Out, BinReader &R, typename MemSys::State &Mut) {
      M.encodeState(S, Out);
      M.decodeState(R, Mut);
    };

/// The BFS reference explorer. \p AccessHook is called for every pending
/// access of every expanded state with (MemState, ThreadId, Pc, MemAccess)
/// and may return a Violation-like payload via std::optional<Violation>.
template <typename MemSys> class ProductExplorer {
public:
  using MemState = typename MemSys::State;

  ProductExplorer(const Program &P, const MemSys &Mem, ExploreOptions Opts)
      : P(P), Mem(Mem), Opts(Opts), Por(P) {}

  /// A full product state.
  struct ProductState {
    std::vector<ThreadState> Threads;
    MemState M;
  };

  /// Runs the exploration with an access hook (see class comment). Use
  /// run() when no hook is needed.
  template <typename AccessHook>
  ExploreResult runWithHook(AccessHook Hook) {
    auto Start = std::chrono::steady_clock::now();
    obs::Span PhaseSp(obs::Phase::Replay);
    ExploreResult Res;

    ProductState Init;
    Init.Threads.reserve(P.numThreads());
    for (const SequentialProgram &S : P.Threads)
      Init.Threads.push_back(ThreadState::initial(S));
    Init.M = Mem.initial();
    // The initial state fast-forwards too: state 0 is its chain endpoint.
    intern(fastForward(std::move(Init), 0, Res, Hook), Res);

    uint64_t Expanded = 0;
    for (uint64_t Cursor = 0; Cursor != States.size(); ++Cursor) {
      if (States.size() >= Opts.MaxStates) {
        Res.Stats.Truncated = true;
        break;
      }
      Res.Stats.PeakFrontier =
          std::max(Res.Stats.PeakFrontier, States.size() - Cursor);
      expand(Cursor, Res, Hook);
      ++Expanded;
      if (!Res.Violations.empty() && Opts.StopOnViolation)
        break;
    }

    Res.Stats.NumStates = States.size();
    Res.Stats.VisitedBytes = RawVisitedBytes;
    Res.Stats.VisitedRawBytes = RawVisitedBytes;
    Res.Stats.Seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
    ExploreStats::WorkerCounters W;
    W.Expanded = Expanded;
    W.Transitions = Res.Stats.NumTransitions;
    W.DedupHits = Res.Stats.DedupHits;
    W.Deadlocks = Res.Stats.NumDeadlockStates;
    W.Seconds = Res.Stats.Seconds;
    Res.Stats.Workers.push_back(W);
    Res.Stats.PerThreadStatesPerSec.push_back(W.statesPerSec());

    // Bulk counters are accumulated in the run totals and flushed once
    // here, so the hot loop never touches telemetry TLS per transition.
    obs::add(obs::Ctr::Expansions, Expanded);
    obs::add(obs::Ctr::Transitions, Res.Stats.NumTransitions);
    obs::add(obs::Ctr::DedupHits, Res.Stats.DedupHits);
    obs::add(obs::Ctr::VisitedProbes, Res.Stats.NumTransitions + 1);
    obs::add(obs::Ctr::VisitedInserts, Res.Stats.NumStates);
    obs::add(obs::Ctr::AmpleHits, AmpleStates);
    obs::add(obs::Ctr::PorFallbacks, PorFullStates);
    obs::add(obs::Ctr::PorSavedSteps, PorSavedSteps);
    obs::add(obs::Ctr::PorChainedStates, PorChainedStates);
    return Res;
  }

  ExploreResult run() {
    return runWithHook([](const MemState &, ThreadId, uint32_t,
                          const MemAccess &) -> std::optional<Violation> {
      return std::nullopt;
    });
  }

  /// Reconstructs the trace (root to violation state) for a violation.
  std::vector<TraceStep> trace(const Violation &V) const {
    std::vector<TraceStep> Steps;
    if (!Opts.RecordParents)
      return Steps;
    uint64_t Id = V.StateId;
    while (Id != 0) {
      const ParentEdge &E = Parents[Id];
      Steps.push_back(TraceStep{E.Thread, E.Internal, E.IsAccess, E.L,
                                E.Text});
      Id = E.Parent;
    }
    std::reverse(Steps.begin(), Steps.end());
    return Steps;
  }

  /// Renders a violation plus its trace for humans.
  std::string report(const Violation &V) const;

  /// Access to a stored state (e.g. for debugging and tests).
  const ProductState &state(uint64_t Id) const { return States[Id]; }
  uint64_t numStates() const { return States.size(); }

private:
  struct ParentEdge {
    uint64_t Parent = 0;
    ThreadId Thread = 0;
    bool Internal = false;
    bool IsAccess = false;
    Label L{};
    std::string Text;
  };

  /// Adds a state if new; returns its id (or the existing one).
  uint64_t intern(ProductState &&S, ExploreResult &Res) {
    obs::Span Sp(obs::Phase::VisitedProbe);
    std::string Key = productStateKey(Mem, S.Threads, S.M);
    size_t KeyLen = Key.size();
    auto [It, New] = Visited.emplace(std::move(Key), States.size());
    if (!New) {
      ++Res.Stats.DedupHits;
      return It->second;
    }
    RawVisitedBytes += stringNodeBytes(KeyLen, sizeof(uint64_t));
    if (Opts.CollectProgramStates)
      Res.ProgramStates.insert(programStateKey(S.Threads));
    States.push_back(std::move(S));
    if (Opts.RecordParents)
      Parents.emplace_back();
    return States.size() - 1;
  }

  void link(uint64_t Child, uint64_t Parent, ThreadId T, bool Internal,
            std::string Text, const Label *L = nullptr) {
    if (!Opts.RecordParents || Child != States.size() - 1 || Child == 0)
      return;
    ParentEdge E;
    E.Parent = Parent;
    E.Thread = T;
    E.Internal = Internal;
    if (L) {
      E.IsAccess = true;
      E.L = *L;
    }
    E.Text = std::move(Text);
    Parents[Child] = E;
  }

  /// The per-state checks of expand() — assertions, the access hook, the
  /// Definition 6.1 race check — for a state skipped by ample-chain
  /// fast-forwarding (see fastForward). \p Steps is inspectThread's
  /// result for every thread; violations report \p Id, the stored state
  /// whose expansion produced the chain. Returns false when a violation
  /// was recorded and the run stops on violations.
  template <typename AccessHook>
  bool chainChecks(const ProductState &S,
                   const std::vector<ThreadStep> &Steps, int Ample,
                   uint64_t Id, ExploreResult &Res, AccessHook &Hook) {
    std::vector<NaAccess> &NaAccesses = ChainNaBuf;
    NaAccesses.clear();
    for (unsigned T = 0; T != Steps.size(); ++T) {
      const ThreadStep &Step = Steps[T];
      switch (Step.K) {
      case ThreadStep::Kind::Halted:
        break;
      case ThreadStep::Kind::Local:
        if (static_cast<int>(T) != Ample)
          ++PorSavedSteps; // The ample thread's step covers this state.
        break;
      case ThreadStep::Kind::AssertFail:
        if (Opts.CheckAssertions) {
          Violation V;
          V.K = Violation::Kind::AssertFail;
          V.StateId = Id; // Chain states report their stored origin.
          V.Thread = static_cast<ThreadId>(T);
          V.Pc = S.Threads[T].Pc;
          V.Detail = "assertion failed: " +
                     toString(P, static_cast<ThreadId>(T),
                              P.Threads[T].Insts[V.Pc]);
          Res.Violations.push_back(std::move(V));
          if (Opts.StopOnViolation)
            return false;
        }
        break;
      case ThreadStep::Kind::Access: {
        const MemAccess &A = Step.A;
        uint32_t Pc = S.Threads[T].Pc;
        if (Opts.CheckRaces && A.IsNA)
          NaAccesses.push_back(NaAccess{static_cast<ThreadId>(T), A.Loc,
                                        A.isWriteOnly(), Pc});
        if (std::optional<Violation> V =
                Hook(S.M, static_cast<ThreadId>(T), Pc, A)) {
          V->StateId = Id;
          V->Thread = static_cast<ThreadId>(T);
          V->Pc = Pc;
          Res.Violations.push_back(std::move(*V));
          if (Opts.StopOnViolation)
            return false;
        }
        if (static_cast<int>(T) != Ample)
          ++PorSavedSteps; // Checked above; successors not generated.
        break;
      }
      }
    }
    return !Opts.CheckRaces ||
           checkNaRaces(P, NaAccesses, [&](Violation V) {
             V.StateId = Id;
             Res.Violations.push_back(std::move(V));
             return !Opts.StopOnViolation;
           });
  }

  /// Ample-chain fast-forwarding: at an ample state the reduced graph is
  /// locally a chain — porEligible guarantees the ample step has exactly
  /// one successor — so without RecordParents every state is walked to its
  /// chain's endpoint (the first state with no ample thread) *before*
  /// being interned, and ample states never enter the visited set at
  /// all. The per-state checks run at every skipped state and every hop
  /// counts as a transition, so verdicts, violation sets, and deadlock
  /// counts are those of the uncompressed reduced graph. The walk
  /// terminates because ample steps strictly increase the stepped
  /// thread's pc, and the stored set — the initial chain endpoint plus
  /// endpoints reached from fully-expanded states — is a pure function
  /// of the program, so this BFS without RecordParents and the
  /// work-stealing engine (which always chains) agree on state counts.
  template <typename AccessHook>
  ProductState fastForward(ProductState &&S, uint64_t Id,
                           ExploreResult &Res, AccessHook &Hook) {
    if (Opts.RecordParents) // Trace mode stores every reduced state so
      return std::move(S);  // counterexample replay stays step-exact.
    for (;;) {
      if (!Opts.UsePor || Opts.CollectProgramStates || !Por.usable() ||
          !memPorEligible(Mem, S.M))
        return std::move(S);
      // Own scratch: expand() is mid-iteration over StepsBuf when it
      // calls fastForward, so the chain walk must not clobber it.
      ChainSteps.resize(P.numThreads());
      for (unsigned T = 0; T != P.numThreads(); ++T)
        inspectThreadInto(P, static_cast<ThreadId>(T), S.Threads[T],
                          ChainSteps[T]);
      int Ample = Por.selectAmple(ChainSteps, S.Threads,
                                  Opts.CollapseLocalSteps);
      if (Ample < 0)
        return std::move(S);
      if (!chainChecks(S, ChainSteps, Ample, Id, Res, Hook))
        return std::move(S); // StopOnViolation: the run is over anyway.
      ++AmpleStates;
      ++PorChainedStates;
      obs::traceInstant(obs::TraceInstant::FastForward, PorChainedStates);
      const ThreadStep &Step = ChainSteps[Ample];
      if (Step.K == ThreadStep::Kind::Local) {
        S.Threads[Ample] = Step.Next;
        if (Opts.CollapseLocalSteps) {
          // The same bounded ε-chain walk as expand().
          unsigned Collapsed = 1;
          while (Collapsed < 4096) {
            ThreadStep More = inspectThread(
                P, static_cast<ThreadId>(Ample), S.Threads[Ample]);
            if (More.K != ThreadStep::Kind::Local)
              break;
            S.Threads[Ample] = More.Next;
            ++Collapsed;
          }
        }
        ++Res.Stats.NumTransitions;
        continue;
      }
      // Store S as-is (its expansion handles the ample set) should a
      // subsystem break the one-successor contract of an ample access.
      if (!stepAmpleAccess(P, Mem, S.Threads, S.M,
                           static_cast<ThreadId>(Ample), Step.A))
        return std::move(S);
      ++Res.Stats.NumTransitions;
    }
  }

  template <typename AccessHook>
  void expand(uint64_t Id, ExploreResult &Res, AccessHook &Hook) {
    // Pending NA accesses for the Definition 6.1 race check.
    std::vector<NaAccess> &NaAccesses = NaBuf;
    NaAccesses.clear();
    bool AnyStep = false;
    bool AllHalted = true;

    // Ample-set POR (explore/Por.h): when active and some thread's
    // pending step is provably independent of everything the other
    // threads can still do, only that thread's successors are generated
    // below — the per-state checks (assertions, the access hook, the
    // race check) still run for every thread. Selection is a pure
    // function of the state, so this BFS and every worker of the
    // work-stealing engine reduce to the same state graph. Without
    // RecordParents fastForward keeps ample states out of the visited
    // set entirely, so this block fires only in trace replays (and on
    // the contract-breach fallback).
    StepsBuf.resize(P.numThreads());
    for (unsigned T = 0; T != P.numThreads(); ++T)
      inspectThreadInto(P, static_cast<ThreadId>(T), States[Id].Threads[T],
                        StepsBuf[T]);
    int Ample = -1;
    if (Opts.UsePor && !Opts.CollectProgramStates && Por.usable() &&
        memPorEligible(Mem, States[Id].M)) {
      Ample = Por.selectAmple(StepsBuf, States[Id].Threads,
                              Opts.CollapseLocalSteps);
      if (Ample >= 0)
        ++AmpleStates;
      else
        ++PorFullStates;
    }

    for (unsigned T = 0; T != P.numThreads(); ++T) {
      // The state vector may reallocate during expansion (re-index it);
      // StepsBuf is stable: fastForward has its own scratch.
      const ThreadStep &Step = StepsBuf[T];
      if (Step.K != ThreadStep::Kind::Halted)
        AllHalted = false;
      switch (Step.K) {
      case ThreadStep::Kind::Halted:
        break;
      case ThreadStep::Kind::Local: {
        if (Ample >= 0 && static_cast<int>(T) != Ample) {
          ++PorSavedSteps; // The ample thread's step covers this state.
          break;
        }
        ProductState Next;
        Next.Threads = States[Id].Threads;
        Next.M = States[Id].M;
        uint32_t FromPc = Next.Threads[T].Pc;
        Next.Threads[T] = Step.Next;
        unsigned Collapsed = 1;
        if (Opts.CollapseLocalSteps) {
          // Follow the deterministic ε-chain to its end (bounded, in case
          // of a local-only infinite loop such as `l: goto l`).
          while (Collapsed < 4096) {
            ThreadStep More = inspectThread(P, static_cast<ThreadId>(T),
                                            Next.Threads[T]);
            if (More.K != ThreadStep::Kind::Local)
              break;
            Next.Threads[T] = More.Next;
            ++Collapsed;
          }
        }
        ++Res.Stats.NumTransitions;
        uint64_t C =
            intern(fastForward(std::move(Next), Id, Res, Hook), Res);
        link(C, Id, static_cast<ThreadId>(T), false,
             (Collapsed > 1 ? "local x" + std::to_string(Collapsed) + ": "
                            : "local: ") +
                 toString(P, static_cast<ThreadId>(T),
                          P.Threads[T].Insts[FromPc]));
        AnyStep = true;
        break;
      }
      case ThreadStep::Kind::AssertFail:
        if (Opts.CheckAssertions) {
          Violation V;
          V.K = Violation::Kind::AssertFail;
          V.StateId = Id;
          V.Thread = static_cast<ThreadId>(T);
          V.Pc = States[Id].Threads[T].Pc;
          V.Detail = "assertion failed: " +
                     toString(P, static_cast<ThreadId>(T),
                              P.Threads[T].Insts[V.Pc]);
          Res.Violations.push_back(std::move(V));
          if (Opts.StopOnViolation)
            return;
        }
        break;
      case ThreadStep::Kind::Access: {
        const MemAccess A = Step.A;
        uint32_t Pc = States[Id].Threads[T].Pc;
        if (Opts.CheckRaces && A.IsNA)
          NaAccesses.push_back(NaAccess{static_cast<ThreadId>(T), A.Loc,
                                        A.isWriteOnly(), Pc});
        if (std::optional<Violation> V =
                Hook(States[Id].M, static_cast<ThreadId>(T), Pc, A)) {
          V->StateId = Id;
          V->Thread = static_cast<ThreadId>(T);
          V->Pc = Pc;
          Res.Violations.push_back(std::move(*V));
          if (Opts.StopOnViolation)
            return;
        }
        if (Ample >= 0 && static_cast<int>(T) != Ample) {
          ++PorSavedSteps; // Checked above; successors not generated.
          break;
        }
        Mem.enumerate(
            States[Id].M, static_cast<ThreadId>(T), A,
            [&](const Label &L, MemState &&M2) {
              AnyStep = true;
              ProductState Next;
              Next.Threads = States[Id].Threads;
              applyAccessInPlace(P, static_cast<ThreadId>(T),
                                 Next.Threads[T], A, L);
              Next.M = std::move(M2);
              ++Res.Stats.NumTransitions;
              uint64_t C =
                  intern(fastForward(std::move(Next), Id, Res, Hook), Res);
              link(C, Id, static_cast<ThreadId>(T), false, toString(P, L),
                   &L);
            });
        break;
      }
      }
      // Chain walks can record violations mid-enumeration; stop
      // generating siblings once the run is over.
      if (Opts.StopOnViolation && !Res.Violations.empty())
        return;
    }

    if (Opts.CheckRaces && !checkNaRaces(P, NaAccesses, [&](Violation V) {
          V.StateId = Id;
          Res.Violations.push_back(std::move(V));
          return !Opts.StopOnViolation;
        }))
      return;

    // Memory-internal steps (e.g. TSO store-buffer flushes). porEligible
    // asserts none are enabled at ample states, so the scan is skipped
    // there (and the ample step's existence keeps AnyStep truthful).
    if (Ample < 0)
      Mem.enumerateInternal(States[Id].M, [&](ThreadId T, MemState &&M2) {
        AnyStep = true;
        ProductState Next;
        Next.Threads = States[Id].Threads;
        Next.M = std::move(M2);
        ++Res.Stats.NumTransitions;
        uint64_t C =
            intern(fastForward(std::move(Next), Id, Res, Hook), Res);
        link(C, Id, T, true, "flush");
      });

    if (!AnyStep && !AllHalted)
      ++Res.Stats.NumDeadlockStates;
  }

  const Program &P;
  const MemSys &Mem;
  ExploreOptions Opts;
  PorAnalysis Por;                 ///< Ample-set analysis (explore/Por.h).
  std::vector<ThreadStep> StepsBuf; ///< Scratch: per-thread steps.
  std::vector<ThreadStep> ChainSteps; ///< Scratch: fastForward's walk.
  std::vector<NaAccess> NaBuf;      ///< Scratch: expand's NA accesses.
  std::vector<NaAccess> ChainNaBuf; ///< Scratch: chainChecks' NA accesses.
  uint64_t AmpleStates = 0;   ///< States expanded via an ample set.
  uint64_t PorFullStates = 0; ///< POR-active states with no ample set.
  uint64_t PorSavedSteps = 0; ///< Pending steps skipped at ample states.
  uint64_t PorChainedStates = 0; ///< Chain intermediates never stored.
  std::deque<ProductState> States;
  std::vector<ParentEdge> Parents;
  std::unordered_map<std::string, uint64_t, StateKeyHash> Visited;
  uint64_t RawVisitedBytes = 0; ///< Visited-map byte accounting.
};

/// Renders a violation kind for reports.
const char *violationKindName(Violation::Kind K);

/// Renders a violation + trace (standalone helper used by report()).
std::string formatViolation(const Program &P, const Violation &V,
                            const std::vector<TraceStep> &Trace);

template <typename MemSys>
std::string ProductExplorer<MemSys>::report(const Violation &V) const {
  return formatViolation(P, V, trace(V));
}

} // namespace rocker

#endif // ROCKER_EXPLORE_EXPLORER_H
