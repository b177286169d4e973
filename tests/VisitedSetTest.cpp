//===- tests/VisitedSetTest.cpp - Visited-set compression + key fixes -------===//
//
// Covers the compressed visited set (support/StateInterner.h) and the
// state-key correctness fixes that came with it:
//
//  * pc-width regression: state keys used to serialize only the low 16
//    bits of the 32-bit pc, aliasing distinct states in programs with
//    more than 2^16 instructions per thread — now varint-encoded
//    (support/StateKey.h) in both engines and both visited-set modes.
//  * bitstate memory release: expanded states' payloads are freed, so the
//    documented "memory drops to the bit array" behavior actually holds.
//  * interner round-trip identity: with compression on, verdicts, state/
//    transition/dedup counts, and violation reports are byte-identical to
//    the raw visited set, corpus-wide, at 1 and 4 threads.
//  * unit tests of StateInterner / ShardedStateInterner themselves.
//  * the lock-free visited tier (support/LockFreeVisited.h): CAS-table
//    unit tests (concurrent exactness and id agreement, save/restore,
//    sticky full()), pair-hash spread, per-table growth with stable ids,
//    and lock-free-vs-striped verdict/count equivalence at 1, 4, and 16
//    workers (16 is oversubscribed on small machines — that is the
//    point: heavy interleaving, same answers).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "litmus/Corpus.h"
#include "memory/SCMemory.h"
#include "obs/Telemetry.h"
#include "parexplore/ParallelExplorer.h"
#include "rocker/RobustnessChecker.h"
#include "support/LockFreeVisited.h"
#include "support/StateInterner.h"
#include "support/StateKey.h"
#include "tso/TSORobustness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace rocker;

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

/// A single-thread straight-line program with > 2^16 instructions: its pc
/// walks through values whose low 16 bits repeat, so a 16-bit-truncated
/// key aliases distinct states.
Program longStraightLineProgram(unsigned NumInsts) {
  ProgramBuilder B("pc-width");
  B.addLoc("x");
  B.beginThread("t0");
  RegId R = B.reg("r");
  for (unsigned I = 0; I != NumInsts; ++I)
    B.assign(R, Expr::makeConst(1));
  return B.build();
}

} // namespace

//===----------------------------------------------------------------------===//
// pc-width regression (satellite bugfix)
//===----------------------------------------------------------------------===//

TEST(StateKey, VarintPcKeysDifferAboveBit16) {
  ThreadState A;
  A.Pc = 5;
  A.Regs.assign(2, 7);
  ThreadState B = A;
  B.Pc = 5 + 65536; // Identical low 16 bits.
  EXPECT_NE(programStateKey({A}), programStateKey({B}));
  // And the varint stays compact where the old fixed encoding was not.
  std::string Small;
  appendVarUint32(Small, 5);
  EXPECT_EQ(Small.size(), 1u);
}

TEST(StateKey, VarintRoundsTripBoundaryValues) {
  // Distinct pcs must produce distinct varints (injectivity at the
  // 1/2/3-byte boundaries).
  std::vector<uint32_t> Pcs = {0,     1,      127,    128,     16383,
                               16384, 65535,  65536,  65537,   2097151,
                               2097152, 0xffffffffu};
  std::vector<std::string> Keys;
  for (uint32_t Pc : Pcs) {
    std::string K;
    appendVarUint32(K, Pc);
    Keys.push_back(K);
  }
  for (size_t I = 0; I != Keys.size(); ++I)
    for (size_t J = I + 1; J != Keys.size(); ++J)
      EXPECT_NE(Keys[I], Keys[J]) << Pcs[I] << " vs " << Pcs[J];
}

TEST(PcWidth, StatesAboveBit16DoNotAliasSequential) {
  // 65600 instructions → 65601 distinct states (one per pc). Under the
  // old 16-bit truncation, pc 65537 aliased pc 1 (same registers), so the
  // exploration stopped short.
  // The BFS reference keys its visited map by the raw state key.
  const unsigned N = 65600;
  Program P = longStraightLineProgram(N);
  SCMemory Mem(P);
  ExploreOptions EO;
  EO.RecordParents = false;
  EO.UsePor = false; // POR would chain-compress the straight line away.
  ProductExplorer<SCMemory> Ex(P, Mem, EO);
  ExploreResult R = Ex.run();
  EXPECT_EQ(R.Stats.NumStates, N + 1);
}

TEST(PcWidth, StatesAboveBit16DoNotAliasParallel) {
  const unsigned N = 65600;
  Program P = longStraightLineProgram(N);
  SCMemory Mem(P);
  for (bool Compress : {true, false}) {
    ParExploreOptions PO;
    PO.Threads = 2;
    PO.RecordTrace = false;
    PO.CompressVisited = Compress;
    PO.UsePor = false; // POR would chain-compress the straight line away.
    ParallelExplorer<SCMemory> Ex(P, Mem, PO);
    ParExploreResult R = Ex.run();
    EXPECT_EQ(R.Stats.NumStates, N + 1)
        << (Compress ? "compressed" : "raw");
  }
}

//===----------------------------------------------------------------------===//
// Interner unit tests
//===----------------------------------------------------------------------===//

TEST(StateInterner, ComponentIdsAreDensePerSlot) {
  StateInterner In(2);
  EXPECT_EQ(In.internComponent(0, "aaa"), 0u);
  EXPECT_EQ(In.internComponent(0, "bbb"), 1u);
  EXPECT_EQ(In.internComponent(0, "aaa"), 0u); // Hash-consed.
  // Slots are independent id spaces.
  EXPECT_EQ(In.internComponent(1, "aaa"), 0u);
}

TEST(StateInterner, TupleIdsAreDenseAndDeduped) {
  StateInterner In(2);
  uint32_t T0[2] = {0, 0};
  uint32_t T1[2] = {0, 1};
  auto [Id0, New0] = In.insertTuple(T0, 100);
  EXPECT_TRUE(New0);
  EXPECT_EQ(Id0, 0u);
  auto [Id1, New1] = In.insertTuple(T1, 100);
  EXPECT_TRUE(New1);
  EXPECT_EQ(Id1, 1u);
  auto [Id2, New2] = In.insertTuple(T0, 100);
  EXPECT_FALSE(New2);
  EXPECT_EQ(Id2, 0u);
  EXPECT_EQ(In.size(), 2u);
  EXPECT_EQ(In.rawBytes(), 200u); // Accumulated for new tuples only.
  EXPECT_GT(In.bytesUsed(), 0u);
}

TEST(StateInterner, SurvivesIndexGrowth) {
  // Push the open-addressing tuple index through several doublings and
  // verify ids remain stable and dedup exact.
  StateInterner In(2);
  for (uint32_t I = 0; I != 10000; ++I) {
    uint32_t T[2] = {I, I ^ 0x55u};
    auto [Id, New] = In.insertTuple(T, 10);
    EXPECT_TRUE(New);
    EXPECT_EQ(Id, I);
  }
  for (uint32_t I = 0; I != 10000; ++I) {
    uint32_t T[2] = {I, I ^ 0x55u};
    auto [Id, New] = In.insertTuple(T, 10);
    EXPECT_FALSE(New);
    EXPECT_EQ(Id, I);
  }
  EXPECT_EQ(In.size(), 10000u);
}

TEST(ShardedStateInterner, ConcurrentInsertsAreExact) {
  // All workers intern the same component strings and tuples; the final
  // count must be exact regardless of interleaving.
  constexpr uint32_t N = 20000;
  ShardedStateInterner In(2, 4);
  auto Work = [&] {
    for (uint32_t I = 0; I != N; ++I) {
      std::string C0 = "c" + std::to_string(I % 97);
      std::string C1 = "d" + std::to_string(I);
      uint32_t T[2] = {In.internComponent(0, C0),
                       In.internComponent(1, C1)};
      In.insertTuple(T, 10);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != 4; ++W)
    Threads.emplace_back(Work);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(In.size(), N);
  EXPECT_GT(In.bytesUsed(), 0u);
  EXPECT_EQ(In.rawBytes(), N * 10u);
}

//===----------------------------------------------------------------------===//
// Round-trip identity: compression on/off, 1 and 4 threads
//===----------------------------------------------------------------------===//

namespace {

RockerOptions fullOpts(unsigned Threads, bool Compress) {
  RockerOptions O;
  O.StopOnViolation = false;
  O.RecordTrace = false;
  O.MaxStates = Budget;
  O.Threads = Threads;
  O.CompressVisited = Compress;
  return O;
}

} // namespace

TEST(CompressedVisited, CorpusCountsIdenticalToRaw) {
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    for (unsigned Threads : {1u, 4u}) {
      RockerReport On = checkRobustness(P, fullOpts(Threads, true));
      RockerReport Off = checkRobustness(P, fullOpts(Threads, false));
      if (!On.Complete || !Off.Complete)
        continue; // Truncated runs stop at engine-specific frontiers.
      EXPECT_EQ(On.Robust, Off.Robust)
          << Name << " at " << Threads << " threads";
      EXPECT_EQ(On.Stats.NumStates, Off.Stats.NumStates)
          << Name << " at " << Threads << " threads";
      EXPECT_EQ(On.Stats.NumTransitions, Off.Stats.NumTransitions)
          << Name << " at " << Threads << " threads";
      EXPECT_EQ(On.Stats.DedupHits, Off.Stats.DedupHits)
          << Name << " at " << Threads << " threads";
      EXPECT_EQ(On.Stats.NumDeadlockStates, Off.Stats.NumDeadlockStates)
          << Name << " at " << Threads << " threads";
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 40u);
}

TEST(CompressedVisited, ViolationReportsByteIdenticalToRaw) {
  // A mix of non-robust (SB, peterson-sc, dekker-sc) and robust (MP,
  // peterson-ra-dmitriy) programs: violation reports must match, and so
  // must clean ones.
  for (const char *Name :
       {"SB", "MP", "peterson-sc", "dekker-sc", "peterson-ra-dmitriy"}) {
    const CorpusEntry &E = findCorpusEntry(Name);
    Program P = E.parse();
    for (unsigned Threads : {1u, 4u}) {
      RockerOptions OOn;
      OOn.Threads = Threads;
      OOn.CompressVisited = true;
      RockerOptions OOff = OOn;
      OOff.CompressVisited = false;
      RockerReport On = checkRobustness(P, OOn);
      RockerReport Off = checkRobustness(P, OOff);
      EXPECT_EQ(On.Robust, E.ExpectRobust) << Name;
      EXPECT_EQ(On.Robust, Off.Robust) << Name;
      EXPECT_EQ(On.FirstViolationText, Off.FirstViolationText)
          << Name << " at " << Threads << " threads";
      if (Threads == 1) {
        // The BFS replay is fully deterministic, so the violation lists
        // match exactly, down to state ids.
        ASSERT_EQ(On.Violations.size(), Off.Violations.size()) << Name;
        for (size_t I = 0; I != On.Violations.size(); ++I) {
          EXPECT_EQ(On.Violations[I].StateId, Off.Violations[I].StateId);
          EXPECT_EQ(On.Violations[I].Detail, Off.Violations[I].Detail);
        }
      }
    }
  }
}

TEST(CompressedVisited, TsoOracleIdenticalToRaw) {
  // The TSO baseline compares *projection sets* computed under both
  // visited-set modes; verdicts and counts must agree.
  for (const char *Name : {"SB", "MP", "peterson-ra"}) {
    Program P = findCorpusEntry(Name).parse();
    TSOOptions On;
    On.CompressVisited = true;
    TSOOptions Off = On;
    Off.CompressVisited = false;
    TSORobustnessResult ROn = checkTSORobustness(P, On);
    TSORobustnessResult ROff = checkTSORobustness(P, Off);
    EXPECT_EQ(ROn.Robust, ROff.Robust) << Name;
    EXPECT_EQ(ROn.Stats.NumStates, ROff.Stats.NumStates) << Name;
  }
}

TEST(CompressedVisited, StatsReportBytesAndRatio) {
  Program P = findCorpusEntry("peterson-ra").parse();
  RockerReport On = checkRobustness(P, fullOpts(1, true));
  ASSERT_TRUE(On.Complete);
  EXPECT_GT(On.Stats.VisitedBytes, 0u);
  EXPECT_GT(On.Stats.VisitedRawBytes, On.Stats.VisitedBytes);
  EXPECT_GT(On.Stats.compressionRatio(), 1.0);
  RockerReport Off = checkRobustness(P, fullOpts(1, false));
  EXPECT_GT(Off.Stats.VisitedBytes, 0u);
  EXPECT_EQ(Off.Stats.VisitedBytes, Off.Stats.VisitedRawBytes);
  EXPECT_DOUBLE_EQ(Off.Stats.compressionRatio(), 1.0);
  // The raw estimate recorded by the compressed run should match what the
  // raw run actually accounted (same keys, same cost model).
  EXPECT_EQ(On.Stats.VisitedRawBytes, Off.Stats.VisitedRawBytes);
  // The worker count changes neither the keys nor the cost model.
  RockerReport Par = checkRobustness(P, fullOpts(4, true));
  ASSERT_TRUE(Par.Complete);
  EXPECT_GT(Par.Stats.VisitedBytes, 0u);
  EXPECT_EQ(Par.Stats.VisitedRawBytes, On.Stats.VisitedRawBytes);
}

//===----------------------------------------------------------------------===//
// Pair hashing: node and root tables probe by hashMix64 of the payload
//===----------------------------------------------------------------------===//

namespace {

/// Probe steps per insert of the \p N x \p N dense id pairs into an empty
/// table of 2^Log2 slots.
template <typename Table> double stepsPerDenseInsert(uint32_t N,
                                                     unsigned Log2) {
  Table T(Log2);
  lf::ProbeStats St;
  bool New = false;
  for (uint32_t A = 0; A != N; ++A)
    for (uint32_t B = 0; B != N; ++B)
      EXPECT_NE(T.intern(lf::packPair(A, B), St, New), Table::InvalidId);
  EXPECT_EQ(T.used(), uint64_t{N} * N);
  return double(St.ProbeSteps) / (double(N) * N);
}

} // namespace

TEST(PairHashing, DistinctPairsRarelyCollide) {
  // Ids come from per-table counters, so payloads are pairs of small
  // dense integers; their hashes must not collide (a collision costs
  // probe steps, never correctness).
  std::vector<uint64_t> Hashes;
  for (uint32_t A = 0; A != 64; ++A)
    for (uint32_t B = 0; B != 64; ++B)
      Hashes.push_back(hashMix64(lf::packPair(A, B)));
  std::sort(Hashes.begin(), Hashes.end());
  EXPECT_EQ(std::unique(Hashes.begin(), Hashes.end()), Hashes.end());
}

TEST(PairHashing, DenseIdPairsProbeShort) {
  // 4096 dense pairs at 1/2 load: linear probing over a well-mixed hash
  // expects ~1.5 steps per insert; a degenerate mix would cluster.
  EXPECT_LT(stepsPerDenseInsert<lf::NodeTable>(64, 13), 2.5);
  EXPECT_LT(stepsPerDenseInsert<lf::RootTable>(64, 13), 2.5);
}

TEST(PairHashing, RootHashIsRecomputedFromTheSlotOnGrowth) {
  // The root table keeps bare payloads: growth must find every root
  // again from its slot word alone.
  lf::RootTable T(10);
  lf::ProbeStats St;
  bool New = false;
  for (uint32_t I = 0; I != 600; ++I)
    T.intern(lf::packPair(I, I * 3), St, New);
  ASSERT_TRUE(T.wantsGrowth());
  lf::GrowthPlan Plan;
  Plan.add(T);
  Plan.work();
  Plan.finish();
  EXPECT_EQ(T.log2(), grownLog2(10));
  EXPECT_EQ(T.used(), 600u);
  for (uint32_t I = 0; I != 600; ++I) {
    T.intern(lf::packPair(I, I * 3), St, New);
    EXPECT_FALSE(New) << I;
  }
}

//===----------------------------------------------------------------------===//
// Lock-free table unit tests
//===----------------------------------------------------------------------===//

namespace {

/// Id -> payload of every stored pair (quiesced).
std::map<uint32_t, uint64_t> nodesById(const lf::NodeTable &T) {
  std::map<uint32_t, uint64_t> M;
  T.forEach([&](uint32_t Id, uint64_t P) { M.emplace(Id, P); });
  return M;
}

std::map<uint32_t, std::string> stringsById(const lf::StringTable &T) {
  std::map<uint32_t, std::string> M;
  T.forEach([&](uint32_t Id, std::string_view B) { M.emplace(Id, B); });
  return M;
}

} // namespace

TEST(LockFreeTables, PairTableInternsAndDedups) {
  lf::NodeTable T(10);
  lf::ProbeStats St;
  bool New = false;
  uint32_t A = T.intern(lf::packPair(1, 2), St, New);
  EXPECT_TRUE(New);
  EXPECT_EQ(A, 0u); // Ids come from the table's counter, not the slot.
  uint32_t B = T.intern(lf::packPair(1, 2), St, New);
  EXPECT_FALSE(New);
  EXPECT_EQ(A, B);
  uint32_t C = T.intern(lf::packPair(3, 4), St, New);
  EXPECT_TRUE(New);
  EXPECT_EQ(C, 1u);
  EXPECT_EQ(nodesById(T),
            (std::map<uint32_t, uint64_t>{{0, lf::packPair(1, 2)},
                                          {1, lf::packPair(3, 4)}}));
  EXPECT_EQ(T.used(), 2u);
  EXPECT_FALSE(T.full());
}

TEST(LockFreeTables, RecycledArraysComeBackEmpty) {
  // A table's word array is pooled when it is destroyed and handed to
  // the next table of its size (last in, first out); every slot the
  // first table claimed must read as empty again — both words of a
  // node slot, which would otherwise hand out a stale id.
  lf::ProbeStats St;
  bool New = false;
  {
    lf::NodeTable T(6);
    for (uint64_t I = 0; I != 50; ++I)
      T.intern(lf::packPair(I, I + 1), St, New);
    ASSERT_EQ(T.used(), 50u);
  }
  lf::NodeTable T(6);
  EXPECT_EQ(T.used(), 0u);
  EXPECT_TRUE(nodesById(T).empty());
  for (uint64_t I = 0; I != 50; ++I) {
    EXPECT_EQ(T.intern(lf::packPair(I + 7, I), St, New), I);
    EXPECT_TRUE(New) << I;
  }
}

TEST(LockFreeTables, PairTableConcurrentInsertsAreExact) {
  // 4 threads intern the same 8192 payloads: every thread must see the
  // same id per payload, the ids must be exactly 0..N-1, and the used
  // count must be exact (no double-claims).
  constexpr uint32_t N = 8192;
  lf::NodeTable T(14);
  std::vector<std::vector<uint32_t>> Ids(4, std::vector<uint32_t>(N));
  auto Work = [&](unsigned W) {
    lf::ProbeStats St;
    for (uint32_t I = 0; I != N; ++I) {
      bool New = false;
      Ids[W][I] = T.intern(I, St, New);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != 4; ++W)
    Threads.emplace_back(Work, W);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.used(), N);
  EXPECT_FALSE(T.full());
  for (unsigned W = 1; W != 4; ++W)
    EXPECT_EQ(Ids[W], Ids[0]) << "thread " << W;
  std::map<uint32_t, uint64_t> ById = nodesById(T);
  ASSERT_EQ(ById.size(), N);
  EXPECT_EQ(ById.rbegin()->first, N - 1);
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(ById[Ids[0][I]], I);
}

TEST(LockFreeTables, NodeIdsAgreeAcross16Threads) {
  // 16 threads intern overlapping payload ranges (each starts at a
  // different offset into the same 4096-pair window, so most claims
  // race with a reader that must wait out the id write): every thread
  // must get the same id for the same payload.
  constexpr unsigned NumThreads = 16;
  constexpr uint32_t N = 4096;
  lf::NodeTable T(14);
  std::vector<std::vector<uint32_t>> Ids(NumThreads,
                                         std::vector<uint32_t>(N));
  auto Work = [&](unsigned W) {
    lf::ProbeStats St;
    for (uint32_t K = 0; K != N; ++K) {
      uint32_t I = (K + W * 256) % N;
      bool New = false;
      Ids[W][I] = T.intern(lf::packPair(I, I ^ 5), St, New);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != NumThreads; ++W)
    Threads.emplace_back(Work, W);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.used(), N);
  for (unsigned W = 1; W != NumThreads; ++W)
    EXPECT_EQ(Ids[W], Ids[0]) << "thread " << W;
  std::map<uint32_t, uint64_t> ById = nodesById(T);
  ASSERT_EQ(ById.size(), N);
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(ById[Ids[0][I]], lf::packPair(I, I ^ 5));
}

TEST(LockFreeTables, StringTableConcurrentInsertsAreExact) {
  constexpr uint32_t N = 4096;
  lf::StringTable T(13);
  std::vector<std::vector<uint32_t>> Ids(4, std::vector<uint32_t>(N));
  auto Work = [&](unsigned W) {
    lf::ProbeStats St;
    for (uint32_t I = 0; I != N; ++I) {
      bool New = false;
      Ids[W][I] = T.intern("key-" + std::to_string(I), St, New);
      ASSERT_NE(Ids[W][I], lf::StringTable::InvalidId);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != 4; ++W)
    Threads.emplace_back(Work, W);
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.used(), N);
  EXPECT_GT(T.bytesUsed(), N * sizeof(uint64_t));
  for (unsigned W = 1; W != 4; ++W)
    EXPECT_EQ(Ids[W], Ids[0]) << "thread " << W;
  std::map<uint32_t, std::string> ById = stringsById(T);
  ASSERT_EQ(ById.size(), N);
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(ById[Ids[0][I]], "key-" + std::to_string(I));
}

TEST(LockFreeTables, PairTableSaveRestoreKeepsSlotPlacement) {
  // Saved as (id, payload) and re-inserted: every id survives restore,
  // at the table's own capacity or any other.
  lf::NodeTable T(10);
  lf::ProbeStats St;
  std::vector<std::pair<uint32_t, uint64_t>> Entries;
  for (uint32_t I = 0; I != 100; ++I) {
    bool New = false;
    uint64_t P = lf::packPair(I, I * 7);
    Entries.emplace_back(T.intern(P, St, New), P);
  }
  BinWriter W;
  T.save(W);
  for (unsigned Log2 : {10u, 6u, 12u}) {
    lf::NodeTable R(Log2);
    BinReader Rd(W.Buf);
    ASSERT_TRUE(R.restore(Rd)) << Log2;
    EXPECT_EQ(R.used(), T.used());
    EXPECT_FALSE(R.wantsGrowth()) << Log2; // Sized to its contents.
    EXPECT_EQ(nodesById(R), nodesById(T));
    bool New = false;
    for (auto [Id, P] : Entries)
      EXPECT_EQ(R.intern(P, St, New), Id);
    // The counter resumes past the restored ids.
    EXPECT_EQ(R.intern(lf::packPair(999, 1), St, New), 100u);
  }
  // Restoring over live entries is rejected.
  BinReader Rd(W.Buf);
  EXPECT_FALSE(T.restore(Rd));
}

TEST(LockFreeTables, StringTableSaveRestoreKeepsSlotPlacement) {
  lf::StringTable T(10);
  lf::ProbeStats St;
  std::vector<std::pair<uint32_t, std::string>> Entries;
  for (uint32_t I = 0; I != 100; ++I) {
    bool New = false;
    std::string S(1 + I % 40, static_cast<char>('a' + I % 26));
    S += std::to_string(I);
    Entries.emplace_back(T.intern(S, St, New), S);
  }
  BinWriter W;
  T.save(W);
  lf::StringTable R(7);
  BinReader Rd(W.Buf);
  ASSERT_TRUE(R.restore(Rd));
  EXPECT_EQ(R.used(), T.used());
  EXPECT_EQ(R.bytesUsed(), T.bytesUsed());
  EXPECT_EQ(stringsById(R), stringsById(T));
  for (const auto &[Id, S] : Entries) {
    bool New = false;
    EXPECT_EQ(R.intern(S, St, New), Id);
    EXPECT_FALSE(New);
  }
}

TEST(LockFreeTables, FullTableLatchesStickyAndRejectsInserts) {
  // 2^8 slots, load cap 7/8 → 224 claims; the next distinct payload must
  // fail with InvalidId and latch full() without corrupting dedup.
  lf::NodeTable T(8);
  lf::ProbeStats St;
  bool New = false;
  uint32_t Cap = 256 - 256 / 8;
  for (uint32_t I = 0; I != Cap; ++I)
    ASSERT_NE(T.intern(I, St, New), lf::NodeTable::InvalidId);
  EXPECT_FALSE(T.full());
  EXPECT_TRUE(T.wantsGrowth()); // Growth should have been asked long ago.
  EXPECT_TRUE(St.WantGrowth);
  EXPECT_EQ(T.intern(9999, St, New), lf::NodeTable::InvalidId);
  EXPECT_TRUE(T.full()); // Sticky.
  // Existing payloads still dedup exactly while full.
  EXPECT_EQ(T.intern(5, St, New), 5u);
  EXPECT_FALSE(New);
}

TEST(LockFreeTables, GrowthCueFiresOnceAtHalfLoad) {
  lf::StringTable T(8);
  bool New = false;
  for (uint32_t I = 0; I != 200; ++I) {
    lf::ProbeStats St;
    T.intern("s" + std::to_string(I), St, New);
    EXPECT_EQ(St.WantGrowth, I + 1 == 128) << I;
  }
}

TEST(LockFreeTables, ComponentTableGrowsAloneAndKeepsIds) {
  // One component table passes 1/2 load; only it grows, the ids it
  // issued before growth come back unchanged after it, and the node and
  // root tables keep their capacity.
  constexpr unsigned Slots = 3;
  LockFreeStateInterner In(Slots);
  lf::ProbeStats St;
  std::vector<uint32_t> Scratch;
  const unsigned CompLog2 = In.componentLog2(1);
  const uint32_t N = (1u << CompLog2) / 2 + 10;
  std::vector<uint32_t> Ids(N);
  for (uint32_t I = 0; I != N; ++I) {
    Ids[I] = In.internComponent(1, "c" + std::to_string(I), St);
    if (I % 64 == 0) {
      uint32_t Tuple[Slots] = {In.internComponent(0, "a", St), Ids[I],
                               In.internComponent(2, "b", St)};
      EXPECT_TRUE(In.insertTuple(Tuple, 1, St, Scratch));
    }
  }
  EXPECT_TRUE(St.WantGrowth);
  const unsigned NodeLog2 = In.nodeLog2(), RootLog2 = In.rootLog2();
  const uint64_t States = In.size();
  lf::GrowthPlan Plan;
  In.planGrowth(Plan);
  EXPECT_EQ(Plan.tables(), 1u);
  Plan.work();
  Plan.finish();
  EXPECT_EQ(In.componentLog2(1), grownLog2(CompLog2));
  EXPECT_EQ(In.componentLog2(0), CompLog2);
  EXPECT_EQ(In.componentLog2(2), CompLog2);
  EXPECT_EQ(In.nodeLog2(), NodeLog2);
  EXPECT_EQ(In.rootLog2(), RootLog2);
  for (uint32_t I = 0; I != N; ++I)
    ASSERT_EQ(In.internComponent(1, "c" + std::to_string(I), St), Ids[I])
        << I;
  for (uint32_t I = 0; I < N; I += 64) {
    uint32_t Tuple[Slots] = {In.internComponent(0, "a", St), Ids[I],
                             In.internComponent(2, "b", St)};
    EXPECT_FALSE(In.insertTuple(Tuple, 1, St, Scratch)) << I;
  }
  EXPECT_EQ(In.size(), States);
}

TEST(LockFreeTables, GrowthReinsertSplitAcrossThreads) {
  // The engine's parked workers share one growth plan; concurrent
  // chunk-takers must place every entry exactly once.
  lf::StringTable T(16);
  lf::ProbeStats St;
  bool New = false;
  constexpr uint32_t N = 40000;
  std::vector<uint32_t> Ids(N);
  for (uint32_t I = 0; I != N; ++I)
    Ids[I] = T.intern("k" + std::to_string(I), St, New);
  lf::GrowthPlan Plan;
  Plan.add(T);
  ASSERT_EQ(Plan.tables(), 1u);
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != 4; ++W)
    Threads.emplace_back([&Plan] { Plan.work(); });
  for (std::thread &Th : Threads)
    Th.join();
  Plan.finish();
  EXPECT_EQ(T.log2(), grownLog2(16));
  EXPECT_EQ(T.used(), N);
  for (uint32_t I = 0; I != N; ++I) {
    ASSERT_EQ(T.intern("k" + std::to_string(I), St, New), Ids[I]) << I;
    ASSERT_FALSE(New);
  }
}

//===----------------------------------------------------------------------===//
// Growth: each table grows alone, preserving the stored state set and ids
//===----------------------------------------------------------------------===//

namespace {

/// Grows every table of \p T past 1/2 load, as the engine's pause does.
template <typename T> size_t growAll(T &Tables) {
  lf::GrowthPlan Plan;
  Tables.planGrowth(Plan);
  Plan.work();
  Plan.finish();
  return Plan.tables();
}

} // namespace

TEST(LockFreeVisited, SetMigrationPreservesKeys) {
  LockFreeStateSet Set;
  lf::ProbeStats St;
  const uint32_t N = (1u << Set.log2()) / 2 + 100;
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_TRUE(Set.insert("state-" + std::to_string(I), St));
  EXPECT_TRUE(St.WantGrowth);
  unsigned Log2 = Set.log2();
  EXPECT_EQ(growAll(Set), 1u);
  EXPECT_EQ(Set.log2(), grownLog2(Log2));
  EXPECT_EQ(Set.size(), N);
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_FALSE(Set.insert("state-" + std::to_string(I), St)) << I;
  EXPECT_TRUE(Set.insert("state-new", St));
}

namespace {

/// Interns the 5-slot state of \p Seed (5 slots exercise the odd-width
/// reduction levels 5 -> 3 -> 2); \p Ids receives its component ids.
/// Grows the tables whenever an insert cues it, as the engine does, and
/// counts the tables grown in \p Growths.
bool insertSeed(LockFreeStateInterner &In, uint32_t Seed,
                std::vector<uint32_t> &Ids, size_t &Growths) {
  lf::ProbeStats St;
  std::vector<uint32_t> Scratch;
  Ids.resize(In.numSlots());
  uint64_t RawLen = 0;
  for (unsigned S = 0; S != In.numSlots(); ++S) {
    std::string C = "c" + std::to_string(S) + "-" +
                    std::to_string(Seed % (37 + S * 4000));
    RawLen += C.size();
    Ids[S] = In.internComponent(S, C, St);
  }
  bool New = In.insertTuple(Ids.data(), LockFreeStateSet::entryBytes(RawLen),
                            St, Scratch);
  if (St.WantGrowth)
    Growths += growAll(In);
  return New;
}

} // namespace

TEST(LockFreeVisited, InternerMigrationPreservesStates) {
  // Roots, nodes and the two widest component tables grow, each when
  // it passes 1/2 load, between inserts.
  LockFreeStateInterner In(5);
  const unsigned CompLog2 = In.componentLog2(0);
  const unsigned NodeLog2 = In.nodeLog2(), RootLog2 = In.rootLog2();
  std::vector<uint32_t> Ids;
  size_t Growths = 0;
  constexpr uint32_t N = 40000;
  std::vector<std::vector<uint32_t>> Before(N);
  for (uint32_t I = 0; I != N; ++I) {
    EXPECT_TRUE(insertSeed(In, I, Ids, Growths)) << I;
    Before[I] = Ids;
  }
  EXPECT_EQ(In.size(), N);
  EXPECT_GT(In.rootLog2(), RootLog2);
  EXPECT_GT(In.nodeLog2(), NodeLog2);
  EXPECT_EQ(In.componentLog2(2), CompLog2);
  EXPECT_EQ(In.componentLog2(4), grownLog2(CompLog2));
  EXPECT_GE(Growths, 4u);
  // Every state dedups against the grown tables with the component ids
  // it got before any growth...
  size_t Again = 0;
  for (uint32_t I = 0; I != N; ++I) {
    EXPECT_FALSE(insertSeed(In, I, Ids, Again)) << I;
    EXPECT_EQ(Ids, Before[I]) << I;
  }
  EXPECT_EQ(In.size(), N);
  // ...and fresh states are still accepted as new.
  EXPECT_TRUE(insertSeed(In, N * 1000 + 1, Ids, Again));
}

TEST(LockFreeVisited, GrownInternerSaveRestoreRoundTrips) {
  // A grown interner is saved as (id, entry) lists and restored into a
  // fresh one at its small initial sizes: every table re-sizes to its
  // contents and every id survives.
  LockFreeStateInterner A(5);
  std::vector<uint32_t> Ids;
  size_t Growths = 0;
  constexpr uint32_t N = 20000;
  std::vector<std::vector<uint32_t>> Before(N);
  for (uint32_t I = 0; I != N; ++I) {
    insertSeed(A, I, Ids, Growths);
    Before[I] = Ids;
  }
  ASSERT_GE(Growths, 1u);
  BinWriter W;
  A.save(W);
  LockFreeStateInterner Restored(5);
  BinReader R(W.Buf);
  ASSERT_TRUE(Restored.restore(R));
  EXPECT_EQ(Restored.size(), A.size());
  EXPECT_EQ(Restored.rawBytes(), A.rawBytes());
  EXPECT_EQ(Restored.bytesUsed(), A.bytesUsed());
  for (uint32_t I = 0; I != N; ++I) {
    EXPECT_FALSE(insertSeed(Restored, I, Ids, Growths)) << I;
    EXPECT_EQ(Ids, Before[I]) << I;
  }
  // Restoring over live entries must be rejected.
  BinReader R2(W.Buf);
  EXPECT_FALSE(A.restore(R2));
}

//===----------------------------------------------------------------------===//
// Lock-free vs striped: identical verdicts and counts, 1/4/16 workers
//===----------------------------------------------------------------------===//

namespace {

RockerOptions implOpts(unsigned Threads, VisitedImpl V) {
  RockerOptions O = fullOpts(Threads, true);
  O.Visited = V;
  return O;
}

} // namespace

TEST(LockFreeVisited, CorpusCountsIdenticalToStripedAt4Threads) {
  unsigned Compared = 0;
  for (const auto &[Name, P] : loadCorpusDir()) {
    RockerReport Lf =
        checkRobustness(P, implOpts(4, VisitedImpl::LockFree));
    RockerReport Str =
        checkRobustness(P, implOpts(4, VisitedImpl::Striped));
    if (!Lf.Complete || !Str.Complete)
      continue;
    EXPECT_EQ(Lf.Robust, Str.Robust) << Name;
    EXPECT_EQ(Lf.Stats.NumStates, Str.Stats.NumStates) << Name;
    EXPECT_EQ(Lf.Stats.NumTransitions, Str.Stats.NumTransitions) << Name;
    EXPECT_EQ(Lf.Stats.NumDeadlockStates, Str.Stats.NumDeadlockStates)
        << Name;
    ++Compared;
  }
  EXPECT_GT(Compared, 40u);
}

TEST(LockFreeVisited, VerdictsIdenticalToStripedAt16Workers) {
  // Heavily oversubscribed on small machines — deliberately: more
  // preemption points, same answers required. A named mix of robust and
  // non-robust programs keeps the runtime bounded.
  for (const char *Name :
       {"SB", "MP", "peterson-ra", "dekker-sc", "lamport2-ra"}) {
    const CorpusEntry &E = findCorpusEntry(Name);
    Program P = E.parse();
    RockerReport Lf =
        checkRobustness(P, implOpts(16, VisitedImpl::LockFree));
    RockerReport Str =
        checkRobustness(P, implOpts(16, VisitedImpl::Striped));
    EXPECT_EQ(Lf.Robust, E.ExpectRobust) << Name;
    EXPECT_EQ(Lf.Robust, Str.Robust) << Name;
    EXPECT_EQ(Lf.Stats.NumStates, Str.Stats.NumStates) << Name;
    EXPECT_EQ(Lf.FirstViolationText, Str.FirstViolationText) << Name;
  }
}

TEST(LockFreeVisited, SingleWorkerParallelMatchesSequential) {
  // Both visited impls must reproduce the BFS reference's state count
  // exactly, at one worker and at four.
  for (const char *Name : {"peterson-ra", "SB"}) {
    Program P = findCorpusEntry(Name).parse();
    SCMemory Mem(P);
    ExploreOptions EO;
    EO.RecordParents = false;
    EO.StopOnViolation = false;
    EO.CheckAssertions = false;
    ProductExplorer<SCMemory> Seq(P, Mem, EO);
    uint64_t Expect = Seq.run().Stats.NumStates;
    for (VisitedImpl V : {VisitedImpl::LockFree, VisitedImpl::Striped}) {
      for (unsigned Threads : {1u, 4u}) {
        ParExploreOptions PO;
        PO.Threads = Threads;
        PO.RecordTrace = false;
        PO.StopOnViolation = false;
        PO.CheckAssertions = false;
        PO.Visited = V;
        ParallelExplorer<SCMemory> Ex(P, Mem, PO);
        EXPECT_EQ(Ex.run().Stats.NumStates, Expect)
            << Name << " " << visitedImplName(V) << " x" << Threads;
      }
    }
  }
}

TEST(LockFreeVisited, UncompressedLfSetMatchesStriped) {
  // The raw (no-compression) lock-free path: LockFreeStateSet vs the
  // striped ShardedStateSet.
  for (const char *Name : {"peterson-ra", "dekker-sc"}) {
    Program P = findCorpusEntry(Name).parse();
    RockerOptions Lf = fullOpts(4, false);
    Lf.Visited = VisitedImpl::LockFree;
    RockerOptions Str = fullOpts(4, false);
    Str.Visited = VisitedImpl::Striped;
    RockerReport A = checkRobustness(P, Lf);
    RockerReport B = checkRobustness(P, Str);
    EXPECT_EQ(A.Robust, B.Robust) << Name;
    EXPECT_EQ(A.Stats.NumStates, B.Stats.NumStates) << Name;
  }
}

TEST(LockFreeVisited, TsoOracleIdenticalAcrossImpls) {
  // The TSO baseline's projection sets under the lock-free tier (with
  // the TSOMachine dirty-component hooks feeding the incremental path)
  // must match the striped tier's.
  for (const char *Name : {"SB", "MP", "peterson-ra"}) {
    Program P = findCorpusEntry(Name).parse();
    TSOOptions Lf;
    Lf.Threads = 4;
    Lf.Visited = VisitedImpl::LockFree;
    TSOOptions Str = Lf;
    Str.Visited = VisitedImpl::Striped;
    TSORobustnessResult A = checkTSORobustness(P, Lf);
    TSORobustnessResult B = checkTSORobustness(P, Str);
    EXPECT_EQ(A.Robust, B.Robust) << Name;
    EXPECT_EQ(A.Stats.NumStates, B.Stats.NumStates) << Name;
  }
}

TEST(LockFreeVisited, GrowthFiresAndPreservesCounts) {
  // End-to-end growth: seqlock's 127,116 states pass the initial
  // tables' 1/2-load cues (2^16 roots grow at 2^15 states), the
  // management thread doubles each table under a pause — ids stay, so
  // workers keep their parent caches and frontier stamps — and the
  // verdict and counts still match a striped run exactly.
  Program P = findCorpusEntry("seqlock").parse();
  RockerOptions Lf = implOpts(2, VisitedImpl::LockFree);
  Lf.MaxStates = 1'000'000;
  obs::Snapshot Before = obs::snapshot();
  RockerReport A = checkRobustness(P, Lf);
  uint64_t Growths = obs::snapshot().counter(obs::Ctr::VisitedGrowths) -
                     Before.counter(obs::Ctr::VisitedGrowths);
  RockerOptions Str = implOpts(2, VisitedImpl::Striped);
  Str.MaxStates = 1'000'000;
  RockerReport B = checkRobustness(P, Str);
  EXPECT_EQ(A.Robust, B.Robust);
  EXPECT_EQ(A.Stats.NumStates, B.Stats.NumStates);
  EXPECT_TRUE(A.Complete);
  if (obs::telemetryEnabled()) {
    EXPECT_GE(Growths, 2u); // Roots and nodes grow.
  }
}
