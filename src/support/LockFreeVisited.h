//===- support/LockFreeVisited.h - Lock-free visited tier ------*- C++ -*-===//
///
/// \file
/// The lock-free visited-set tier for the work-stealing engine — the
/// LTSmin multi-core storage design (treedbs-ll.c / dbs-ll.c) adapted to
/// the collapse-compressed component format of support/StateInterner.h:
///
///  * lf::PairTable — an open-address table of packed (left, right)
///    32-bit id pairs. A slot is one 64-bit word: 0 = empty, payload + 1
///    otherwise; the id of a pair is its slot index. An empty slot is
///    claimed with a single compare_exchange_strong and there are no
///    locks anywhere on the probe path.
///  * lf::StringTable — an open-address table of interned byte strings
///    (the per-slot component tables and the raw full-key set). A slot
///    holds a pointer to an immutable record (hash memoized for cheap
///    compares, dbs-ll style) allocated from a lock-free bump arena; the
///    record is fully written before its pointer is CAS-published.
///  * LockFreeStateInterner — per-slot StringTables feeding one shared
///    node PairTable (LTSmin tree compression: adjacent ids are interned
///    pairwise, level by level) and a root PairTable probed by the
///    incremental Zobrist hash of the component tuple
///    (support/Zobrist.h).
///  * LockFreeStateSet — a StringTable over full serialized state keys,
///    replacing ShardedStateSet on the uncompressed path.
///
/// Memory-order argument (see also ALGORITHM.md §17). Every slot word is
/// written exactly once, by the winner of one CAS, and never changes
/// afterwards:
///
///  * PairTable: the payload *is* the slot word, so a reader that
///    observes a non-zero word already has the whole record; acquire on
///    the read and release on the claiming CAS order nothing beyond the
///    word itself but keep the protocol uniform with StringTable (and
///    make the sticky Used/Full bookkeeping race-free under TSan).
///  * StringTable: the record bytes are plain stores by the claiming
///    thread into an arena range it owns exclusively (ownership is
///    established by an atomic fetch_add on the arena cursor). The
///    claiming CAS releases the pointer; every reader loads it with
///    acquire, so the record contents happen-before any dereference.
///    A thread that loses the claiming CAS re-reads the winner's pointer
///    from the CAS's failure load (also acquire) and falls through to
///    the normal compare — its own prepared record is abandoned in the
///    arena (LTSmin does the same; the waste is one record per lost
///    race, freed with the arena).
///
/// Tables are fixed-capacity: lock-free *in-place* growth is
/// deliberately out of scope. Instead the tables start small (2^18
/// roots by default — right-sizing matters: an oversized sparse table
/// turns every probe into a TLB/page miss) and the engine's management
/// thread rebuilds them 4x larger under its pause-the-world barrier
/// when any table passes 1/2 load (migrateTo; amortized O(states)
/// total), woken by the first worker that sees the load. When a table nevertheless fills up (load factor 7/8 — e.g.
/// the 2^30 growth ceiling, or a fill rate that outruns the governor's
/// poll) a sticky full() flag latches and inserts fail; the engine then
/// marks the run Bounded exactly like a MaxStates cut, so a full table
/// can demote a verdict to BoundedRobust but can never mis-deduplicate.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_LOCKFREEVISITED_H
#define ROCKER_SUPPORT_LOCKFREEVISITED_H

#include "support/BinCodec.h"
#include "support/Hashing.h"
#include "support/StateInterner.h"
#include "support/Zobrist.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rocker {

/// Which visited-set implementation the exploration engine uses.
enum class VisitedImpl : uint8_t {
  LockFree, ///< This file: CAS-claimed open-address tables.
  Striped,  ///< support/ShardedSet.h + ShardedStateInterner (mutex stripes).
};

inline const char *visitedImplName(VisitedImpl V) {
  return V == VisitedImpl::Striped ? "striped" : "lockfree";
}

inline std::optional<VisitedImpl> parseVisitedImpl(const char *S) {
  if (!S)
    return std::nullopt;
  std::string_view V(S);
  if (V == "lockfree" || V == "lock-free")
    return VisitedImpl::LockFree;
  if (V == "striped")
    return VisitedImpl::Striped;
  return std::nullopt;
}

/// Process-wide default for ParExploreOptions::Visited: lock-free, unless
/// the ROCKER_VISITED environment variable selects otherwise (used by CI
/// to run the whole suite against the striped tier, like
/// ROCKER_NO_COMPRESS does for the raw visited set).
inline VisitedImpl defaultVisitedImpl() {
  static const VisitedImpl V = [] {
    if (auto P = parseVisitedImpl(std::getenv("ROCKER_VISITED")))
      return *P;
    return VisitedImpl::LockFree;
  }();
  return V;
}

/// Hard ceiling for root-table growth: 2^30 slots (8 GiB of slot words;
/// the engine truncates to Bounded beyond it instead of OOMing).
inline constexpr unsigned MaxLockFreeRootLog2 = 30;

/// Initial root-table size policy: 2^k slots. An explicit CLI/API
/// request wins (clamped to a sane range); otherwise start small — the
/// management thread grows the tables as they fill, and an oversized
/// sparse table costs real time (every probe of a mostly-empty
/// multi-GiB array is a TLB/page miss), not just address space.
inline unsigned lockFreeRootLog2(unsigned Requested, uint64_t MaxStates) {
  if (Requested)
    return std::clamp(Requested, 16u, MaxLockFreeRootLog2);
  // A tight state budget can never need more than ~2x its states.
  if (MaxStates && MaxStates < (uint64_t{1} << 17))
    return 17;
  return 18;
}

namespace lf {

/// Per-call probe telemetry, accumulated by the caller (a worker) and
/// flushed to the visited.cas_retries / visited.probe_steps counters.
struct ProbeStats {
  uint64_t CasRetries = 0;
  uint64_t ProbeSteps = 0;
};

/// Process-wide cache of all-zero word arrays, by size class, for reuse
/// by the next table of the same size (see WordArray). Bounded to
/// MaxBytes; guarded by M.
struct WordPool {
  static constexpr size_t MaxBytes = size_t{64} << 20;
  std::mutex M;
  std::vector<uint64_t *> Free[64];
  size_t Bytes = 0;
  ~WordPool() {
    for (std::vector<uint64_t *> &F : Free)
      for (uint64_t *W : F)
        std::free(W);
  }
};

inline WordPool &wordPool() {
  static WordPool P;
  return P;
}

/// Fixed array of 2^Log2 atomically-accessed 64-bit words. calloc'd so
/// the zeroed capacity is lazily mapped: untouched pages stay on the
/// kernel zero page and RSS grows only with the slots actually written
/// (a value-initializing new[]/vector would memset — and fault — the
/// whole array up front).
///
/// Slots go from zero to non-zero only through claim() (or restore()),
/// and claim() logs the first ClaimLogCap slot indices. An array whose
/// claims were all logged is re-zeroed slot by slot on destruction and
/// parked in wordPool() for the next array of its size. Many small
/// checks in one process then skip calloc's memset — which glibc does as
/// soon as a freed table has raised its mmap threshold, and which cost
/// every small check about a millisecond — and the page faults of fresh
/// memory.
class WordArray {
public:
  explicit WordArray(unsigned Log2)
      : Log2(Log2), ClaimLog(new uint32_t[ClaimLogCap]) {
    static_assert(std::atomic_ref<uint64_t>::is_always_lock_free);
    WordPool &Pool = wordPool();
    {
      std::lock_guard<std::mutex> L(Pool.M);
      std::vector<uint64_t *> &F = Pool.Free[Log2];
      if (!F.empty()) {
        Words = F.back();
        F.pop_back();
        Pool.Bytes -= bytes();
      }
    }
    if (!Words)
      Words = static_cast<uint64_t *>(
          std::calloc(capacity(), sizeof(uint64_t)));
    if (!Words)
      throw std::bad_alloc();
  }
  ~WordArray() {
    uint64_t N = Claims.load(std::memory_order_relaxed);
    if (Logged && N <= ClaimLogCap) {
      for (uint64_t I = 0; I != N; ++I)
        Words[ClaimLog[I]] = 0;
      WordPool &Pool = wordPool();
      std::lock_guard<std::mutex> L(Pool.M);
      if (Pool.Bytes + bytes() <= WordPool::MaxBytes) {
        Pool.Free[Log2].push_back(Words);
        Pool.Bytes += bytes();
        return;
      }
    }
    std::free(Words);
  }
  WordArray(const WordArray &) = delete;
  WordArray &operator=(const WordArray &) = delete;

  size_t capacity() const { return size_t{1} << Log2; }
  unsigned log2() const { return Log2; }
  std::atomic_ref<uint64_t> at(size_t I) const {
    return std::atomic_ref<uint64_t>(Words[I]);
  }

  /// CASes empty slot \p I to \p Desired; on failure \p Expected holds
  /// the winner's word (acquire), as compare_exchange_strong.
  bool claim(size_t I, uint64_t &Expected, uint64_t Desired) {
    if (!at(I).compare_exchange_strong(Expected, Desired,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
      return false;
    uint64_t N = Claims.fetch_add(1, std::memory_order_relaxed);
    if (N < ClaimLogCap)
      ClaimLog[N] = static_cast<uint32_t>(I);
    return true;
  }

  /// Occupied slots.
  uint64_t claims() const { return Claims.load(std::memory_order_relaxed); }

  /// Fills empty slot \p I outside claim() (checkpoint restore; requires
  /// quiesced writers). The array is then never pooled.
  void restore(size_t I, uint64_t W) {
    at(I).store(W, std::memory_order_relaxed);
    Claims.fetch_add(1, std::memory_order_relaxed);
    Logged = false;
  }

private:
  static constexpr uint64_t ClaimLogCap = 4096;

  size_t bytes() const { return capacity() * sizeof(uint64_t); }

  uint64_t *Words = nullptr;
  unsigned Log2;
  std::atomic<uint64_t> Claims{0};
  std::unique_ptr<uint32_t[]> ClaimLog;
  bool Logged = true;
};

/// Lock-free bump allocator for StringTable records. Blocks are chained
/// so destruction frees the arena without scanning the (large, sparse)
/// slot array; records themselves are never freed individually.
class RecordArena {
public:
  RecordArena() = default;
  ~RecordArena() {
    Block *B = Head.load(std::memory_order_acquire);
    while (B) {
      Block *Next = B->Next;
      ::operator delete(B);
      B = Next;
    }
  }
  RecordArena(const RecordArena &) = delete;
  RecordArena &operator=(const RecordArena &) = delete;

  /// 8-byte-aligned, exclusively-owned range of \p N bytes. Exclusivity
  /// comes from the fetch_add on the block cursor; publication ordering
  /// is the caller's CAS (see file comment).
  void *alloc(size_t N) {
    N = (N + 7) & ~size_t{7};
    for (;;) {
      Block *B = Head.load(std::memory_order_acquire);
      if (B) {
        size_t Off = B->Used.fetch_add(N, std::memory_order_relaxed);
        if (Off + N <= B->Cap)
          return B->data() + Off;
        // Block exhausted (the overshoot above leaves a dead hole, which
        // is fine — Used is never read back for accounting).
      }
      size_t Cap = std::max(N, size_t{BlockBytes});
      auto *NB = static_cast<Block *>(::operator new(sizeof(Block) + Cap));
      NB->Next = B;
      new (&NB->Used) std::atomic<size_t>(N);
      NB->Cap = Cap;
      if (Head.compare_exchange_strong(B, NB, std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        return NB->data();
      ::operator delete(NB); // Lost the install race; retry.
    }
  }

private:
  static constexpr size_t BlockBytes = 1 << 18;
  struct Block {
    Block *Next;
    std::atomic<size_t> Used;
    size_t Cap;
    char *data() { return reinterpret_cast<char *>(this + 1); }
  };
  std::atomic<Block *> Head{nullptr};
};

/// Open-address lock-free table of packed 64-bit pair payloads (LTSmin
/// treedbs-ll). Slot word: 0 = empty, payload + 1 otherwise; the pair's
/// id is its slot index, so id -> payload is a single array read.
class PairTable {
public:
  static constexpr uint32_t InvalidId = 0xffffffffu;

  explicit PairTable(unsigned Log2) : Slots(Log2) {}

  /// Interns \p Payload, probing linearly from \p Hash. Returns the slot
  /// id (setting \p WasNew iff this call claimed it) or InvalidId when
  /// the table is full — full() then latches sticky.
  uint32_t intern(uint64_t Payload, uint64_t Hash, ProbeStats &St,
                  bool &WasNew) {
    WasNew = false;
    uint64_t Stored = Payload + 1;
    size_t Mask = Slots.capacity() - 1;
    size_t Slot = Hash & Mask;
    for (size_t I = 0; I != Slots.capacity();
         ++I, Slot = (Slot + 1) & Mask) {
      ++St.ProbeSteps;
      uint64_t Cur = Slots.at(Slot).load(std::memory_order_acquire);
      if (Cur == 0) {
        if (overFull())
          break;
        uint64_t Expected = 0;
        if (Slots.claim(Slot, Expected, Stored)) {
          WasNew = true;
          return static_cast<uint32_t>(Slot);
        }
        ++St.CasRetries;
        Cur = Expected; // The winner's word, from the failure load.
      }
      if (Cur == Stored)
        return static_cast<uint32_t>(Slot);
    }
    Full.store(true, std::memory_order_relaxed);
    return InvalidId;
  }

  /// Payload at \p Id; the slot must be occupied.
  uint64_t get(uint32_t Id) const {
    return Slots.at(Id).load(std::memory_order_acquire) - 1;
  }

  uint64_t used() const { return Slots.claims(); }
  bool full() const { return Full.load(std::memory_order_relaxed); }
  unsigned log2() const { return Slots.log2(); }

  /// True past 1/2 load — the engine's growth trigger, comfortably ahead
  /// of the 7/8 cap where full() would latch.
  bool wantsGrowth() const { return used() * 2 >= Slots.capacity(); }

  /// Calls \p F(slot id, payload) for every occupied slot. Requires
  /// quiesced writers (workers parked or joined).
  template <typename Fn> void forEach(Fn F) const {
    for (size_t I = 0; I != Slots.capacity(); ++I) {
      uint64_t W = Slots.at(I).load(std::memory_order_acquire);
      if (W)
        F(static_cast<uint32_t>(I), W - 1);
    }
  }

  /// Checkpoint dump/restore by exact slot placement, so ids stored in
  /// other tables' payloads stay valid. Requires quiesced writers.
  void save(BinWriter &W) const {
    W.u32(Slots.log2());
    W.u64(used());
    forEach([&](uint32_t Id, uint64_t Payload) {
      W.u64(Id);
      W.u64(Payload);
    });
  }

  bool restore(BinReader &R) {
    if (R.u32() != Slots.log2())
      return false; // Capacity mismatch: slot indices would not round-trip.
    uint64_t N = R.u64();
    for (uint64_t I = 0; I != N; ++I) {
      uint64_t Id = R.u64();
      uint64_t Payload = R.u64();
      if (R.fail() || Id >= Slots.capacity())
        return false;
      Slots.restore(Id, Payload + 1);
    }
    return !R.fail();
  }

private:
  bool overFull() const {
    size_t Cap = Slots.capacity();
    return Slots.claims() >= Cap - Cap / 8;
  }

  WordArray Slots;
  std::atomic<bool> Full{false};
};

/// Open-address lock-free byte-string interner (LTSmin dbs-ll). A slot
/// word holds the pointer to an immutable arena record whose memoized
/// hash makes the common compare one 64-bit check.
class StringTable {
public:
  static constexpr uint32_t InvalidId = 0xffffffffu;

  explicit StringTable(unsigned Log2) : Slots(Log2) {}

  uint32_t intern(std::string_view Bytes, ProbeStats &St, bool &WasNew) {
    WasNew = false;
    uint64_t H = hashBytes(reinterpret_cast<const uint8_t *>(Bytes.data()),
                           Bytes.size());
    size_t Mask = Slots.capacity() - 1;
    const Record *Fresh = nullptr;
    size_t Slot = H & Mask;
    for (size_t I = 0; I != Slots.capacity();
         ++I, Slot = (Slot + 1) & Mask) {
      ++St.ProbeSteps;
      uint64_t Word = Slots.at(Slot).load(std::memory_order_acquire);
      if (Word == 0) {
        if (overFull())
          break;
        if (!Fresh)
          Fresh = makeRecord(H, Bytes);
        uint64_t Expected = 0;
        if (Slots.claim(Slot, Expected, reinterpret_cast<uintptr_t>(Fresh))) {
          RecordBytes.fetch_add(sizeof(Record) + Fresh->Len,
                                std::memory_order_relaxed);
          WasNew = true;
          return static_cast<uint32_t>(Slot);
        }
        ++St.CasRetries;
        Word = Expected; // Winner's pointer (failure load is acquire).
      }
      const auto *R = reinterpret_cast<const Record *>(
          static_cast<uintptr_t>(Word));
      if (R->Hash == H && R->Len == Bytes.size() &&
          std::memcmp(R->data(), Bytes.data(), Bytes.size()) == 0)
        return static_cast<uint32_t>(Slot); // Fresh, if made, stays as
                                            // arena garbage.
    }
    Full.store(true, std::memory_order_relaxed);
    return InvalidId;
  }

  /// Bytes at \p Id; the slot must be occupied. The view stays valid for
  /// the table's lifetime (records are immutable and arena-owned).
  std::string_view get(uint32_t Id) const {
    const auto *R = reinterpret_cast<const Record *>(static_cast<uintptr_t>(
        Slots.at(Id).load(std::memory_order_acquire)));
    return {R->data(), R->Len};
  }

  uint64_t used() const { return Slots.claims(); }
  bool full() const { return Full.load(std::memory_order_relaxed); }
  unsigned log2() const { return Slots.log2(); }

  /// True past 1/2 load — the engine's growth trigger, comfortably ahead
  /// of the 7/8 cap where full() would latch.
  bool wantsGrowth() const { return used() * 2 >= Slots.capacity(); }

  /// Bytes one stored string of \p Len bytes adds to bytesUsed(): its
  /// slot word plus its record.
  static uint64_t entryBytes(size_t Len) {
    return sizeof(uint64_t) + sizeof(Record) + Len;
  }

  /// Slot-word bytes of occupied slots plus record bytes — occupancy, not
  /// capacity, so the memory governor sees what is actually resident.
  uint64_t bytesUsed() const {
    return used() * sizeof(uint64_t) +
           RecordBytes.load(std::memory_order_relaxed);
  }

  /// Calls \p F(slot id, bytes) for every occupied slot. Requires
  /// quiesced writers.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t I = 0; I != Slots.capacity(); ++I) {
      uint64_t W = Slots.at(I).load(std::memory_order_acquire);
      if (W) {
        const auto *R =
            reinterpret_cast<const Record *>(static_cast<uintptr_t>(W));
        F(static_cast<uint32_t>(I), std::string_view(R->data(), R->Len));
      }
    }
  }

  void save(BinWriter &W) const {
    W.u32(Slots.log2());
    W.u64(used());
    forEach([&](uint32_t Id, std::string_view Bytes) {
      W.u64(Id);
      W.varu64(Bytes.size());
      W.bytes(Bytes.data(), Bytes.size());
    });
  }

  bool restore(BinReader &R) {
    if (R.u32() != Slots.log2())
      return false;
    uint64_t N = R.u64();
    std::string Bytes;
    for (uint64_t I = 0; I != N; ++I) {
      uint64_t Id = R.u64();
      uint64_t Len = R.varu64();
      if (R.fail() || Id >= Slots.capacity())
        return false;
      Bytes.resize(Len);
      R.bytes(Bytes.data(), Len);
      if (R.fail())
        return false;
      uint64_t H = hashBytes(reinterpret_cast<const uint8_t *>(Bytes.data()),
                             Bytes.size());
      const Record *Rec = makeRecord(H, Bytes);
      Slots.restore(Id, reinterpret_cast<uintptr_t>(Rec));
      RecordBytes.fetch_add(sizeof(Record) + Rec->Len,
                            std::memory_order_relaxed);
    }
    return !R.fail();
  }

private:
  struct Record {
    uint64_t Hash;
    uint32_t Len;
    const char *data() const {
      return reinterpret_cast<const char *>(this) + sizeof(Record);
    }
  };

  const Record *makeRecord(uint64_t H, std::string_view Bytes) {
    auto *R = static_cast<Record *>(Arena.alloc(sizeof(Record) + Bytes.size()));
    R->Hash = H;
    R->Len = static_cast<uint32_t>(Bytes.size());
    std::memcpy(reinterpret_cast<char *>(R) + sizeof(Record), Bytes.data(),
                Bytes.size());
    return R;
  }

  bool overFull() const {
    size_t Cap = Slots.capacity();
    return Slots.claims() >= Cap - Cap / 8;
  }

  WordArray Slots;
  RecordArena Arena;
  std::atomic<uint64_t> RecordBytes{0};
  std::atomic<bool> Full{false};
};

inline uint64_t packPair(uint32_t L, uint32_t R) {
  return (uint64_t{L} << 32) | R;
}

} // namespace lf

/// Lock-free replacement for ShardedStateSet on the uncompressed path:
/// full serialized state keys in one dbs-ll StringTable.
class LockFreeStateSet {
public:
  explicit LockFreeStateSet(unsigned Log2) : Table(Log2) {}

  /// True iff \p Key was new. A false return with full() latched means
  /// the key could not be stored — the caller must treat the run as
  /// bounded, not the state as a duplicate.
  bool insert(std::string_view Key, lf::ProbeStats &St) {
    bool WasNew = false;
    Table.intern(Key, St, WasNew);
    return WasNew;
  }

  bool full() const { return Table.full(); }
  uint64_t size() const { return Table.used(); }
  uint64_t bytesUsed() const { return Table.bytesUsed(); }
  /// Bytes a key of \p Len bytes adds to bytesUsed(); the compressed
  /// tier's raw-key estimate uses the same cost model.
  static uint64_t entryBytes(size_t Len) {
    return lf::StringTable::entryBytes(Len);
  }
  unsigned log2() const { return Table.log2(); }
  bool wantsGrowth() const { return Table.wantsGrowth(); }

  /// Re-inserts every stored key into \p New (a larger, empty set).
  /// Requires quiesced writers on both sides.
  void migrateTo(LockFreeStateSet &New) const {
    lf::ProbeStats St;
    Table.forEach([&](uint32_t, std::string_view Bytes) {
      bool WasNew = false;
      New.Table.intern(Bytes, St, WasNew);
    });
  }

  /// Calls \p F(const std::string &Key) per stored key (bitstate
  /// downgrade seeding). Requires quiesced writers.
  template <typename Fn> void forEach(Fn F) const {
    std::string Key;
    Table.forEach([&](uint32_t, std::string_view Bytes) {
      Key.assign(Bytes.data(), Bytes.size());
      F(Key);
    });
  }

  void save(BinWriter &W) const { Table.save(W); }
  bool restore(BinReader &R) { return Table.restore(R); }

private:
  lf::StringTable Table;
};

/// Lock-free collapse-compressed visited set: the lock-free sibling of
/// ShardedStateInterner, same component format (so striped and lock-free
/// runs induce the same state equality), different storage. Components
/// are interned per slot in StringTables; the id tuple is then collapsed
/// by tree compression — adjacent ids interned pairwise in one shared
/// node PairTable, level by level, until at most two ids remain — and
/// the final root pair is interned in the root PairTable, probed by the
/// tuple's Zobrist hash (support/Zobrist.h), which the engine maintains
/// incrementally.
///
/// Injectivity: a node id determines its (left, right) payload (one
/// array read), the reduction shape is a pure function of numSlots(),
/// and component ids determine their bytes — so unwinding the root pair
/// deterministically yields the component tuple, and root-pair equality
/// is exactly tuple equality, i.e. state equality. A Zobrist collision
/// costs an extra probe step, never a mis-deduplication.
class LockFreeStateInterner {
public:
  static constexpr uint32_t InvalidId = lf::StringTable::InvalidId;
  /// Right id of the root pair when only one id survives reduction
  /// (single-slot tuples). Distinguishable from real ids: table
  /// capacities stay far below 2^32 - 1.
  static constexpr uint32_t OddSentinel = 0xffffffffu;

  /// \p RootLog2 sizes the root table (see lockFreeRootLog2); the node
  /// and component tables are derived from it.
  LockFreeStateInterner(unsigned NumSlots, unsigned RootLog2)
      : Roots(std::clamp(RootLog2, 16u, MaxLockFreeRootLog2)),
        Nodes(std::clamp(RootLog2, 16u, 27u) + 1),
        RootLog2(std::clamp(RootLog2, 16u, MaxLockFreeRootLog2)) {
    unsigned CompLog2 = std::clamp(RootLog2, 16u, 28u) - 2;
    Comps.reserve(NumSlots);
    for (unsigned I = 0; I != NumSlots; ++I) // Tables hold atomics and are
      Comps.push_back(std::make_unique<lf::StringTable>(CompLog2)); // immovable.
  }

  unsigned numSlots() const { return static_cast<unsigned>(Comps.size()); }
  unsigned rootLog2() const { return RootLog2; }

  /// True when any table passed 1/2 load: time for the engine to rebuild
  /// into a larger instance (migrateTo) before full() can latch.
  bool wantsGrowth() const {
    if (Roots.wantsGrowth() || Nodes.wantsGrowth())
      return true;
    for (const auto &T : Comps)
      if (T->wantsGrowth())
        return true;
    return false;
  }

  /// Re-interns every stored state into \p New (same numSlots, larger
  /// tables). Component and node ids are NOT preserved — callers must
  /// drop any cached ids (the engine invalidates its per-worker parent
  /// caches under the same pause). Requires quiesced writers.
  void migrateTo(LockFreeStateInterner &New) const {
    unsigned N = numSlots();
    std::vector<unsigned> Levels;
    for (unsigned L = N; L > 2; L = L / 2 + (L & 1))
      Levels.push_back(L);
    std::vector<uint32_t> Cur, Prev, NewIds(N), Scratch;
    lf::ProbeStats St;
    Roots.forEach([&](uint32_t, uint64_t RootP) {
      auto Hi = static_cast<uint32_t>(RootP >> 32);
      auto Lo = static_cast<uint32_t>(RootP);
      Cur.clear();
      Cur.push_back(Hi);
      if (Lo != OddSentinel)
        Cur.push_back(Lo);
      for (size_t J = Levels.size(); J-- > 0;) {
        unsigned L = Levels[J];
        Prev.resize(L);
        for (unsigned I = 0; I != L / 2; ++I) {
          uint64_t Pr = Nodes.get(Cur[I]);
          Prev[2 * I] = static_cast<uint32_t>(Pr >> 32);
          Prev[2 * I + 1] = static_cast<uint32_t>(Pr);
        }
        if (L & 1)
          Prev[L - 1] = Cur[L / 2];
        std::swap(Cur, Prev);
      }
      uint64_t RawLen = 0;
      for (unsigned Slot = 0; Slot != N; ++Slot) {
        std::string_view B = Comps[Slot]->get(Cur[Slot]);
        RawLen += B.size();
        NewIds[Slot] = New.internComponent(Slot, B, St);
      }
      New.insertTuple(NewIds.data(), zobristTuple(NewIds.data(), N),
                      lf::StringTable::entryBytes(RawLen), St, Scratch);
    });
  }

  /// Interns one component's bytes into its slot table; InvalidId on a
  /// full table (full() latches).
  uint32_t internComponent(unsigned Slot, std::string_view Bytes,
                           lf::ProbeStats &St) {
    bool WasNew = false;
    return Comps[Slot]->intern(Bytes, St, WasNew);
  }

  /// Collapses the id tuple and interns the root pair under \p RootHash
  /// (the tuple's Zobrist hash), charging \p RawKeyEstimate (the
  /// raw key's lf::StringTable::entryBytes) to rawBytes() when new.
  /// Returns true iff the state was new; on
  /// a full node/root table returns false with full() latched. \p
  /// Scratch is caller-provided working space (no allocation on the hot
  /// path; the engine passes a per-worker buffer).
  bool insertTuple(const uint32_t *Ids, uint64_t RootHash,
                   uint64_t RawKeyEstimate, lf::ProbeStats &St,
                   std::vector<uint32_t> &Scratch) {
    unsigned Len = numSlots();
    Scratch.assign(Ids, Ids + Len);
    while (Len > 2) {
      unsigned Out = 0;
      for (unsigned I = 0; I + 1 < Len; I += 2) {
        uint64_t P = lf::packPair(Scratch[I], Scratch[I + 1]);
        bool WasNew = false;
        uint32_t Id = Nodes.intern(P, hashMix64(P), St, WasNew);
        if (Id == lf::PairTable::InvalidId)
          return false;
        Scratch[Out++] = Id;
      }
      if (Len & 1)
        Scratch[Out++] = Scratch[Len - 1];
      Len = Out;
    }
    uint64_t RootP = Len == 2 ? lf::packPair(Scratch[0], Scratch[1])
                              : lf::packPair(Scratch[0], OddSentinel);
    bool WasNew = false;
    if (Roots.intern(RootP, RootHash, St, WasNew) == lf::PairTable::InvalidId)
      return false;
    if (WasNew)
      RawBytes.fetch_add(RawKeyEstimate, std::memory_order_relaxed);
    return WasNew;
  }

  /// Sticky: some table hit its load-factor cap and an insert failed.
  bool full() const {
    if (Roots.full() || Nodes.full())
      return true;
    for (const auto &T : Comps)
      if (T->full())
        return true;
    return false;
  }

  uint64_t size() const { return Roots.used(); }

  /// Occupied-slot + record bytes (not capacity — capacity is virtual).
  uint64_t bytesUsed() const {
    uint64_t B = (Roots.used() + Nodes.used()) * sizeof(uint64_t);
    for (const auto &T : Comps)
      B += T->bytesUsed();
    return B;
  }

  uint64_t rawBytes() const {
    return RawBytes.load(std::memory_order_relaxed);
  }

  /// Checkpoint dump/restore by exact slot placement (ids are slot
  /// indices, so placement is identity-preserving). Requires quiesced
  /// writers; restore requires an interner constructed with the same
  /// slot count and RootLog2.
  void save(BinWriter &W) const {
    W.u32(numSlots());
    W.u64(RawBytes.load(std::memory_order_relaxed));
    for (const auto &T : Comps)
      T->save(W);
    Nodes.save(W);
    Roots.save(W);
  }

  bool restore(BinReader &R) {
    if (R.u32() != numSlots())
      return false;
    RawBytes.store(R.u64(), std::memory_order_relaxed);
    for (auto &T : Comps)
      if (!T->restore(R))
        return false;
    return Nodes.restore(R) && Roots.restore(R);
  }

  /// As ShardedStateInterner::forEachRawKey: unwinds every stored root
  /// pair back to its component tuple (the reduction shape is replayed
  /// in reverse) and reassembles the raw serialized key in emission
  /// order. Used to seed the bitstate array on governor downgrade.
  /// Requires quiesced writers.
  template <typename Fn>
  void forEachRawKey(const std::vector<uint32_t> &EmissionToSlot,
                     Fn F) const {
    // Lengths of the levels that were reduced (inputs to node interning).
    std::vector<unsigned> Levels;
    for (unsigned L = numSlots(); L > 2; L = L / 2 + (L & 1))
      Levels.push_back(L);
    std::vector<uint32_t> Cur, Prev;
    std::string Key;
    Roots.forEach([&](uint32_t, uint64_t RootP) {
      auto Hi = static_cast<uint32_t>(RootP >> 32);
      auto Lo = static_cast<uint32_t>(RootP);
      Cur.clear();
      Cur.push_back(Hi);
      if (Lo != OddSentinel)
        Cur.push_back(Lo);
      for (size_t J = Levels.size(); J-- > 0;) {
        unsigned L = Levels[J];
        Prev.resize(L);
        for (unsigned I = 0; I != L / 2; ++I) {
          uint64_t P = Nodes.get(Cur[I]);
          Prev[2 * I] = static_cast<uint32_t>(P >> 32);
          Prev[2 * I + 1] = static_cast<uint32_t>(P);
        }
        if (L & 1)
          Prev[L - 1] = Cur[L / 2];
        std::swap(Cur, Prev);
      }
      Key.clear();
      for (uint32_t Slot : EmissionToSlot) {
        std::string_view B = Comps[Slot]->get(Cur[Slot]);
        Key.append(B.data(), B.size());
      }
      F(Key);
    });
  }

private:
  std::vector<std::unique_ptr<lf::StringTable>> Comps;
  lf::PairTable Roots;
  lf::PairTable Nodes;
  unsigned RootLog2;
  std::atomic<uint64_t> RawBytes{0};
};

} // namespace rocker

#endif // ROCKER_SUPPORT_LOCKFREEVISITED_H
