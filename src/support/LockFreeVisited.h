//===- support/LockFreeVisited.h - Lock-free visited tier ------*- C++ -*-===//
///
/// \file
/// The lock-free visited-set tier for the work-stealing engine — the
/// LTSmin multi-core storage design (treedbs-ll.c / dbs-ll.c) adapted to
/// the collapse-compressed component format of support/StateInterner.h:
///
///  * lf::PairTable — an open-address table of packed (left, right)
///    32-bit id pairs. Slot word 0 holds payload + 1 (0 = empty); an
///    empty slot is claimed with a single compare_exchange_strong and
///    there are no locks anywhere on the probe path. The node table
///    (lf::NodeTable) numbers its pairs in claim order (the table's
///    claim counter, which growth carries over) and keeps the id in word
///    1 of a 16-byte slot, next to the payload it is read with; the root
///    table (lf::RootTable) stores bare payloads.
///  * lf::StringTable — an open-address table of interned byte strings
///    (the per-slot component tables and the raw full-key set). A slot
///    holds a pointer to a record (hash memoized, dbs-ll style; id in
///    claim order, as for nodes) allocated from a lock-free bump arena;
///    the record is written before its pointer is CAS-published.
///  * LockFreeStateInterner — per-slot StringTables feeding one shared
///    node table (LTSmin tree compression: adjacent ids are interned
///    pairwise, level by level) and a root table.
///  * LockFreeStateSet — a StringTable over full serialized state keys,
///    replacing ShardedStateSet on the uncompressed path.
///
/// Memory-order argument (see also ALGORITHM.md §17). Slot word 0 is
/// written exactly once, by the winner of one CAS, and never changes
/// afterwards:
///
///  * Root table: the payload *is* the slot word, so a reader that
///    observes a non-zero word already has the whole record.
///  * Ids: the CAS winner then counts its claim (one fetch_add, which
///    every table does anyway) and stores the ordinal, id + 1, into the
///    id word — word 1 of a node slot, the record's IdWord — with
///    release. A reader that matches the entry loads the id word with
///    acquire and, while it still reads 0 (claimed, not yet numbered:
///    dbs-ll's WRITE_BUSY), waits. The winner stores the id without
///    waiting on anything, so the wait always ends.
///  * StringTable: the record's hash, length and bytes are plain stores
///    by the claiming thread into an arena range it owns exclusively
///    (ownership is established by an atomic fetch_add on the arena
///    cursor). The claiming CAS releases the pointer; every reader loads
///    it with acquire, so the record contents happen-before any
///    dereference. A thread that loses the claiming CAS re-reads the
///    winner's pointer from the CAS's failure load (also acquire) and
///    falls through to the normal compare — its own prepared record is
///    abandoned (LTSmin does the same; the waste is one record per lost
///    race, freed with the arena).
///
/// Ids never depend on slot positions, so each table grows on its own:
/// it starts small and, past 1/2 load, the engine's management thread
/// doubles it under its pause-the-world barrier by re-inserting only its
/// own slots into a fresh array (GrowthPlan; no record is copied, no
/// string re-hashed, no other table touched), the re-insert split over
/// the parked workers. When a table nevertheless fills up (load factor
/// 7/8 — e.g. the 2^30 growth ceiling, or a fill rate that outruns the
/// pause) a sticky full() flag latches and inserts fail; the engine then
/// marks the run Bounded exactly like a MaxStates cut, so a full table
/// can demote a verdict to BoundedRobust but can never mis-deduplicate.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_LOCKFREEVISITED_H
#define ROCKER_SUPPORT_LOCKFREEVISITED_H

#include "support/BinCodec.h"
#include "support/Hashing.h"
#include "support/StateInterner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <sys/mman.h>
#include <thread>
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

/// Hard ceiling for the growth of any one table: 2^30 slots (the engine
/// truncates to Bounded beyond it instead of OOMing).
inline constexpr unsigned MaxLockFreeLog2 = 30;
/// The log2 capacity a table of 2^Log2 slots grows to: 4x below 2^17
/// slots (small tables: fewer pauses, little memory), 2x from there.
inline unsigned grownLog2(unsigned Log2) {
  return std::min(Log2 + (Log2 < 17 ? 2 : 1), MaxLockFreeLog2);
}

namespace lf {

/// Per-call probe telemetry, accumulated by the caller (a worker) and
/// flushed to the visited.cas_retries / visited.probe_steps counters.
struct ProbeStats {
  uint64_t CasRetries = 0;
  uint64_t ProbeSteps = 0;
  /// Set when a claim of this call brought a table to 1/2 load — the
  /// engine's cue to grow it. Raised once per slot array.
  bool WantGrowth = false;
};

/// Process-wide cache of all-zero word arrays, by size class (2^k words),
/// for reuse by the next table of the same size (see WordArray). Bounded
/// to MaxBytes; guarded by M.
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

/// Fixed array of 2^Log2 slots of Stride atomically-accessed 64-bit
/// words. calloc'd so the zeroed capacity is lazily mapped: untouched
/// pages stay on the kernel zero page and RSS grows only with the slots
/// actually written (a value-initializing new[]/vector would memset —
/// and fault — the whole array up front).
///
/// A \p Dense array (the target of a growth or restore, which fills it
/// at once) of 1 MiB or more is mapped directly instead, advised onto
/// transparent huge pages where the kernel offers them, and populated up
/// front: faulting a fresh table in 4 KiB at a time cost ~5 us per page
/// on a 4-vCPU VM, more than re-inserting its entries. Unmapping returns
/// a grown-out array at once; from malloc it would stay resident in the
/// heap.
///
/// Slots go from empty to occupied only through claim(), which logs the
/// first ClaimLogCap slot indices. An array whose claims were all logged
/// is re-zeroed slot by slot on destruction and parked in wordPool() for
/// the next array of its size. Many small checks in one process then skip
/// calloc's memset — which glibc does once a freed table has raised its
/// mmap threshold, and which cost every small check about a millisecond
/// — and the page faults of fresh memory.
class WordArray {
public:
  WordArray(unsigned Log2, unsigned Stride, bool Dense = false)
      : Log2(Log2), Stride(Stride), Mapped(Dense && bytes() >= (1u << 20)),
        ClaimLog(new uint32_t[ClaimLogCap]) {
    static_assert(std::atomic_ref<uint64_t>::is_always_lock_free);
    if (Mapped) {
      void *P = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (P == MAP_FAILED)
        throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
      ::madvise(P, bytes(), MADV_HUGEPAGE); // Advisory; may be declined.
#endif
#ifdef MADV_POPULATE_WRITE
      ::madvise(P, bytes(), MADV_POPULATE_WRITE); // Else faulted lazily.
#endif
      Words = static_cast<uint64_t *>(P);
      return;
    }
    WordPool &Pool = wordPool();
    {
      std::lock_guard<std::mutex> L(Pool.M);
      std::vector<uint64_t *> &F = Pool.Free[poolClass()];
      if (!F.empty()) {
        Words = F.back();
        F.pop_back();
        Pool.Bytes -= bytes();
      }
    }
    if (!Words)
      Words = static_cast<uint64_t *>(std::calloc(bytes(), 1));
    if (!Words)
      throw std::bad_alloc();
  }
  ~WordArray() {
    if (Mapped) {
      ::munmap(Words, bytes());
      return;
    }
    uint64_t N = Claims.load(std::memory_order_relaxed);
    if (N <= ClaimLogCap && !Placed.load(std::memory_order_relaxed)) {
      for (uint64_t I = 0; I != N; ++I)
        std::fill_n(Words + size_t{ClaimLog[I]} * Stride, Stride, 0);
      WordPool &Pool = wordPool();
      std::lock_guard<std::mutex> L(Pool.M);
      if (Pool.Bytes + bytes() <= WordPool::MaxBytes) {
        Pool.Free[poolClass()].push_back(Words);
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
  std::atomic_ref<uint64_t> at(size_t I, unsigned Word = 0) const {
    return std::atomic_ref<uint64_t>(Words[I * Stride + Word]);
  }

  /// CASes word 0 of empty slot \p I to \p Desired. Returns the occupied
  /// slot count including this claim, or 0 when the CAS failed — then
  /// \p Expected holds the winner's word (acquire), as
  /// compare_exchange_strong.
  uint64_t claim(size_t I, uint64_t &Expected, uint64_t Desired) {
    if (!at(I).compare_exchange_strong(Expected, Desired,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
      return 0;
    uint64_t N = Claims.fetch_add(1, std::memory_order_relaxed);
    if (N < ClaimLogCap)
      ClaimLog[N] = static_cast<uint32_t>(I);
    return N + 1;
  }

  /// Stores an entry known to be absent at the first empty slot from
  /// \p Hash (growth re-insert, checkpoint restore), uncounted: the
  /// caller adds its entries with placed(). Several threads may place at
  /// once, but none compares, so word 1 needs no ordering beyond the
  /// pause that ends the re-insert.
  void place(uint64_t Hash, uint64_t W0, uint64_t W1) {
    size_t Mask = capacity() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      uint64_t Expected = 0;
      if (at(I).load(std::memory_order_relaxed) == 0 &&
          at(I).compare_exchange_strong(Expected, W0,
                                        std::memory_order_relaxed)) {
        if (Stride == 2)
          at(I, 1).store(W1, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// Counts \p N place()d entries (one atomic add per batch, not per
  /// entry). Their slots are not logged, so the array is not pooled.
  void placed(uint64_t N) {
    Claims.fetch_add(N, std::memory_order_relaxed);
    Placed.store(true, std::memory_order_relaxed);
  }

  /// Occupied slots.
  uint64_t claims() const { return Claims.load(std::memory_order_relaxed); }

private:
  static constexpr uint64_t ClaimLogCap = 4096;

  size_t bytes() const { return capacity() * Stride * sizeof(uint64_t); }
  unsigned poolClass() const { return Log2 + (Stride == 2); }

  uint64_t *Words = nullptr;
  unsigned Log2;
  unsigned Stride;
  bool Mapped; ///< Dense and large: mmap'd, never pooled.
  std::atomic<uint64_t> Claims{0};
  std::atomic<bool> Placed{false};
  std::unique_ptr<uint32_t[]> ClaimLog;
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

/// The slot array of one table and what every table shares: the 1/2-load
/// growth cue, the 7/8-load full() latch, and growth by re-inserting
/// the table's own slots into a 2x array (see GrowthPlan).
class TableBase {
public:
  uint64_t used() const { return Slots->claims(); }
  bool full() const { return Full.load(std::memory_order_relaxed); }
  unsigned log2() const { return Slots->log2(); }

  /// True past 1/2 load — the growth trigger, comfortably ahead of the
  /// 7/8 cap where full() would latch.
  bool wantsGrowth() const { return used() * 2 >= Slots->capacity(); }

  /// Swaps in an empty array of grownLog2() and keeps the old one for
  /// rehash(). False at the size ceiling or when the allocation fails —
  /// full() stays the safety net. Requires quiesced writers.
  bool beginGrow() {
    if (log2() >= MaxLockFreeLog2)
      return false;
    try {
      auto New =
          std::make_unique<WordArray>(grownLog2(log2()), Stride, true);
      Old = std::move(Slots);
      Slots = std::move(New);
    } catch (const std::bad_alloc &) {
      return false;
    }
    return true;
  }
  size_t oldCapacity() const { return Old->capacity(); }
  /// Frees the array beginGrow() replaced, once every rehash() is done.
  void endGrow() { Old.reset(); }

protected:
  TableBase(unsigned Log2, unsigned Stride)
      : Slots(std::make_unique<WordArray>(Log2, Stride)), Stride(Stride) {}

  bool overFull() const {
    size_t Cap = Slots->capacity();
    return Slots->claims() >= Cap - Cap / 8;
  }

  /// Bookkeeping after claim #\p N of the table (counted across
  /// growth, so N - 1 doubles as the claimed entry's id).
  void noteClaim(uint64_t N, ProbeStats &St) const {
    if (N * 2 == Slots->capacity())
      St.WantGrowth = true;
  }

  /// Loads an id the winner of a claim stores as id + 1 after its CAS,
  /// waiting while it still reads 0: claimed, not yet numbered.
  template <typename T> static uint32_t awaitId(std::atomic_ref<T> Word) {
    T V;
    for (unsigned Spin = 0; (V = Word.load(std::memory_order_acquire)) == 0;
         ++Spin)
      if (Spin >= 64)
        std::this_thread::yield();
    return static_cast<uint32_t>(V - 1);
  }

  /// Restore into an empty table: resizes it (if needed) so \p N entries
  /// stay below the growth trigger. False past the size ceiling.
  bool reserveFor(uint64_t N) {
    unsigned L = log2();
    while (N * 2 >= (uint64_t{1} << L))
      if (++L > MaxLockFreeLog2)
        return false;
    if (L != log2())
      Slots = std::make_unique<WordArray>(L, Stride, true);
    return true;
  }

  std::unique_ptr<WordArray> Slots;
  std::unique_ptr<WordArray> Old; ///< Being re-inserted during growth.
  std::atomic<bool> Full{false};

private:
  unsigned Stride;
};

/// Open-address lock-free table of packed 64-bit pair payloads (LTSmin
/// treedbs-ll), probed by hashMix64(payload). With \p WithIds (the node
/// table) every pair gets a stable id, its claim ordinal, stored beside
/// the payload in a 16-byte slot; without (the root table) the slot is
/// the bare payload word and intern() only dedups.
template <bool WithIds> class PairTable : public TableBase {
public:
  static constexpr uint32_t InvalidId = 0xffffffffu;

  explicit PairTable(unsigned Log2) : TableBase(Log2, WithIds ? 2 : 1) {}

  /// Interns \p Payload. Returns its id (always 0 without ids), setting
  /// \p WasNew iff this call stored it, or InvalidId when the table is
  /// full — full() then latches sticky.
  uint32_t intern(uint64_t Payload, ProbeStats &St, bool &WasNew) {
    WasNew = false;
    WordArray &A = *Slots;
    uint64_t Stored = Payload + 1;
    size_t Mask = A.capacity() - 1;
    size_t Slot = hashMix64(Payload) & Mask;
    for (size_t I = 0; I != A.capacity(); ++I, Slot = (Slot + 1) & Mask) {
      ++St.ProbeSteps;
      uint64_t Cur = A.at(Slot).load(std::memory_order_acquire);
      if (Cur == 0) {
        if (overFull())
          break;
        uint64_t Expected = 0;
        if (uint64_t N = A.claim(Slot, Expected, Stored)) {
          noteClaim(N, St);
          WasNew = true;
          if constexpr (!WithIds)
            return 0;
          A.at(Slot, 1).store(N, std::memory_order_release);
          return static_cast<uint32_t>(N - 1);
        }
        ++St.CasRetries;
        Cur = Expected; // The winner's word, from the failure load.
      }
      if (Cur == Stored) {
        if constexpr (!WithIds)
          return 0;
        return awaitId(A.at(Slot, 1));
      }
    }
    Full.store(true, std::memory_order_relaxed);
    return InvalidId;
  }

  /// Calls \p F(id, payload) for every stored pair (id 0 without ids).
  /// Requires quiesced writers.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t I = 0; I != Slots->capacity(); ++I)
      if (uint64_t W = Slots->at(I).load(std::memory_order_acquire))
        F(WithIds ? static_cast<uint32_t>(
                        Slots->at(I, 1).load(std::memory_order_acquire) - 1)
                  : 0u,
          W - 1);
  }

  /// Re-inserts slots [\p B, \p E) of the array beginGrow() replaced.
  void rehash(size_t B, size_t E) {
    uint64_t N = 0;
    for (size_t I = B; I != E; ++I)
      if (uint64_t W = Old->at(I).load(std::memory_order_relaxed)) {
        Slots->place(hashMix64(W - 1), W,
                     WithIds ? Old->at(I, 1).load(std::memory_order_relaxed)
                             : 0);
        ++N;
      }
    Slots->placed(N);
  }

  /// Checkpoint dump/restore as (id, payload) entries; restore
  /// re-inserts them, at whatever capacity they need, into an empty
  /// table. Requires quiesced writers.
  void save(BinWriter &W) const {
    W.u64(used());
    forEach([&](uint32_t Id, uint64_t Payload) {
      if constexpr (WithIds)
        W.u32(Id);
      W.u64(Payload);
    });
  }

  bool restore(BinReader &R) {
    uint64_t N = R.u64();
    if (R.fail() || used() || !reserveFor(N))
      return false;
    for (uint64_t I = 0; I != N; ++I) {
      uint32_t Id = WithIds ? R.u32() : 0;
      uint64_t Payload = R.u64();
      if (R.fail() || Id >= N) // Ids are the claim ordinals 0..N-1.
        return false;
      Slots->place(hashMix64(Payload), Payload + 1, uint64_t{Id} + 1);
    }
    Slots->placed(N);
    return true;
  }
};

using NodeTable = PairTable<true>;
using RootTable = PairTable<false>;

/// Open-address lock-free byte-string interner (LTSmin dbs-ll). A slot
/// word holds the pointer to an arena record whose memoized hash makes
/// the common compare one 64-bit check and which carries the string's
/// id, its claim ordinal.
class StringTable : public TableBase {
public:
  static constexpr uint32_t InvalidId = 0xffffffffu;

  explicit StringTable(unsigned Log2) : TableBase(Log2, 1) {}

  uint32_t intern(std::string_view Bytes, ProbeStats &St, bool &WasNew) {
    WasNew = false;
    WordArray &A = *Slots;
    uint64_t H = hashBytes(reinterpret_cast<const uint8_t *>(Bytes.data()),
                           Bytes.size());
    size_t Mask = A.capacity() - 1;
    const Record *Fresh = nullptr;
    size_t Slot = H & Mask;
    for (size_t I = 0; I != A.capacity(); ++I, Slot = (Slot + 1) & Mask) {
      ++St.ProbeSteps;
      uint64_t Word = A.at(Slot).load(std::memory_order_acquire);
      if (Word == 0) {
        if (overFull())
          break;
        if (!Fresh)
          Fresh = makeRecord(H, Bytes, 0);
        uint64_t Expected = 0;
        if (uint64_t N =
                A.claim(Slot, Expected, reinterpret_cast<uintptr_t>(Fresh))) {
          Fresh->idWord().store(static_cast<uint32_t>(N),
                                std::memory_order_release);
          noteClaim(N, St);
          RecordBytes.fetch_add(sizeof(Record) + Fresh->Len,
                                std::memory_order_relaxed);
          WasNew = true;
          return static_cast<uint32_t>(N - 1);
        }
        ++St.CasRetries;
        Word = Expected; // Winner's pointer (failure load is acquire).
      }
      const auto *R = reinterpret_cast<const Record *>(
          static_cast<uintptr_t>(Word));
      if (R->Hash == H && R->Len == Bytes.size() &&
          std::memcmp(R->data(), Bytes.data(), Bytes.size()) == 0)
        return awaitId(R->idWord()); // Fresh, if made, stays as garbage.
    }
    Full.store(true, std::memory_order_relaxed);
    return InvalidId;
  }

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

  /// Calls \p F(id, bytes) for every stored string. The view stays valid
  /// for the table's lifetime (records are immutable and arena-owned).
  /// Requires quiesced writers.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t I = 0; I != Slots->capacity(); ++I)
      if (uint64_t W = Slots->at(I).load(std::memory_order_acquire)) {
        const auto *R =
            reinterpret_cast<const Record *>(static_cast<uintptr_t>(W));
        F(R->IdWord - 1, std::string_view(R->data(), R->Len));
      }
  }

  /// Re-inserts slots [\p B, \p E) of the array beginGrow() replaced
  /// under their memoized hashes.
  void rehash(size_t B, size_t E) {
    uint64_t N = 0;
    for (size_t I = B; I != E; ++I)
      if (uint64_t W = Old->at(I).load(std::memory_order_relaxed)) {
        Slots->place(
            reinterpret_cast<const Record *>(static_cast<uintptr_t>(W))->Hash,
            W, 0);
        ++N;
      }
    Slots->placed(N);
  }

  void save(BinWriter &W) const {
    W.u64(used());
    forEach([&](uint32_t Id, std::string_view Bytes) {
      W.u32(Id);
      W.varu64(Bytes.size());
      W.bytes(Bytes.data(), Bytes.size());
    });
  }

  bool restore(BinReader &R) {
    uint64_t N = R.u64();
    if (R.fail() || used() || !reserveFor(N))
      return false;
    for (uint64_t I = 0; I != N; ++I) {
      uint32_t Id = R.u32();
      std::string Bytes = R.str();
      if (R.fail() || Id >= N) // Ids are the claim ordinals 0..N-1.
        return false;
      uint64_t H = hashBytes(reinterpret_cast<const uint8_t *>(Bytes.data()),
                             Bytes.size());
      const Record *Rec = makeRecord(H, Bytes, Id + 1);
      Slots->place(H, reinterpret_cast<uintptr_t>(Rec), 0);
      RecordBytes.fetch_add(sizeof(Record) + Rec->Len,
                            std::memory_order_relaxed);
    }
    Slots->placed(N);
    return true;
  }

private:
  struct Record {
    uint64_t Hash;
    uint32_t Len;
    /// Id + 1, stored by the claim's winner after its CAS (0 = not yet).
    mutable uint32_t IdWord;
    const char *data() const {
      return reinterpret_cast<const char *>(this) + sizeof(Record);
    }
    std::atomic_ref<uint32_t> idWord() const {
      return std::atomic_ref<uint32_t>(IdWord);
    }
  };

  const Record *makeRecord(uint64_t H, std::string_view Bytes,
                           uint32_t IdWord) {
    auto *R = static_cast<Record *>(Arena.alloc(sizeof(Record) + Bytes.size()));
    R->Hash = H;
    R->Len = static_cast<uint32_t>(Bytes.size());
    R->IdWord = IdWord;
    std::memcpy(reinterpret_cast<char *>(R) + sizeof(Record), Bytes.data(),
                Bytes.size());
    return R;
  }

  RecordArena Arena;
  std::atomic<uint64_t> RecordBytes{0};
};

inline uint64_t packPair(uint32_t L, uint32_t R) {
  return (uint64_t{L} << 32) | R;
}

/// The re-insert work of one growth pause: every table added to the plan
/// gets its 2x array at once, and its old slots are queued in chunks
/// that any number of threads take concurrently (work()). Requires
/// quiesced writers from add() to finish().
class GrowthPlan {
public:
  /// Grows \p T if it is past 1/2 load.
  template <typename Table> void add(Table &T) {
    if (!T.wantsGrowth() || !T.beginGrow())
      return;
    size_t Cap = T.oldCapacity();
    for (size_t B = 0; B < Cap; B += ChunkSlots)
      Units.push_back(
          [&T, B, E = std::min(Cap, B + ChunkSlots)] { T.rehash(B, E); });
    Ends.push_back([&T] { T.endGrow(); });
  }

  /// Tables growing.
  size_t tables() const { return Ends.size(); }
  size_t chunks() const { return Units.size(); }
  bool hasWork() const {
    return Next.load(std::memory_order_relaxed) < Units.size();
  }
  /// Takes and runs chunks until none is left.
  void work() {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) <
                   Units.size();)
      Units[I]();
  }
  /// Frees the replaced arrays; every work() call must have returned.
  void finish() {
    for (const std::function<void()> &E : Ends)
      E();
  }

private:
  static constexpr size_t ChunkSlots = size_t{1} << 14;
  std::vector<std::function<void()>> Units, Ends;
  std::atomic<size_t> Next{0};
};

} // namespace lf

/// Lock-free replacement for ShardedStateSet on the uncompressed path:
/// full serialized state keys in one dbs-ll StringTable.
class LockFreeStateSet {
public:
  /// Initial capacity: 2^k keys; the table doubles as it fills.
  static constexpr unsigned StartLog2 = 16;

  LockFreeStateSet() : Table(StartLog2) {}

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
  void planGrowth(lf::GrowthPlan &Plan) { Plan.add(Table); }

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
/// node table, level by level, until at most two ids remain — and the
/// final root pair is stored in the root table.
///
/// Injectivity: a node id determines its (left, right) payload, the
/// reduction shape is a pure function of numSlots(), and component ids
/// determine their bytes — so unwinding the root pair deterministically
/// yields the component tuple, and root-pair equality is exactly tuple
/// equality, i.e. state equality. Ids are stable for the interner's
/// lifetime: growth moves entries, never renumbers them.
class LockFreeStateInterner {
public:
  static constexpr uint32_t InvalidId = lf::StringTable::InvalidId;
  /// Right id of the root pair when only one id survives reduction
  /// (single-slot tuples). Distinguishable from real ids: tables stop
  /// growing at 2^MaxLockFreeLog2 entries.
  static constexpr uint32_t OddSentinel = 0xffffffffu;
  /// Initial capacities (2^k slots). Each table doubles on its own; the
  /// starts leave a 3/8-capacity margin between the growth cue and the
  /// full() latch for the inserts in flight while the pause takes hold.
  static constexpr unsigned ComponentStartLog2 = 14;
  static constexpr unsigned NodeStartLog2 = 16;
  static constexpr unsigned RootStartLog2 = 16;

  explicit LockFreeStateInterner(unsigned NumSlots)
      : Nodes(NodeStartLog2), Roots(RootStartLog2) {
    Comps.reserve(NumSlots);
    for (unsigned I = 0; I != NumSlots; ++I) // Tables hold atomics and are
      Comps.push_back(                       // immovable.
          std::make_unique<lf::StringTable>(ComponentStartLog2));
  }

  unsigned numSlots() const { return static_cast<unsigned>(Comps.size()); }
  unsigned componentLog2(unsigned Slot) const { return Comps[Slot]->log2(); }
  unsigned nodeLog2() const { return Nodes.log2(); }
  unsigned rootLog2() const { return Roots.log2(); }

  /// Adds every table past 1/2 load to \p Plan. Requires quiesced
  /// writers until the plan finishes.
  void planGrowth(lf::GrowthPlan &Plan) {
    for (const auto &T : Comps)
      Plan.add(*T);
    Plan.add(Nodes);
    Plan.add(Roots);
  }

  /// Interns one component's bytes into its slot table; InvalidId on a
  /// full table (full() latches).
  uint32_t internComponent(unsigned Slot, std::string_view Bytes,
                           lf::ProbeStats &St) {
    bool WasNew = false;
    return Comps[Slot]->intern(Bytes, St, WasNew);
  }

  /// Collapses the id tuple and stores the root pair, charging
  /// \p RawKeyEstimate (the raw key's lf::StringTable::entryBytes) to
  /// rawBytes() when new. Returns true iff the state was new; on a full
  /// node/root table returns false with full() latched. \p Scratch is
  /// caller-provided working space (no allocation on the hot path; the
  /// engine passes a per-worker buffer).
  bool insertTuple(const uint32_t *Ids, uint64_t RawKeyEstimate,
                   lf::ProbeStats &St, std::vector<uint32_t> &Scratch) {
    unsigned Len = numSlots();
    Scratch.assign(Ids, Ids + Len);
    while (Len > 2) {
      unsigned Out = 0;
      for (unsigned I = 0; I + 1 < Len; I += 2) {
        bool WasNew = false;
        uint32_t Id = Nodes.intern(lf::packPair(Scratch[I], Scratch[I + 1]),
                                   St, WasNew);
        if (Id == lf::NodeTable::InvalidId)
          return false;
        Scratch[Out++] = Id;
      }
      if (Len & 1)
        Scratch[Out++] = Scratch[Len - 1];
      Len = Out;
    }
    uint64_t RootP = lf::packPair(Scratch[0], Len == 2 ? Scratch[1]
                                                       : OddSentinel);
    bool WasNew = false;
    if (Roots.intern(RootP, St, WasNew) == lf::RootTable::InvalidId)
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
    uint64_t B = (Roots.used() + 2 * Nodes.used()) * sizeof(uint64_t);
    for (const auto &T : Comps)
      B += T->bytesUsed();
    return B;
  }

  uint64_t rawBytes() const {
    return RawBytes.load(std::memory_order_relaxed);
  }

  /// Checkpoint dump/restore as (id, entry) lists; restore re-inserts
  /// into a fresh interner with the same slot count, sizing each table
  /// to its contents. Requires quiesced writers.
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
    // Id-indexed views of the node and component tables (ids are the
    // claim ordinals 0..used()-1).
    std::vector<uint64_t> NodeById(Nodes.used());
    Nodes.forEach([&](uint32_t Id, uint64_t P) { NodeById[Id] = P; });
    std::vector<std::vector<std::string_view>> CompById(numSlots());
    for (unsigned Slot = 0; Slot != numSlots(); ++Slot) {
      CompById[Slot].resize(Comps[Slot]->used());
      Comps[Slot]->forEach([&](uint32_t Id, std::string_view B) {
        CompById[Slot][Id] = B;
      });
    }
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
          uint64_t P = NodeById[Cur[I]];
          Prev[2 * I] = static_cast<uint32_t>(P >> 32);
          Prev[2 * I + 1] = static_cast<uint32_t>(P);
        }
        if (L & 1)
          Prev[L - 1] = Cur[L / 2];
        std::swap(Cur, Prev);
      }
      Key.clear();
      for (uint32_t Slot : EmissionToSlot)
        Key.append(CompById[Slot][Cur[Slot]]);
      F(Key);
    });
  }

private:
  std::vector<std::unique_ptr<lf::StringTable>> Comps;
  lf::NodeTable Nodes;
  lf::RootTable Roots;
  std::atomic<uint64_t> RawBytes{0};
};

} // namespace rocker

#endif // ROCKER_SUPPORT_LOCKFREEVISITED_H
