//===- monitor/SCMState.h - The SCM instrumented-SC monitor ----*- C++ -*-===//
///
/// \file
/// The finite instrumented-SC memory subsystem SCM of Section 5 — the
/// paper's core contribution. A state I tracks, for the execution graph G
/// of the SC run so far (Lemma 5.2 relates I to I(G)):
///
///  * M    — location -> value written by the mo-maximal write (plain SC);
///  * VSC  — per thread τ: the locations x whose mo-maximal write wmax_x
///           is hbSC?-before some event of τ (hbSC-awareness);
///  * MSC  — per location x: the locations y with an hbSC?-path from
///           wmax_y to some event accessing x (helper for VSC);
///  * WSC  — per location x: the locations y with an hbSC?-path from
///           wmax_y to wmax_x (helper for VSC on reads);
///  * V    — per ⟨τ,x⟩: values written by non-mo-maximal writes to x that
///           RAG would still let τ read (no mo;hb?-path into τ's events);
///  * VRMW — like V but further excluding writes already read by an RMW
///           (candidates for RAG write/RMW predecessors);
///  * W,WRMW — per ⟨x,y⟩ helper sets used to restore V/VRMW when a thread
///           reads wmax_x (they record the same information relative to
///           wmax_x instead of a thread).
///
/// Transitions implement Figures 5 and 6 verbatim; the robustness checks
/// implement Theorem 5.3. With the critical-value abstraction of
/// Section 5.1 enabled, V/VRMW/W/WRMW are restricted to each location's
/// critical values and non-critical values are summarized disjunctively
/// by CV/CVRMW (per thread) and CW/CWRMW (per location), maintained per
/// Appendix C and checked via the three extra Theorem 5.3 conditions.
///
/// Non-atomic accesses (Section 6) only update M; the instrumentation
/// applies to release/acquire locations exclusively. SCM follows the
/// explorer's memory-subsystem interface, so verifying robustness is
/// literally a reachability run of the product P × SCM under SC.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_MONITOR_SCMSTATE_H
#define ROCKER_MONITOR_SCMSTATE_H

#include "lang/CriticalValues.h"
#include "lang/Program.h"
#include "lang/Step.h"
#include "support/BinCodec.h"
#include "support/BitSet64.h"

#include <optional>
#include <string>
#include <vector>

namespace rocker {

/// The monitor's per-state data. Index helpers live in SCMonitor.
struct SCMState {
  std::vector<Val> M;        ///< Per location.
  std::vector<BitSet64> VSC; ///< Per thread: set of locations.
  std::vector<BitSet64> MSC; ///< Per location: set of locations.
  std::vector<BitSet64> WSC; ///< Per location: set of locations.
  std::vector<BitSet64> V;    ///< [τ * NumLocs + x]: set of values.
  std::vector<BitSet64> VRmw; ///< [τ * NumLocs + x]: set of values.
  std::vector<BitSet64> W;    ///< [x * NumLocs + y]: set of values.
  std::vector<BitSet64> WRmw; ///< [x * NumLocs + y]: set of values.
  // Abstract value management (empty vectors when disabled):
  std::vector<BitSet64> CV;    ///< Per thread: set of locations.
  std::vector<BitSet64> CVRmw; ///< Per thread: set of locations.
  std::vector<BitSet64> CW;    ///< Per location: set of locations.
  std::vector<BitSet64> CWRmw; ///< Per location: set of locations.

  friend bool operator==(const SCMState &A, const SCMState &B) {
    return A.M == B.M && A.VSC == B.VSC && A.MSC == B.MSC &&
           A.WSC == B.WSC && A.V == B.V && A.VRmw == B.VRmw &&
           A.W == B.W && A.WRmw == B.WRmw && A.CV == B.CV &&
           A.CVRmw == B.CVRmw && A.CW == B.CW && A.CWRmw == B.CWRmw;
  }
};

/// A robustness violation detected by the Theorem 5.3 conditions.
struct MonitorViolation {
  AccessType Type; ///< Access type of the offending enabled label.
  LocId Loc;
  /// A value witnessing the violation: some value RAG could read from a
  /// non-mo-maximal write while SCG could not (0xff when the witness is a
  /// non-critical value summarized by CV/CVRMW).
  Val WitnessVal;
  bool WitnessIsCritical;
};

/// The SCM memory subsystem. Implements the explorer interface and the
/// Theorem 5.3 / Section 5.1 robustness checks.
class SCMonitor {
public:
  using State = SCMState;

  /// \p Abstract selects the Section 5.1 critical-value abstraction.
  SCMonitor(const Program &P, bool Abstract);

  State initial() const;

  /// SC-deterministic stepping with monitor bookkeeping.
  template <typename Fn>
  void enumerate(const State &S, ThreadId T, const MemAccess &A, Fn F) const {
    if (A.K != MemAccess::Kind::Write &&
        classifyRead(A, S.M[A.Loc]) == ReadOutcome::Blocked)
      return;
    State Next = S;
    Label L = *stepInPlace(Next, T, A);
    F(L, std::move(Next));
  }

  /// enumerate's one successor, applied to \p S in place (the POR chain
  /// walk's copy-free step); nullopt, with \p S untouched, when \p A
  /// blocks.
  std::optional<Label> stepInPlace(State &S, ThreadId T,
                                   const MemAccess &A) const {
    if (A.K == MemAccess::Kind::Write) {
      stepWrite(S, T, A.Loc, A.WriteVal, A.IsNA);
      return Label::write(A.Loc, A.WriteVal, A.IsNA);
    }
    Val VR = S.M[A.Loc];
    ReadOutcome O = classifyRead(A, VR);
    if (O == ReadOutcome::Blocked)
      return std::nullopt;
    if (O == ReadOutcome::PlainRead) {
      stepRead(S, T, A.Loc, A.IsNA);
      return Label::read(A.Loc, VR, A.IsNA);
    }
    Val VW = rmwWriteVal(A, VR, NumVals);
    stepRmw(S, T, A.Loc, VW);
    return Label::rmw(A.Loc, VR, VW);
  }

  template <typename Fn>
  void enumerateInternal(const State &, Fn) const {}

  /// Partial-order reduction opt-in (explore/Por.h): stepping is
  /// SC-deterministic with no internal steps, and the monitor updates of
  /// steps on distinct locations commute — every transition for a step on
  /// x by τ writes only τ-indexed rows, x-indexed columns, or x-indexed
  /// entries of the bitset tables above, and the one shared-column
  /// interleaving (a write |=-ing the same value set into V[·][x] and
  /// W[·][x] that a later read &=-s together) commutes because
  /// (a|v)&(b|v) = (a&b)|v. The checkAccess inputs for a pending access
  /// to y (VSC[τ]∋y, V[τ][y], CV[τ]∋y, M[y], Crit[y]) are likewise
  /// untouched by other threads' steps on x ≠ y, so deferring those
  /// steps cannot hide or invent a Theorem 5.3 violation. Hence every
  /// state is eligible; the explorer's location-disjointness test is the
  /// commutativity condition.
  bool porEligible(const State &) const { return true; }

  void serialize(const State &S, std::string &Out) const;

  /// Component split for the compressed visited set
  /// (support/StateInterner.h): one chunk of location-indexed
  /// instrumentation (M, MSC, WSC, W, WRMW, CW, CWRMW) plus one chunk per
  /// thread (VSC[τ], V/VRMW rows of τ, CV[τ], CVRMW[τ]) — a step by τ
  /// leaves the other threads' rows mostly untouched, so those chunks
  /// hash-cons well. serialize() emits the same chunks in the same order,
  /// so both visited-set representations induce the same state equality.
  unsigned numComponents() const { return 1 + NumThreads; }
  /// The trailing NumThreads chunks are per-thread (tree-layout hint;
  /// see buildSlotOrder in support/StateInterner.h).
  unsigned perThreadTailComponents() const { return NumThreads; }

  template <typename Fn>
  void serializeComponents(const State &S, std::string &Out, Fn Cut) const {
    serializeGlobal(S, Out);
    Cut();
    for (unsigned T = 0; T != NumThreads; ++T) {
      serializeThread(S, T, Out);
      Cut();
    }
  }

  /// Single-chunk re-emission for the incremental (Zobrist) visited path:
  /// appends exactly the bytes serializeComponents emits for \p Chunk.
  void serializeComponent(const State &S, unsigned Chunk,
                          std::string &Out) const {
    if (Chunk == 0)
      serializeGlobal(S, Out);
    else
      serializeThread(S, Chunk - 1, Out);
  }

  /// Chunks a step by thread \p T with access \p A may change, as a bit
  /// mask over the chunk indices above (nullptr \p A = internal step;
  /// SCM has none, so that case is conservatively "all"). Derived from
  /// stepWrite/stepRead/stepRmw: an NA write touches only M (chunk 0),
  /// an NA read nothing; a non-NA plain read updates VSC[T]/MSC (chunk
  /// 0) and T's V/VRMW/CV rows (chunk 1 + T); writes and RMWs |= the
  /// demoted value into every other thread's V row, so all chunks are
  /// dirty. Cas/Bcas may land as plain reads (failed compare) or RMWs —
  /// the mask covers the union.
  uint64_t dirtyComponents(ThreadId T, const MemAccess *A) const {
    if (!A)
      return ~uint64_t{0};
    bool ReadOnly =
        A->K == MemAccess::Kind::Read || A->K == MemAccess::Kind::Wait;
    if (A->IsNA)
      return ReadOnly ? 0 : uint64_t{1};
    if (ReadOnly)
      return uint64_t{1} | (uint64_t{1} << (1 + T));
    return ~uint64_t{0};
  }

  /// Checkpoint codec (resilience layer): all field lengths are fixed by
  /// the program dimensions + the abstraction flag, so the encoding is
  /// the value bytes plus each bit set's raw 64-bit mask.
  void encodeState(const State &S, std::string &Out) const;
  bool decodeState(BinReader &R, State &S) const;

  /// Theorem 5.3 (+ Section 5.1 additions): does thread \p T's pending
  /// access witness non-robustness in state \p S?
  std::optional<MonitorViolation> checkAccess(const State &S, ThreadId T,
                                              const MemAccess &A) const;

  // Individual transition updates (public for the Lemma 5.2 property
  // tests, which replay SCG runs through them).
  void stepWrite(State &S, ThreadId T, LocId X, Val V, bool IsNA) const;
  void stepRead(State &S, ThreadId T, LocId X, bool IsNA) const;
  void stepRmw(State &S, ThreadId T, LocId X, Val VW) const;

  bool isAbstract() const { return Abstract; }
  const std::vector<BitSet64> &criticalValues() const { return Crit; }

private:
  unsigned vIdx(ThreadId T, LocId X) const { return T * NumLocs + X; }
  unsigned wIdx(LocId X, LocId Y) const { return X * NumLocs + Y; }

  /// Figure 5 maintenance for a write/RMW to X by T.
  void updateHbScOnWrite(State &S, ThreadId T, LocId X) const;
  /// Figure 5 maintenance for a read of X by T.
  void updateHbScOnRead(State &S, ThreadId T, LocId X) const;

  // serializeComponents' chunk emitters (see above).
  void serializeGlobal(const State &S, std::string &Out) const;
  void serializeThread(const State &S, unsigned T, std::string &Out) const;
  void appendValSet(std::string &Out, const BitSet64 &B, LocId Y) const;

  unsigned NumThreads;
  unsigned NumLocs;
  unsigned NumVals;
  BitSet64 RaLocs;
  bool Abstract;
  std::vector<BitSet64> Crit; ///< Critical values per location (§5.1).
};

} // namespace rocker

#endif // ROCKER_MONITOR_SCMSTATE_H
