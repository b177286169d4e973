//===- monitor/SCMState.cpp - SCM transitions and checks --------------------===//
//
// Figures 5 and 6 of the paper, implemented verbatim; every RHS refers to
// pre-transition components, so rows that feed each other are snapshotted
// before mutation. The Lemma 5.2 property tests replay SCG runs through
// these updates and compare against I(G) recomputed from the graph.
//
//===----------------------------------------------------------------------===//

#include "monitor/SCMState.h"

#include <cassert>

using namespace rocker;

SCMonitor::SCMonitor(const Program &P, bool Abstract)
    : NumThreads(P.numThreads()), NumLocs(P.numLocs()), NumVals(P.NumVals),
      RaLocs(P.raLocs()), Abstract(Abstract),
      Crit(computeCriticalValues(P)) {}

SCMonitor::State SCMonitor::initial() const {
  State S;
  S.M.assign(NumLocs, 0);
  // Initially every thread is hbSC-aware of every (initialization) write,
  // and each wmax_x trivially reaches only events accessing x (itself).
  S.VSC.assign(NumThreads, RaLocs);
  S.MSC.assign(NumLocs, BitSet64());
  S.WSC.assign(NumLocs, BitSet64());
  for (unsigned X : RaLocs) {
    S.MSC[X].insert(X);
    S.WSC[X].insert(X);
  }
  S.V.assign(NumThreads * NumLocs, BitSet64());
  S.VRmw.assign(NumThreads * NumLocs, BitSet64());
  S.W.assign(NumLocs * NumLocs, BitSet64());
  S.WRmw.assign(NumLocs * NumLocs, BitSet64());
  if (Abstract) {
    S.CV.assign(NumThreads, BitSet64());
    S.CVRmw.assign(NumThreads, BitSet64());
    S.CW.assign(NumLocs, BitSet64());
    S.CWRmw.assign(NumLocs, BitSet64());
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Figure 5: maintaining VSC, MSC, WSC
//===----------------------------------------------------------------------===//

void SCMonitor::updateHbScOnWrite(State &S, ThreadId T, LocId X) const {
  BitSet64 OldVscT = S.VSC[T];
  BitSet64 OldMscX = S.MSC[X];

  // VSC' = λπ. π = τ ? VSC(τ) ∪ MSC(x) : VSC(π) \ {x}
  for (unsigned P = 0; P != NumThreads; ++P)
    S.VSC[P].remove(X);
  S.VSC[T] = OldVscT | OldMscX;

  // MSC' = λy. y = x ? MSC(x) ∪ VSC(τ) : MSC(y) \ {x}
  // WSC' = λy. y = x ? MSC(x) ∪ VSC(τ) : WSC(y) \ {x}
  for (unsigned Y : RaLocs) {
    if (Y == X)
      continue;
    S.MSC[Y].remove(X);
    S.WSC[Y].remove(X);
  }
  S.MSC[X] = OldMscX | OldVscT;
  S.WSC[X] = OldMscX | OldVscT;
}

void SCMonitor::updateHbScOnRead(State &S, ThreadId T, LocId X) const {
  BitSet64 OldVscT = S.VSC[T];
  // VSC'(τ) = VSC(τ) ∪ WSC(x); MSC'(x) = MSC(x) ∪ VSC(τ); WSC unchanged.
  S.VSC[T] |= S.WSC[X];
  S.MSC[X] |= OldVscT;
}

//===----------------------------------------------------------------------===//
// Figure 6 (+ Appendix C): maintaining V, W, VRMW, WRMW (+ CV/CW summaries)
//===----------------------------------------------------------------------===//

void SCMonitor::stepWrite(State &S, ThreadId T, LocId X, Val V,
                          bool IsNA) const {
  Val VR = S.M[X]; // Value of the demoted mo-maximal write.
  S.M[X] = V;
  if (IsNA)
    return; // Non-atomic accesses leave the instrumentation unchanged.

  updateHbScOnWrite(S, T, X);

  bool VRCrit = Crit[X].contains(VR);
  BitSet64 VRSet;
  if (!Abstract || VRCrit)
    VRSet.insert(VR);

  // W'(z,y): z = x, y ≠ x -> V(τ,y);  z ≠ x, y = x -> W(z,x) ∪ {vR}.
  // WRMW analogous. Uses V(τ,·) before its own update below.
  for (unsigned Y : RaLocs) {
    if (Y == X)
      continue;
    S.W[wIdx(X, Y)] = S.V[vIdx(T, Y)];
    S.WRmw[wIdx(X, Y)] = S.VRmw[vIdx(T, Y)];
  }
  for (unsigned Z : RaLocs) {
    if (Z == X)
      continue;
    S.W[wIdx(Z, X)] |= VRSet;
    S.WRmw[wIdx(Z, X)] |= VRSet;
  }
  // W(x,x) stays ∅: every other write to x is mo-before the new wmax_x.
  S.W[wIdx(X, X)].clear();
  S.WRmw[wIdx(X, X)].clear();

  // V'(π,y): π = τ, y = x -> ∅;  π ≠ τ, y = x -> V(π,x) ∪ {vR}.
  for (unsigned P = 0; P != NumThreads; ++P) {
    if (P == T)
      continue;
    S.V[vIdx(P, X)] |= VRSet;
    S.VRmw[vIdx(P, X)] |= VRSet;
  }
  S.V[vIdx(T, X)].clear();
  S.VRmw[vIdx(T, X)].clear();

  if (!Abstract)
    return;

  // Appendix C, write column.
  BitSet64 OldCvT = S.CV[T];
  BitSet64 OldCvRmwT = S.CVRmw[T];
  for (unsigned Z : RaLocs) {
    if (Z == X)
      continue;
    if (!VRCrit) {
      S.CW[Z].insert(X);
      S.CWRmw[Z].insert(X);
    }
  }
  S.CW[X] = OldCvT;
  S.CW[X].remove(X);
  S.CWRmw[X] = OldCvRmwT;
  S.CWRmw[X].remove(X);
  for (unsigned P = 0; P != NumThreads; ++P) {
    if (P == T)
      continue;
    if (!VRCrit) {
      S.CV[P].insert(X);
      S.CVRmw[P].insert(X);
    }
  }
  S.CV[T].remove(X);
  S.CVRmw[T].remove(X);
}

void SCMonitor::stepRead(State &S, ThreadId T, LocId X, bool IsNA) const {
  if (IsNA)
    return;
  updateHbScOnRead(S, T, X);
  // V'(τ,y) = V(τ,y) ∩ W(x,y); VRMW'(τ,y) = VRMW(τ,y) ∩ WRMW(x,y).
  for (unsigned Y : RaLocs) {
    S.V[vIdx(T, Y)] &= S.W[wIdx(X, Y)];
    S.VRmw[vIdx(T, Y)] &= S.WRmw[wIdx(X, Y)];
  }
  if (Abstract) {
    S.CV[T] &= S.CW[X];
    S.CVRmw[T] &= S.CWRmw[X];
  }
}

void SCMonitor::stepRmw(State &S, ThreadId T, LocId X, Val VW) const {
  Val VR = S.M[X];
  S.M[X] = VW;
  assert(RaLocs.contains(X) && "RMW on a non-atomic location");

  updateHbScOnWrite(S, T, X);

  bool VRCrit = Crit[X].contains(VR);
  BitSet64 VRSet;
  if (!Abstract || VRCrit)
    VRSet.insert(VR);

  // V'(τ,y) and W'(x,y≠x) both become V(τ,y) ∩ W(x,y); compute once.
  // (W(x,x) stays ∅, and V(τ,x) ∩ W(x,x) = ∅ as well, so the y = x case
  // is uniform.)
  for (unsigned Y : RaLocs) {
    BitSet64 Meet = S.V[vIdx(T, Y)] & S.W[wIdx(X, Y)];
    S.V[vIdx(T, Y)] = Meet;
    if (Y != X)
      S.W[wIdx(X, Y)] = Meet;
    BitSet64 MeetRmw = S.VRmw[vIdx(T, Y)] & S.WRmw[wIdx(X, Y)];
    S.VRmw[vIdx(T, Y)] = MeetRmw;
    if (Y != X)
      S.WRmw[wIdx(X, Y)] = MeetRmw;
  }
  S.W[wIdx(X, X)].clear();
  S.WRmw[wIdx(X, X)].clear();

  // The demoted wmax_x is now read by this RMW, so it joins V/W (readable
  // by RAG reads) but *not* VRMW/WRMW (excluded by mo|imm;[RMW]).
  for (unsigned P = 0; P != NumThreads; ++P) {
    if (P == T)
      continue;
    S.V[vIdx(P, X)] |= VRSet;
  }
  for (unsigned Z : RaLocs) {
    if (Z == X)
      continue;
    S.W[wIdx(Z, X)] |= VRSet;
  }

  if (!Abstract)
    return;

  // Appendix C, RMW column.
  BitSet64 MeetCv = S.CV[T] & S.CW[X];
  S.CW[X] = MeetCv;
  S.CV[T] = MeetCv;
  BitSet64 MeetCvRmw = S.CVRmw[T] & S.CWRmw[X];
  S.CWRmw[X] = MeetCvRmw;
  S.CVRmw[T] = MeetCvRmw;
  if (!VRCrit) {
    for (unsigned P = 0; P != NumThreads; ++P)
      if (P != T)
        S.CV[P].insert(X);
    for (unsigned Z : RaLocs)
      if (Z != X)
        S.CW[Z].insert(X);
  }
}

//===----------------------------------------------------------------------===//
// Theorem 5.3 robustness conditions
//===----------------------------------------------------------------------===//

std::optional<MonitorViolation>
SCMonitor::checkAccess(const State &S, ThreadId T, const MemAccess &A) const {
  if (A.IsNA)
    return std::nullopt; // NA accesses are covered by the race check.
  LocId X = A.Loc;
  // All conditions are gated on hbSC-awareness of wmax_x (condition (a)
  // of the non-robustness witness, Theorem 5.1).
  if (!S.VSC[T].contains(X))
    return std::nullopt;

  auto critViolation = [&](AccessType Type, BitSet64 Set) {
    return MonitorViolation{Type, X, static_cast<Val>(Set.front()), true};
  };
  auto nonCritViolation = [&](AccessType Type) {
    return MonitorViolation{Type, X, static_cast<Val>(0xff), false};
  };

  const BitSet64 &VSet = S.V[vIdx(T, X)];
  const BitSet64 &VRmwSet = S.VRmw[vIdx(T, X)];

  switch (A.K) {
  case MemAccess::Kind::Write:
  case MemAccess::Kind::Fadd:
  case MemAccess::Kind::Xchg:
    // Enabled labels: W(x,·) resp. RMW(x,v,·) for every v. Violation iff
    // some write (any value) could serve as a non-maximal RAG predecessor.
    if (!VRmwSet.empty())
      return critViolation(
          A.K == MemAccess::Kind::Write ? AccessType::W : AccessType::RMW,
          VRmwSet);
    if (Abstract && S.CVRmw[T].contains(X))
      return nonCritViolation(
          A.K == MemAccess::Kind::Write ? AccessType::W : AccessType::RMW);
    return std::nullopt;

  case MemAccess::Kind::Read:
    // Enabled: R(x,v) for every v.
    if (!VSet.empty())
      return critViolation(AccessType::R, VSet);
    if (Abstract && S.CV[T].contains(X))
      return nonCritViolation(AccessType::R);
    return std::nullopt;

  case MemAccess::Kind::Cas: {
    // Enabled: RMW(x,Expected,Desired) and R(x,v) for v ≠ Expected.
    if (VRmwSet.contains(A.Expected))
      return MonitorViolation{AccessType::RMW, X, A.Expected, true};
    BitSet64 Plain = VSet;
    Plain.remove(A.Expected);
    if (!Plain.empty())
      return critViolation(AccessType::R, Plain);
    if (Abstract && S.CV[T].contains(X))
      return nonCritViolation(AccessType::R);
    return std::nullopt;
  }

  case MemAccess::Kind::Wait:
    // Enabled: R(x,Expected) only (this is what masks benign spin-loop
    // violations, Section 2.3).
    if (VSet.contains(A.Expected))
      return MonitorViolation{AccessType::R, X, A.Expected, true};
    return std::nullopt;

  case MemAccess::Kind::Bcas:
    if (VRmwSet.contains(A.Expected))
      return MonitorViolation{AccessType::RMW, X, A.Expected, true};
    return std::nullopt;
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

/// Appends the low \p Bytes (at most 8) bytes of \p Mask, little-endian,
/// in one append.
static void appendMask(std::string &Out, uint64_t Mask, unsigned Bytes) {
  char Buf[8];
  for (unsigned I = 0; I != 8; ++I)
    Buf[I] = static_cast<char>(Mask >> (8 * I));
  Out.append(Buf, Bytes);
}

// In abstract mode value sets only ever contain critical values; pack
// them into ceil(|Val(P,y)|/8) bytes (this is the Section 5.1 metadata
// bound: 2(|Tid|+|Loc|)·Σ_x |Val(P,x)| bits instead of full domains).
void SCMonitor::appendValSet(std::string &Out, const BitSet64 &B,
                             LocId Y) const {
  if (!Abstract) {
    appendMask(Out, B.mask(), (NumVals + 7) / 8);
    return;
  }
  uint64_t Packed = 0;
  unsigned Bit = 0;
  for (unsigned V : Crit[Y]) {
    if (B.contains(V))
      Packed |= static_cast<uint64_t>(1) << Bit;
    ++Bit;
  }
  appendMask(Out, Packed, (Bit + 7) / 8);
}

void SCMonitor::serializeGlobal(const State &S, std::string &Out) const {
  unsigned LocB = (NumLocs + 7) / 8;
  Out.append(reinterpret_cast<const char *>(S.M.data()), S.M.size());
  for (const BitSet64 &B : S.MSC)
    appendMask(Out, B.mask(), LocB);
  for (const BitSet64 &B : S.WSC)
    appendMask(Out, B.mask(), LocB);
  for (unsigned I = 0; I != S.W.size(); ++I)
    appendValSet(Out, S.W[I], static_cast<LocId>(I % NumLocs));
  for (unsigned I = 0; I != S.WRmw.size(); ++I)
    appendValSet(Out, S.WRmw[I], static_cast<LocId>(I % NumLocs));
  for (const BitSet64 &B : S.CW)
    appendMask(Out, B.mask(), LocB);
  for (const BitSet64 &B : S.CWRmw)
    appendMask(Out, B.mask(), LocB);
}

void SCMonitor::serializeThread(const State &S, unsigned T,
                                std::string &Out) const {
  unsigned LocB = (NumLocs + 7) / 8;
  appendMask(Out, S.VSC[T].mask(), LocB);
  for (unsigned X = 0; X != NumLocs; ++X)
    appendValSet(Out, S.V[T * NumLocs + X], static_cast<LocId>(X));
  for (unsigned X = 0; X != NumLocs; ++X)
    appendValSet(Out, S.VRmw[T * NumLocs + X], static_cast<LocId>(X));
  if (!S.CV.empty()) {
    appendMask(Out, S.CV[T].mask(), LocB);
    appendMask(Out, S.CVRmw[T].mask(), LocB);
  }
}

void SCMonitor::serialize(const State &S, std::string &Out) const {
  serializeComponents(S, Out, [] {});
}

//===----------------------------------------------------------------------===//
// Checkpoint codec
//===----------------------------------------------------------------------===//

namespace {

void encodeMasks(std::string &Out, const std::vector<BitSet64> &V) {
  for (const BitSet64 &B : V) {
    uint64_t M = B.mask();
    Out.append(reinterpret_cast<const char *>(&M), sizeof(M));
  }
}

bool decodeMasks(BinReader &R, std::vector<BitSet64> &V, size_t N) {
  V.assign(N, BitSet64());
  for (size_t I = 0; I != N; ++I)
    V[I] = BitSet64::fromMask(R.u64());
  return !R.fail();
}

} // namespace

void SCMonitor::encodeState(const State &S, std::string &Out) const {
  Out.append(reinterpret_cast<const char *>(S.M.data()), S.M.size());
  encodeMasks(Out, S.VSC);
  encodeMasks(Out, S.MSC);
  encodeMasks(Out, S.WSC);
  encodeMasks(Out, S.V);
  encodeMasks(Out, S.VRmw);
  encodeMasks(Out, S.W);
  encodeMasks(Out, S.WRmw);
  encodeMasks(Out, S.CV);
  encodeMasks(Out, S.CVRmw);
  encodeMasks(Out, S.CW);
  encodeMasks(Out, S.CWRmw);
}

bool SCMonitor::decodeState(BinReader &R, State &S) const {
  // All lengths are fixed by the program dimensions + the abstraction
  // flag, so nothing is length-prefixed.
  S.M.assign(NumLocs, 0);
  R.bytes(S.M.data(), NumLocs);
  size_t AbsT = Abstract ? NumThreads : 0;
  size_t AbsL = Abstract ? NumLocs : 0;
  return decodeMasks(R, S.VSC, NumThreads) &&
         decodeMasks(R, S.MSC, NumLocs) && decodeMasks(R, S.WSC, NumLocs) &&
         decodeMasks(R, S.V, size_t(NumThreads) * NumLocs) &&
         decodeMasks(R, S.VRmw, size_t(NumThreads) * NumLocs) &&
         decodeMasks(R, S.W, size_t(NumLocs) * NumLocs) &&
         decodeMasks(R, S.WRmw, size_t(NumLocs) * NumLocs) &&
         decodeMasks(R, S.CV, AbsT) && decodeMasks(R, S.CVRmw, AbsT) &&
         decodeMasks(R, S.CW, AbsL) && decodeMasks(R, S.CWRmw, AbsL);
}
