//===- lang/Step.h - Thread-local step semantics ---------------*- C++ -*-===//
///
/// \file
/// The LTS induced by a sequential program (Figure 2). A thread state is a
/// pair ⟨pc, Φ⟩ of program counter and register file. Inspecting a thread
/// yields either a silent (ε) step, a halt, an assertion failure, or a
/// *memory access descriptor* that characterizes the set of labels the
/// thread currently enables; memory subsystems then pick among those
/// labels. This factoring lets one program front-end drive every memory
/// subsystem (SC, RA, TSO, execution graphs, the SCM monitor) and lets the
/// monitor evaluate the Theorem 5.3 conditions, which quantify over
/// enabled labels.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_LANG_STEP_H
#define ROCKER_LANG_STEP_H

#include "lang/Label.h"
#include "lang/Program.h"

#include <cassert>

namespace rocker {

/// Thread-local state ⟨pc, Φ⟩ of Figure 2.
struct ThreadState {
  uint32_t Pc = 0;
  RegFile Regs;

  static ThreadState initial(const SequentialProgram &S) {
    ThreadState TS;
    TS.Regs.assign(S.NumRegs, 0);
    return TS;
  }

  friend bool operator==(const ThreadState &A, const ThreadState &B) {
    return A.Pc == B.Pc && A.Regs == B.Regs;
  }
};

/// A pending memory access: the memory-touching instruction at the current
/// pc with its expressions evaluated under Φ. Characterizes the labels the
/// thread enables (see forEachEnabledLabel):
///
///   Write:  { W(x,WriteVal) }
///   Read:   { R(x,v) | v ∈ Val }
///   Fadd:   { RMW(x,v,v+Addend) | v ∈ Val }
///   Xchg:   { RMW(x,v,NewVal) | v ∈ Val }
///   Cas:    { RMW(x,Expected,Desired) } ∪ { R(x,v) | v ≠ Expected }
///   Wait:   { R(x,Expected) }
///   Bcas:   { RMW(x,Expected,Desired) }
struct MemAccess {
  enum class Kind : uint8_t { Write, Read, Fadd, Xchg, Cas, Wait, Bcas };
  Kind K;
  LocId Loc;
  bool IsNA;
  Val WriteVal; ///< Write: value stored.
  Val Addend;   ///< Fadd: increment.
  Val NewVal;   ///< Xchg: value stored.
  Val Expected; ///< Cas/Wait/Bcas: expected read value.
  Val Desired;  ///< Cas/Bcas: value stored on success.

  bool isWriteOnly() const { return K == Kind::Write; }
};

/// How a reading access treats a candidate read value.
enum class ReadOutcome : uint8_t {
  Blocked,   ///< The access does not enable reading this value.
  PlainRead, ///< Enabled as a plain read label R(x,v).
  Rmw        ///< Enabled as an RMW label RMW(x,v,w).
};

/// Classifies reading value \p V through access \p A (not for Write).
inline ReadOutcome classifyRead(const MemAccess &A, Val V) {
  switch (A.K) {
  case MemAccess::Kind::Write:
    assert(false && "write access does not read");
    return ReadOutcome::Blocked;
  case MemAccess::Kind::Read:
    return ReadOutcome::PlainRead;
  case MemAccess::Kind::Fadd:
  case MemAccess::Kind::Xchg:
    return ReadOutcome::Rmw;
  case MemAccess::Kind::Cas:
    return V == A.Expected ? ReadOutcome::Rmw : ReadOutcome::PlainRead;
  case MemAccess::Kind::Wait:
    return V == A.Expected ? ReadOutcome::PlainRead : ReadOutcome::Blocked;
  case MemAccess::Kind::Bcas:
    return V == A.Expected ? ReadOutcome::Rmw : ReadOutcome::Blocked;
  }
  return ReadOutcome::Blocked;
}

/// The value an RMW access writes after reading \p VR.
inline Val rmwWriteVal(const MemAccess &A, Val VR, unsigned NumVals) {
  switch (A.K) {
  case MemAccess::Kind::Fadd:
    return static_cast<Val>((VR + A.Addend) % NumVals);
  case MemAccess::Kind::Xchg:
    return A.NewVal;
  case MemAccess::Kind::Cas:
  case MemAccess::Kind::Bcas:
    return A.Desired;
  default:
    assert(false && "not an RMW-capable access");
    return 0;
  }
}

/// The label produced when access \p A reads value \p V (must not be
/// Blocked), or the unique write label for a Write access.
inline Label labelForRead(const MemAccess &A, Val V, unsigned NumVals) {
  ReadOutcome O = classifyRead(A, V);
  assert(O != ReadOutcome::Blocked && "label for blocked read");
  if (O == ReadOutcome::Rmw)
    return Label::rmw(A.Loc, V, rmwWriteVal(A, V, NumVals));
  return Label::read(A.Loc, V, A.IsNA);
}

/// Enumerates all labels enabled by \p A (program side). \p F receives a
/// const Label &.
template <typename Fn>
void forEachEnabledLabel(const MemAccess &A, unsigned NumVals, Fn F) {
  if (A.K == MemAccess::Kind::Write) {
    F(Label::write(A.Loc, A.WriteVal, A.IsNA));
    return;
  }
  for (unsigned V = 0; V != NumVals; ++V) {
    if (classifyRead(A, static_cast<Val>(V)) == ReadOutcome::Blocked)
      continue;
    F(labelForRead(A, static_cast<Val>(V), NumVals));
  }
}

/// The result of inspecting a thread at its current state.
struct ThreadStep {
  enum class Kind : uint8_t { Halted, Local, AssertFail, Access };
  Kind K = Kind::Halted;
  ThreadState Next; ///< For Local: successor state.
  MemAccess A;      ///< For Access.
};

/// Computes the thread's step at state \p TS (Figure 2 transitions).
ThreadStep inspectThread(const Program &P, ThreadId T, const ThreadState &TS);
/// inspectThread into \p Out, reusing its register buffer (\p Out.Next
/// is meaningful only for Local steps).
void inspectThreadInto(const Program &P, ThreadId T, const ThreadState &TS,
                       ThreadStep &Out);

/// Advances the thread past its pending access, given the label the memory
/// subsystem selected: bumps pc and writes the destination register.
ThreadState applyAccess(const Program &P, ThreadId T, const ThreadState &TS,
                        const MemAccess &A, const Label &L);
/// applyAccess on \p TS in place (no register-file copy).
void applyAccessInPlace(const Program &P, ThreadId T, ThreadState &TS,
                        const MemAccess &A, const Label &L);

} // namespace rocker

#endif // ROCKER_LANG_STEP_H
