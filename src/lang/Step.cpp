//===- lang/Step.cpp - Thread-local step semantics -------------------------===//

#include "lang/Step.h"

using namespace rocker;

namespace {

/// Fills the ThreadStep for the instruction at the current pc.
struct Inspector {
  const Program &P;
  const ThreadState &TS;
  ThreadStep &R;

  unsigned modulus() const { return P.NumVals; }

  void local(uint32_t NextPc) const {
    R.K = ThreadStep::Kind::Local;
    R.Next = TS; // Copy-assignment reuses R's register buffer.
    R.Next.Pc = NextPc;
  }

  void access(const MemAccess &A) const {
    R.K = ThreadStep::Kind::Access;
    R.A = A;
  }

  void operator()(const AssignInst &I) const {
    local(TS.Pc + 1);
    R.Next.Regs[I.Dst] = I.E.evaluate(TS.Regs, modulus());
  }

  void operator()(const IfGotoInst &I) const {
    Val C = I.Cond.evaluate(TS.Regs, modulus());
    local(C != 0 ? I.Target : TS.Pc + 1);
  }

  void operator()(const AssertInst &I) const {
    if (I.Cond.evaluate(TS.Regs, modulus()) != 0)
      local(TS.Pc + 1);
    else
      R.K = ThreadStep::Kind::AssertFail;
  }

  void operator()(const StoreInst &I) const {
    MemAccess A{};
    A.K = MemAccess::Kind::Write;
    A.Loc = I.Loc;
    A.IsNA = P.isNaLoc(I.Loc);
    A.WriteVal = I.E.evaluate(TS.Regs, modulus());
    access(A);
  }

  void operator()(const LoadInst &I) const {
    MemAccess A{};
    A.K = MemAccess::Kind::Read;
    A.Loc = I.Loc;
    A.IsNA = P.isNaLoc(I.Loc);
    access(A);
  }

  void operator()(const FaddInst &I) const {
    MemAccess A{};
    A.K = MemAccess::Kind::Fadd;
    A.Loc = I.Loc;
    A.IsNA = false;
    A.Addend = I.Add.evaluate(TS.Regs, modulus());
    access(A);
  }

  void operator()(const XchgInst &I) const {
    MemAccess A{};
    A.K = MemAccess::Kind::Xchg;
    A.Loc = I.Loc;
    A.IsNA = false;
    A.NewVal = I.New.evaluate(TS.Regs, modulus());
    access(A);
  }

  void operator()(const CasInst &I) const {
    MemAccess A{};
    A.K = MemAccess::Kind::Cas;
    A.Loc = I.Loc;
    A.IsNA = false;
    A.Expected = I.Expected.evaluate(TS.Regs, modulus());
    A.Desired = I.Desired.evaluate(TS.Regs, modulus());
    access(A);
  }

  void operator()(const WaitInst &I) const {
    MemAccess A{};
    A.K = MemAccess::Kind::Wait;
    A.Loc = I.Loc;
    A.IsNA = false;
    A.Expected = I.Expected.evaluate(TS.Regs, modulus());
    access(A);
  }

  void operator()(const BcasInst &I) const {
    MemAccess A{};
    A.K = MemAccess::Kind::Bcas;
    A.Loc = I.Loc;
    A.IsNA = false;
    A.Expected = I.Expected.evaluate(TS.Regs, modulus());
    A.Desired = I.Desired.evaluate(TS.Regs, modulus());
    access(A);
  }
};

} // namespace

ThreadStep rocker::inspectThread(const Program &P, ThreadId T,
                                 const ThreadState &TS) {
  ThreadStep R;
  inspectThreadInto(P, T, TS, R);
  return R;
}

void rocker::inspectThreadInto(const Program &P, ThreadId T,
                               const ThreadState &TS, ThreadStep &Out) {
  const SequentialProgram &S = P.Threads[T];
  if (TS.Pc >= S.Insts.size())
    Out.K = ThreadStep::Kind::Halted;
  else
    std::visit(Inspector{P, TS, Out}, S.Insts[TS.Pc]);
}

ThreadState rocker::applyAccess(const Program &P, ThreadId T,
                                const ThreadState &TS, const MemAccess &A,
                                const Label &L) {
  ThreadState Next = TS;
  applyAccessInPlace(P, T, Next, A, L);
  return Next;
}

void rocker::applyAccessInPlace(const Program &P, ThreadId T,
                                ThreadState &TS, const MemAccess &,
                                const Label &L) {
  const SequentialProgram &S = P.Threads[T];
  assert(TS.Pc < S.Insts.size() && "applyAccess on halted thread");
  const Inst &I = S.Insts[TS.Pc++];
  // Cas writes its destination both on success (RMW label, reads
  // Expected) and on failure (plain read label): the read value
  // (Figure 2). Store, Wait, Bcas: no register effect.
  if (const auto *Load = std::get_if<LoadInst>(&I))
    TS.Regs[Load->Dst] = L.ValR;
  else if (const auto *Fadd = std::get_if<FaddInst>(&I); Fadd && Fadd->HasDst)
    TS.Regs[Fadd->Dst] = L.ValR;
  else if (const auto *Xchg = std::get_if<XchgInst>(&I); Xchg && Xchg->HasDst)
    TS.Regs[Xchg->Dst] = L.ValR;
  else if (const auto *Cas = std::get_if<CasInst>(&I); Cas && Cas->HasDst)
    TS.Regs[Cas->Dst] = L.ValR;
}
