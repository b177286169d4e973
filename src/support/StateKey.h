//===- support/StateKey.h - Shared state-key serialization -----*- C++ -*-===//
///
/// \file
/// The one place that defines how explorer state keys are built. The
/// exploration engine (parexplore/ParallelExplorer.h), its BFS replay
/// (explore/Explorer.h) and the compressed visited set (support/StateInterner.h) serialize
/// thread states and program-state projections through these helpers, so
/// the encodings cannot drift apart — the sequential and parallel engines
/// previously carried copy-pasted key builders, and both truncated the
/// 32-bit pc to 16 bits, aliasing distinct states in programs with more
/// than 2^16 instructions per thread.
///
/// Program counters are LEB128-varint encoded: one byte for pcs below 128
/// (smaller than the old fixed two-byte field on typical programs), and
/// up to five bytes for the full 32-bit range. Varints are self-delimiting
/// and each thread's register count is fixed per program, so the
/// concatenated key remains uniquely decodable (injective).
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_STATEKEY_H
#define ROCKER_SUPPORT_STATEKEY_H

#include "lang/Step.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rocker {

/// Appends \p V as a LEB128 varint (1 byte below 128, 5 bytes max).
inline void appendVarUint32(std::string &Out, uint32_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>(V | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

/// Appends one thread's ⟨pc, Φ⟩ component: varint pc, then the raw
/// register bytes (fixed count per thread).
inline void appendThreadStateKey(std::string &Out, const ThreadState &TS) {
  appendVarUint32(Out, TS.Pc);
  Out.append(reinterpret_cast<const char *>(TS.Regs.data()),
             TS.Regs.size());
}

/// The program-state projection key (pcs + registers of all threads) used
/// by the state-robustness oracles and CollectProgramStates.
inline std::string programStateKey(const std::vector<ThreadState> &Threads) {
  std::string Key;
  Key.reserve(16 * Threads.size());
  for (const ThreadState &TS : Threads)
    appendThreadStateKey(Key, TS);
  return Key;
}

/// The full product-state key: all thread components followed by the
/// memory subsystem's serialization.
template <typename MemSys>
std::string productStateKey(const MemSys &Mem,
                            const std::vector<ThreadState> &Threads,
                            const typename MemSys::State &M) {
  std::string Key;
  Key.reserve(64);
  for (const ThreadState &TS : Threads)
    appendThreadStateKey(Key, TS);
  Mem.serialize(M, Key);
  return Key;
}

} // namespace rocker

#endif // ROCKER_SUPPORT_STATEKEY_H
