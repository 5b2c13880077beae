//===- cps/DenseVarMap.h - Dense CVar-indexed tables -----------------------------===//
///
/// \file
/// Flat tables keyed by CPS variable number, shared by every layer that
/// looks variables up after CPS conversion (optimizer, checker, closure
/// conversion, code generation). CpsBuilder numbers variables densely
/// from 1, so a vector indexed by CVar replaces a hashed or ordered set.
/// Both tables grow on demand, so variables minted after a table was
/// first sized can be keyed too. A lookup takes any CVar: a negative or
/// out-of-range key is absent and never used as an index. Stored keys
/// must be non-negative, which checkCps guarantees for every binder.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CPS_DENSEVARMAP_H
#define SMLTC_CPS_DENSEVARMAP_H

#include "cps/Cps.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace smltc {

/// A dense CVar-keyed map with O(1) epoch-based clear.
template <typename V> class DenseVarMap {
public:
  void clear() { ++Epoch; }
  bool has(CVar K) const {
    return K >= 0 && static_cast<size_t>(K) < Stamp.size() &&
           Stamp[K] == Epoch;
  }
  const V *get(CVar K) const { return has(K) ? &Val[K] : nullptr; }
  /// Precondition: K >= 0.
  void set(CVar K, const V &X) {
    grow(K);
    Val[K] = X;
    Stamp[K] = Epoch;
  }
  void erase(CVar K) {
    if (has(K))
      Stamp[K] = 0;
  }

private:
  void grow(CVar K) {
    if (static_cast<size_t>(K) >= Stamp.size()) {
      size_t N = std::max<size_t>(
          64, std::max(static_cast<size_t>(K) + 1, Stamp.size() * 2));
      Val.resize(N);
      Stamp.resize(N, 0);
    }
  }
  std::vector<V> Val;
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 1;
};

/// A dense CVar set: one bit per variable.
class DenseVarSet {
public:
  bool has(CVar K) const {
    return K >= 0 && static_cast<size_t>(K) / 64 < Bits.size() &&
           (Bits[static_cast<size_t>(K) / 64] >> (K % 64) & 1);
  }
  /// Adds \p K; false if it was already present. Precondition: K >= 0.
  bool insert(CVar K) {
    size_t W = static_cast<size_t>(K) / 64;
    if (W >= Bits.size())
      Bits.resize(std::max<size_t>(4, std::max(W + 1, Bits.size() * 2)), 0);
    uint64_t M = uint64_t{1} << (K % 64);
    if (Bits[W] & M)
      return false;
    Bits[W] |= M;
    return true;
  }
  void erase(CVar K) {
    if (has(K))
      Bits[static_cast<size_t>(K) / 64] &= ~(uint64_t{1} << (K % 64));
  }

private:
  std::vector<uint64_t> Bits;
};

} // namespace smltc

#endif // SMLTC_CPS_DENSEVARMAP_H
