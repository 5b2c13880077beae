//===- driver/PreludeSnapshot.h - Elaborate-once prelude sharing -----------===//
///
/// \file
/// The prelude snapshot: the standard prelude, parsed and elaborated
/// exactly once per process into an immutable, shareable front-end state.
/// Per-job compilation *layers* on the snapshot instead of re-doing it:
/// the job's StringInterner, Env, and TypeContext each gain an
/// immutable-base + mutable-overlay split, the job's Elaborator is seeded
/// with the snapshot's counters and builtin-exception handles, and the
/// final typed program is the snapshot's declarations concatenated with
/// the job's — bit-identical to the legacy path that prepends the prelude
/// source text (`--prelude=inline`, kept as a differential oracle). Only
/// the prelude functions the job uses, directly or through other prelude
/// functions, reach LEXP and CPS: translation drops every unused
/// top-level function (lexp/Translate.h), on either path alike.
///
/// Two independently elaborated layers are kept, because minimum typing
/// derivations (elab/Mtd.cpp) rewrite type schemes in place: a plain
/// layer for the non-MTD variants and an MTD-processed layer for the
/// rest. MTD distributes over the prelude/user split — prelude top-level
/// bindings are Exported and therefore poisoned, and prelude-internal
/// bindings only ever see prelude-internal instantiation evidence — so
/// running the prelude's pass at snapshot build time and the user's pass
/// per job grounds exactly the vars the fused pass would.
///
/// Safety of lock-free sharing: after construction a *freeze* pass walks
/// every type reachable from a layer (environment and typed program),
/// fully compresses union-find links so job-side `TypeContext::resolve`
/// never writes to snapshot nodes, and verifies that no un-generalized
/// unbound type variable is reachable (job-side unification can only
/// mutate unbound vars, and `bindVar` rejects generalized ones). If
/// verification fails, `get()` returns null and callers fall back to the
/// inline path — a robustness valve, not an expected outcome.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_DRIVER_PRELUDESNAPSHOT_H
#define SMLTC_DRIVER_PRELUDESNAPSHOT_H

#include "elab/Elaborator.h"
#include "elab/Mtd.h"

#include <atomic>
#include <memory>
#include <string>

namespace smltc {

/// One immutable elaborated-prelude layer (plain or MTD-processed). Owns
/// its arena, type context, and environment; everything it exposes is
/// read-only after the snapshot freeze.
struct PreludeLayer {
  std::unique_ptr<Arena> A;
  std::unique_ptr<TypeContext> Types;
  std::shared_ptr<Env> E; ///< top-level env; jobs layer overlays on it
  AProgram Prog;          ///< elaborated prelude declarations (no Result)
  ElabSeed Seed;          ///< overlay seed: env base, exns, id counters
  TypeContext::Counters TypeSeed; ///< var/stamp counters to resume from
  MtdStats Mtd; ///< the prelude's own MTD stats (zero for the plain layer)
};

/// Process-wide prelude accounting, exposed as `smltcc_prelude_*` in the
/// obs registry and summed across all threads sharing the snapshot.
struct PreludeStats {
  std::atomic<uint64_t> SnapshotHits{0};   ///< compiles served by the snapshot
  std::atomic<uint64_t> SnapshotBuilds{0}; ///< constructions (0 or 1)
  std::atomic<uint64_t> InlineFallbacks{0}; ///< snapshot unavailable
};
PreludeStats &preludeStats();

class PreludeSnapshot {
public:
  /// The process-wide snapshot, built on first use (thread-safe; batch
  /// workers and the compile server share the one instance lock-free).
  /// Returns null when construction failed its safety verification;
  /// callers must then fall back to `--prelude=inline` behavior.
  static const PreludeSnapshot *get();

  /// The layer matching the job's MTD setting.
  const PreludeLayer &layer(bool Mtd) const {
    return Mtd ? MtdLayer : PlainLayer;
  }

  /// The frozen intern table both layers share; job interners set it as
  /// their base so prelude names keep pointer-equal Symbols.
  const StringInterner &interner() const { return Interner; }

  /// Wall seconds the one-time construction took (both layers plus the
  /// freeze passes).
  double buildSeconds() const { return BuildSec; }

  /// The prelude source text (stable storage, identical to
  /// `Compiler::prelude()`).
  static const std::string &sourceText();

  /// The prelude's part of every cache key: fnv1a64 of sourceText(),
  /// computed once per process without building the snapshot, so any
  /// edit to the prelude, a function body included, changes every key
  /// that layers it on.
  static uint64_t cacheFingerprint();

private:
  PreludeSnapshot() = default;
  static std::unique_ptr<const PreludeSnapshot> build();

  StringInterner Interner;
  PreludeLayer PlainLayer;
  PreludeLayer MtdLayer;
  double BuildSec = 0;
};

} // namespace smltc

#endif // SMLTC_DRIVER_PRELUDESNAPSHOT_H
