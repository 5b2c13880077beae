//===- cps/CpsOpt.cpp - CPS optimizer --------------------------------------------===//
//
// ShrinkOptimizer implements the Section 5.2 reductions: one up-front
// census over dense CVar-indexed tables (CpsCheck guarantees unique
// binders and def-dominates-use, so one global table is sound),
// incrementally maintained as each contraction fires, with in-place tree
// splicing instead of per-phase rebuilds. Shrinking follows Appel & Jim,
// "Shrinking lambda expressions in linear time": a once-called
// function's body moves to its call site and is contracted there, and a
// value binding whose count drops to zero is removed before the phase
// ends, so a chain of any depth collapses in one phase. Each phase plans
// the non-shrinking expansions (inline-small, Kranz flattening) from the
// live counts, then makes one top-down sweep applying the shrinking
// reductions (dead code, select folding, constant and branch folding,
// eta, wrap/unwrap cancellation, record-copy elimination, beta of
// once-called functions) together with the planned expansions. It runs
// until a phase fires nothing.
//
// Tests hold it to a host evaluation of generated programs
// (tests/test_property.cpp) and to every corpus row's pinned counts
// (tests/corpus_counts.tsv).
//
//===----------------------------------------------------------------------===//

#include "cps/CpsOpt.h"

#include "cps/CpsCheck.h"
#include "cps/DenseVarMap.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace smltc;

namespace {

std::atomic<bool> AuditEnabled{false};

/// Phases a shrink run may take before the optimizer gives
/// up and reports non-convergence. Contraction rules provably shrink and
/// expansion plans are bounded, so reaching this is a rule bug, not a
/// program property; the driver turns it into a compile error instead of
/// letting the process spin.
constexpr int kPhaseSafetyCeiling = 1000;

/// Process-wide histogram of phases-to-normal-form per shrink run,
/// registered into the obs registry by registerCpsOptMetrics.
std::shared_ptr<obs::Histogram> &shrinkPhaseHistogram() {
  static std::shared_ptr<obs::Histogram> H =
      std::make_shared<obs::Histogram>(std::vector<double>{
          1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 64, 128});
  return H;
}

void bodySizeUpTo(const Cexp *E, size_t Cap, size_t &N) {
  if (!E || N > Cap)
    return;
  if (E->K == Cexp::Kind::Fix && E->Funs.empty())
    return bodySizeUpTo(E->C1, Cap, N);
  ++N;
  bodySizeUpTo(E->C1, Cap, N);
  bodySizeUpTo(E->C2, Cap, N);
  for (const CFun *F : E->Funs)
    bodySizeUpTo(F->Body, Cap, N);
}

/// Whether E has at most Cap nodes; bails out of the walk as soon as the
/// cap is exceeded, so probing a large function for the inline-small
/// threshold costs O(Cap), not O(|body|) — this runs once per candidate
/// per phase in the planner. An empty Fix (one whose only member moved
/// to its call site) executes nothing and is not counted.
bool bodyAtMost(const Cexp *E, size_t Cap) {
  size_t N = 0;
  bodySizeUpTo(E, Cap, N);
  return N <= Cap;
}

/// A scoped map with an undo trail (bindings dominate uses in CPS, but
/// sibling branches must not see each other's bindings).
template <typename V> class ScopedMap {
public:
  void set(CVar K, V Val) {
    Trail.push_back(K);
    Map.set(K, Val);
  }
  const V *get(CVar K) const { return Map.get(K); }
  size_t mark() const { return Trail.size(); }
  void popTo(size_t M) {
    while (Trail.size() > M) {
      Map.erase(Trail.back());
      Trail.pop_back();
    }
  }

private:
  DenseVarMap<V> Map;
  std::vector<CVar> Trail;
};

/// Phase tracing: SMLTC_CPSOPT_TRACE=<dir> writes one CPS dump per
/// optimizer phase, so a rule change can be diffed phase by phase.
static bool tracingPhases() { return getenv("SMLTC_CPSOPT_TRACE") != nullptr; }

static void tracePhase(const char *Engine, int Round, const Cexp *Program,
                       const std::string &Plan) {
  const char *Dir = getenv("SMLTC_CPSOPT_TRACE");
  if (!Dir)
    return;
  std::string Path =
      std::string(Dir) + "/" + Engine + "_" + std::to_string(Round) + ".txt";
  if (FILE *F = fopen(Path.c_str(), "w")) {
    std::string S = printCps(Program);
    fprintf(F, "PLAN %s\n%s", Plan.c_str(), S.c_str());
    fclose(F);
  }
}

//===----------------------------------------------------------------------===//
// Shrink engine
//===----------------------------------------------------------------------===//

/// Shrinking reductions over an incrementally maintained census.
///
/// One census walk populates dense CVar-indexed tables (use/call counts,
/// def nodes, fn defs); every contraction then updates the counts for
/// exactly the occurrences it adds or removes, so the census always
/// describes the *virtual* tree (the physical tree with the pending
/// substitution applied). Contractions splice the tree in place
/// (`*E = *E->C1`), so unchanged subtrees are never re-cloned.
///
/// Shrinking reductions (monotonically decrease tree size, run to
/// fixpoint): dead bindings/functions, select-from-known-record, constant
/// and branch folding, wrap/unwrap cancellation, record-copy elimination,
/// eta, beta of once-called functions. A once-called function is neither
/// planned nor copied: its body moves to the call site, and the sweep
/// continues into it. Bindings whose count drops to zero behind the sweep
/// are removed at the end of the phase, cascading through their operands.
/// Non-shrinking expansions (inline-small, Kranz flattening) are planned
/// per phase from the live counts.
class ShrinkOptimizer {
public:
  ShrinkOptimizer(Arena &A, const CompilerOptions &Opts, CVar &MaxVar,
                  CpsOptStats &Stats)
      : A(A), Opts(Opts), B(A, MaxVar), MaxVar(MaxVar), Stats(Stats) {}

  Cexp *run(Cexp *Program) {
    ensure(B.maxVar());
    {
      SMLTC_SPAN("cps_shrink_census", "compile");
      census(Program, nullptr);
    }
    // Translation already dropped unused top-level functions (the
    // prelude's among them); this sweep keeps dead local functions, and
    // whatever only they name, from the shrinker.
    sweepUnreachable(Program);
    bool Audit = AuditEnabled.load(std::memory_order_relaxed);
    // Each phase plans the expansions on the live counts, sweeps the
    // tree once, visits the bodies the sweep skipped, and removes the
    // bindings that died this phase. Phases repeat until one fires
    // nothing, behind a safety ceiling.
    EtaOn = !(Opts.CpsOptDisable & kCpsRuleEta);
    WrapOn = !(Opts.CpsOptDisable & kCpsRuleWrapCancel) && Opts.CpsWrapCancel;
    int Phase = 0;
    bool Progressed = true;
    for (; Phase < kPhaseSafetyCeiling; ++Phase) {
      bool HavePlan;
      {
        SMLTC_SPAN("cps_expand_plan", "compile");
        HavePlan = planExpand(Program);
      }
      uint64_t PhaseStart = Contractions;
      {
        SMLTC_SPAN(HavePlan ? "cps_expand" : "cps_shrink", "compile");
        NewRuleFired = false;
        resetScopes();
        visit(Program);
        visitDeferred();
        removeDeadBindings();
        if (Audit)
          auditCensus(Program);
      }
#ifndef NDEBUG
      if (NewRuleFired) {
        CpsCheckResult CR = checkCps(Program);
        assert(CR.Ok && "CPS check failed after a fixpoint-era rule");
        (void)CR;
      }
#endif
      if (HavePlan)
        ++Stats.ExpandPasses;
      ++Stats.Rounds;
      if (tracingPhases()) {
        std::string Plan;
        for (size_t V = 0; V < PlanSmallV.size(); ++V) {
          if (PlanSmallV[V])
            Plan += " s" + std::to_string(V);
          if (PlanFlattenV[V])
            Plan += " f" + std::to_string(V);
        }
        tracePhase("shrink", Phase, Program, Plan);
      }
      Progressed = Contractions != PhaseStart;
      if (!Progressed) {
        ++Phase;
        break;
      }
    }
    Stats.HitSafetyCeiling = Phase == kPhaseSafetyCeiling && Progressed;
    // A folded branch can leave a recursive function named only by its
    // own body, which no count-based rule removes.
    sweepUnreachable(Program);
    // At a true fixpoint every kept occurrence has been rewritten to its
    // resolved form, so the maintained census must equal a raw recount;
    // verify with the census half of CpsCheck in audit mode and in debug
    // builds.
    bool DebugBuild = false;
#ifndef NDEBUG
    DebugBuild = true;
#endif
    if (!Progressed && (Audit || DebugBuild)) {
      CpsCheckResult CR = checkCpsCensus(
          Program, UseV, CallsV, [this](CValue V) { return rv(V); });
      if (!CR.Ok)
        ++Stats.CensusAuditFailures;
    }
    shrinkPhaseHistogram()->observe(static_cast<double>(Phase));
    MaxVar = B.maxVar();
    return Program;
  }

private:
  //===--------------------------------------------------------------------===//
  // Dense incremental census
  //===--------------------------------------------------------------------===//

  void ensure(CVar Hi) {
    if (Hi >= 0 && static_cast<size_t>(Hi) < UseV.size())
      return;
    size_t N = std::max<size_t>(
        64, std::max(static_cast<size_t>(Hi) + 1, UseV.size() * 2));
    UseV.resize(N, 0);
    CallsV.resize(N, 0);
    DefNodeV.resize(N, nullptr);
    FnDefV.resize(N, nullptr);
    FixNodeV.resize(N, nullptr);
    VarTyV.resize(N, Cty());
    SubstV.resize(N, CValue());
    HasSubstV.resize(N, 0);
    InlineOnV.resize(N, 0);
    InBodyV.resize(N, 0);
    PlanSmallV.resize(N, 0);
    PlanFlattenV.resize(N, 0);
    OwsV.resize(N, 0);
    SelfRecPV.resize(N, 0);
    LoopNestPV.resize(N, 0);
  }

  /// Resolves a value through the pending substitution.
  CValue rv(CValue V) const {
    while (V.isVar() && HasSubstV[V.V])
      V = SubstV[V.V];
    return V;
  }

  void addUse(CValue V, bool Call = false) {
    V = rv(V);
    if (!V.isVar())
      return;
    ++UseV[V.V];
    if (Call)
      ++CallsV[V.V];
  }

  /// Drops one occurrence of \p V. A variable whose count reaches zero is
  /// queued for removeDeadBindings, which deletes its binding if the sweep
  /// has already passed it.
  void dropUse(CValue V, bool Call = false) {
    V = rv(V);
    if (!V.isVar())
      return;
    CVar X = V.V;
    if (UseV[X] > 0 && --UseV[X] == 0)
      DeadQ.push_back(X);
    if (Call && CallsV[X] > 0)
      --CallsV[X];
  }

  /// A function in scope with exactly one occurrence, a call: the sweep
  /// moves its body to that call.
  bool onceCalled(CVar F) const {
    return FnDefV[F] && UseV[F] == 1 && CallsV[F] == 1;
  }

  /// Substitutes \p Target (already resolved) for every remaining use of
  /// \p X, transferring X's counts so the census keeps describing the
  /// virtual tree.
  void bindSubst(CVar X, CValue Target) {
    HasSubstV[X] = 1;
    SubstV[X] = Target;
    if (Target.isVar()) {
      UseV[Target.V] += UseV[X];
      CallsV[Target.V] += CallsV[X];
    }
    UseV[X] = 0;
    CallsV[X] = 0;
  }

  void defineVar(CVar W, Cty T, Cexp *Node) {
    VarTyV[W] = T;
    DefNodeV[W] = Node;
  }

  /// The up-front census: counts every occurrence and records def nodes.
  void census(Cexp *E, const CFun *Owner) {
    for (;;) {
      switch (E->K) {
      case Cexp::Kind::Record:
        for (const CField &F : E->Fields)
          addUse(F.V);
        defineVar(E->W, E->WTy, E);
        E = E->C1;
        continue;
      case Cexp::Kind::Select:
        addUse(E->F);
        defineVar(E->W, E->WTy, E);
        E = E->C1;
        continue;
      case Cexp::Kind::App:
        addUse(E->F, /*Call=*/true);
        for (const CValue &V : E->Args)
          addUse(V);
        return;
      case Cexp::Kind::Fix:
        for (CFun *F : E->Funs) {
          FnDefV[F->Name] = F;
          FixNodeV[F->Name] = E;
          for (size_t I = 0; I < F->Params.size(); ++I)
            VarTyV[F->Params[I]] = F->ParamTys[I];
        }
        for (CFun *F : E->Funs)
          census(F->Body, F);
        E = E->C1;
        continue;
      case Cexp::Kind::Branch:
        for (const CValue &V : E->Args)
          addUse(V);
        census(E->C1, Owner);
        E = E->C2;
        continue;
      case Cexp::Kind::Arith:
      case Cexp::Kind::Pure:
      case Cexp::Kind::Looker:
      case Cexp::Kind::CCall:
        for (const CValue &V : E->Args)
          addUse(V);
        defineVar(E->W, E->WTy, E);
        E = E->C1;
        continue;
      case Cexp::Kind::Setter:
        for (const CValue &V : E->Args)
          addUse(V);
        E = E->C1;
        continue;
      case Cexp::Kind::Halt:
        addUse(E->F);
        return;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // In-place splicing
  //===--------------------------------------------------------------------===//

  /// After `*E = *C`, def tables pointing at C's content must point at E.
  void reanchor(Cexp *E) {
    switch (E->K) {
    case Cexp::Kind::Record:
    case Cexp::Kind::Select:
    case Cexp::Kind::Arith:
    case Cexp::Kind::Pure:
    case Cexp::Kind::Looker:
    case Cexp::Kind::CCall:
      if (DefNodeV[E->W])
        DefNodeV[E->W] = E;
      break;
    case Cexp::Kind::Fix:
      for (CFun *F : E->Funs)
        if (FnDefV[F->Name] == F)
          FixNodeV[F->Name] = E;
      break;
    default:
      break;
    }
  }

  void replaceWith(Cexp *E, Cexp *C) {
    *E = *C;
    reanchor(E);
  }

  /// Removes a straight-line node by replacing it with its continuation.
  void spliceOut(Cexp *E) { replaceWith(E, E->C1); }

  bool deadRemovable(const Cexp *D) const {
    switch (D->K) {
    case Cexp::Kind::Record:
      return D->RK != RecordKind::Ref &&
             (D->RK != RecordKind::FloatBox || Opts.CpsWrapCancel);
    case Cexp::Kind::Select:
    case Cexp::Kind::Pure:
      return true;
    case Cexp::Kind::Arith:
      return D->Op != CpsOp::IDiv && D->Op != CpsOp::IMod;
    case Cexp::Kind::Looker:
      return D->Op != CpsOp::LoadCell && D->Op != CpsOp::LoadByte;
    default:
      return false;
    }
  }

  /// Removes a dead value-binding node, dropping its operand uses.
  void removeValueNode(Cexp *D) {
    switch (D->K) {
    case Cexp::Kind::Record:
      for (const CField &F : D->Fields)
        dropUse(F.V);
      break;
    case Cexp::Kind::Select:
      dropUse(D->F);
      break;
    case Cexp::Kind::Arith:
    case Cexp::Kind::Pure:
    case Cexp::Kind::Looker:
      for (const CValue &V : D->Args)
        dropUse(V);
      break;
    default:
      return;
    }
    DefNodeV[D->W] = nullptr;
    ++Stats.DeadRemoved;
    ++Contractions;
    spliceOut(D);
  }

  /// Drops every census count contributed by a subtree being deleted.
  void censusRemove(Cexp *E) {
    for (;;) {
      switch (E->K) {
      case Cexp::Kind::Record:
        for (const CField &F : E->Fields)
          dropUse(F.V);
        DefNodeV[E->W] = nullptr;
        E = E->C1;
        continue;
      case Cexp::Kind::Select:
        dropUse(E->F);
        DefNodeV[E->W] = nullptr;
        E = E->C1;
        continue;
      case Cexp::Kind::App:
        dropUse(E->F, /*Call=*/true);
        for (const CValue &V : E->Args)
          dropUse(V);
        return;
      case Cexp::Kind::Fix:
        for (CFun *F : E->Funs) {
          if (FnDefV[F->Name] != F)
            continue; // already unlinked elsewhere
          FnDefV[F->Name] = nullptr;
          FixNodeV[F->Name] = nullptr;
          censusRemove(F->Body);
        }
        E = E->C1;
        continue;
      case Cexp::Kind::Branch:
        for (const CValue &V : E->Args)
          dropUse(V);
        censusRemove(E->C1);
        E = E->C2;
        continue;
      case Cexp::Kind::Arith:
      case Cexp::Kind::Pure:
      case Cexp::Kind::Looker:
      case Cexp::Kind::CCall:
        for (const CValue &V : E->Args)
          dropUse(V);
        DefNodeV[E->W] = nullptr;
        E = E->C1;
        continue;
      case Cexp::Kind::Setter:
        for (const CValue &V : E->Args)
          dropUse(V);
        E = E->C1;
        continue;
      case Cexp::Kind::Halt:
        dropUse(E->F);
        return;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Contraction sweep
  //===--------------------------------------------------------------------===//

  void resolveArgs(Cexp *E) {
    CValue *Vs = E->Args.mutableBegin();
    for (size_t I = 0, N = E->Args.size(); I < N; ++I)
      Vs[I] = rv(Vs[I]);
  }

  void resolveFields(Cexp *E) {
    CField *Fs = E->Fields.mutableBegin();
    for (size_t I = 0, N = E->Fields.size(); I < N; ++I)
      Fs[I].V = rv(Fs[I].V);
  }

  void resetScopes() {
    WrapBoxOf.popTo(0);
    UnwrapOf.popTo(0);
    RecordsOf.popTo(0);
    WrapDepth = 0;
    InLoopBody = false;
  }

  void visitBody(CFun *F) {
    InBodyV[F->Name] = 1;
    visit(F->Body);
    InBodyV[F->Name] = 0;
  }

  /// After the sweep: visits the skipped bodies still in place — small
  /// functions with a call the sweep did not reach, and once-called ones
  /// whose call it never reached (dead recursion, or a function that
  /// gained or lost a call later in the sweep) — then unrolls the small
  /// loops once. None of the enclosing scope's bindings are known here,
  /// so the wrap-cancellation maps start empty.
  void visitDeferred() {
    auto Live = [this](const CFun *F) {
      return FnDefV[F->Name] == F && UseV[F->Name] > 0;
    };
    for (size_t I = 0; I < Deferred.size(); ++I) {
      CFun *F = Deferred[I];
      if (!Live(F))
        continue; // moved to its call site, or dead
      resetScopes();
      InLoopBody = SelfRecPV[F->Name] || LoopNestPV[F->Name];
      visitBody(F);
    }
    // An unrolling visit walks a body the sweep already visited, so what
    // it skips again needs no visit this phase.
    for (size_t I = 0, N = Unroll.size(); I < N; ++I) {
      CFun *F = Unroll[I];
      // A loop left with only its self-call is dead recursion.
      if (!Live(F) || onceCalled(F->Name))
        continue;
      resetScopes();
      InLoopBody = true;
      Unrolling = F->Name;
      visitBody(F);
      Unrolling = 0;
    }
    Deferred.clear();
    Unroll.clear();
  }

  /// Removes the bindings whose count dropped to zero this phase,
  /// dropping their operands' counts in turn. This runs after the sweep
  /// because a splice copies a node's continuation into it, which would
  /// orphan a node the sweep still holds; value nodes are found through
  /// DefNodeV and functions through FixNodeV, which every splice keeps
  /// current. A Fix left empty is spliced out by the next sweep.
  void removeDeadBindings() {
    while (!DeadQ.empty()) {
      CVar X = DeadQ.back();
      DeadQ.pop_back();
      if (UseV[X] != 0)
        continue;
      if (Cexp *D = DefNodeV[X]) {
        if (deadRemovable(D))
          removeValueNode(D);
      } else if (CFun *Fn = FnDefV[X]) {
        unlinkFun(Fn);
        removeDeadFun(Fn);
      }
    }
  }

  /// Deletes a dead function's binding and its body's counts; the caller
  /// takes it out of its Fix.
  void removeDeadFun(CFun *F) {
    FnDefV[F->Name] = nullptr;
    FixNodeV[F->Name] = nullptr;
    censusRemove(F->Body);
    ++Stats.DeadRemoved;
    ++Contractions;
  }

  /// Removes every function that no live region names. The program's
  /// main path is live, and a function's body becomes live when a live
  /// region names the function. Dead self- and mutual recursion keeps
  /// its own counts above zero, so only this walk finds it. Each
  /// unmarked function is unlinked from its Fix (which lies in a live
  /// region, since a function nested in a dead body goes with that body),
  /// and a Fix left empty is spliced out.
  void sweepUnreachable(Cexp *Program) {
    std::vector<uint8_t> Marked(UseV.size(), 0);
    std::vector<Cexp *> Work = {Program}, Fixes;
    auto Name = [&](const CValue &V) {
      CValue R = rv(V);
      if (R.isVar() && FnDefV[R.V] && !Marked[R.V]) {
        Marked[R.V] = 1;
        Work.push_back(FnDefV[R.V]->Body);
      }
    };
    while (!Work.empty()) {
      Cexp *E = Work.back();
      Work.pop_back();
      while (E) {
        switch (E->K) {
        case Cexp::Kind::Record:
          for (const CField &F : E->Fields)
            Name(F.V);
          break;
        case Cexp::Kind::Select:
          Name(E->F);
          break;
        case Cexp::Kind::App:
          Name(E->F);
          for (const CValue &V : E->Args)
            Name(V);
          break;
        case Cexp::Kind::Fix:
          Fixes.push_back(E);
          break;
        case Cexp::Kind::Branch:
          for (const CValue &V : E->Args)
            Name(V);
          Work.push_back(E->C1);
          E = E->C2;
          continue;
        case Cexp::Kind::Halt:
          Name(E->F);
          break;
        default:
          for (const CValue &V : E->Args)
            Name(V);
          break;
        }
        E = E->C1;
      }
    }
    // Innermost first: splicing out an empty Fix copies its continuation
    // over it, and that continuation may be a Fix later in the list.
    for (size_t I = Fixes.size(); I-- > 0;) {
      Cexp *Fx = Fixes[I];
      CFun **Fs = Fx->Funs.mutableBegin();
      size_t J = 0;
      for (size_t K = 0, N = Fx->Funs.size(); K < N; ++K) {
        CFun *F = Fs[K];
        if (FnDefV[F->Name] != F)
          continue; // unlinked earlier (stale entry)
        if (Marked[F->Name])
          Fs[J++] = F;
        else
          removeDeadFun(F);
      }
      Fx->Funs.truncate(J);
      if (J == 0)
        spliceOut(Fx);
    }
    removeDeadBindings();
  }

  void visit(Cexp *E) {
    for (;;) {
      switch (E->K) {
      case Cexp::Kind::Record: {
        resolveFields(E);
        bool FloatBoxOpt =
            E->RK != RecordKind::FloatBox || Opts.CpsWrapCancel;
        if (UseV[E->W] == 0 && E->RK != RecordKind::Ref && FloatBoxOpt) {
          removeValueNode(E);
          continue;
        }
        // Wrap/unwrap cancellation (Section 5.2).
        if (Opts.CpsWrapCancel && E->RK == RecordKind::FloatBox &&
            E->Fields.size() == 1 && E->Fields[0].V.isVar()) {
          const Cexp *SD = DefNodeV[E->Fields[0].V.V];
          if (SD && SD->K == Cexp::Kind::Select && SD->IsFloat &&
              SD->Idx == 0) {
            CValue Base = rv(SD->F);
            if (Base.isVar()) {
              const Cexp *BD = DefNodeV[Base.V];
              if (BD && BD->K == Cexp::Kind::Record &&
                  BD->RK == RecordKind::FloatBox) {
                ++Stats.FloatBoxesReused;
                ++Contractions;
                dropUse(E->Fields[0].V);
                DefNodeV[E->W] = nullptr;
                bindSubst(E->W, Base);
                spliceOut(E);
                continue;
              }
            }
          }
        }
        // Fixpoint-era breadth: a float re-boxed under a dominating box
        // of the same raw value reuses that box, however many bindings
        // separate the two wraps (the adjacent rule above only cancels
        // box-of-unwrap-of-box shapes).
        if (WrapOn && E->RK == RecordKind::FloatBox &&
            E->Fields.size() == 1 && E->Fields[0].V.isVar()) {
          const WrapEntry *Box = WrapBoxOf.get(E->Fields[0].V.V);
          // Same-depth reuse is free. Cross-depth reuse makes the outer
          // box a captured free variable of this function, so it only
          // pays when the saved allocation outweighs the capture: when
          // this is the raw float's last remaining use (closures swap
          // raw for box, slot for slot), or inside a self-recursive
          // body, where the cancelled alloc ran per iteration but the
          // capture costs once per loop entry. Unconditional cross-depth
          // reuse regressed BHut in measurement; these two cases carry
          // all of the MBrot/Ray loop wins.
          CValue RawV = rv(E->Fields[0].V);
          bool LastRawUse = RawV.isVar() && UseV[RawV.V] == 1;
          if (Box &&
              (Box->Depth == WrapDepth || LastRawUse || InLoopBody)) {
            ++Stats.WrapCancelChains;
            if (Box->Depth != WrapDepth && !LastRawUse)
              ++Stats.WrapCancelLoopCarried;
            ++Contractions;
            NewRuleFired = true;
            dropUse(E->Fields[0].V);
            DefNodeV[E->W] = nullptr;
            bindSubst(E->W, rv(CValue::var(Box->V)));
            spliceOut(E);
            continue;
          }
          WrapBoxOf.set(E->Fields[0].V.V, {E->W, WrapDepth});
        }
        // Fixpoint-era breadth, general-record side: an immutable record
        // whose fields are identical to a dominating allocation reuses it
        // (records are arena values with no observable identity; Select is
        // the only reader of non-Ref records). Same cross-depth gate as
        // the float-box rule: reuse across a function boundary trades a
        // per-call allocation for a closure capture, which only pays
        // inside a loop nest.
        if (WrapOn && E->RK != RecordKind::Ref &&
            E->RK != RecordKind::FloatBox && !E->Fields.empty()) {
          CVar Key = 0;
          for (const CField &Fd : E->Fields)
            if (Fd.V.isVar()) {
              Key = Fd.V.V;
              break;
            }
          if (Key != 0) {
            const RecCseList *L = RecordsOf.get(Key);
            const Cexp *Hit = nullptr;
            int HitDepth = 0;
            if (L)
              for (uint8_t I = 0; I < L->N && !Hit; ++I) {
                const Cexp *R = L->E[I].R;
                if (R->RK != E->RK ||
                    R->Fields.size() != E->Fields.size() ||
                    !(L->E[I].Depth == WrapDepth || InLoopBody))
                  continue;
                bool Same = true;
                for (size_t J = 0; J < E->Fields.size() && Same; ++J)
                  Same = E->Fields[J].IsFloat == R->Fields[J].IsFloat &&
                         sameValue(E->Fields[J].V, rv(R->Fields[J].V));
                if (Same) {
                  Hit = R;
                  HitDepth = L->E[I].Depth;
                }
              }
            if (Hit) {
              ++Stats.WrapCancelChains;
              if (HitDepth != WrapDepth)
                ++Stats.WrapCancelLoopCarried;
              ++Contractions;
              NewRuleFired = true;
              for (const CField &Fd : E->Fields)
                dropUse(Fd.V);
              DefNodeV[E->W] = nullptr;
              bindSubst(E->W, rv(CValue::var(Hit->W)));
              spliceOut(E);
              continue;
            }
            RecCseList NL = L ? *L : RecCseList{};
            if (NL.N < RecCseList::kMax) {
              NL.E[NL.N++] = {E, WrapDepth};
              RecordsOf.set(Key, NL);
            }
          }
        }
        // Record copy elimination (Section 5.2).
        if (Opts.CpsRecordCopyElim && E->RK != RecordKind::Ref &&
            !E->Fields.empty()) {
          CVar Base = 0;
          bool AllSelects = true;
          for (size_t I = 0; I < E->Fields.size() && AllSelects; ++I) {
            const CField &Fd = E->Fields[I];
            if (!Fd.V.isVar()) {
              AllSelects = false;
              break;
            }
            const Cexp *SD = DefNodeV[Fd.V.V];
            if (!SD || SD->K != Cexp::Kind::Select ||
                SD->Idx != static_cast<int>(I) ||
                SD->IsFloat != Fd.IsFloat) {
              AllSelects = false;
              break;
            }
            CValue SB = rv(SD->F);
            if (!SB.isVar()) {
              AllSelects = false;
              break;
            }
            if (I == 0)
              Base = SB.V;
            else if (SB.V != Base)
              AllSelects = false;
          }
          if (AllSelects && Base != 0) {
            Cty BT = VarTyV[Base];
            if (BT.K == CtyKind::PtrKnown &&
                BT.Len == static_cast<int>(E->Fields.size())) {
              ++Stats.RecordsCopyEliminated;
              ++Contractions;
              for (const CField &Fd : E->Fields)
                dropUse(Fd.V);
              DefNodeV[E->W] = nullptr;
              bindSubst(E->W, CValue::var(Base));
              spliceOut(E);
              continue;
            }
          }
        }
        E = E->C1;
        continue;
      }

      case Cexp::Kind::Select: {
        E->F = rv(E->F);
        if (E->F.isVar()) {
          const Cexp *RD = DefNodeV[E->F.V];
          if (RD && RD->K == Cexp::Kind::Record &&
              RD->RK != RecordKind::Ref &&
              (RD->RK != RecordKind::FloatBox || Opts.CpsWrapCancel) &&
              E->Idx < static_cast<int>(RD->Fields.size())) {
            ++Stats.SelectsFolded;
            ++Contractions;
            CValue Repl = rv(RD->Fields[E->Idx].V);
            DefNodeV[E->W] = nullptr;
            bindSubst(E->W, Repl);
            dropUse(E->F);
            spliceOut(E);
            continue;
          }
        }
        if (UseV[E->W] == 0) {
          // Selects from known-immutable records cannot trap.
          removeValueNode(E);
          continue;
        }
        // Fixpoint-era breadth: identical selects of the same
        // (unknown-definition) base CSE to the dominating one — Select
        // only ever reads immutable records (refs and arrays go through
        // Looker), so same base and index is the same value. Float
        // unwraps are the wrap-cancellation case the rule is named for;
        // word selects from shared parameter/closure records cancel the
        // same way, and the wrap-dedup above then collapses re-wraps of
        // either copy. Same-depth only, like the wrap rule.
        if (WrapOn && E->F.isVar()) {
          const SelCseList *L = UnwrapOf.get(E->F.V);
          const SelCseEntry *Hit = nullptr;
          // Cross-depth CSE swaps a captured base for a captured field;
          // as with wrap-dedup above, that is gated to the cases that
          // cannot lose: last remaining use of the base, or a loop nest
          // (select per iteration vs capture per entry).
          bool LastBaseUse = UseV[E->F.V] == 1;
          if (L)
            for (uint8_t I = 0; I < L->N; ++I)
              if (L->E[I].Idx == E->Idx &&
                  L->E[I].IsFloat == static_cast<uint8_t>(E->IsFloat) &&
                  (L->E[I].Depth == WrapDepth || LastBaseUse || InLoopBody))
                Hit = &L->E[I];
          if (Hit) {
            ++Stats.WrapCancelChains;
            if (Hit->Depth != WrapDepth && !LastBaseUse)
              ++Stats.WrapCancelLoopCarried;
            ++Contractions;
            NewRuleFired = true;
            dropUse(E->F);
            DefNodeV[E->W] = nullptr;
            bindSubst(E->W, rv(CValue::var(Hit->W)));
            spliceOut(E);
            continue;
          }
          SelCseList NL = L ? *L : SelCseList{};
          if (NL.N < SelCseList::kMax) {
            NL.E[NL.N++] = {E->Idx, static_cast<uint8_t>(E->IsFloat), E->W,
                            WrapDepth};
            UnwrapOf.set(E->F.V, NL);
          }
        }
        E = E->C1;
        continue;
      }

      case Cexp::Kind::App: {
        E->F = rv(E->F);
        resolveArgs(E);
        if (!E->F.isVar())
          return;
        CVar Fv = E->F.V;
        CFun *Fn = FnDefV[Fv];
        if (!Fn)
          return;
        // Beta of a once-called function: its body moves here and the
        // sweep continues into it. A function whose only call sits in its
        // own body is dead recursion and stays put, and so does one whose
        // entry this phase's flattening plan has already rewritten. A
        // small function is cloned at every call this phase, the last
        // one too: its original body dies at the end of the phase.
        if (onceCalled(Fv) && !InBodyV[Fv] && !PlanSmallV[Fv] &&
            Fn->Params.size() == E->Args.size()) {
          moveBodyTo(E, Fn);
          continue;
        }
        // Planned clone-inline of a small function. The inline-on guard
        // keeps a body from expanding into its own clone, or into its own
        // body except when visitDeferred unrolls a loop.
        if (PlanSmallV[Fv] && !InlineOnV[Fv] &&
            (!InBodyV[Fv] || Fv == Unrolling)) {
          inlineSmallAt(E, Fn);
          InlineOnV[Fv] = 1;
          visit(E);
          InlineOnV[Fv] = 0;
          return;
        }
        if (PlanFlattenV[Fv] > 0 && E->Args.size() == 2) {
          // The fresh selects are not revisited this phase; they fold
          // next phase.
          flattenCallAt(E, Fv);
          return;
        }
        return;
      }

      case Cexp::Kind::Fix: {
        // Pass 1: dead functions and eta-conts.
        CFun **Fs = E->Funs.mutableBegin();
        size_t N = E->Funs.size(), J = 0;
        for (size_t I = 0; I < N; ++I) {
          CFun *F = Fs[I];
          CVar Name = F->Name;
          if (FnDefV[Name] != F)
            continue; // unlinked earlier (stale entry)
          if (UseV[Name] == 0) {
            removeDeadFun(F);
            continue;
          }
          // Eta: cont k(x) = j(x) ==> k := j. The guard tests the
          // as-written head, before substitution: a once-called target
          // moves into k instead, and redirecting uses onto a function
          // planned for inlining would invalidate the plan's use counts.
          if (F->K == CFun::Kind::Cont && F->Params.size() == 1 &&
              F->Body->K == Cexp::Kind::App &&
              F->Body->Args.size() == 1 && F->Body->Args[0].isVar() &&
              F->Body->Args[0].V == F->Params[0] && F->Body->F.isVar() &&
              F->Body->F.V != Name && !onceCalled(F->Body->F.V) &&
              !PlanSmallV[F->Body->F.V]) {
            CValue J2 = rv(F->Body->F);
            // Guard self-substitution through a mutual eta pair.
            if (!(J2.isVar() && J2.V == Name)) {
              ++Stats.EtaConts;
              ++Contractions;
              dropUse(F->Body->F, /*Call=*/true);
              dropUse(F->Body->Args[0]);
              FnDefV[Name] = nullptr;
              FixNodeV[Name] = nullptr;
              bindSubst(Name, J2);
              continue;
            }
          }
          // Fixpoint-era eta: fun/cont k(x...) = g(x...) ==> k := g for
          // any arity and kind (the cont-eta rule above covers only
          // one-parameter continuations, and fires first so its stat
          // attribution is unchanged).
          if (EtaOn && etaReduceFun(F, Name))
            continue;
          Fs[J++] = F;
        }
        E->Funs.truncate(J);
        if (J == 0) {
          spliceOut(E);
          continue;
        }
        // Pass 2: kinds, bodies, entry flattening. A member's body may
        // move into a sibling's while that sibling is visited, which
        // compacts E->Funs, so iterate over a copy. Two kinds of body are
        // skipped here: a once-called one is visited where it lands, and
        // a small function's is copied to its call sites as it stands
        // (each copy is contracted where its arguments are known, and
        // the original dies); visitDeferred takes whatever is left. A
        // small loop's body is visited here but keeps its self-calls
        // until its other call sites have cloned it; visitDeferred then
        // unrolls it once. A flattened entry
        // wraps the body in its rebuild record only after the body's
        // sweep, so the body's selects fold against it next phase.
        size_t Base = FixMembers.size();
        FixMembers.insert(FixMembers.end(), E->Funs.begin(), E->Funs.end());
        for (size_t I = Base; I < FixMembers.size(); ++I) {
          CFun *F = FixMembers[I];
          CVar Name = F->Name;
          if (FnDefV[Name] != F)
            continue; // moved into a sibling's body
          // Kinds come from the live counts: the last phase fires nothing,
          // so the kinds it leaves describe the final program.
          if (F->K != CFun::Kind::Cont)
            F->K = UseV[Name] != CallsV[Name] ? CFun::Kind::Escape
                                              : CFun::Kind::Known;
          int FlN = PlanFlattenV[Name];
          if ((FlN == 0 && onceCalled(Name)) ||
              (PlanSmallV[Name] && !LoopNestPV[Name])) {
            Deferred.push_back(F);
            continue;
          }
          if (PlanSmallV[Name])
            Unroll.push_back(F);
          size_t MB = WrapBoxOf.mark(), MU = UnwrapOf.mark(),
                 MR = RecordsOf.mark();
          ++WrapDepth;
          bool SaveLoop = InLoopBody;
          // Inherited through the nest: continuations and helpers defined
          // inside a loop body run per iteration too.
          InLoopBody = SaveLoop || SelfRecPV[Name] || LoopNestPV[Name];
          visitBody(F);
          InLoopBody = SaveLoop;
          --WrapDepth;
          WrapBoxOf.popTo(MB);
          UnwrapOf.popTo(MU);
          RecordsOf.popTo(MR);
          if (FlN > 0 && F->Params.size() == 2)
            flattenEntry(F, FlN);
        }
        FixMembers.resize(Base);
        E = E->C1;
        continue;
      }

      case Cexp::Kind::Branch: {
        resolveArgs(E);
        Cexp *Live = nullptr;
        if (E->BOp == BranchOp::IsBoxed && !E->Args[0].isVar())
          Live = E->Args[0].K != CValue::Kind::Int ? E->C1 : E->C2;
        else if (E->Args.size() == 2 &&
                 E->Args[0].K == CValue::Kind::Int &&
                 E->Args[1].K == CValue::Kind::Int) {
          int64_t X = E->Args[0].I, Y = E->Args[1].I;
          bool T;
          bool Known = true;
          switch (E->BOp) {
          case BranchOp::Ieq: T = X == Y; break;
          case BranchOp::Ine: T = X != Y; break;
          case BranchOp::Ilt: T = X < Y; break;
          case BranchOp::Ile: T = X <= Y; break;
          case BranchOp::Igt: T = X > Y; break;
          case BranchOp::Ige: T = X >= Y; break;
          case BranchOp::Ult:
            T = static_cast<uint64_t>(X) < static_cast<uint64_t>(Y);
            break;
          default:
            Known = false;
            T = false;
          }
          if (Known)
            Live = T ? E->C1 : E->C2;
        }
        if (Live) {
          ++Stats.BranchesFolded;
          ++Contractions;
          Cexp *Dead = Live == E->C1 ? E->C2 : E->C1;
          censusRemove(Dead);
          replaceWith(E, Live);
          continue;
        }
        {
          size_t MB = WrapBoxOf.mark(), MU = UnwrapOf.mark(),
                 MR = RecordsOf.mark();
          visit(E->C1);
          WrapBoxOf.popTo(MB);
          UnwrapOf.popTo(MU);
          RecordsOf.popTo(MR);
        }
        E = E->C2;
        continue;
      }

      case Cexp::Kind::Arith: {
        resolveArgs(E);
        bool CanTrap = E->Op == CpsOp::IDiv || E->Op == CpsOp::IMod;
        if (UseV[E->W] == 0 && !CanTrap) {
          removeValueNode(E);
          continue;
        }
        if (E->Args.size() == 2 && E->Args[0].K == CValue::Kind::Int &&
            E->Args[1].K == CValue::Kind::Int) {
          int64_t X = E->Args[0].I, Y = E->Args[1].I;
          int64_t R;
          bool Known = true;
          switch (E->Op) {
          case CpsOp::IAdd: R = X + Y; break;
          case CpsOp::ISub: R = X - Y; break;
          case CpsOp::IMul: R = X * Y; break;
          case CpsOp::IDiv:
          case CpsOp::IMod: {
            // SML div/mod round toward negative infinity (match the VM).
            Known = Y != 0;
            if (!Known) {
              R = 0;
              break;
            }
            int64_t Q = X / Y;
            int64_t Rm = X % Y;
            if (Rm != 0 && ((Rm < 0) != (Y < 0))) {
              Q -= 1;
              Rm += Y;
            }
            R = E->Op == CpsOp::IDiv ? Q : Rm;
            break;
          }
          default: Known = false; R = 0;
          }
          if (Known) {
            ++Stats.ConstantsFolded;
            ++Contractions;
            DefNodeV[E->W] = nullptr;
            bindSubst(E->W, CValue::intC(R));
            spliceOut(E);
            continue;
          }
        }
        if (E->Args.size() == 1 && E->Args[0].K == CValue::Kind::Int &&
            (E->Op == CpsOp::INeg || E->Op == CpsOp::IAbs)) {
          int64_t X = E->Args[0].I;
          ++Stats.ConstantsFolded;
          ++Contractions;
          DefNodeV[E->W] = nullptr;
          bindSubst(E->W, CValue::intC(E->Op == CpsOp::INeg
                                           ? -X
                                           : (X < 0 ? -X : X)));
          spliceOut(E);
          continue;
        }
        E = E->C1;
        continue;
      }

      case Cexp::Kind::Pure: {
        resolveArgs(E);
        if (E->Op == CpsOp::Copy) {
          ++Contractions;
          CValue Repl = E->Args[0];
          DefNodeV[E->W] = nullptr;
          bindSubst(E->W, Repl);
          dropUse(Repl);
          spliceOut(E);
          continue;
        }
        if (UseV[E->W] == 0) {
          removeValueNode(E);
          continue;
        }
        E = E->C1;
        continue;
      }

      case Cexp::Kind::Looker: {
        resolveArgs(E);
        bool CanTrap =
            E->Op == CpsOp::LoadCell || E->Op == CpsOp::LoadByte;
        if (UseV[E->W] == 0 && !CanTrap) {
          removeValueNode(E);
          continue;
        }
        E = E->C1;
        continue;
      }

      case Cexp::Kind::Setter:
      case Cexp::Kind::CCall:
        resolveArgs(E);
        E = E->C1;
        continue;

      case Cexp::Kind::Halt:
        E->F = rv(E->F);
        return;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Beta / inline / flatten
  //===--------------------------------------------------------------------===//

  /// An occurrence in a cloned body: resolve the pending substitution
  /// first, because its target may be a binder inside the cloned region
  /// (a moved body's parameter bound to a variable of the body it moved
  /// into), which the copy must rename too.
  CValue cloneVal(const CValue &V,
                  const std::unordered_map<CVar, CValue> &Rn) const {
    CValue R = rv(V);
    if (!R.isVar())
      return R;
    auto It = Rn.find(R.V);
    return It == Rn.end() ? R : It->second;
  }

  CVar freshBinder(CVar Old, std::unordered_map<CVar, CValue> &Rn) {
    CVar N = B.fresh();
    ensure(N);
    Rn[Old] = CValue::var(N);
    return N;
  }

  /// Alpha-renaming deep copy that also registers every cloned occurrence
  /// and binder in the census.
  Cexp *cloneCounted(const Cexp *E, std::unordered_map<CVar, CValue> &Rn) {
    switch (E->K) {
    case Cexp::Kind::Record: {
      std::vector<CField> Fields;
      for (const CField &F : E->Fields) {
        CValue V = cloneVal(F.V, Rn);
        addUse(V);
        Fields.push_back(CField{V, F.IsFloat});
      }
      CVar W = freshBinder(E->W, Rn);
      Cexp *N = B.record(E->RK, Fields, W, nullptr);
      N->WTy = E->WTy;
      defineVar(W, E->WTy, N);
      N->C1 = cloneCounted(E->C1, Rn);
      return N;
    }
    case Cexp::Kind::Select: {
      CValue Base = cloneVal(E->F, Rn);
      addUse(Base);
      CVar W = freshBinder(E->W, Rn);
      Cexp *N = B.select(E->Idx, E->IsFloat, Base, W, E->WTy, nullptr);
      defineVar(W, E->WTy, N);
      N->C1 = cloneCounted(E->C1, Rn);
      return N;
    }
    case Cexp::Kind::App: {
      CValue F = cloneVal(E->F, Rn);
      addUse(F, /*Call=*/true);
      std::vector<CValue> Args;
      for (const CValue &V : E->Args) {
        CValue A2 = cloneVal(V, Rn);
        addUse(A2);
        Args.push_back(A2);
      }
      return B.app(F, Args);
    }
    case Cexp::Kind::Fix: {
      std::vector<CFun *> Funs;
      for (const CFun *F : E->Funs)
        freshBinder(F->Name, Rn);
      for (const CFun *F : E->Funs) {
        std::vector<CVar> Params;
        std::vector<Cty> Tys(F->ParamTys.begin(), F->ParamTys.end());
        for (CVar P : F->Params)
          Params.push_back(freshBinder(P, Rn));
        for (size_t I = 0; I < Params.size(); ++I)
          VarTyV[Params[I]] = Tys[I];
        Cexp *Body = cloneCounted(F->Body, Rn);
        Funs.push_back(B.fun(F->K, Rn.at(F->Name).V, Params, Tys, Body));
      }
      Cexp *N = B.fix(Funs, nullptr);
      for (CFun *F : Funs) {
        FnDefV[F->Name] = F;
        FixNodeV[F->Name] = N;
      }
      N->C1 = cloneCounted(E->C1, Rn);
      return N;
    }
    case Cexp::Kind::Branch: {
      std::vector<CValue> Args;
      for (const CValue &V : E->Args) {
        CValue A2 = cloneVal(V, Rn);
        addUse(A2);
        Args.push_back(A2);
      }
      Cexp *Then = cloneCounted(E->C1, Rn);
      Cexp *Else = cloneCounted(E->C2, Rn);
      return B.branch(E->BOp, Args, Then, Else);
    }
    case Cexp::Kind::Arith:
    case Cexp::Kind::Pure:
    case Cexp::Kind::Looker:
    case Cexp::Kind::CCall: {
      std::vector<CValue> Args;
      for (const CValue &V : E->Args) {
        CValue A2 = cloneVal(V, Rn);
        addUse(A2);
        Args.push_back(A2);
      }
      CVar W = freshBinder(E->W, Rn);
      Cexp *N;
      if (E->K == Cexp::Kind::Arith)
        N = B.arith(E->Op, Args, W, E->WTy, nullptr);
      else if (E->K == Cexp::Kind::Pure)
        N = B.pure(E->Op, Args, W, E->WTy, nullptr);
      else if (E->K == Cexp::Kind::Looker)
        N = B.looker(E->Op, Args, W, E->WTy, nullptr);
      else
        N = B.ccall(E->Op, Args, W, E->WTy, nullptr);
      defineVar(W, E->WTy, N);
      N->C1 = cloneCounted(E->C1, Rn);
      return N;
    }
    case Cexp::Kind::Setter: {
      std::vector<CValue> Args;
      for (const CValue &V : E->Args) {
        CValue A2 = cloneVal(V, Rn);
        addUse(A2);
        Args.push_back(A2);
      }
      Cexp *N = B.setter(E->Op, Args, nullptr);
      N->C1 = cloneCounted(E->C1, Rn);
      return N;
    }
    case Cexp::Kind::Halt: {
      CValue V = cloneVal(E->F, Rn);
      addUse(V);
      Cexp *N = B.halt(V);
      N->Idx = E->Idx;
      return N;
    }
    }
    assert(false && "unknown CPS node in cloneCounted");
    return nullptr;
  }

  /// Beta-reduces the only call of \p Fn: binds its parameters to the
  /// call's arguments, unlinks it from its Fix, and splices its current
  /// body over the call. No copy and no renaming — the body leaves its
  /// old place, so binders stay unique. A Fix left empty is spliced out
  /// when a sweep next reaches it.
  void moveBodyTo(Cexp *E, CFun *Fn) {
    assert(Fn->Params.size() == E->Args.size() && "beta arity mismatch");
    ++Stats.InlinedOnce;
    ++Contractions;
    dropUse(E->F, /*Call=*/true);
    for (const CValue &V : E->Args)
      dropUse(V);
    for (size_t I = 0; I < E->Args.size(); ++I)
      bindSubst(Fn->Params[I], E->Args[I]);
    unlinkFun(Fn);
    replaceWith(E, Fn->Body);
  }

  void unlinkFun(CFun *Fn) {
    Cexp *Fx = FixNodeV[Fn->Name];
    CFun **Fs = Fx->Funs.mutableBegin();
    size_t J = 0;
    for (size_t I = 0; I < Fx->Funs.size(); ++I)
      if (Fs[I] != Fn)
        Fs[J++] = Fs[I];
    Fx->Funs.truncate(J);
    FnDefV[Fn->Name] = nullptr;
    FixNodeV[Fn->Name] = nullptr;
  }

  /// Inline-expands a small function at one call site from a renamed copy
  /// of its current body (the original binding dies through the counts
  /// once its last call site is consumed).
  void inlineSmallAt(Cexp *E, const CFun *Fn) {
    assert(Fn->Params.size() == E->Args.size() && "inline arity mismatch");
    ++Stats.InlinedSmall;
    ++Contractions;
    std::unordered_map<CVar, CValue> Rn;
    for (size_t I = 0; I < E->Args.size(); ++I)
      Rn[Fn->Params[I]] = E->Args[I];
    Cexp *Cl = cloneCounted(Fn->Body, Rn);
    dropUse(E->F, /*Call=*/true);
    for (const CValue &V : E->Args)
      dropUse(V);
    replaceWith(E, Cl);
  }

  /// Rewrites one flattened call site: N fresh selects feed a spread call.
  void flattenCallAt(Cexp *E, CVar Fv) {
    int N = PlanFlattenV[Fv];
    ++Contractions;
    CValue RecV = E->Args[0];
    CValue K = E->Args[1];
    std::vector<CValue> NewArgs;
    std::vector<CVar> Sels;
    for (int I = 0; I < N; ++I) {
      CVar S = B.fresh();
      ensure(S);
      Sels.push_back(S);
      NewArgs.push_back(CValue::var(S));
    }
    NewArgs.push_back(K);
    Cexp *Call = B.app(E->F, NewArgs);
    for (int I = N; I-- > 0;) {
      Call = B.select(I, false, RecV, Sels[I], Cty::ptrUnknown(), Call);
      defineVar(Sels[I], Cty::ptrUnknown(), Call);
      UseV[Sels[I]] = 1; // one occurrence, in the new arg list
      addUse(RecV);
    }
    dropUse(RecV); // the old direct record argument occurrence
    replaceWith(E, Call);
  }

  /// Rewrites a flattened function's entry: fresh component params and a
  /// record rebuild the original parameter (folded away by the next
  /// shrink phase once only selects remain).
  void flattenEntry(CFun *F, int N) {
    ++Stats.KnownFnsFlattened;
    ++Contractions;
    CVar OldRec = F->Params[0];
    CVar OldK = F->Params[1];
    Cty OldKTy = F->ParamTys[1];
    std::vector<CVar> Params;
    std::vector<Cty> Tys;
    std::vector<CField> Fields;
    for (int I = 0; I < N; ++I) {
      CVar P = B.fresh();
      ensure(P);
      Params.push_back(P);
      Tys.push_back(Cty::ptrUnknown());
      VarTyV[P] = Cty::ptrUnknown();
      UseV[P] = 1; // one occurrence, in the rebuild record
      Fields.push_back(CField{CValue::var(P), false});
    }
    Params.push_back(OldK);
    Tys.push_back(OldKTy);
    Cexp *Rec = B.record(RecordKind::Std, Fields, OldRec, F->Body);
    defineVar(OldRec, Rec->WTy, Rec);
    F->K = CFun::Kind::Known;
    F->Params = Span<CVar>::copy(A, Params);
    F->ParamTys = Span<Cty>::copy(A, Tys);
    F->Body = Rec;
  }

  //===--------------------------------------------------------------------===//
  // Fixpoint-era rule: eta of functions
  //===--------------------------------------------------------------------===//

  /// Generalized eta: a function or continuation whose body is exactly a
  /// forwarding call of its own parameters, in order, renames to the
  /// target. The body being a single App node means the target's binding
  /// necessarily dominates this Fix, so redirecting every use of the
  /// forwarder is scope-safe. Same plan guards and mutual-pair guard as
  /// the cont-eta rule, plus a guard against redirecting onto a
  /// function planned for flattening this phase (its call sites were
  /// vetted at phase entry; inherited sites were not).
  bool etaReduceFun(CFun *F, CVar Name) {
    Cexp *Bd = F->Body;
    if (Bd->K != Cexp::Kind::App || !Bd->F.isVar() || Bd->F.V == Name ||
        Bd->Args.size() != F->Params.size())
      return false;
    if (onceCalled(Bd->F.V) || PlanSmallV[Bd->F.V] ||
        PlanFlattenV[Bd->F.V] > 0)
      return false;
    for (size_t I = 0; I < F->Params.size(); ++I)
      if (!(Bd->Args[I].isVar() && Bd->Args[I].V == F->Params[I]))
        return false;
    CValue J2 = rv(Bd->F);
    if (!J2.isVar() || J2.V == Name)
      return false;
    CVar G = J2.V;
    if (onceCalled(G) || PlanSmallV[G] || PlanFlattenV[G] > 0)
      return false;
    // The target must not be one of F's own params: that binding is not
    // in scope at F's other use sites.
    for (CVar P : F->Params)
      if (P == G)
        return false;
    if (const CFun *GF = FnDefV[G]) {
      if ((GF->K == CFun::Kind::Cont) != (F->K == CFun::Kind::Cont))
        return false;
      if (GF->Params.size() != F->Params.size())
        return false;
    } else {
      // No definition in sight (a parameter or closure value): allow
      // only targets whose CTY proves the same calling species.
      CtyKind TK = VarTyV[G].K;
      if (F->K == CFun::Kind::Cont ? TK != CtyKind::Cnt
                                   : TK != CtyKind::Fun)
        return false;
    }
    ++Stats.EtaFuns;
    ++Contractions;
    NewRuleFired = true;
    dropUse(Bd->F, /*Call=*/true);
    for (const CValue &V : Bd->Args)
      dropUse(V);
    FnDefV[Name] = nullptr;
    FixNodeV[Name] = nullptr;
    bindSubst(Name, J2);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Expand planning
  //===--------------------------------------------------------------------===//

  /// Recomputes the expand-phase facts the incremental census does not
  /// track (only-word-selected params, self-recursion) and plans the
  /// bounded non-shrinking passes. Returns true if any plan was made.
  bool planExpand(const Cexp *Root) {
    std::fill(PlanSmallV.begin(), PlanSmallV.end(), 0);
    std::fill(PlanFlattenV.begin(), PlanFlattenV.end(), 0);
    std::fill(OwsV.begin(), OwsV.end(), 0);
    std::fill(SelfRecPV.begin(), SelfRecPV.end(), 0);
    std::fill(LoopNestPV.begin(), LoopNestPV.end(), 0);
    AliveFns.clear();
    CallEdges.clear();
    PlanParentOf.clear();
    {
      SMLTC_SPAN("cps_plan_walk", "compile");
      planWalk(Root, nullptr);
    }
    bool Any = false;
    for (CVar Name : AliveFns) {
      const CFun *F = FnDefV[Name];
      if (!F)
        continue;
      int U = UseV[Name], C = CallsV[Name];
      // Dead, escaping (some use is not a call), or once-called: the
      // sweep moves a once-called body to its call site unplanned.
      if (U == 0 || U != C || C == 1)
        continue;
      if (Opts.InlineSmallFns && !SelfRecPV[Name] &&
          bodyAtMost(F->Body, 10) && C <= 6) {
        PlanSmallV[Name] = 1;
        Any = true;
        continue;
      }
      if (Opts.KnownFnFlattening && F->K != CFun::Kind::Cont &&
          F->Params.size() == 2) {
        Cty PT = F->ParamTys[0];
        if (PT.K == CtyKind::PtrKnown && PT.Len >= 2 &&
            PT.Len <= kMaxSpreadArgs && OwsV[F->Params[0]] == 1) {
          PlanFlattenV[Name] = PT.Len;
          Any = true;
        }
      }
    }
    if (Any) {
      SMLTC_SPAN("cps_plan_prune", "compile");
      Any = prunePlanCycles() || anyFlatten();
    }
    return Any;
  }

  bool anyFlatten() const {
    for (CVar Name : AliveFns)
      if (PlanFlattenV[Name] > 0)
        return true;
    return false;
  }

  void planWalk(const Cexp *E, const CFun *Owner) {
    for (;;) {
      switch (E->K) {
      case Cexp::Kind::Record:
        for (const CField &F : E->Fields)
          notOws(F.V);
        E = E->C1;
        continue;
      case Cexp::Kind::Select:
        if (E->IsFloat)
          notOws(E->F);
        E = E->C1;
        continue;
      case Cexp::Kind::App: {
        CValue F = rv(E->F);
        if (F.isVar()) {
          OwsV[F.V] = 2;
          if (Owner && F.V == Owner->Name)
            SelfRecPV[Owner->Name] = 1;
          // Loop-nest detection for the wrap-cancellation breadth rules
          // and small-loop unrolling: a call to a lexical ancestor
          // re-enters it, so everything between the call and that
          // ancestor runs per iteration.
          // SelfRecPV stays immediate-self-calls-only.
          if (Owner && FnDefV[F.V])
            for (CVar Anc = Owner->Name;;) {
              if (Anc == F.V) {
                LoopNestPV[F.V] = 1;
                break;
              }
              const CVar *Up = PlanParentOf.get(Anc);
              if (!Up)
                break;
              Anc = *Up;
            }
          // Call edge for cycle pruning. Only App heads can reference an
          // inline candidate (candidates have Uses == Calls, so a value
          // occurrence would have disqualified them), which lets the
          // pruner reuse this walk instead of re-walking candidate bodies.
          if (Owner && FnDefV[F.V])
            CallEdges.emplace_back(Owner->Name, F.V);
        }
        for (const CValue &V : E->Args)
          notOws(V);
        return;
      }
      case Cexp::Kind::Fix:
        for (const CFun *F : E->Funs) {
          AliveFns.push_back(F->Name);
          if (Owner)
            PlanParentOf.set(F->Name, Owner->Name);
          for (CVar P : F->Params)
            if (OwsV[P] == 0)
              OwsV[P] = 1; // optimistic until a disqualifying use
        }
        for (const CFun *F : E->Funs)
          planWalk(F->Body, F);
        E = E->C1;
        continue;
      case Cexp::Kind::Branch:
        for (const CValue &V : E->Args)
          notOws(V);
        planWalk(E->C1, Owner);
        E = E->C2;
        continue;
      case Cexp::Kind::Arith:
      case Cexp::Kind::Pure:
      case Cexp::Kind::Looker:
      case Cexp::Kind::CCall:
      case Cexp::Kind::Setter:
        for (const CValue &V : E->Args)
          notOws(V);
        E = E->C1;
        continue;
      case Cexp::Kind::Halt:
        notOws(E->F);
        return;
      }
    }
  }

  void notOws(const CValue &V) {
    CValue R = rv(V);
    if (R.isVar())
      OwsV[R.V] = 2;
  }

  /// Kahn-style cycle pruning for the inline-small plan (mutually
  /// recursive candidates must keep their calls). Returns true if any small candidate survives.
  ///
  /// A candidate's references to other candidates are reconstructed from
  /// the call edges planWalk collected, not by re-walking its body: a
  /// candidate has Uses == Calls, so every occurrence is an App head and
  /// planWalk has already resolved it. A candidate's body spans its own
  /// call edges plus those of every transitively nested function, so the
  /// per-candidate ref set is the edge union over its nesting subtree.
  bool prunePlanCycles() {
    std::vector<CVar> Candidates;
    for (CVar Name : AliveFns)
      if (PlanSmallV[Name])
        Candidates.push_back(Name);
    if (Candidates.empty())
      return false;
    std::unordered_map<CVar, std::unordered_set<CVar>> Refs;
    for (CVar V : Candidates)
      Refs[V];
    // An edge in function O's body belongs to every candidate whose body
    // encloses O — i.e. every candidate on O's nesting-ancestor chain
    // (including O itself).
    for (const auto &[O, T] : CallEdges) {
      if (!PlanSmallV[T])
        continue;
      for (CVar A = O;;) {
        if (PlanSmallV[A])
          Refs[A].insert(T);
        const CVar *P = PlanParentOf.get(A);
        if (!P)
          break;
        A = *P;
      }
    }
    bool Progress = true;
    std::unordered_set<CVar> Alive(Refs.size());
    for (auto &[V, _] : Refs)
      Alive.insert(V);
    while (Progress) {
      Progress = false;
      for (auto It = Alive.begin(); It != Alive.end();) {
        bool HasLiveRef = false;
        for (CVar R : Refs[*It])
          if (R != *It && Alive.count(R)) {
            HasLiveRef = true;
            break;
          }
        if (!HasLiveRef) {
          It = Alive.erase(It);
          Progress = true;
        } else {
          ++It;
        }
      }
    }
    for (CVar V : Alive)
      PlanSmallV[V] = 0;
    return Candidates.size() > Alive.size();
  }

  //===--------------------------------------------------------------------===//
  // Census audit (test hook)
  //===--------------------------------------------------------------------===//

  void auditCount(const Cexp *E, std::vector<int32_t> &U,
                  std::vector<int32_t> &C) const {
    auto Val = [&](const CValue &V, bool Call) {
      CValue R = rv(V);
      if (!R.isVar())
        return;
      if (static_cast<size_t>(R.V) < U.size()) {
        ++U[R.V];
        if (Call)
          ++C[R.V];
      }
    };
    for (;;) {
      switch (E->K) {
      case Cexp::Kind::Record:
        for (const CField &F : E->Fields)
          Val(F.V, false);
        E = E->C1;
        continue;
      case Cexp::Kind::Select:
        Val(E->F, false);
        E = E->C1;
        continue;
      case Cexp::Kind::App:
        Val(E->F, true);
        for (const CValue &V : E->Args)
          Val(V, false);
        return;
      case Cexp::Kind::Fix:
        for (const CFun *F : E->Funs)
          auditCount(F->Body, U, C);
        E = E->C1;
        continue;
      case Cexp::Kind::Branch:
        for (const CValue &V : E->Args)
          Val(V, false);
        auditCount(E->C1, U, C);
        E = E->C2;
        continue;
      case Cexp::Kind::Arith:
      case Cexp::Kind::Pure:
      case Cexp::Kind::Looker:
      case Cexp::Kind::CCall:
      case Cexp::Kind::Setter:
        for (const CValue &V : E->Args)
          Val(V, false);
        E = E->C1;
        continue;
      case Cexp::Kind::Halt:
        Val(E->F, false);
        return;
      }
    }
  }

  void auditCensus(const Cexp *Root) {
    std::vector<int32_t> U(UseV.size(), 0), C(UseV.size(), 0);
    auditCount(Root, U, C);
    for (size_t I = 0; I < U.size(); ++I)
      if (U[I] != UseV[I] || C[I] != CallsV[I])
        ++Stats.CensusAuditFailures;
  }

  Arena &A;
  const CompilerOptions &Opts;
  CpsBuilder B;
  CVar &MaxVar;
  CpsOptStats &Stats;

  // Dense var-indexed census tables, grown together by ensure().
  std::vector<int32_t> UseV;
  std::vector<int32_t> CallsV;
  std::vector<Cexp *> DefNodeV;  ///< binder -> defining node
  std::vector<CFun *> FnDefV;    ///< fn name -> definition
  std::vector<Cexp *> FixNodeV;  ///< fn name -> its Fix node
  std::vector<Cty> VarTyV;
  std::vector<CValue> SubstV;
  std::vector<uint8_t> HasSubstV;
  std::vector<uint8_t> InlineOnV; ///< fns being clone-inlined right now
  std::vector<uint8_t> InBodyV;   ///< fns whose body the sweep is inside
  std::vector<uint8_t> PlanSmallV;
  std::vector<int32_t> PlanFlattenV;
  std::vector<uint8_t> OwsV; ///< 0 unseen, 1 only-word-selected, 2 not
  std::vector<uint8_t> SelfRecPV;
  /// Called from somewhere inside its own lexical nest (recursion through
  /// inner continuations, which SelfRecPV's immediate-self-call test
  /// misses). Drives the wrap-cancellation loop heuristics, and marks
  /// the small functions visitDeferred unrolls as loops.
  std::vector<uint8_t> LoopNestPV;

  /// Functions whose body the sweep skipped at their Fix, and the small
  /// loops visitDeferred unrolls, whose self-calls the sweep left alone.
  std::vector<CFun *> Deferred;
  std::vector<CFun *> Unroll;
  CVar Unrolling = 0; ///< the loop visitDeferred is unrolling
  /// Variables whose count dropped to zero this phase.
  std::vector<CVar> DeadQ;
  /// Stack of Fix member lists the sweep is iterating over.
  std::vector<CFun *> FixMembers;

  std::vector<CVar> AliveFns;
  /// Call-graph facts planWalk collects for prunePlanCycles: resolved App
  /// heads that target a live function, and the function nesting tree.
  std::vector<std::pair<CVar, CVar>> CallEdges; ///< (owner fn, callee fn)
  DenseVarMap<CVar> PlanParentOf;               ///< nested fn -> enclosing fn

  /// Wrap-cancellation breadth: dominating FloatBox binder per raw float
  /// var, and dominating sel.f(box, 0) binder per box var, popped at
  /// branch arms and function-body boundaries. Each entry remembers the function-nesting
  /// depth it was bound at: reuse fires only at the same depth, because
  /// resurrecting a binder from an enclosing function turns it into a
  /// captured free variable and can grow closures past what the cancelled
  /// allocation saved (observed as a dynamic-instruction regression).
  struct WrapEntry {
    CVar V;
    int Depth;
  };
  /// Dominating selects per base var, a few entries each (the common
  /// record is selected at 2-4 distinct indices). A shadowing inner-scope
  /// set erases the whole per-base list on popTo — a missed CSE, never a
  /// wrong one.
  struct SelCseEntry {
    int32_t Idx;
    uint8_t IsFloat;
    CVar W;
    int Depth;
  };
  struct SelCseList {
    static constexpr uint8_t kMax = 4;
    SelCseEntry E[kMax];
    uint8_t N = 0;
  };
  /// Dominating general-record allocations, keyed by the first variable
  /// field (identical records share it by construction). Matching
  /// re-resolves the stored node's fields, so entries stay valid across
  /// later substitutions.
  struct RecCseEntry {
    const Cexp *R;
    int Depth;
  };
  struct RecCseList {
    static constexpr uint8_t kMax = 4;
    RecCseEntry E[kMax];
    uint8_t N = 0;
  };
  /// Field equality for record CSE. Conservatively only var and int
  /// fields compare equal: reals carry NaN and pad-slot encodings, and
  /// strings/labels never appear duplicated enough to matter.
  static bool sameValue(const CValue &A, const CValue &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case CValue::Kind::Var:
      return A.V == B.V;
    case CValue::Kind::Int:
      return A.I == B.I;
    default:
      return false;
    }
  }
  ScopedMap<WrapEntry> WrapBoxOf;
  ScopedMap<SelCseList> UnwrapOf;
  ScopedMap<RecCseList> RecordsOf;
  int WrapDepth = 0;       ///< current function-nesting depth in the sweep
  bool InLoopBody = false; ///< innermost enclosing function self-recurses
  bool EtaOn = false, WrapOn = false;
  bool NewRuleFired = false; ///< a fixpoint-era rule fired this phase

  uint64_t Contractions = 0;
};

} // namespace

Cexp *smltc::optimizeCps(Arena &A, const CompilerOptions &Opts,
                         Cexp *Program, CVar &MaxVar, CpsOptStats &Stats) {
  Stats.ArenaBytesBefore = A.bytesAllocated();
  Program = ShrinkOptimizer(A, Opts, MaxVar, Stats).run(Program);
  Stats.ArenaBytesAfter = A.bytesAllocated();

  CpsOptTotals &T = cpsOptTotals();
  T.Runs.fetch_add(1, std::memory_order_relaxed);
  T.DeadRemoved.fetch_add(Stats.DeadRemoved, std::memory_order_relaxed);
  T.SelectsFolded.fetch_add(Stats.SelectsFolded, std::memory_order_relaxed);
  T.RecordsCopyEliminated.fetch_add(Stats.RecordsCopyEliminated,
                                    std::memory_order_relaxed);
  T.FloatBoxesReused.fetch_add(Stats.FloatBoxesReused,
                               std::memory_order_relaxed);
  T.BranchesFolded.fetch_add(Stats.BranchesFolded, std::memory_order_relaxed);
  T.ConstantsFolded.fetch_add(Stats.ConstantsFolded,
                              std::memory_order_relaxed);
  T.InlinedOnce.fetch_add(Stats.InlinedOnce, std::memory_order_relaxed);
  T.InlinedSmall.fetch_add(Stats.InlinedSmall, std::memory_order_relaxed);
  T.EtaConts.fetch_add(Stats.EtaConts, std::memory_order_relaxed);
  T.KnownFnsFlattened.fetch_add(Stats.KnownFnsFlattened,
                                std::memory_order_relaxed);
  T.EtaFuns.fetch_add(Stats.EtaFuns, std::memory_order_relaxed);
  T.WrapCancelChains.fetch_add(Stats.WrapCancelChains,
                               std::memory_order_relaxed);
  T.WrapCancelLoopCarried.fetch_add(Stats.WrapCancelLoopCarried,
                                    std::memory_order_relaxed);
  T.Rounds.fetch_add(Stats.Rounds, std::memory_order_relaxed);
  T.ExpandPasses.fetch_add(Stats.ExpandPasses, std::memory_order_relaxed);
  T.ArenaBytes.fetch_add(Stats.ArenaBytesAfter - Stats.ArenaBytesBefore,
                         std::memory_order_relaxed);
  if (Stats.HitSafetyCeiling)
    T.SafetyCeilingHits.fetch_add(1, std::memory_order_relaxed);
  return Program;
}

CpsOptTotals &smltc::cpsOptTotals() {
  static CpsOptTotals T;
  return T;
}

void smltc::setCpsOptAudit(bool Enabled) {
  AuditEnabled.store(Enabled, std::memory_order_relaxed);
}

void smltc::registerCpsOptMetrics(obs::Registry &R) {
  CpsOptTotals &T = cpsOptTotals();
  auto C = [&R](const char *Name, const std::atomic<uint64_t> &A,
                const char *Help) {
    R.counterFn(Name, [&A] { return A.load(std::memory_order_relaxed); },
                Help);
  };
  C("smltcc_cps_opt_runs_total", T.Runs, "optimizeCps invocations");
  C("smltcc_cps_opt_dead_removed_total", T.DeadRemoved,
    "dead bindings and functions removed");
  C("smltcc_cps_opt_selects_folded_total", T.SelectsFolded,
    "selects folded from known records");
  C("smltcc_cps_opt_record_copies_elim_total", T.RecordsCopyEliminated,
    "record copies eliminated (Section 5.2)");
  C("smltcc_cps_opt_float_boxes_reused_total", T.FloatBoxesReused,
    "wrap/unwrap pairs cancelled (Section 5.2)");
  C("smltcc_cps_opt_branches_folded_total", T.BranchesFolded,
    "branches folded on constants");
  C("smltcc_cps_opt_constants_folded_total", T.ConstantsFolded,
    "arith constants folded");
  C("smltcc_cps_opt_inlined_once_total", T.InlinedOnce,
    "once-used functions beta-reduced");
  C("smltcc_cps_opt_inlined_small_total", T.InlinedSmall,
    "small functions inline-expanded");
  C("smltcc_cps_opt_eta_conts_total", T.EtaConts,
    "continuations eta-reduced");
  C("smltcc_cps_opt_fns_flattened_total", T.KnownFnsFlattened,
    "known functions argument-flattened");
  C("smltcc_cps_opt_eta_funs_total", T.EtaFuns,
    "forwarding functions eta-reduced (fixpoint rule)");
  C("smltcc_cps_opt_wrap_cancel_chains_total", T.WrapCancelChains,
    "non-adjacent wrap dedups and unwrap CSEs (fixpoint rule)");
  C("smltcc_cps_opt_wrap_cancel_loop_carried_total", T.WrapCancelLoopCarried,
    "wrap cancellations of per-iteration allocations in loop nests");
  C("smltcc_cps_opt_rounds_total", T.Rounds, "optimizer phases");
  C("smltcc_cps_opt_expand_passes_total", T.ExpandPasses,
    "optimizer phases that ran an inline/flatten plan");
  C("smltcc_cps_opt_arena_bytes_total", T.ArenaBytes,
    "arena bytes allocated while optimizing");
  C("smltcc_cps_opt_safety_ceiling_hits_total", T.SafetyCeilingHits,
    "fixpoint runs aborted at the phase safety ceiling");
  R.registerHistogram("smltcc_cps_opt_fixpoint_phases",
                      shrinkPhaseHistogram(),
                      "shrink-engine phases to reach normal form");
}
