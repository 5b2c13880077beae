//===- tests/TestUtil.h - Shared test fixtures --------------------------------===//

#ifndef SMLTC_TESTS_TESTUTIL_H
#define SMLTC_TESTS_TESTUTIL_H

#include "ast/Parser.h"
#include "cps/CpsOpt.h"
#include "driver/Options.h"
#include "elab/Elaborator.h"
#include "elab/Mtd.h"
#include "lexp/LexpCheck.h"
#include "lexp/Translate.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"
#include "types/Type.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

namespace smltc {
namespace testutil {

/// Runs the front end (parse + elaborate) over a source snippet.
struct Front {
  Arena A;
  StringInterner Interner;
  DiagnosticEngine Diags;
  TypeContext Types;
  std::unique_ptr<Elaborator> Elab;
  AProgram Prog;

  explicit Front(const std::string &Source) : Types(A, Interner) {
    Parser P(Source, A, Interner, Diags);
    ast::Program RawProg = P.parseProgram();
    Elab = std::make_unique<Elaborator>(A, Types, Interner, Diags);
    Prog = Elab->elaborate(RawProg);
  }

  bool ok() const { return !Diags.hasErrors(); }
  std::string errors() const { return Diags.render(); }
};

/// Front end plus translation to LEXP under the given options.
struct ToLexp {
  Front F;
  LtyContext LC;
  std::unique_ptr<Translator> Trans;
  Lexp *Program = nullptr;

  explicit ToLexp(const std::string &Source,
                  CompilerOptions Opts = CompilerOptions::ffb())
      : F(Source), LC(F.A, Opts.HashConsLty) {
    if (!F.ok())
      return;
    if (Opts.Mtd)
      runMtd(F.Prog, F.Types, F.A);
    BuiltinExns Exns;
    Exns.Match = F.Elab->MatchExn;
    Exns.Bind = F.Elab->BindExn;
    Exns.Div = F.Elab->DivExn;
    Exns.Subscript = F.Elab->SubscriptExn;
    Exns.Size = F.Elab->SizeExn;
    Exns.Overflow = F.Elab->OverflowExn;
    Exns.Chr = F.Elab->ChrExn;
    OptsStore = Opts;
    Trans = std::make_unique<Translator>(F.A, F.Types, LC, OptsStore, Exns,
                                         F.Diags);
    Program = Trans->translate(F.Prog);
  }

  bool ok() const { return F.ok() && Program; }

  LexpCheckResult check() { return checkLexp(Program, LC); }

private:
  CompilerOptions OptsStore;
};

/// Turns the optimizer's census audit on for its scope, and off again
/// even when an assertion bails out of a test early.
struct CensusAudit {
  CensusAudit() { setCpsOptAudit(true); }
  ~CensusAudit() { setCpsOptAudit(false); }
};

/// Full observable-state comparison; Tag names the failing case.
inline void expectIdentical(const ExecResult &Want, const ExecResult &Got,
                            const std::string &Tag) {
  EXPECT_EQ(Want.Ok, Got.Ok) << Tag;
  EXPECT_EQ(Want.Trapped, Got.Trapped) << Tag;
  EXPECT_EQ(Want.TrapMessage, Got.TrapMessage) << Tag;
  EXPECT_EQ(Want.UncaughtException, Got.UncaughtException) << Tag;
  EXPECT_EQ(Want.Result, Got.Result) << Tag;
  EXPECT_EQ(Want.Output, Got.Output) << Tag;
  EXPECT_EQ(Want.Instructions, Got.Instructions) << Tag;
  EXPECT_EQ(Want.Cycles, Got.Cycles) << Tag;
  EXPECT_EQ(Want.AllocWords32, Got.AllocWords32) << Tag;
  EXPECT_EQ(Want.AllocObjects, Got.AllocObjects) << Tag;
  EXPECT_EQ(Want.GcCopiedWords, Got.GcCopiedWords) << Tag;
  EXPECT_EQ(Want.Collections, Got.Collections) << Tag;
}

/// The TM functions of P that no path from Funs[0] reaches. Compiled code
/// names a code label only as a CallL target or a LoadLabel immediate
/// (closure records hold LoadLabel constants, and CallR and the
/// runtime's raise call what those records hold).
inline size_t unreachableFunctions(const TmProgram &P) {
  if (P.Funs.empty())
    return 0;
  std::vector<bool> Seen(P.Funs.size(), false);
  std::vector<size_t> Work = {0};
  Seen[0] = true;
  while (!Work.empty()) {
    const TmFunction &F = P.Funs[Work.back()];
    Work.pop_back();
    for (const Insn &I : F.Code)
      if ((I.Op == TmOp::CallL || I.Op == TmOp::LoadLabel) && I.Imm >= 0 &&
          static_cast<size_t>(I.Imm) < P.Funs.size() && !Seen[I.Imm]) {
        Seen[I.Imm] = true;
        Work.push_back(static_cast<size_t>(I.Imm));
      }
  }
  return static_cast<size_t>(std::count(Seen.begin(), Seen.end(), false));
}

/// Points SMLTCC_NATIVE_CACHE at a fresh empty directory for its scope,
/// then removes the directory and restores the previous setting.
class FreshNativeCache {
public:
  FreshNativeCache() {
    std::string Tmpl =
        (std::filesystem::temp_directory_path() / "smltcc-native-test-XXXXXX")
            .string();
    if (::mkdtemp(Tmpl.data()))
      Dir = Tmpl;
    if (const char *Old = std::getenv("SMLTCC_NATIVE_CACHE")) {
      HadOld = true;
      OldValue = Old;
    }
    ::setenv("SMLTCC_NATIVE_CACHE", Dir.c_str(), 1);
  }
  ~FreshNativeCache() {
    if (HadOld)
      ::setenv("SMLTCC_NATIVE_CACHE", OldValue.c_str(), 1);
    else
      ::unsetenv("SMLTCC_NATIVE_CACHE");
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  FreshNativeCache(const FreshNativeCache &) = delete;
  FreshNativeCache &operator=(const FreshNativeCache &) = delete;
  std::vector<std::string> files() const {
    std::vector<std::string> Names;
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      Names.push_back(E.path().filename().string());
    return Names;
  }

private:
  std::string Dir;
  bool HadOld = false;
  std::string OldValue;
};

/// `fun main () = ((...1...))`, \p Depth parentheses deep.
inline std::string nestedParens(size_t Depth) {
  return "fun main () = " + std::string(Depth, '(') + "1" +
         std::string(Depth, ')');
}

/// ThreadSanitizer's shadow call stack holds about 65,000 frames, and
/// 10,000 levels of parsing already overflow it on any stack.
#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

/// Whether a sanitizer runtime is linked in: its shadow memory needs the
/// address space that an RLIMIT_AS test takes away.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Current address-space size of this process, in bytes.
inline size_t addressSpaceBytes() {
  long Pages = 0;
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (F) {
    if (std::fscanf(F, "%ld", &Pages) != 1)
      Pages = 0;
    std::fclose(F);
  }
  return static_cast<size_t>(Pages) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

/// A nesting depth whose parse needs more stack than an 8 MiB thread
/// has: 20,000 levels take about 12 MB. TSan builds nest 8,000 deep
/// (about 8 MB of stack there).
constexpr size_t kDeepNesting = kThreadSanitizer ? 8000 : 20000;

} // namespace testutil
} // namespace smltc

#endif // SMLTC_TESTS_TESTUTIL_H
