//===- tests/test_scaling.cpp - Small inputs that once took exponential time -----===//
//
// Programs of a few hundred bytes whose compile was exponential or
// quadratic in their size: a type that is a DAG walked once per path
// (an application chain `f f ... f 1`, a tuple that doubles at every
// level, two such tuples unified or compared), a long `andalso` /
// `orelse` chain in the CPS shrinker, and structures nested deep, each
// lowered again for every enclosing one.
// Each runs in a forked child under an alarm, so a regression fails
// the test instead of hanging the suite; outside sanitizer builds the
// child also gets a bounded address space, so a regression that
// allocates exponentially fails instead of exhausting the host.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Compiler.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <csignal>
#include <functional>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace smltc;

namespace {

constexpr unsigned kAlarmSeconds = 30;

/// Runs Check in a forked child under an alarm. Check returns an empty
/// string on success or what went wrong, which the parent reports.
void expectInChild(const std::function<std::string()> &Check) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    close(Fds[0]);
    if (!testutil::kSanitized) {
      rlimit Lim;
      Lim.rlim_cur = Lim.rlim_max =
          testutil::addressSpaceBytes() + (size_t(2) << 30);
      setrlimit(RLIMIT_AS, &Lim);
    }
    alarm(kAlarmSeconds);
    std::string Err = Check();
    if (!Err.empty() && write(Fds[1], Err.data(), Err.size()) < 0)
      _exit(2);
    _exit(Err.empty() ? 0 : 1);
  }
  close(Fds[1]);
  std::string Msg;
  char Buf[4096];
  for (ssize_t N; (N = read(Fds[0], Buf, sizeof(Buf))) > 0;)
    Msg.append(Buf, static_cast<size_t>(N));
  close(Fds[0]);
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  if (WIFSIGNALED(Status)) {
    ADD_FAILURE() << (WTERMSIG(Status) == SIGALRM
                          ? "still running after " +
                                std::to_string(kAlarmSeconds) + " s"
                          : "child killed by signal " +
                                std::to_string(WTERMSIG(Status)));
    return;
  }
  EXPECT_EQ(WEXITSTATUS(Status), 0) << Msg;
}

/// Compiles Src under all six variants and runs each program: an empty
/// string if every one returns Want.
std::string runsEverywhere(const std::string &Src, int64_t Want) {
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (size_t V = 0; V < N; ++V) {
    CompileOutput Out = Compiler::compile(Src, Vs[V]);
    std::string Tag = std::string(Vs[V].VariantName) + ": ";
    if (!Out.Ok)
      return Tag + Out.Errors.substr(0, 500);
    ExecResult R = execute(Out.Program, VmOptions());
    if (!R.Ok)
      return Tag + R.TrapMessage;
    if (R.Result != Want)
      return Tag + "result " + std::to_string(R.Result);
  }
  return "";
}

/// `val x0 = 1  val x1 = (x0, x0) ... val xn = (x(n-1), x(n-1))`: xn's
/// type has n + 1 nodes and 2^n leaves.
std::string doublingTuples(int Levels) {
  std::string S = "val x0 = 1\n";
  for (int I = 1; I <= Levels; ++I)
    S += "val x" + std::to_string(I) + " = (x" + std::to_string(I - 1) +
         ", x" + std::to_string(I - 1) + ")\n";
  return S;
}

/// doublingTuples with another variable name: a ladder built apart from
/// the first, so no node of one is a node of the other.
std::string doublingTuples(const char *Var, int Levels) {
  std::string S = doublingTuples(Levels);
  for (size_t At = 0; (At = S.find('x', At)) != std::string::npos; ++At)
    S[At] = *Var;
  return S;
}

std::string chain(const char *Op, int Terms) {
  std::string S = "b";
  for (int I = 1; I < Terms; ++I)
    S += std::string(" ") + Op + " b";
  return S;
}

} // namespace

TEST(TypeDagScaling, ApplicationChainCompilesEverywhere) {
  // The first f is instantiated at a type whose tree doubles with every
  // application after it.
  std::string Src = "fun f x = x\nfun main () =";
  for (int I = 0; I < 40; ++I)
    Src += " f";
  expectInChild([&] { return runsEverywhere(Src + " 1\n", 1); });
}

TEST(TypeDagScaling, DoublingTypesCompileEverywhere) {
  // The same shape through a type abbreviation ladder, which every walk
  // that expands abbreviations enters once per use.
  std::string Ladder = "type t0 = int\n";
  for (int I = 1; I <= 40; ++I)
    Ladder += "type t" + std::to_string(I) + " = t" + std::to_string(I - 1) +
              " * t" + std::to_string(I - 1) + "\n";
  expectInChild([&]() -> std::string {
    std::string Err =
        runsEverywhere(doublingTuples(40) + "fun main () = (x40; 7)\n", 7);
    if (!Err.empty())
      return "tuples: " + Err;
    Err = runsEverywhere(Ladder + "fun f (x : t40) = 7\nval h = f\n" +
                             "fun main () = (h; 7)\n",
                         7);
    return Err.empty() ? "" : "abbreviations: " + Err;
  });
}

TEST(TypeDagScaling, TwoLaddersUnifyAndCompareEverywhere) {
  // Two separately built ladders: the if unifies their types and MTD
  // compares id's two instantiations, each once per pair of nodes.
  std::string Ladders = doublingTuples(40) + doublingTuples("y", 40);
  expectInChild([&]() -> std::string {
    std::string Err = runsEverywhere(
        Ladders + "val z = if true then x40 else y40\n" +
            "fun main () = (z; 7)\n",
        7);
    if (!Err.empty())
      return "unify: " + Err;
    Err = runsEverywhere(Ladders + "fun main () = let fun id v = v\n" +
                             "val a = id x40 val b = id y40 in 7 end\n",
                         7);
    return Err.empty() ? "" : "compare: " + Err;
  });
}

TEST(TypeDagScaling, TypeErrorRendersOneBoundedDiagnostic) {
  expectInChild([]() -> std::string {
    CompileOutput Out = Compiler::compile(
        doublingTuples(40) + "fun main () = x40 + 1\n",
        CompilerOptions::ffb());
    if (Out.Ok)
      return "compiled";
    size_t Errors = 0;
    for (size_t At = Out.Errors.find("error:"); At != std::string::npos;
         At = Out.Errors.find("error:", At + 1))
      ++Errors;
    if (Errors != 1)
      return std::to_string(Errors) + " diagnostics";
    if (Out.Errors.size() > 4096)
      return std::to_string(Out.Errors.size()) + " bytes";
    return "";
  });
}

TEST(ShrinkScaling, LongAndalsoAndOrelseChainsCompile) {
  // Each operand nests one more join continuation; the shrinker swept
  // every nested body again each time an enclosing one moved.
  expectInChild([]() -> std::string {
    for (const auto &[Op, Arg, Want] :
         {std::make_tuple("andalso", "true", 1),
          std::make_tuple("orelse", "false", 0)}) {
      CompileOutput Out = Compiler::compile(
          "fun g b = if " + chain(Op, 40000) + " then 1 else 0\n" +
              "fun main () = g " + Arg + "\n",
          CompilerOptions::ffb());
      if (!Out.Ok)
        return std::string(Op) + ": " + Out.Errors.substr(0, 500);
      ExecResult R = execute(Out.Program, VmOptions());
      if (!R.Ok || R.Result != Want)
        return std::string(Op) + ": result " + std::to_string(R.Result) +
               " " + R.TrapMessage;
    }
    return "";
  });
}

TEST(StructureScaling, DeeplyNestedStructuresCompileEverywhere) {
  // Each structure holds the next: lowering every one's static again
  // for each enclosing structure made this quadratic.
  const int Levels = 20000;
  std::string Src;
  for (int I = 0; I < Levels; ++I)
    Src += "structure S" + std::to_string(I) + " = struct val v = " +
           std::to_string(I + 7) + "\n";
  for (int I = 0; I < Levels; ++I)
    Src += "end\n";
  expectInChild(
      [&] { return runsEverywhere(Src + "fun main () = S0.v\n", 7); });
}
