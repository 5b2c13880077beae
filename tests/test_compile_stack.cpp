//===- tests/test_compile_stack.cpp - Where a compile's stack comes from ---===//
//
// `Compiler::compile` runs every compile on the calling thread, switched
// onto that thread's 1 GiB compile stack. These tests pin what that
// means: the compile's spans nest under the caller's span on the
// caller's track; a program too deep for an ordinary thread stack
// compiles from a thread with a small one; when the stack cannot be
// mapped, the compile runs on the caller's stack and says so; and an
// exception thrown on the compile stack reaches the caller.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Compiler.h"
#include "obs/Trace.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <new>
#include <pthread.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace smltc;

namespace {

/// Runs \p Fn on a new thread whose stack is \p StackBytes.
void runOnThreadWithStack(size_t StackBytes, std::function<void()> Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, StackBytes);
  pthread_t Tid;
  int Err = pthread_create(
      &Tid, &Attr,
      [](void *P) -> void * {
        (*static_cast<std::function<void()> *>(P))();
        return nullptr;
      },
      &Fn);
  pthread_attr_destroy(&Attr);
  ASSERT_EQ(Err, 0);
  pthread_join(Tid, nullptr);
}

} // namespace

using testutil::addressSpaceBytes;
using testutil::kSanitized;

TEST(CompileStackTest, CompileSpansNestUnderTheCallersSpan) {
  obs::Tracer &T = obs::Tracer::instance();
  T.disable();
  T.clear();
  T.enable();
  obs::ScopedTraceContext Install(obs::mintTraceContext());
  uint64_t CallerId = 0;
  {
    obs::Span Caller("caller", "test");
    CallerId = Caller.spanId();
    for (int I = 0; I < 3; ++I) {
      CompileOutput Out = Compiler::compile(
          "fun main () = " + std::to_string(I), CompilerOptions::ffb());
      EXPECT_TRUE(Out.Ok) << Out.Errors; // go on: tracing must be turned off
    }
  }
  T.disable();
  std::vector<obs::TraceEvent> Evs = T.snapshot();
  T.clear();

  const obs::TraceEvent *Caller = nullptr;
  std::vector<const obs::TraceEvent *> Compiles;
  for (const obs::TraceEvent &E : Evs) {
    if (std::string(E.Name) == "caller")
      Caller = &E;
    else if (std::string(E.Name) == "compile")
      Compiles.push_back(&E);
  }
  ASSERT_NE(Caller, nullptr);
  ASSERT_EQ(Caller->SpanId, CallerId);
  ASSERT_EQ(Compiles.size(), 3u);
  for (const obs::TraceEvent *C : Compiles) {
    EXPECT_EQ(C->TraceIdHi, Caller->TraceIdHi);
    EXPECT_EQ(C->TraceIdLo, Caller->TraceIdLo);
    EXPECT_EQ(C->ParentSpanId, CallerId);
    EXPECT_EQ(C->Tid, Caller->Tid);
  }
}

TEST(CompileStackTest, DeepProgramCompilesFromASmallStackThread) {
  const std::string Source = testutil::nestedParens(testutil::kDeepNesting);
  CompileOutput Out;
  runOnThreadWithStack(256 * 1024, [&] {
    Out = Compiler::compile(Source, CompilerOptions::ffb());
  });
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  EXPECT_FALSE(Out.Metrics.BigStackUnavailable);
  ExecResult E = execute(Out.Program, VmOptions());
  ASSERT_TRUE(E.Ok) << E.TrapMessage;
  EXPECT_EQ(E.Result, 1);
}

TEST(CompileStackTest, FallsBackWhenTheStackCannotBeMapped) {
  if (kSanitized)
    GTEST_SKIP() << "sanitizer runtimes need the address space this "
                    "test takes away";
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Leave 512 MiB of address space: room for a thread and a small
    // compile, not for a 1 GiB compile stack.
    rlimit Lim;
    Lim.rlim_cur = Lim.rlim_max = addressSpaceBytes() + (size_t(512) << 20);
    if (setrlimit(RLIMIT_AS, &Lim) != 0)
      _exit(10);
    int Code = 11;
    // A new thread has no compile stack yet, so its compile must map one.
    std::thread Th([&Code] {
      CompileOutput Out =
          Compiler::compile("fun main () = 41 + 1", CompilerOptions::ffb());
      if (!Out.Ok)
        Code = 12;
      else if (!Out.Metrics.BigStackUnavailable)
        Code = 13;
      else
        Code = execute(Out.Program, VmOptions()).Result == 42 ? 0 : 14;
    });
    Th.join();
    _exit(Code);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status)) << "child status " << Status;
  // 10: setrlimit failed; 11: the thread did not run; 12: the compile
  // failed; 13: the compile ran on a 1 GiB stack anyway; 14: the program
  // gave the wrong result.
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

TEST(CompileStackTest, AnExceptionInACompileReachesTheCaller) {
  if (kSanitized)
    GTEST_SKIP() << "sanitizer runtimes need the address space this "
                    "test takes away";
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Map this thread's compile stack, then allow no more address space,
    // so the next compile's allocations throw std::bad_alloc on it.
    std::string Sum = "fun main () = 1";
    for (int I = 0; I < 20000; ++I)
      Sum += " + 1";
    if (!Compiler::compile("fun main () = 0", CompilerOptions::ffb()).Ok)
      _exit(10);
    rlimit Lim;
    Lim.rlim_cur = Lim.rlim_max = addressSpaceBytes();
    if (setrlimit(RLIMIT_AS, &Lim) != 0)
      _exit(11);
    try {
      Compiler::compile(Sum, CompilerOptions::ffb());
    } catch (const std::bad_alloc &) {
      _exit(0);
    }
    _exit(12);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  // A signal here means the exception did not come back to the caller.
  ASSERT_TRUE(WIFEXITED(Status)) << "child status " << Status;
  // 10: the first compile failed; 11: setrlimit failed; 12: the second
  // compile returned instead of throwing.
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}
