//===- tools/smltcc.cpp - Command-line compiler driver ----------------------------===//
//
// smltcc: compile and run a MiniML (.sml) file under a chosen compiler
// variant, printing the program's output, result, and metrics.
//
//   smltcc [options] file.sml
//     --variant=nrp|fag|rep|mtd|ffb|fp3   (default: ffb)
//     --all            run under all six variants and compare
//     --jobs=N         compile the --all variants on N batch workers
//     --no-prelude     do not prepend the standard prelude
//     --prelude=snapshot|inline  prelude delivery (default: snapshot).
//                      `snapshot` layers on the process-wide
//                      pre-elaborated prelude; `inline` is the legacy
//                      source-text concatenation kept as a
//                      differential oracle (bit-identical output).
//     --metrics        print compile- and run-time metrics
//     --metrics-json   print per-compile and batch metrics as JSON
//     --backend=vm|native  execution backend (default: vm). `native`
//                      AOT-compiles TM to C, builds a shared object
//                      (cached content-addressed), and runs it with
//                      bit-identical results to the interpreter.
//     --vm-nursery-kb=N   nursery size in KiB; 0 = plain two-space GC
//     --vm-metrics-json   print runtime metrics (incl. per-opcode counts) as JSON
//     --expr 'src'     compile the given source text instead of a file
//     --dump-lexp      print the typed lambda (LEXP) program
//     --dump-cps       print the optimized CPS program
//     --trace-json=FILE   write a Chrome trace-event file covering the
//                      whole run (works in every mode, incl. --daemon)
//     --log-level=debug|info|warn|error|off   structured-log threshold
//                      (default warn; works in every mode)
//     --log-file=PATH  append JSON log lines to PATH instead of stderr
//
// Compile-server / build-farm modes:
//     --daemon --socket=PATH    run as a compile server (alias: --server)
//       --listen=HOST:PORT      also (or instead) listen on TCP; the
//                               same port answers HTTP GET /metrics
//       --token-file=PATH       require per-tenant auth tokens (farm
//                               multi-tenancy: weights + quotas)
//       --cache-dir=PATH        persistent disk cache directory
//       --cache-cap-mb=N        disk cache size cap (default 256)
//       --cache-mem-entries=N   in-memory cache entry cap (0 = unbounded)
//       --workers=N             compile workers (default: hardware)
//       --max-queue=N           queued-compile admission cap (default 64)
//     --router --backends=A,B   run the farm front door: consistent-hash
//                               compile requests onto backend daemons
//                               (with --listen and/or --socket)
//     --connect=PATH            compile via a running daemon, then run
//     --connect=tcp://HOST:PORT same, over TCP (daemon or router)
//       --token=SECRET          tenant token presented after the
//                               handshake (exit 77 when rejected)
//       --deadline-ms=N         fail the request after N ms (exit 75)
//     --remote-stats            print the daemon's metrics JSON
//       --format=json|prom|human  stats flavour (default: json)
//     --remote-ping             handshake + ping round trip
//     --remote-shutdown         ask the daemon to drain and exit
//
// Exit codes: 0 ok, 1 uncaught exception, 2 compile error, 3 VM trap,
// 64 usage, 66 missing input, 69 cannot reach/protocol error against the
// daemon, 70 native backend unavailable or refused the program, 75
// transient server-side rejection (queue full / deadline), 77 tenant
// token missing or rejected.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "driver/Compiler.h"
#include "farm/Net.h"
#include "farm/Router.h"
#include "native/NativeBackend.h"
#include "obs/Log.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/Server.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace smltc;

namespace {

const CompilerOptions *variantByName(const std::string &Name) {
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (size_t I = 0; I < N; ++I)
    if (Name == Vs[I].VariantName + 4) // drop "sml."
      return &Vs[I];
  return nullptr;
}

/// Executes and reports one already-compiled program, on the VM or, with
/// \p Native (--backend=native), as a shared object built from C.
int runCompiled(const CompileOutput &C, const CompilerOptions &O,
                bool Native, const VmOptions &V, bool Metrics,
                bool MetricsJson, bool VmMetricsJson, bool Quiet,
                bool DumpLexp, bool DumpCps) {
  if (!C.Ok) {
    std::fprintf(stderr, "%s\n", C.Errors.c_str());
    return 2;
  }
  if (DumpLexp)
    std::printf("=== LEXP ===\n%s\n", C.LexpDump.c_str());
  if (DumpCps)
    std::printf("=== CPS ===\n%s\n", C.CpsDump.c_str());
  ExecResult R;
  if (Native) {
    std::string Err;
    if (!native::executeNative(C.Program, V, R, Err)) {
      std::fprintf(stderr, "native backend error: %s\n", Err.c_str());
      return 70;
    }
  } else {
    R = execute(C.Program, V);
  }
  if (R.Trapped) {
    std::fprintf(stderr, "runtime trap: %s\n", R.TrapMessage.c_str());
    return 3;
  }
  if (!Quiet)
    std::fputs(R.Output.c_str(), stdout);
  if (R.UncaughtException) {
    std::fprintf(stderr, "uncaught exception\n");
    return 1;
  }
  if (MetricsJson) {
    std::printf("{\"variant\":\"%s\",\"result\":%lld,\"cycles\":%llu,"
                "\"alloc_words32\":%llu,\"gc_collections\":%llu,"
                "\"compile\":%s}\n",
                O.VariantName, static_cast<long long>(R.Result),
                static_cast<unsigned long long>(R.Cycles),
                static_cast<unsigned long long>(R.AllocWords32),
                static_cast<unsigned long long>(R.Collections),
                compileMetricsJson(C.Metrics).c_str());
  } else if (Metrics || Quiet) {
    std::printf("%-8s result=%-10lld cycles=%-12llu alloc32=%-10llu "
                "code=%-6zu gc=%llu compile=%.1fms\n",
                O.VariantName + 4, static_cast<long long>(R.Result),
                static_cast<unsigned long long>(R.Cycles),
                static_cast<unsigned long long>(R.AllocWords32),
                C.Metrics.CodeSize,
                static_cast<unsigned long long>(R.Collections),
                C.Metrics.TotalSec * 1000);
  } else {
    std::printf("result = %lld\n", static_cast<long long>(R.Result));
  }
  if (VmMetricsJson)
    std::printf("%s\n", R.Metrics.toJson().c_str());
  return 0;
}

/// Runs `smltcc --daemon`: serve until SIGTERM/SIGINT or a client
/// shutdown request, then print the final metrics JSON when asked.
int runDaemon(const server::ServerOptions &SO, bool MetricsJson) {
  server::CompileServer Server(SO);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "smltcc --daemon: %s\n", Err.c_str());
    return 69;
  }
  server::CompileServer::installSignalHandlers(&Server);
  std::string Where = Server.socketPath();
  if (!Server.tcpAddr().empty()) {
    if (!Where.empty())
      Where += " and ";
    Where += "tcp://" + Server.tcpAddr();
  }
  std::fprintf(stderr, "smltccd: listening on %s\n", Where.c_str());
  Server.run();
  if (MetricsJson)
    std::printf("%s\n", Server.metricsJson().c_str());
  return 0;
}

/// Runs `smltcc --router`: forward until SIGTERM/SIGINT or a client
/// shutdown request.
int runRouter(farm::RouterOptions RO) {
  farm::FarmRouter Router(std::move(RO));
  std::string Err;
  if (!Router.start(Err)) {
    std::fprintf(stderr, "smltcc --router: %s\n", Err.c_str());
    return 69;
  }
  farm::FarmRouter::installSignalHandlers(&Router);
  std::fprintf(stderr, "smltcc-router: listening on %s\n",
               Router.tcpAddr().empty() ? "unix socket"
                                        : Router.tcpAddr().c_str());
  Router.run();
  return 0;
}

/// Maps a transient server-side rejection to the conventional
/// EX_TEMPFAIL-style exit code the tests assert on.
int remoteRejectExit(server::Status St, const std::string &Errors) {
  std::fprintf(stderr, "server rejected compile (%s): %s\n",
               server::statusName(St), Errors.c_str());
  if (St == server::Status::Unauthorized)
    return 77;
  return St == server::Status::QueueFull ||
                 St == server::Status::DeadlineExceeded ||
                 St == server::Status::Draining
             ? 75
             : 69;
}

/// Writes the collected trace on every exit path (`--trace-json=FILE`).
/// Declared after argument parsing so its destructor runs after every
/// span in the run has closed.
struct TraceExport {
  std::string Path;
  ~TraceExport() {
    if (Path.empty())
      return;
    std::string Err;
    if (!obs::Tracer::instance().writeFile(Path, Err))
      std::fprintf(stderr, "smltcc: --trace-json: %s\n", Err.c_str());
  }
};

} // namespace

int main(int Argc, char **Argv) {
  std::string VariantName = "ffb";
  uint8_t CpsOptDisable = 0;
  bool Native = false;
  PreludeMode Prelude = PreludeMode::Snapshot;
  std::string File;
  std::string Expr;
  bool All = false, WithPrelude = true, Metrics = false;
  bool MetricsJson = false, VmMetricsJson = false;
  bool DumpLexp = false, DumpCps = false;
  size_t Jobs = 1;
  VmOptions VmBase;
  bool Daemon = false, RemoteStats = false, RemotePing = false;
  bool RemoteShutdown = false, Router = false;
  std::string ConnectPath;
  std::string Token;
  std::vector<std::string> Backends;
  uint32_t DeadlineMs = 0;
  std::string TraceJsonPath;
  std::string StatsFormat = "json";
  server::ServerOptions SO;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--variant=", 0) == 0) {
      VariantName = A.substr(10);
    } else if (A.rfind("--cps-opt-disable=", 0) == 0) {
      std::string V = A.substr(18);
      size_t Pos = 0;
      while (Pos <= V.size()) {
        size_t Comma = V.find(',', Pos);
        std::string Rule = V.substr(
            Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
        if (Rule == "eta")
          CpsOptDisable |= kCpsRuleEta;
        else if (Rule == "wrapcancel")
          CpsOptDisable |= kCpsRuleWrapCancel;
        else if (Rule == "all")
          CpsOptDisable |= kCpsRuleAll;
        else {
          std::fprintf(stderr,
                       "unknown rule '%s' in --cps-opt-disable "
                       "(eta,wrapcancel,all)\n",
                       Rule.c_str());
          return 64;
        }
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
    } else if (A.rfind("--backend=", 0) == 0) {
      std::string B = A.substr(10);
      if (B == "vm")
        Native = false;
      else if (B == "native")
        Native = true;
      else {
        std::fprintf(stderr, "unknown backend '%s' (vm|native)\n", B.c_str());
        return 64;
      }
    } else if (A.rfind("--prelude=", 0) == 0) {
      std::string M = A.substr(10);
      if (M == "snapshot")
        Prelude = PreludeMode::Snapshot;
      else if (M == "inline")
        Prelude = PreludeMode::Inline;
      else {
        std::fprintf(stderr, "unknown prelude mode '%s' (snapshot|inline)\n",
                     M.c_str());
        return 64;
      }
    } else if (A.rfind("--vm-nursery-kb=", 0) == 0) {
      VmBase.NurseryKb = static_cast<size_t>(std::atol(A.c_str() + 16));
    } else if (A == "--vm-metrics-json") {
      VmMetricsJson = true;
      VmBase.ProfileOpcodes = true;
    } else if (A == "--all") {
      All = true;
    } else if (A.rfind("--jobs=", 0) == 0) {
      Jobs = static_cast<size_t>(std::atoi(A.c_str() + 7));
    } else if (A == "--jobs" && I + 1 < Argc) {
      Jobs = static_cast<size_t>(std::atoi(Argv[++I]));
    } else if (A == "--no-prelude") {
      WithPrelude = false;
    } else if (A == "--metrics") {
      Metrics = true;
    } else if (A == "--metrics-json") {
      MetricsJson = true;
    } else if (A == "--dump-lexp") {
      DumpLexp = true;
    } else if (A == "--dump-cps") {
      DumpCps = true;
    } else if (A == "--expr" && I + 1 < Argc) {
      Expr = Argv[++I];
    } else if (A == "--daemon" || A == "--server") {
      Daemon = true;
    } else if (A.rfind("--socket=", 0) == 0) {
      SO.SocketPath = A.substr(9);
    } else if (A.rfind("--listen=", 0) == 0) {
      SO.ListenAddr = A.substr(9);
      std::string Host, Port, AddrErr;
      if (!farm::splitHostPort(SO.ListenAddr, Host, Port, AddrErr)) {
        std::fprintf(stderr, "--listen=%s: %s\n", SO.ListenAddr.c_str(),
                     AddrErr.c_str());
        return 64;
      }
    } else if (A.rfind("--token-file=", 0) == 0) {
      SO.TokenFile = A.substr(13);
      if (SO.TokenFile.empty() || !std::ifstream(SO.TokenFile)) {
        std::fprintf(stderr, "--token-file: cannot open '%s'\n",
                     SO.TokenFile.c_str());
        return 66;
      }
    } else if (A.rfind("--token=", 0) == 0) {
      Token = A.substr(8);
    } else if (A == "--router") {
      Router = true;
    } else if (A.rfind("--backends=", 0) == 0) {
      std::string List = A.substr(11);
      Backends.clear();
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        std::string One = List.substr(Pos, Comma - Pos);
        if (!One.empty())
          Backends.push_back(std::move(One));
        Pos = Comma + 1;
      }
      if (Backends.empty()) {
        std::fprintf(stderr,
                     "--backends needs a comma-separated address list\n");
        return 64;
      }
    } else if (A.rfind("--cache-mem-entries=", 0) == 0) {
      SO.MaxMemCacheEntries = static_cast<size_t>(std::atol(A.c_str() + 20));
    } else if (A.rfind("--cache-dir=", 0) == 0) {
      SO.DiskCachePath = A.substr(12);
    } else if (A.rfind("--cache-cap-mb=", 0) == 0) {
      SO.DiskCacheCapBytes =
          static_cast<uint64_t>(std::atoll(A.c_str() + 15)) << 20;
    } else if (A.rfind("--workers=", 0) == 0) {
      SO.NumWorkers = static_cast<size_t>(std::atoi(A.c_str() + 10));
    } else if (A.rfind("--max-queue=", 0) == 0) {
      SO.MaxQueue = static_cast<size_t>(std::atoi(A.c_str() + 12));
    } else if (A.rfind("--connect=", 0) == 0) {
      ConnectPath = A.substr(10);
    } else if (A.rfind("--deadline-ms=", 0) == 0) {
      DeadlineMs = static_cast<uint32_t>(std::atoi(A.c_str() + 14));
    } else if (A.rfind("--trace-json=", 0) == 0) {
      TraceJsonPath = A.substr(13);
      if (TraceJsonPath.empty()) {
        std::fprintf(stderr, "--trace-json needs a file path\n");
        return 64;
      }
    } else if (A.rfind("--log-level=", 0) == 0) {
      std::string Lvl = A.substr(12);
      obs::LogLevel L;
      if (!obs::parseLogLevel(Lvl, L)) {
        std::fprintf(stderr,
                     "unknown log level '%s' (debug|info|warn|error|off)\n",
                     Lvl.c_str());
        return 64;
      }
      obs::Logger::setLevel(L);
    } else if (A.rfind("--log-file=", 0) == 0) {
      std::string Path = A.substr(11);
      std::string LogErr;
      if (Path.empty() || !obs::Logger::instance().openFile(Path, LogErr)) {
        std::fprintf(stderr, "--log-file: cannot open '%s'%s%s\n",
                     Path.c_str(), LogErr.empty() ? "" : ": ",
                     LogErr.c_str());
        return 64;
      }
    } else if (A.rfind("--format=", 0) == 0) {
      StatsFormat = A.substr(9);
      if (StatsFormat != "json" && StatsFormat != "prom" &&
          StatsFormat != "human") {
        std::fprintf(stderr, "unknown stats format '%s' (json|prom|human)\n",
                     StatsFormat.c_str());
        return 64;
      }
    } else if (A == "--remote-stats") {
      RemoteStats = true;
    } else if (A == "--remote-ping") {
      RemotePing = true;
    } else if (A == "--remote-shutdown") {
      RemoteShutdown = true;
    } else if (A == "--help" || A == "-h") {
      std::printf("usage: smltcc [--variant=nrp|fag|rep|mtd|ffb|fp3] "
                  "[--cps-opt-disable=eta,wrapcancel] "
                  "[--backend=vm|native] "
                  "[--prelude=snapshot|inline] "
                  "[--all] [--jobs=N] [--metrics] [--metrics-json] "
                  "[--vm-nursery-kb=N] [--vm-metrics-json] "
                  "[--no-prelude] (file.sml | --expr 'src')\n"
                  "       smltcc --daemon (--socket=PATH | "
                  "--listen=HOST:PORT) [--token-file=PATH] "
                  "[--cache-dir=PATH] [--cache-cap-mb=N] "
                  "[--cache-mem-entries=N] [--workers=N] [--max-queue=N]\n"
                  "       smltcc --router --backends=ADDR[,ADDR...] "
                  "(--listen=HOST:PORT | --socket=PATH) [--token=SECRET]\n"
                  "       smltcc --connect=(PATH|tcp://HOST:PORT) "
                  "[--token=SECRET] [--deadline-ms=N] "
                  "(file.sml | --expr 'src' | "
                  "--remote-stats [--format=json|prom|human] | "
                  "--remote-ping | --remote-shutdown)\n"
                  "       any mode: --trace-json=FILE writes a Chrome "
                  "trace-event file; --log-level=debug|info|warn|error|off "
                  "(default warn) and --log-file=PATH control the "
                  "structured JSON log\n");
      return 0;
    } else if (!A.empty() && A[0] != '-') {
      File = A;
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n",
                   A.c_str());
      return 64;
    }
  }

  TraceExport Trace;
  if (!TraceJsonPath.empty()) {
    obs::Tracer::instance().enable();
    obs::Tracer::setThreadName("main");
    Trace.Path = TraceJsonPath;
  }

  if (Router) {
    if (Backends.empty()) {
      std::fprintf(stderr,
                   "--router requires --backends=ADDR[,ADDR...]\n");
      return 64;
    }
    if (SO.ListenAddr.empty() && SO.SocketPath.empty()) {
      std::fprintf(stderr,
                   "--router requires --listen=HOST:PORT or "
                   "--socket=PATH\n");
      return 64;
    }
    farm::RouterOptions RO;
    RO.ListenAddr = SO.ListenAddr;
    RO.SocketPath = SO.SocketPath;
    RO.Backends = Backends;
    RO.Token = Token;
    return runRouter(std::move(RO));
  }

  if (Daemon) {
    if (SO.SocketPath.empty() && SO.ListenAddr.empty()) {
      std::fprintf(stderr,
                   "--daemon requires --socket=PATH or "
                   "--listen=HOST:PORT\n");
      return 64;
    }
    return runDaemon(SO, MetricsJson);
  }

  if (RemoteStats || RemotePing || RemoteShutdown) {
    if (ConnectPath.empty()) {
      std::fprintf(stderr, "remote commands require --connect=PATH\n");
      return 64;
    }
    server::Client Cl;
    std::string Err;
    if (!Cl.connect(ConnectPath, Err)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 69;
    }
    if (!Token.empty()) {
      server::AuthOkMsg AuthOk;
      if (!Cl.authenticate(Token, AuthOk, Err)) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        return Cl.lastErrorStatus() == server::Status::Unauthorized ? 77
                                                                    : 69;
      }
    }
    bool Ok = true;
    if (RemotePing)
      Ok = Cl.ping("smltcc-ping", Err);
    if (Ok && RemoteStats) {
      if (StatsFormat == "json") {
        std::string Json;
        Ok = Cl.stats(Json, Err);
        if (Ok)
          std::printf("%s\n", Json.c_str());
      } else {
        std::string Text;
        Ok = Cl.statsText(StatsFormat == "prom"
                              ? server::StatsFormat::Prometheus
                              : server::StatsFormat::Human,
                          Text, Err);
        if (Ok)
          std::fputs(Text.c_str(), stdout);
      }
    }
    if (Ok && RemoteShutdown)
      Ok = Cl.shutdownServer(Err);
    if (!Ok) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 69;
    }
    return 0;
  }

  std::string Source;
  if (!Expr.empty()) {
    Source = Expr;
  } else if (!File.empty()) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", File.c_str());
      return 66;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  } else {
    std::fprintf(stderr, "no input (try --help)\n");
    return 64;
  }

  if (!ConnectPath.empty()) {
    const CompilerOptions *O = variantByName(VariantName);
    if (!O) {
      std::fprintf(stderr, "unknown variant '%s'\n", VariantName.c_str());
      return 64;
    }
    server::Client Cl;
    std::string Err;
    if (!Cl.connect(ConnectPath, Err)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 69;
    }
    if (!Token.empty()) {
      server::AuthOkMsg AuthOk;
      if (!Cl.authenticate(Token, AuthOk, Err)) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        return Cl.lastErrorStatus() == server::Status::Unauthorized ? 77
                                                                    : 69;
      }
    }
    server::CompileRequest Req;
    Req.DeadlineMs = DeadlineMs;
    Req.WithPrelude = WithPrelude;
    Req.Opts = *O;
    Req.Opts.CpsOptDisable = CpsOptDisable;
    Req.Opts.Prelude = Prelude;
    Req.Source = Source;
    server::CompileResponse Resp;
    if (!Cl.compile(Req, Resp, Err)) {
      // A router relays its backend's refusal of the tenant token.
      std::fprintf(stderr, "%s\n", Err.c_str());
      return Cl.lastErrorStatus() == server::Status::Unauthorized ? 77 : 69;
    }
    if (Resp.St == server::Status::CompileFailed) {
      std::fprintf(stderr, "%s\n", Resp.Errors.c_str());
      return 2;
    }
    if (Resp.St != server::Status::Ok)
      return remoteRejectExit(Resp.St, Resp.Errors);
    // Rebuild a CompileOutput so reporting matches the local path.
    CompileOutput C;
    C.Ok = true;
    C.Program = std::move(Resp.Program);
    C.Metrics.TotalSec = Resp.CompileSec;
    C.Metrics.CacheHit = Resp.Tier != server::WireTier::Miss;
    C.Metrics.CacheDiskHit = Resp.Tier == server::WireTier::Disk;
    C.Metrics.CodeSize = 0;
    for (const TmFunction &F : C.Program.Funs)
      C.Metrics.CodeSize += F.Code.size();
    return runCompiled(C, Req.Opts, Native, VmBase, Metrics, MetricsJson,
                       VmMetricsJson, false, /*DumpLexp=*/false,
                       /*DumpCps=*/false);
  }

  if (All) {
    // Fan the six variants out over the batch engine.
    size_t N;
    const CompilerOptions *Vs = CompilerOptions::allVariants(N);
    std::vector<CompileJob> BatchJobs(N);
    for (size_t I = 0; I < N; ++I) {
      BatchJobs[I].Source = Source;
      BatchJobs[I].Opts = Vs[I];
      BatchJobs[I].Opts.CpsOptDisable = CpsOptDisable;
      BatchJobs[I].Opts.Prelude = Prelude;
      BatchJobs[I].Opts.KeepDumps = DumpLexp || DumpCps;
      BatchJobs[I].WithPrelude = WithPrelude;
    }
    // No cache: the six jobs have six distinct keys, so it could never
    // hit, and the batch counts every job as a miss either way.
    BatchOptions BO;
    BO.NumThreads = Jobs;
    BatchCompiler Batch(BO);
    std::vector<CompileOutput> Outs = Batch.compileAll(BatchJobs);
    int Rc = 0;
    for (size_t I = 0; I < N; ++I)
      Rc |= runCompiled(Outs[I], BatchJobs[I].Opts, Native, VmBase, true,
                        MetricsJson, VmMetricsJson, /*Quiet=*/true, DumpLexp,
                        DumpCps);
    if (MetricsJson)
      std::printf("%s\n", Batch.lastBatch().toJson().c_str());
    return Rc;
  }
  const CompilerOptions *O = variantByName(VariantName);
  if (!O) {
    std::fprintf(stderr, "unknown variant '%s'\n", VariantName.c_str());
    return 64;
  }
  CompilerOptions Opts = *O;
  Opts.CpsOptDisable = CpsOptDisable;
  Opts.Prelude = Prelude;
  Opts.KeepDumps = DumpLexp || DumpCps;
  CompileOutput C = Compiler::compile(Source, Opts, WithPrelude);
  return runCompiled(C, Opts, Native, VmBase, Metrics, MetricsJson,
                     VmMetricsJson, false, DumpLexp, DumpCps);
}
