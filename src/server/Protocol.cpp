//===- server/Protocol.cpp - Compile-server wire protocol --------------------===//

#include "server/Protocol.h"

#include <cstring>
#include <type_traits>

using namespace smltc;
using namespace smltc::server;

const char *smltc::server::statusName(Status S) {
  switch (S) {
  case Status::Ok: return "ok";
  case Status::BadMagic: return "bad_magic";
  case Status::BadVersion: return "bad_version";
  case Status::BadFrame: return "bad_frame";
  case Status::FrameTooLarge: return "frame_too_large";
  case Status::UnknownType: return "unknown_type";
  case Status::QueueFull: return "queue_full";
  case Status::DeadlineExceeded: return "deadline_exceeded";
  case Status::CompileFailed: return "compile_failed";
  case Status::Draining: return "draining";
  case Status::Internal: return "internal";
  case Status::Unauthorized: return "unauthorized";
  }
  return "invalid";
}

//===----------------------------------------------------------------------===//
// WireWriter / WireReader
//===----------------------------------------------------------------------===//

void WireWriter::u16(uint16_t V) {
  u8(static_cast<uint8_t>(V));
  u8(static_cast<uint8_t>(V >> 8));
}

void WireWriter::u32(uint32_t V) {
  u16(static_cast<uint16_t>(V));
  u16(static_cast<uint16_t>(V >> 16));
}

void WireWriter::u64(uint64_t V) {
  u32(static_cast<uint32_t>(V));
  u32(static_cast<uint32_t>(V >> 32));
}

void WireWriter::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void WireWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Buf.append(S);
}

void WireWriter::raw(const void *P, size_t N) {
  Buf.append(static_cast<const char *>(P), N);
}

uint8_t WireReader::u8() {
  if (Failed || Pos + 1 > N) {
    Failed = true;
    return 0;
  }
  return static_cast<uint8_t>(P[Pos++]);
}

uint16_t WireReader::u16() {
  uint16_t Lo = u8();
  uint16_t Hi = u8();
  return static_cast<uint16_t>(Lo | (Hi << 8));
}

uint32_t WireReader::u32() {
  uint32_t Lo = u16();
  uint32_t Hi = u16();
  return Lo | (Hi << 16);
}

uint64_t WireReader::u64() {
  uint64_t Lo = u32();
  uint64_t Hi = u32();
  return Lo | (Hi << 32);
}

double WireReader::f64() {
  uint64_t Bits = u64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

std::string WireReader::str(uint32_t MaxLen) {
  uint32_t Len = u32();
  if (Failed || Len > MaxLen || Pos + Len > N) {
    Failed = true;
    return std::string();
  }
  std::string S(P + Pos, Len);
  Pos += Len;
  return S;
}

bool WireReader::raw(void *Out, size_t Len) {
  if (Failed || Pos + Len > N) {
    Failed = true;
    return false;
  }
  std::memcpy(Out, P + Pos, Len);
  Pos += Len;
  return true;
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

std::string smltc::server::encodeFrame(MsgType Type,
                                       const std::string &Payload) {
  WireWriter W;
  W.u32(kFrameMagic);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u8(static_cast<uint8_t>(Type));
  W.u8(kProtocolVersion);
  W.u16(0);
  W.raw(Payload.data(), Payload.size());
  return W.take();
}

ParseResult smltc::server::parseFrame(const char *Data, size_t Len,
                                      Frame &Out, size_t &Consumed,
                                      Status &Err, std::string &ErrMsg) {
  if (Len < kFrameHeaderBytes)
    return ParseResult::NeedMore;
  WireReader R(Data, kFrameHeaderBytes);
  uint32_t Magic = R.u32();
  uint32_t PayloadLen = R.u32();
  uint8_t Type = R.u8();
  uint8_t Ver = R.u8();
  uint16_t Reserved = R.u16();
  if (Magic != kFrameMagic) {
    Err = Status::BadMagic;
    ErrMsg = "bad frame magic";
    return ParseResult::Bad;
  }
  // Reject the declared length *before* waiting for payload bytes: a
  // hostile header cannot make the server buffer unbounded input.
  if (PayloadLen > kMaxFramePayload) {
    Err = Status::FrameTooLarge;
    ErrMsg = "declared payload length " + std::to_string(PayloadLen) +
             " exceeds cap " + std::to_string(kMaxFramePayload);
    return ParseResult::Bad;
  }
  if (Ver != kProtocolVersion) {
    Err = Status::BadVersion;
    ErrMsg = "unsupported protocol version " + std::to_string(Ver);
    return ParseResult::Bad;
  }
  if (Reserved != 0) {
    Err = Status::BadFrame;
    ErrMsg = "nonzero reserved header bits";
    return ParseResult::Bad;
  }
  if (Len < kFrameHeaderBytes + PayloadLen)
    return ParseResult::NeedMore;
  Out.Type = static_cast<MsgType>(Type);
  Out.Payload.assign(Data + kFrameHeaderBytes, PayloadLen);
  Consumed = kFrameHeaderBytes + PayloadLen;
  return ParseResult::Ok;
}

//===----------------------------------------------------------------------===//
// Hello / Error
//===----------------------------------------------------------------------===//

std::string smltc::server::encodeHello(const HelloMsg &M) {
  WireWriter W;
  W.u8(M.MinVersion);
  W.u8(M.MaxVersion);
  W.str(M.ClientName);
  return W.take();
}

bool smltc::server::decodeHello(const std::string &Payload, HelloMsg &M) {
  WireReader R(Payload);
  M.MinVersion = R.u8();
  M.MaxVersion = R.u8();
  M.ClientName = R.str(256);
  return R.atEndOk();
}

std::string smltc::server::encodeHelloOk(const HelloOkMsg &M) {
  WireWriter W;
  W.u8(M.Version);
  W.str(M.ServerName);
  return W.take();
}

bool smltc::server::decodeHelloOk(const std::string &Payload, HelloOkMsg &M) {
  WireReader R(Payload);
  M.Version = R.u8();
  M.ServerName = R.str(256);
  return R.atEndOk();
}

std::string smltc::server::encodeError(const ErrorMsg &M) {
  WireWriter W;
  W.u8(static_cast<uint8_t>(M.St));
  W.str(M.Message);
  return W.take();
}

bool smltc::server::decodeError(const std::string &Payload, ErrorMsg &M) {
  WireReader R(Payload);
  uint8_t St = R.u8();
  M.Message = R.str(65536);
  if (!R.atEndOk() || St > kMaxStatus)
    return false;
  M.St = static_cast<Status>(St);
  return true;
}

/// Tenant tokens are short shared secrets, not documents; cap well
/// below any frame limit so a hostile TenantAuth cannot buffer much.
static constexpr uint32_t kMaxTokenBytes = 512;

std::string smltc::server::encodeTenantAuth(const TenantAuthMsg &M) {
  WireWriter W;
  W.str(M.Token);
  return W.take();
}

bool smltc::server::decodeTenantAuth(const std::string &Payload,
                                     TenantAuthMsg &M) {
  WireReader R(Payload);
  M.Token = R.str(kMaxTokenBytes);
  return R.atEndOk() && !M.Token.empty();
}

std::string smltc::server::encodeAuthOk(const AuthOkMsg &M) {
  WireWriter W;
  W.str(M.Tenant);
  W.u32(M.Weight);
  W.u32(M.MaxInFlight);
  W.u32(M.MaxQueued);
  return W.take();
}

bool smltc::server::decodeAuthOk(const std::string &Payload, AuthOkMsg &M) {
  WireReader R(Payload);
  M.Tenant = R.str(256);
  M.Weight = R.u32();
  M.MaxInFlight = R.u32();
  M.MaxQueued = R.u32();
  return R.atEndOk();
}

std::string smltc::server::encodeStatsTextRequest(const StatsTextRequest &M) {
  WireWriter W;
  W.u8(static_cast<uint8_t>(M.Format));
  return W.take();
}

bool smltc::server::decodeStatsTextRequest(const std::string &Payload,
                                           StatsTextRequest &M) {
  WireReader R(Payload);
  uint8_t F = R.u8();
  if (!R.atEndOk() || F > static_cast<uint8_t>(StatsFormat::Human))
    return false;
  M.Format = static_cast<StatsFormat>(F);
  return true;
}

std::string
smltc::server::encodeStatsTextResponse(const StatsTextResponse &M) {
  WireWriter W;
  W.u8(static_cast<uint8_t>(M.Format));
  W.str(M.Text);
  return W.take();
}

bool smltc::server::decodeStatsTextResponse(const std::string &Payload,
                                            StatsTextResponse &M) {
  WireReader R(Payload);
  uint8_t F = R.u8();
  M.Text = R.str(4u << 20);
  if (!R.atEndOk() || F > static_cast<uint8_t>(StatsFormat::Human))
    return false;
  M.Format = static_cast<StatsFormat>(F);
  return true;
}

//===----------------------------------------------------------------------===//
// Compile request / response
//===----------------------------------------------------------------------===//

std::string smltc::server::encodeCompileRequest(const CompileRequest &Req) {
  WireWriter W;
  W.u64(Req.RequestId);
  W.u64(Req.CacheKeyHash);
  W.u64(Req.TraceIdHi);
  W.u64(Req.TraceIdLo);
  W.u64(Req.ParentSpanId);
  W.u32(Req.DeadlineMs);
  W.u8(Req.WithPrelude);
  W.str(Req.Opts.VariantName ? std::string(Req.Opts.VariantName)
                             : std::string());
  std::string Opts;
  encodeOptions(Opts, Req.Opts);
  W.str(Opts);
  W.str(Req.Source);
  return W.take();
}

bool smltc::server::decodeCompileRequest(const std::string &Payload,
                                         CompileRequest &Req,
                                         std::string &Err) {
  WireReader R(Payload);
  Req.RequestId = R.u64();
  Req.CacheKeyHash = R.u64();
  Req.TraceIdHi = R.u64();
  Req.TraceIdLo = R.u64();
  Req.ParentSpanId = R.u64();
  Req.DeadlineMs = R.u32();
  Req.WithPrelude = R.u8() != 0;
  std::string Variant = R.str(64);
  std::string Opts = R.str(64);
  if (R.failed()) {
    Err = "truncated compile request";
    return false;
  }
  if (!decodeOptions(Opts, Req.Opts, Err))
    return false;
  // VariantName is a non-owning const char*: point it at the matching
  // static variant name, or a generic label for custom option sets.
  Req.Opts.VariantName = "remote";
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (size_t I = 0; I < N; ++I)
    if (Variant == Vs[I].VariantName)
      Req.Opts.VariantName = Vs[I].VariantName;
  Req.Source = R.str(kMaxSourceBytes);
  if (!R.atEndOk()) {
    Err = "malformed compile request (truncated source or trailing bytes)";
    return false;
  }
  return true;
}

std::string smltc::server::encodeCompileResponse(const CompileResponse &Resp) {
  return encodeCompileResponse(Resp, Resp.Program);
}

std::string smltc::server::encodeCompileResponse(const CompileResponse &Resp,
                                                 const TmProgram &Program) {
  WireWriter W;
  W.u8(static_cast<uint8_t>(Resp.St));
  W.u8(static_cast<uint8_t>(Resp.Tier));
  W.u64(Resp.RequestId);
  W.f64(Resp.CompileSec);
  W.str(Resp.Errors);
  if (Resp.St == Status::Ok)
    encodeProgram(W, Program);
  return W.take();
}

bool smltc::server::decodeCompileResponse(const std::string &Payload,
                                          CompileResponse &Resp,
                                          std::string &Err) {
  WireReader R(Payload);
  uint8_t St = R.u8();
  uint8_t Tier = R.u8();
  Resp.RequestId = R.u64();
  Resp.CompileSec = R.f64();
  Resp.Errors = R.str(1u << 20);
  if (R.failed() || St > kMaxStatus ||
      Tier > static_cast<uint8_t>(WireTier::Disk)) {
    Err = "malformed compile response header";
    return false;
  }
  Resp.St = static_cast<Status>(St);
  Resp.Tier = static_cast<WireTier>(Tier);
  if (Resp.St == Status::Ok) {
    if (!decodeProgram(R, Resp.Program)) {
      Err = "malformed program in compile response";
      return false;
    }
  }
  if (!R.atEndOk()) {
    Err = "trailing bytes in compile response";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// TmProgram / CompileOutput codecs
//===----------------------------------------------------------------------===//

namespace {

// Decode-side sanity caps: a valid compile of even the largest corpus
// program is far below these; a corrupt or hostile length field fails
// fast instead of triggering a giant allocation.
constexpr uint64_t kMaxFunctions = 1u << 20;
constexpr uint64_t kMaxTotalInsns = 1u << 24;
constexpr uint64_t kMaxPoolStrings = 1u << 20;

constexpr uint8_t kMaxTmOp = static_cast<uint8_t>(TmOp::HaltExnOp);
constexpr uint8_t kMaxTmCond = static_cast<uint8_t>(TmCond::Ult);
constexpr uint8_t kMaxCpsOp = static_cast<uint8_t>(CpsOp::RtArrayMake);
constexpr uint8_t kMaxRecordKind = static_cast<uint8_t>(RecordKind::Spill);

} // namespace

void smltc::server::encodeProgram(WireWriter &W, const TmProgram &P) {
  W.u64(P.Funs.size());
  for (const TmFunction &F : P.Funs) {
    W.i32(F.NumWordParams);
    W.i32(F.NumFloatParams);
    W.u64(F.Code.size());
    for (const Insn &I : F.Code) {
      W.u8(static_cast<uint8_t>(I.Op));
      W.u16(static_cast<uint16_t>(I.Rd));
      W.u16(static_cast<uint16_t>(I.Rs1));
      W.u16(static_cast<uint16_t>(I.Rs2));
      W.i32(I.Imm);
      W.i64(I.IVal);
      W.f64(I.FVal);
      W.u8(static_cast<uint8_t>(I.Cond));
      W.u8(static_cast<uint8_t>(I.Rt));
      W.u8(static_cast<uint8_t>(I.RK));
    }
  }
  W.u64(P.StringPool.size());
  for (const std::string &S : P.StringPool)
    W.str(S);
}

bool smltc::server::decodeProgram(WireReader &R, TmProgram &P) {
  uint64_t NumFuns = R.u64();
  if (R.failed() || NumFuns > kMaxFunctions)
    return false;
  P.Funs.clear();
  P.Funs.reserve(NumFuns);
  uint64_t TotalInsns = 0;
  for (uint64_t FI = 0; FI < NumFuns; ++FI) {
    TmFunction F;
    F.NumWordParams = R.i32();
    F.NumFloatParams = R.i32();
    uint64_t NumInsns = R.u64();
    TotalInsns += NumInsns;
    if (R.failed() || TotalInsns > kMaxTotalInsns)
      return false;
    F.Code.reserve(NumInsns);
    for (uint64_t II = 0; II < NumInsns; ++II) {
      Insn I;
      uint8_t Op = R.u8();
      I.Rd = static_cast<Reg>(R.u16());
      I.Rs1 = static_cast<Reg>(R.u16());
      I.Rs2 = static_cast<Reg>(R.u16());
      I.Imm = R.i32();
      I.IVal = R.i64();
      I.FVal = R.f64();
      uint8_t Cond = R.u8();
      uint8_t Rt = R.u8();
      uint8_t RK = R.u8();
      if (R.failed() || Op > kMaxTmOp || Cond > kMaxTmCond ||
          Rt > kMaxCpsOp || RK > kMaxRecordKind)
        return false;
      I.Op = static_cast<TmOp>(Op);
      I.Cond = static_cast<TmCond>(Cond);
      I.Rt = static_cast<CpsOp>(Rt);
      I.RK = static_cast<RecordKind>(RK);
      F.Code.push_back(I);
    }
    P.Funs.push_back(std::move(F));
  }
  uint64_t NumStrings = R.u64();
  if (R.failed() || NumStrings > kMaxPoolStrings)
    return false;
  P.StringPool.clear();
  P.StringPool.reserve(NumStrings);
  for (uint64_t SI = 0; SI < NumStrings; ++SI) {
    P.StringPool.push_back(R.str());
    if (R.failed())
      return false;
  }
  return true;
}

void smltc::server::encodeCompileOutput(WireWriter &W,
                                        const CompileOutput &Out) {
  static_assert(std::is_trivially_copyable<CompileMetrics>::value,
                "CompileMetrics must stay a plain value type to be "
                "serialized as a sized blob");
  W.u8(Out.Ok);
  W.str(Out.Errors);
  W.str(Out.LexpDump);
  W.str(Out.CpsDump);
  W.u32(static_cast<uint32_t>(sizeof(CompileMetrics)));
  W.raw(&Out.Metrics, sizeof(CompileMetrics));
  encodeProgram(W, Out.Program);
}

bool smltc::server::decodeCompileOutput(WireReader &R, CompileOutput &Out) {
  Out.Ok = R.u8() != 0;
  Out.Errors = R.str(1u << 20);
  Out.LexpDump = R.str();
  Out.CpsDump = R.str();
  uint32_t MetricsSize = R.u32();
  // A metrics blob from a build with a different CompileMetrics layout
  // is unreadable; callers treat the failure as a cache miss. (The
  // salted cache key should have prevented this from ever matching.)
  if (R.failed() || MetricsSize != sizeof(CompileMetrics))
    return false;
  if (!R.raw(&Out.Metrics, sizeof(CompileMetrics)))
    return false;
  return decodeProgram(R, Out.Program);
}
