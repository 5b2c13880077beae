//===- server/Protocol.h - Compile-server wire protocol ----------------------===//
///
/// \file
/// The length-prefixed binary frame format spoken between `smltcc
/// --connect` clients and the `smltcc --daemon` compile server over a
/// Unix-domain socket.
///
/// Every frame is a fixed 12-byte header followed by a payload:
///
///     offset  size  field
///     0       4     magic       0x53544C43 ("CLTS" on the wire, LE)
///     4       4     payload length (bytes; <= kMaxFramePayload)
///     8       1     message type (MsgType)
///     9       1     protocol version (kProtocolVersion)
///     10      2     reserved, must be zero
///
/// All multi-byte integers are little-endian and written byte-by-byte
/// (no struct punning), so the format is independent of host padding.
/// A connection starts with a Hello / HelloOk version handshake; any
/// frame with a bad magic, unsupported version, nonzero reserved bits,
/// or an over-limit declared length is answered with an Error frame and
/// the connection is closed — the server never reads unbounded input on
/// the say-so of a length field.
///
/// Payload encoding uses WireWriter / WireReader: bounds-checked,
/// deterministic, with explicit per-field serialization (the same
/// discipline as driver/CompileCache's canonical job keys). A compile
/// reply's bytes after its header are what the compile cache stores, in
/// memory and on disk (`compileEntry`).
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_SERVER_PROTOCOL_H
#define SMLTC_SERVER_PROTOCOL_H

#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "driver/Options.h"

#include <cstdint>
#include <string>

namespace smltc {
namespace server {

constexpr uint32_t kFrameMagic = 0x53544C43u;
/// v2: CompileReq/CompileResp carry a client-assigned request id
/// (propagated into server-side trace spans), and StatsTextReq /
/// StatsTextResp expose the metrics registry as Prometheus text or a
/// human-readable summary.
/// v3: multi-tenant build farm. TenantAuth / AuthOk authenticate a
/// connection against the server's token file (Status::Unauthorized on
/// mismatch), and CompileReq carries the client-computed
/// content-addressed cache-key hash so a FarmRouter front door can
/// consistent-hash requests onto shard daemons without recompiling the
/// canonical key server-side.
/// v4: distributed tracing. CompileReq carries the client-minted
/// 128-bit trace id plus the sender's span id (TraceIdHi / TraceIdLo /
/// ParentSpanId), so router and shard spans for one routed compile link
/// into a single trace; the router rewrites ParentSpanId with its
/// forward span when re-encoding.
/// v5: CompileReq carries the variant name and then the options as one
/// length-prefixed string in the driver's encoding (`encodeOptions`,
/// driver/Options.h), the bytes the cache key holds; the options'
/// schema byte replaces the field count, and five values no compile
/// depended on are gone from it.
constexpr uint8_t kProtocolVersion = 5;
constexpr size_t kFrameHeaderBytes = 12;
/// Hard cap on any frame payload; a declared length above this is a
/// protocol error before a single payload byte is read.
constexpr uint32_t kMaxFramePayload = 64u << 20;
/// Cap on a compile request's source text, enforced after decode.
constexpr uint32_t kMaxSourceBytes = 16u << 20;
/// Ping payloads are echoed back; cap what we are willing to echo.
constexpr uint32_t kMaxPingPayload = 4096;

enum class MsgType : uint8_t {
  // Requests (client -> server).
  Hello = 1,
  Ping = 2,
  CompileReq = 3,
  StatsReq = 4,
  ShutdownReq = 5,
  StatsTextReq = 6, ///< rendered stats (Prometheus / human text), v2
  TenantAuth = 7,   ///< per-tenant token presented after Hello, v3
  // Responses (server -> client).
  HelloOk = 64,
  Pong = 65,
  CompileResp = 66,
  StatsResp = 67,
  ShutdownOk = 68,
  Error = 69,
  StatsTextResp = 70,
  AuthOk = 71, ///< TenantAuth accepted; carries the tenant's quotas, v3
};

/// Render format carried by StatsTextReq.
enum class StatsFormat : uint8_t { Prometheus = 0, Human = 1 };

/// Status codes carried by Error frames and CompileResp headers. These
/// are the documented error codes the tests assert on.
enum class Status : uint8_t {
  Ok = 0,
  BadMagic = 1,         ///< frame header magic mismatch
  BadVersion = 2,       ///< unsupported protocol version
  BadFrame = 3,         ///< malformed header or undecodable payload
  FrameTooLarge = 4,    ///< declared payload length over the cap
  UnknownType = 5,      ///< unrecognized message type
  QueueFull = 6,        ///< admission control: compile queue at capacity
  DeadlineExceeded = 7, ///< request deadline passed before completion
  CompileFailed = 8,    ///< the program itself failed to compile
  Draining = 9,         ///< server is shutting down, not accepting work
  Internal = 10,        ///< server-side invariant failure
  Unauthorized = 11,    ///< missing/unknown tenant token (v3 auth)
};

/// Highest valid Status value; decode-side range checks use this so a
/// new code only needs to be added in one place.
constexpr uint8_t kMaxStatus = static_cast<uint8_t>(Status::Unauthorized);

const char *statusName(Status S);

/// Mirrors driver CacheTier on the wire (values identical).
enum class WireTier : uint8_t { Miss = 0, Memory = 1, Disk = 2 };

//===----------------------------------------------------------------------===//
// Bounds-checked payload encoding
//===----------------------------------------------------------------------===//

class WireWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u16(uint16_t V);
  void u32(uint32_t V);
  void u64(uint64_t V);
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V);
  /// Length-prefixed (u32) byte string.
  void str(const std::string &S);
  void raw(const void *P, size_t N);

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Reads the formats WireWriter writes. Any out-of-bounds read latches
/// `failed()` and returns zeros/empties; callers check once at the end
/// (or at natural checkpoints) instead of after every field.
class WireReader {
public:
  WireReader(const char *Data, size_t Len) : P(Data), N(Len) {}
  explicit WireReader(const std::string &S) : P(S.data()), N(S.size()) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64();
  /// Length-prefixed string; fails if the prefix exceeds `MaxLen` or
  /// runs past the buffer.
  std::string str(uint32_t MaxLen = kMaxFramePayload);
  bool raw(void *Out, size_t Len);

  bool failed() const { return Failed; }
  /// True when every byte has been consumed and nothing failed — frame
  /// decoders require this so trailing garbage is rejected.
  bool atEndOk() const { return !Failed && Pos == N; }
  size_t remaining() const { return N - Pos; }

private:
  const char *P;
  size_t N;
  size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

struct Frame {
  MsgType Type = MsgType::Error;
  std::string Payload;
};

/// Renders a complete wire frame (header + payload).
std::string encodeFrame(MsgType Type, const std::string &Payload);

enum class ParseResult : uint8_t {
  NeedMore, ///< fewer bytes than one complete frame; read more
  Ok,       ///< `Out` holds a frame; `Consumed` bytes were used
  Bad,      ///< malformed header: `Err`/`ErrMsg` say why; close the link
};

/// Incremental frame parser over a receive buffer. Never reads past
/// `Len`; never asks for more input when the declared length is already
/// over the cap.
ParseResult parseFrame(const char *Data, size_t Len, Frame &Out,
                       size_t &Consumed, Status &Err, std::string &ErrMsg);

//===----------------------------------------------------------------------===//
// Message payloads
//===----------------------------------------------------------------------===//

struct HelloMsg {
  uint8_t MinVersion = kProtocolVersion;
  uint8_t MaxVersion = kProtocolVersion;
  std::string ClientName;
};

struct HelloOkMsg {
  uint8_t Version = kProtocolVersion;
  std::string ServerName;
};

struct CompileRequest {
  /// Client-assigned id, echoed in the response and attached to every
  /// server-side trace span for this request (0 = unassigned; the
  /// client fills one in before sending).
  uint64_t RequestId = 0;
  /// Client-computed fnv1a64 of the canonical job key (v3). A routing
  /// hint only: the FarmRouter consistent-hashes it onto a shard so the
  /// same source lands on the same daemon's cache, but every daemon
  /// still derives its own key from the request body — a wrong hash can
  /// cost a cache miss, never a wrong answer. 0 = not computed.
  uint64_t CacheKeyHash = 0;
  /// Distributed trace context (v4). The client mints a random 128-bit
  /// trace id per request — even when its own tracing is off, so
  /// downstream nodes still share one trace — and each hop stamps its
  /// own span id into ParentSpanId before forwarding. All-zero means
  /// "no trace context".
  uint64_t TraceIdHi = 0;
  uint64_t TraceIdLo = 0;
  uint64_t ParentSpanId = 0;
  uint32_t DeadlineMs = 0; ///< 0 = no deadline
  bool WithPrelude = true;
  /// Sent as VariantName and the `encodeOptions` bytes (v5).
  CompilerOptions Opts;
  std::string Source;
};

struct CompileResponse {
  Status St = Status::Ok;
  WireTier Tier = WireTier::Miss;
  uint64_t RequestId = 0; ///< echo of CompileRequest::RequestId
  double CompileSec = 0; ///< server-side compile seconds (0 on cache hit)
  std::string Errors;    ///< diagnostics when St != Ok
  TmProgram Program;     ///< valid only when St == Ok
};

struct StatsTextRequest {
  StatsFormat Format = StatsFormat::Prometheus;
};

struct StatsTextResponse {
  StatsFormat Format = StatsFormat::Prometheus;
  std::string Text;
};

struct ErrorMsg {
  Status St = Status::Internal;
  std::string Message;
};

/// Presented once per connection, after Hello. The token is the only
/// credential; tenant identity is derived from it server-side.
struct TenantAuthMsg {
  std::string Token;
};

/// Acknowledges TenantAuth and tells the client what it bought.
struct AuthOkMsg {
  std::string Tenant;      ///< tenant name the token resolved to
  uint32_t Weight = 1;     ///< fair-share weight
  uint32_t MaxInFlight = 0; ///< per-tenant in-flight cap (0 = unlimited)
  uint32_t MaxQueued = 0;   ///< per-tenant queued cap (0 = unlimited)
};

std::string encodeHello(const HelloMsg &M);
bool decodeHello(const std::string &Payload, HelloMsg &M);
std::string encodeHelloOk(const HelloOkMsg &M);
bool decodeHelloOk(const std::string &Payload, HelloOkMsg &M);

std::string encodeCompileRequest(const CompileRequest &Req);
/// Fails (returns false, fills Err) on truncated/trailing bytes, enum
/// values out of range, or source text over kMaxSourceBytes.
bool decodeCompileRequest(const std::string &Payload, CompileRequest &Req,
                          std::string &Err);

std::string encodeCompileResponse(const CompileResponse &Resp);
/// The header of `Resp` (status, tier, request id, compile seconds)
/// followed by a stored `CacheEntry::Body`: how the shard answers from
/// its cache, splicing bytes and encoding no program. `Resp.Errors` and
/// `Resp.Program` are not read.
std::string encodeCompileResponse(const CompileResponse &Resp,
                                  const std::string &Body);
/// What a compile reply carries after its header for this compile: the
/// error text, then the program when the compile succeeded (with empty
/// error text, as every Ok reply has). The compile cache stores this.
CacheEntry compileEntry(const CompileOutput &Out);
bool decodeCompileResponse(const std::string &Payload, CompileResponse &Resp,
                           std::string &Err);

std::string encodeError(const ErrorMsg &M);
bool decodeError(const std::string &Payload, ErrorMsg &M);

std::string encodeTenantAuth(const TenantAuthMsg &M);
bool decodeTenantAuth(const std::string &Payload, TenantAuthMsg &M);
std::string encodeAuthOk(const AuthOkMsg &M);
bool decodeAuthOk(const std::string &Payload, AuthOkMsg &M);

std::string encodeStatsTextRequest(const StatsTextRequest &M);
bool decodeStatsTextRequest(const std::string &Payload, StatsTextRequest &M);
std::string encodeStatsTextResponse(const StatsTextResponse &M);
bool decodeStatsTextResponse(const std::string &Payload,
                             StatsTextResponse &M);

//===----------------------------------------------------------------------===//
// TmProgram codec
//===----------------------------------------------------------------------===//

void encodeProgram(WireWriter &W, const TmProgram &P);
/// Validates every enum and count against the TM instruction set while
/// decoding; a hostile or corrupt byte stream fails rather than
/// producing out-of-range opcodes.
bool decodeProgram(WireReader &R, TmProgram &P);

} // namespace server
} // namespace smltc

#endif // SMLTC_SERVER_PROTOCOL_H
