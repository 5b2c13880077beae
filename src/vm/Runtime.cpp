//===- vm/Runtime.cpp - Engine-independent runtime services ------------------------===//
//
// The services shared by the three interpreter engines and the native
// backend: heap allocation helpers, the exception machinery, polymorphic
// equality, and the CCallRt dispatch. Costs here are part of the
// observable cost model and must stay identical across engines.
//
//===----------------------------------------------------------------------===//

#include "vm/Runtime.h"

#include <cstdio>
#include <cstring>

using namespace smltc;
using namespace smltc::vmdetail;

VmRuntime::VmRuntime(const TmProgram &P, const VmOptions &Opts)
    : P(P), Opts(Opts),
      Hp(Opts.HeapSemiWords, Opts.NurseryKb * 1024 / sizeof(Word)) {
  std::memset(ArgW, 0, sizeof(ArgW));
  std::memset(ArgF, 0, sizeof(ArgF));
  std::memset(Tags, 0, sizeof(Tags));
  Handler = tagInt(0);
}

void VmRuntime::initRuntime(Word *WBase, const size_t *WLiveCount) {
  if (WBase)
    Hp.addRootRange(WBase, WLiveCount);
  Hp.addRootRange(ArgW, MaxArgs);
  Hp.addRootRange(&Handler, 1);
  Hp.addRootRange(Tags, NumBuiltinTags);
  internStrings();
  Hp.addRootRange(StrPtrs.data(), StrPtrs.size());
}

//===----------------------------------------------------------------------===//
// Heap helpers
//===----------------------------------------------------------------------===//

size_t VmRuntime::allocObject(ObjKind K, uint32_t Len1, uint32_t Len2,
                              size_t PayloadWords) {
  uint64_t CopiedBefore = Hp.copiedWords();
  size_t At = Hp.allocRaw(PayloadWords);
  // GC cost: 3 cycles per copied 64-bit word (promotions included).
  R.Cycles += 3 * (Hp.copiedWords() - CopiedBefore);
  Hp.at(At) = makeDesc(K, Len1, Len2);
  return At;
}

Word VmRuntime::allocBytes(const char *Data, size_t N) {
  size_t Payload = (N + 7) / 8;
  size_t At =
      allocObject(ObjKind::Bytes, static_cast<uint32_t>(N), 0, Payload);
  char *Dst = reinterpret_cast<char *>(&Hp.at(At + 1));
  std::memcpy(Dst, Data, N);
  AllocWords32 += 1 + (N + 3) / 4;
  return makePointer(At);
}

const char *VmRuntime::bytesData(Word P, size_t &N) {
  size_t Idx = pointerIndex(P);
  Word D = Hp.at(Idx);
  N = descLen1(D);
  return reinterpret_cast<const char *>(&Hp.at(Idx + 1));
}

void VmRuntime::internStrings() {
  for (const std::string &S : P.StringPool)
    StrPtrs.push_back(allocBytes(S.data(), S.size()));
}

//===----------------------------------------------------------------------===//
// Exceptions
//===----------------------------------------------------------------------===//

void VmRuntime::trap(const std::string &Msg) {
  R.Trapped = true;
  R.TrapMessage = Msg;
  Done = true;
}

/// Raises a builtin exception through the handler register.
void VmRuntime::raiseBuiltin(int TagIdx) {
  cost(12);
  Word Tag = Tags[TagIdx];
  // exn = [tag, unit]
  size_t At = allocObject(ObjKind::Record, 0, 2, 2);
  Hp.at(At + 1) = Tag;
  Hp.at(At + 2) = tagInt(0);
  AllocWords32 += 3;
  Word Exn = makePointer(At);
  invokeHandler(Exn);
}

void VmRuntime::invokeHandler(Word Exn) {
  Word H = Handler;
  if (!isPointer(H)) {
    trap("exception raised with no handler installed");
    return;
  }
  size_t Idx = pointerIndex(H);
  Word Code = Hp.at(Idx + 1); // closure slot 0 (after descriptor)
  ArgW[0] = H;
  ArgW[1] = Exn;
  for (int I = 2; I < 8; ++I)
    ArgW[I] = tagInt(0);
  for (int I = 0; I < 8; ++I)
    ArgF[I] = 0.0;
  if (!isTaggedInt(Code)) {
    trap("handler closure has no code pointer");
    return;
  }
  enterFunction(static_cast<int>(untagInt(Code)), 8, 8);
}

//===----------------------------------------------------------------------===//
// Runtime services
//===----------------------------------------------------------------------===//

bool VmRuntime::polyEq(Word A, Word B, uint64_t &Nodes) {
  if (++Nodes > 1000000)
    return A == B;
  if (A == B)
    return true;
  if (!isPointer(A) || !isPointer(B))
    return false;
  size_t IA = pointerIndex(A), IB = pointerIndex(B);
  Word DA = Hp.at(IA), DB = Hp.at(IB);
  if (descKind(DA) != descKind(DB))
    return false;
  switch (descKind(DA)) {
  case ObjKind::Bytes: {
    size_t NA = descLen1(DA), NB = descLen1(DB);
    if (NA != NB)
      return false;
    return std::memcmp(&Hp.at(IA + 1), &Hp.at(IB + 1), NA) == 0;
  }
  case ObjKind::Cell:
  case ObjKind::Array:
    return false; // identity compared above
  case ObjKind::Record: {
    uint32_t FA = descLen1(DA), WA = descLen2(DA);
    if (FA != descLen1(DB) || WA != descLen2(DB))
      return false;
    for (uint32_t I = 0; I < FA; ++I)
      if (Hp.at(IA + 1 + I) != Hp.at(IB + 1 + I))
        return false;
    for (uint32_t I = 0; I < WA; ++I)
      if (!polyEq(Hp.at(IA + 1 + FA + I), Hp.at(IB + 1 + FA + I), Nodes))
        return false;
    return true;
  }
  case ObjKind::Forward:
    return false;
  }
  return false;
}

void VmRuntime::runtimeCall(CpsOp Rt, Reg Rd) {
  cost(10);
  switch (Rt) {
  case CpsOp::RtPolyEq: {
    // The runtime structural equality dispatches on descriptor tags at
    // every node (the paper's "slow polymorphic equality").
    uint64_t Nodes = 0;
    bool Eq = polyEq(ArgW[0], ArgW[1], Nodes);
    cost(15 + 12 * Nodes);
    regOut(Rd) = tagInt(Eq ? 1 : 0);
    return;
  }
  case CpsOp::RtStrEq:
  case CpsOp::RtStrCmp: {
    size_t NA, NB;
    const char *A = bytesData(ArgW[0], NA);
    const char *B = bytesData(ArgW[1], NB);
    size_t M = NA < NB ? NA : NB;
    int C = std::memcmp(A, B, M);
    if (C == 0)
      C = NA < NB ? -1 : (NA > NB ? 1 : 0);
    else
      C = C < 0 ? -1 : 1;
    cost(M);
    if (Rt == CpsOp::RtStrEq)
      regOut(Rd) = tagInt(C == 0 ? 1 : 0);
    else
      regOut(Rd) = tagInt(C);
    return;
  }
  case CpsOp::RtConcat: {
    size_t NA, NB;
    const char *A = bytesData(ArgW[0], NA);
    const char *B = bytesData(ArgW[1], NB);
    if (NA + NB > MaxDescLen) {
      raiseBuiltin(TagSize);
      return;
    }
    std::string Buf(A, NA);
    Buf.append(B, NB);
    cost(NA + NB);
    regOut(Rd) = allocBytes(Buf.data(), Buf.size());
    return;
  }
  case CpsOp::RtSubstring: {
    size_t N;
    const char *A = bytesData(ArgW[0], N);
    int64_t Start = untagInt(ArgW[1]);
    int64_t Len = untagInt(ArgW[2]);
    if (Start < 0 || Len < 0 || static_cast<size_t>(Start + Len) > N) {
      raiseBuiltin(TagSubscript);
      return;
    }
    std::string Buf(A + Start, static_cast<size_t>(Len));
    cost(static_cast<uint64_t>(Len));
    regOut(Rd) = allocBytes(Buf.data(), Buf.size());
    return;
  }
  case CpsOp::RtChr: {
    int64_t C = untagInt(ArgW[0]);
    if (C < 0 || C > 255) {
      raiseBuiltin(TagChr);
      return;
    }
    char Ch = static_cast<char>(C);
    regOut(Rd) = allocBytes(&Ch, 1);
    return;
  }
  case CpsOp::RtItos: {
    char Buf[32];
    int N = std::snprintf(Buf, sizeof(Buf), "%lld",
                          static_cast<long long>(untagInt(ArgW[0])));
    cost(20);
    regOut(Rd) = allocBytes(Buf, static_cast<size_t>(N));
    return;
  }
  case CpsOp::RtRtos: {
    char Buf[48];
    int N = std::snprintf(Buf, sizeof(Buf), "%g", ArgF[0]);
    cost(30);
    regOut(Rd) = allocBytes(Buf, static_cast<size_t>(N));
    return;
  }
  case CpsOp::RtPrint: {
    size_t N;
    const char *A = bytesData(ArgW[0], N);
    R.Output.append(A, N);
    cost(N);
    regOut(Rd) = tagInt(0);
    return;
  }
  case CpsOp::RtMakeTag: {
    int64_t BuiltinIdx = untagInt(ArgW[0]);
    size_t At = allocObject(ObjKind::Cell, 0, 1, 1);
    Hp.at(At + 1) = tagInt(BuiltinIdx);
    AllocWords32 += 2;
    Word Ptr = makePointer(At);
    if (BuiltinIdx > 0 && BuiltinIdx < NumBuiltinTags)
      Tags[BuiltinIdx] = Ptr;
    regOut(Rd) = Ptr;
    return;
  }
  case CpsOp::RtArrayMake: {
    int64_t N = untagInt(ArgW[0]);
    Word Init = ArgW[1];
    if (N < 0 || N > MaxDescLen) {
      raiseBuiltin(TagSize);
      return;
    }
    size_t At = allocObject(ObjKind::Array, 0, static_cast<uint32_t>(N),
                            static_cast<size_t>(N));
    for (int64_t K = 0; K < N; ++K)
      Hp.at(At + 1 + K) = Init;
    AllocWords32 += 1 + static_cast<uint64_t>(N);
    cost(static_cast<uint64_t>(N));
    regOut(Rd) = makePointer(At);
    return;
  }
  default:
    trap("unknown runtime call");
    return;
  }
}

//===----------------------------------------------------------------------===//
// Conditions
//===----------------------------------------------------------------------===//

bool VmRuntime::condHolds(TmCond C, int64_t A, int64_t B) {
  switch (C) {
  case TmCond::Eq: return A == B;
  case TmCond::Ne: return A != B;
  case TmCond::Lt: return A < B;
  case TmCond::Le: return A <= B;
  case TmCond::Gt: return A > B;
  case TmCond::Ge: return A >= B;
  case TmCond::Ult:
    return static_cast<uint64_t>(A) < static_cast<uint64_t>(B);
  }
  return false;
}

bool VmRuntime::condHoldsF(TmCond C, double A, double B) {
  switch (C) {
  case TmCond::Eq: return A == B;
  case TmCond::Ne: return A != B;
  case TmCond::Lt: return A < B;
  case TmCond::Le: return A <= B;
  case TmCond::Gt: return A > B;
  case TmCond::Ge: return A >= B;
  case TmCond::Ult:
    // No unsigned ordering on floats; BrF sites trap before asking.
    break;
  }
  return false;
}
