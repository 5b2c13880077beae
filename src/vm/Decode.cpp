//===- vm/Decode.cpp - TM -> pre-decoded internal form -----------------------------===//

#include "vm/Decode.h"
#include "vm/VmInternal.h"

using namespace smltc;

namespace {

using vmdetail::FastFloatRegs;
using vmdetail::FastWordRegs;

/// Spilled-register surcharges: each operand register at or beyond the
/// fast file models a spilled value and costs 2 cycles. They depend only
/// on register numbers, so they are fixed at decode time.
uint16_t rc(Reg A, Reg B = 0, Reg C = 0) {
  return 2 * ((A >= FastWordRegs) + (B >= FastWordRegs) +
              (C >= FastWordRegs));
}
uint16_t fc(Reg A, Reg B = 0, Reg C = 0) {
  return 2 * ((A >= FastFloatRegs) + (B >= FastFloatRegs) +
              (C >= FastFloatRegs));
}

/// The static cycle charge of one instruction on the non-trapping path:
/// the cost model's only definition of it. Dynamic charges (taken
/// branches +1, GC copies, runtime-service work) stay in the loop
/// bodies. An edit here moves Figure 7's cycles, which
/// CorpusCounts.MatchPinnedFile pins per corpus row.
uint16_t staticCost(const Insn &I, bool UnalignedFloats) {
  switch (I.Op) {
  case TmOp::MovI:
  case TmOp::LoadLabel:
  case TmOp::LoadStr:
    return 1 + rc(I.Rd);
  case TmOp::MovR:
    return 1 + rc(I.Rd, I.Rs1);
  case TmOp::MovFI:
    return 1 + fc(I.Rd);
  case TmOp::MovFR:
    return 1 + fc(I.Rd, I.Rs1);
  case TmOp::Add:
  case TmOp::Sub:
    return 1 + rc(I.Rd, I.Rs1, I.Rs2);
  case TmOp::Mul:
    return 5 + rc(I.Rd, I.Rs1, I.Rs2);
  case TmOp::Div:
  case TmOp::Mod:
    return 12 + rc(I.Rd, I.Rs1, I.Rs2);
  case TmOp::Neg:
  case TmOp::Abs:
    return 1 + rc(I.Rd, I.Rs1);
  case TmOp::FAdd:
  case TmOp::FSub:
  case TmOp::FMul:
    return 2 + fc(I.Rd, I.Rs1, I.Rs2);
  case TmOp::FDiv:
    return 12 + fc(I.Rd, I.Rs1, I.Rs2);
  case TmOp::FNeg:
  case TmOp::FAbs:
    return 1 + fc(I.Rd, I.Rs1);
  case TmOp::FSqrt:
    return 15 + fc(I.Rd, I.Rs1);
  case TmOp::FSin:
  case TmOp::FCos:
  case TmOp::FAtan:
  case TmOp::FExp:
  case TmOp::FLn:
    return 30;
  case TmOp::Floor:
  case TmOp::IToF:
    return 2;
  case TmOp::Br: // not-taken charge; taken adds 1 dynamically
    return 1 + rc(I.Rs1, I.Rs2);
  case TmOp::BrF:
    return 1;
  case TmOp::BrBoxed:
    return 1 + rc(I.Rs1);
  case TmOp::Jmp:
    return 2;
  case TmOp::Load:
    return 2 + rc(I.Rd, I.Rs1);
  case TmOp::Store:
    return 1;
  case TmOp::LoadF:
    return (UnalignedFloats ? 4 : 2) + fc(I.Rd) + rc(I.Rs1);
  case TmOp::LoadIdx:
    return 3 + rc(I.Rd, I.Rs1, I.Rs2);
  case TmOp::StoreIdx:
    return 2;
  case TmOp::LoadByte:
  case TmOp::SizeOfOp:
    return 2;
  case TmOp::AllocStart:
    return 1;
  case TmOp::AllocWord:
    return 1 + rc(I.Rs1);
  case TmOp::AllocFloat:
    return 2;
  case TmOp::AllocEnd:
    return 1 + rc(I.Rd);
  case TmOp::GetHdlr:
    return 1 + rc(I.Rd);
  case TmOp::SetHdlr:
  case TmOp::SetArg:
    return 1 + rc(I.Rs1);
  case TmOp::SetArgF:
    return 1;
  case TmOp::CallL:
    return 2;
  case TmOp::CallR: // charged even when the call traps
    return 2 + rc(I.Rs1);
  case TmOp::CCallRt: // runtimeCall charges its own 10 + per-service work
  case TmOp::HaltOp:
  case TmOp::HaltExnOp:
    return 0;
  }
  return 0;
}

bool isBranch(TmOp Op) {
  return Op == TmOp::Br || Op == TmOp::BrF || Op == TmOp::BrBoxed ||
         Op == TmOp::Jmp;
}

DInsn invalid(int32_t Reason) {
  DInsn D;
  D.Op = DOp::TrapInvalid;
  D.Imm = Reason;
  return D;
}

} // namespace

const char *smltc::dopName(DOp Op) {
  static const char *const Names[NumDOps] = {
      "MovI", "MovR", "MovFI", "MovFR", "LoadLabel", "LoadStr",
      "Add", "Sub", "Mul", "Div", "Mod", "Neg", "Abs",
      "FAdd", "FSub", "FMul", "FDiv", "FNeg", "FAbs",
      "FSqrt", "FSin", "FCos", "FAtan", "FExp", "FLn",
      "Floor", "IToF",
      "Br", "BrF", "BrBoxed", "Jmp",
      "Load", "Store", "LoadF", "LoadIdx", "StoreIdx", "LoadByte",
      "SizeOf",
      "AllocStart", "AllocWord", "AllocFloat", "AllocEnd",
      "GetHdlr", "SetHdlr",
      "SetArg", "SetArgF", "CallL", "CallR",
      "CCallRt",
      "Halt", "HaltExn",
      "TrapEnd", "TrapInvalid",
  };
  int I = static_cast<int>(Op);
  return I >= 0 && I < NumDOps ? Names[I] : "?";
}

const char *smltc::dtrapMessage(int32_t Reason) {
  switch (Reason) {
  case DTrapFloatUnsignedCompare:
    return "float compare has no unsigned ordering (BrF with Ult)";
  case DTrapBadStringIndex:
    return "string-pool index out of range";
  default:
    return "statically invalid instruction";
  }
}

namespace {

/// Register operands of one instruction, classified by file.
struct RegUse {
  int MaxW = -1;       ///< largest word register mentioned
  int MaxF = -1;       ///< largest float register mentioned
  bool Negative = false;
  bool BadArgSlot = false;
};

RegUse regUse(const Insn &I) {
  RegUse U;
  auto w = [&U](Reg R) {
    if (R < 0)
      U.Negative = true;
    else if (R > U.MaxW)
      U.MaxW = R;
  };
  auto f = [&U](Reg R) {
    if (R < 0)
      U.Negative = true;
    else if (R > U.MaxF)
      U.MaxF = R;
  };
  switch (I.Op) {
  case TmOp::MovI:
  case TmOp::LoadLabel:
  case TmOp::LoadStr:
  case TmOp::AllocEnd:
  case TmOp::GetHdlr:
  case TmOp::CCallRt:
    w(I.Rd);
    break;
  case TmOp::MovR:
  case TmOp::Neg:
  case TmOp::Abs:
  case TmOp::Load:
  case TmOp::SizeOfOp:
    w(I.Rd);
    w(I.Rs1);
    break;
  case TmOp::Add:
  case TmOp::Sub:
  case TmOp::Mul:
  case TmOp::Div:
  case TmOp::Mod:
  case TmOp::LoadIdx:
  case TmOp::LoadByte:
  case TmOp::StoreIdx:
    w(I.Rd);
    w(I.Rs1);
    w(I.Rs2);
    break;
  case TmOp::MovFI:
    f(I.Rd);
    break;
  case TmOp::MovFR:
  case TmOp::FNeg:
  case TmOp::FAbs:
  case TmOp::FSqrt:
  case TmOp::FSin:
  case TmOp::FCos:
  case TmOp::FAtan:
  case TmOp::FExp:
  case TmOp::FLn:
    f(I.Rd);
    f(I.Rs1);
    break;
  case TmOp::FAdd:
  case TmOp::FSub:
  case TmOp::FMul:
  case TmOp::FDiv:
    f(I.Rd);
    f(I.Rs1);
    f(I.Rs2);
    break;
  case TmOp::Floor:
    w(I.Rd);
    f(I.Rs1);
    break;
  case TmOp::IToF:
  case TmOp::LoadF:
    f(I.Rd);
    w(I.Rs1);
    break;
  case TmOp::Br:
    w(I.Rs1);
    w(I.Rs2);
    break;
  case TmOp::BrF:
    f(I.Rs1);
    f(I.Rs2);
    break;
  case TmOp::BrBoxed:
  case TmOp::SetHdlr:
  case TmOp::CallR:
  case TmOp::AllocWord:
  case TmOp::HaltOp:
    w(I.Rs1);
    break;
  case TmOp::Store:
    w(I.Rd);
    w(I.Rs1);
    break;
  case TmOp::AllocFloat:
    f(I.Rs1);
    break;
  case TmOp::SetArg:
    w(I.Rs1);
    U.BadArgSlot = I.Imm < 0 || I.Imm >= vmdetail::MaxArgs;
    break;
  case TmOp::SetArgF:
    f(I.Rs1);
    U.BadArgSlot = I.Imm < 0 || I.Imm >= vmdetail::MaxArgs;
    break;
  case TmOp::AllocStart: // Rs1/Rs2 are field counts, not registers
  case TmOp::Jmp:
  case TmOp::CallL:
  case TmOp::HaltExnOp:
    break;
  }
  return U;
}

} // namespace

const char *smltc::validateRegisters(const TmProgram &P) {
  for (const TmFunction &Fn : P.Funs)
    for (const Insn &I : Fn.Code) {
      RegUse U = regUse(I);
      if (U.Negative || U.BadArgSlot || U.MaxW >= vmdetail::NumWordRegs ||
          U.MaxF >= vmdetail::NumFloatRegs)
        return "register or argument slot out of range";
    }
  return nullptr;
}

DecodedProgram smltc::decodeProgram(const TmProgram &P,
                                    bool UnalignedFloats) {
  DecodedProgram Out;
  Out.Funs.resize(P.Funs.size());
  for (size_t FI = 0; FI < P.Funs.size(); ++FI) {
    const TmFunction &F = P.Funs[FI];
    DecodedFunction &DF = Out.Funs[FI];
    DF.NumWordParams = F.NumWordParams;
    DF.NumFloatParams = F.NumFloatParams;
    DF.NumRegsUsed = 1 + F.NumWordParams;
    for (const Insn &I : F.Code) {
      int M = regUse(I).MaxW;
      if (M + 1 > DF.NumRegsUsed)
        DF.NumRegsUsed = M + 1;
    }
    int32_t S = static_cast<int32_t>(F.Code.size()); // TrapEnd pad index
    DF.Code.reserve(F.Code.size() + 1);
    for (const Insn &I : F.Code) {
      DInsn D;
      D.Op = static_cast<DOp>(I.Op); // DOp mirrors the TmOp order
      D.Aux = static_cast<uint8_t>(I.Cond);
      D.Cost = staticCost(I, UnalignedFloats);
      D.Rd = I.Rd;
      D.Rs1 = I.Rs1;
      D.Rs2 = I.Rs2;
      D.Imm = I.Imm;
      D.IVal = I.IVal;
      switch (I.Op) {
      case TmOp::MovI:
        // Pre-tag the immediate; the loop just moves the word.
        D.IVal = static_cast<int64_t>(tagInt(I.IVal));
        break;
      case TmOp::MovFI:
        D.FVal = I.FVal;
        break;
      case TmOp::LoadLabel:
        D.IVal = static_cast<int64_t>(tagInt(I.Imm));
        break;
      case TmOp::LoadStr:
        if (I.Imm < 0 ||
            static_cast<size_t>(I.Imm) >= P.StringPool.size())
          D = invalid(DTrapBadStringIndex);
        break;
      case TmOp::BrF:
        // A float unsigned compare has no meaning; the seed silently
        // degraded it to a signed Lt — now an explicit trap.
        if (I.Cond == TmCond::Ult)
          D = invalid(DTrapFloatUnsignedCompare);
        break;
      case TmOp::AllocStart:
        D.Aux = static_cast<uint8_t>(I.RK);
        break;
      case TmOp::CCallRt:
        D.Imm = static_cast<int32_t>(I.Rt);
        break;
      default:
        break;
      }
      // Validate jump targets once so the hot loop never bounds-checks
      // Pc: anything outside [0, S] lands on the TrapEnd pad, which
      // traps as falling off the end of the function does.
      if (isBranch(I.Op) && D.Op != DOp::TrapInvalid &&
          (D.Imm < 0 || D.Imm > S))
        D.Imm = S;
      DF.Code.push_back(D);
    }
    DInsn Pad;
    Pad.Op = DOp::TrapEnd;
    DF.Code.push_back(Pad);
  }
  return Out;
}
