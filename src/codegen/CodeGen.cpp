//===- codegen/CodeGen.cpp - Closed CPS to TM code ---------------------------------===//

#include "codegen/CodeGen.h"

#include "cps/DenseVarMap.h"

#include <cassert>
#include <unordered_map>

using namespace smltc;

namespace {

/// The register of every variable bound so far in one function. Binders
/// are unique and no control path joins after a branch, so both arms of a
/// branch share these tables; each arm only reads the variables bound on
/// its own path. Shared by all functions of a program (cleared per
/// function).
struct RegMaps {
  DenseVarMap<Reg> WordOf;
  DenseVarMap<Reg> FloatOf;
};

class FunCompiler {
public:
  FunCompiler(TmFunction &Out, std::vector<std::string> &Pool,
              std::unordered_map<std::string, int> &PoolIndex,
              CodeGenStats &Stats, RegMaps &Regs)
      : Out(Out), Pool(Pool), PoolIndex(PoolIndex), Stats(Stats),
        Regs(Regs) {}

  void compile(const CFun *F) {
    Regs.WordOf.clear();
    Regs.FloatOf.clear();
    RegState S;
    for (size_t I = 0; I < F->Params.size(); ++I) {
      if (F->ParamTys[I].isFloat())
        Regs.FloatOf.set(F->Params[I], S.NextFloat++);
      else
        Regs.WordOf.set(F->Params[I], S.NextWord++);
    }
    Out.NumWordParams = S.NextWord - 1;
    Out.NumFloatParams = S.NextFloat - 1;
    gen(F->Body, S);
  }

private:
  /// The next free registers on the current control path. Passed by value,
  /// so both arms of a branch number their registers from the same start.
  struct RegState {
    Reg NextWord = 1;
    Reg NextFloat = 1;
  };

  size_t emit(Insn I) {
    Out.Code.push_back(I);
    return Out.Code.size() - 1;
  }

  Reg freshWord(RegState &S) {
    Reg R = S.NextWord++;
    if (S.NextWord > Stats.MaxWordRegs)
      Stats.MaxWordRegs = S.NextWord;
    return R;
  }
  Reg freshFloat(RegState &S) {
    Reg R = S.NextFloat++;
    if (S.NextFloat > Stats.MaxFloatRegs)
      Stats.MaxFloatRegs = S.NextFloat;
    return R;
  }

  int poolIdx(Symbol Sym) {
    std::string S(Sym.str());
    auto It = PoolIndex.find(S);
    if (It != PoolIndex.end())
      return It->second;
    int Idx = static_cast<int>(Pool.size());
    Pool.push_back(S);
    PoolIndex[S] = Idx;
    return Idx;
  }

  /// True if this value lives in a float register.
  bool isFloatVal(const CValue &V) const {
    if (V.K == CValue::Kind::Real)
      return true;
    if (V.isVar())
      return Regs.FloatOf.has(V.V);
    return false;
  }

  Reg wordReg(const CValue &V, RegState &S) {
    switch (V.K) {
    case CValue::Kind::Var: {
      const Reg *R = Regs.WordOf.get(V.V);
      assert(R && "word value not in a register");
      return R ? *R : 0;
    }
    case CValue::Kind::Int: {
      Reg R = freshWord(S);
      Insn I{TmOp::MovI};
      I.Rd = R;
      I.IVal = V.I;
      emit(I);
      return R;
    }
    case CValue::Kind::Label: {
      Reg R = freshWord(S);
      Insn I{TmOp::LoadLabel};
      I.Rd = R;
      I.Imm = static_cast<int32_t>(V.I);
      emit(I);
      return R;
    }
    case CValue::Kind::String: {
      Reg R = freshWord(S);
      Insn I{TmOp::LoadStr};
      I.Rd = R;
      I.Imm = poolIdx(V.S);
      emit(I);
      return R;
    }
    case CValue::Kind::Real:
      assert(false && "float value in word position");
      return 0;
    }
    return 0;
  }

  Reg floatReg(const CValue &V, RegState &S) {
    if (V.K == CValue::Kind::Real) {
      Reg R = freshFloat(S);
      Insn I{TmOp::MovFI};
      I.Rd = R;
      I.FVal = V.R;
      emit(I);
      return R;
    }
    assert(V.isVar());
    const Reg *R = Regs.FloatOf.get(V.V);
    assert(R && "float value not in a register");
    return R ? *R : 0;
  }

  void stageArgs(Span<CValue> Args, RegState &S) {
    int WIdx = 0, FIdx = 0;
    for (const CValue &V : Args) {
      if (V.isPad()) {
        // Unused callee-save slot: the register's current content is
        // irrelevant and no move is needed.
        (V.isFloatPad() ? FIdx : WIdx)++;
        continue;
      }
      if (isFloatVal(V)) {
        Reg R = floatReg(V, S);
        Insn I{TmOp::SetArgF};
        I.Imm = FIdx++;
        I.Rs1 = R;
        emit(I);
      } else {
        Reg R = wordReg(V, S);
        Insn I{TmOp::SetArg};
        I.Imm = WIdx++;
        I.Rs1 = R;
        emit(I);
      }
    }
  }

  static TmOp arithOp(CpsOp Op) {
    switch (Op) {
    case CpsOp::IAdd: return TmOp::Add;
    case CpsOp::ISub: return TmOp::Sub;
    case CpsOp::IMul: return TmOp::Mul;
    case CpsOp::IDiv: return TmOp::Div;
    case CpsOp::IMod: return TmOp::Mod;
    case CpsOp::INeg: return TmOp::Neg;
    case CpsOp::IAbs: return TmOp::Abs;
    case CpsOp::FAdd: return TmOp::FAdd;
    case CpsOp::FSub: return TmOp::FSub;
    case CpsOp::FMul: return TmOp::FMul;
    case CpsOp::FDiv: return TmOp::FDiv;
    case CpsOp::FNeg: return TmOp::FNeg;
    case CpsOp::FAbs: return TmOp::FAbs;
    case CpsOp::FSqrt: return TmOp::FSqrt;
    case CpsOp::FSin: return TmOp::FSin;
    case CpsOp::FCos: return TmOp::FCos;
    case CpsOp::FAtan: return TmOp::FAtan;
    case CpsOp::FExp: return TmOp::FExp;
    case CpsOp::FLn: return TmOp::FLn;
    case CpsOp::Floor: return TmOp::Floor;
    case CpsOp::RealFromInt: return TmOp::IToF;
    default:
      assert(false && "not an arith op");
      return TmOp::Add;
    }
  }

  static bool isFloatArith(CpsOp Op) {
    switch (Op) {
    case CpsOp::FAdd: case CpsOp::FSub: case CpsOp::FMul:
    case CpsOp::FDiv: case CpsOp::FNeg: case CpsOp::FAbs:
    case CpsOp::FSqrt: case CpsOp::FSin: case CpsOp::FCos:
    case CpsOp::FAtan: case CpsOp::FExp: case CpsOp::FLn:
      return true;
    default:
      return false;
    }
  }

  void gen(const Cexp *E, RegState S) {
    for (;;) {
      switch (E->K) {
      case Cexp::Kind::Record: {
        int NW = 0, NF = 0;
        for (const CField &F : E->Fields)
          (F.IsFloat ? NF : NW)++;
        // Materialize field registers first (allocation must not be
        // interleaved with other allocations).
        std::vector<std::pair<Reg, bool>> FieldRegs;
        for (const CField &F : E->Fields) {
          if (F.IsFloat)
            FieldRegs.push_back({floatReg(F.V, S), true});
          else
            FieldRegs.push_back({wordReg(F.V, S), false});
        }
        Insn A{TmOp::AllocStart};
        A.RK = E->RK;
        A.Rs1 = static_cast<Reg>(NW);
        A.Rs2 = static_cast<Reg>(NF);
        emit(A);
        for (auto [R, IsF] : FieldRegs) {
          Insn FI{IsF ? TmOp::AllocFloat : TmOp::AllocWord};
          FI.Rs1 = R;
          emit(FI);
        }
        Reg Rd = freshWord(S);
        Insn End{TmOp::AllocEnd};
        End.Rd = Rd;
        emit(End);
        Regs.WordOf.set(E->W, Rd);
        E = E->C1;
        continue;
      }
      case Cexp::Kind::Select: {
        Reg Base = wordReg(E->F, S);
        if (E->IsFloat) {
          Reg Rd = freshFloat(S);
          Insn I{TmOp::LoadF};
          I.Rd = Rd;
          I.Rs1 = Base;
          I.Imm = E->Idx;
          emit(I);
          Regs.FloatOf.set(E->W, Rd);
        } else {
          Reg Rd = freshWord(S);
          Insn I{TmOp::Load};
          I.Rd = Rd;
          I.Rs1 = Base;
          I.Imm = E->Idx;
          emit(I);
          Regs.WordOf.set(E->W, Rd);
        }
        E = E->C1;
        continue;
      }
      case Cexp::Kind::App: {
        stageArgs(E->Args, S);
        if (E->F.K == CValue::Kind::Label) {
          Insn I{TmOp::CallL};
          I.Imm = static_cast<int32_t>(E->F.I);
          emit(I);
        } else {
          Reg R = wordReg(E->F, S);
          Insn I{TmOp::CallR};
          I.Rs1 = R;
          emit(I);
        }
        return;
      }
      case Cexp::Kind::Fix:
        assert(false && "FIX survived closure conversion");
        return;
      case Cexp::Kind::Branch: {
        TmCond C;
        bool FloatCmp = false;
        switch (E->BOp) {
        case BranchOp::Ieq: C = TmCond::Eq; break;
        case BranchOp::Ine: C = TmCond::Ne; break;
        case BranchOp::Ilt: C = TmCond::Lt; break;
        case BranchOp::Ile: C = TmCond::Le; break;
        case BranchOp::Igt: C = TmCond::Gt; break;
        case BranchOp::Ige: C = TmCond::Ge; break;
        case BranchOp::Ult: C = TmCond::Ult; break;
        case BranchOp::Feq: C = TmCond::Eq; FloatCmp = true; break;
        case BranchOp::Flt: C = TmCond::Lt; FloatCmp = true; break;
        case BranchOp::Fle: C = TmCond::Le; FloatCmp = true; break;
        case BranchOp::Fgt: C = TmCond::Gt; FloatCmp = true; break;
        case BranchOp::Fge: C = TmCond::Ge; FloatCmp = true; break;
        case BranchOp::IsBoxed: {
          Reg R = wordReg(E->Args[0], S);
          Insn I{TmOp::BrBoxed};
          I.Rs1 = R;
          size_t BrIdx = emit(I);
          gen(E->C2, S); // not boxed: fall through to else
          Out.Code[BrIdx].Imm = static_cast<int32_t>(Out.Code.size());
          gen(E->C1, S);
          return;
        }
        }
        size_t BrIdx;
        if (FloatCmp) {
          Reg A = floatReg(E->Args[0], S);
          Reg Bv = floatReg(E->Args[1], S);
          Insn I{TmOp::BrF};
          I.Cond = C;
          I.Rs1 = A;
          I.Rs2 = Bv;
          BrIdx = emit(I);
        } else {
          Reg A = wordReg(E->Args[0], S);
          Reg Bv = wordReg(E->Args[1], S);
          Insn I{TmOp::Br};
          I.Cond = C;
          I.Rs1 = A;
          I.Rs2 = Bv;
          BrIdx = emit(I);
        }
        gen(E->C2, S); // else falls through
        Out.Code[BrIdx].Imm = static_cast<int32_t>(Out.Code.size());
        gen(E->C1, S);
        return;
      }
      case Cexp::Kind::Arith:
      case Cexp::Kind::Pure: {
        if (E->Op == CpsOp::Copy) {
          if (isFloatVal(E->Args[0])) {
            Reg Rs = floatReg(E->Args[0], S);
            Reg Rd = freshFloat(S);
            Insn I{TmOp::MovFR};
            I.Rd = Rd;
            I.Rs1 = Rs;
            emit(I);
            Regs.FloatOf.set(E->W, Rd);
          } else {
            Reg Rs = wordReg(E->Args[0], S);
            Reg Rd = freshWord(S);
            Insn I{TmOp::MovR};
            I.Rd = Rd;
            I.Rs1 = Rs;
            emit(I);
            Regs.WordOf.set(E->W, Rd);
          }
          E = E->C1;
          continue;
        }
        bool FRes = E->WTy.isFloat();
        bool FArgs = isFloatArith(E->Op) || E->Op == CpsOp::Floor;
        Insn I{arithOp(E->Op)};
        if (E->Op == CpsOp::RealFromInt)
          FArgs = false;
        if (FArgs) {
          I.Rs1 = floatReg(E->Args[0], S);
          if (E->Args.size() > 1)
            I.Rs2 = floatReg(E->Args[1], S);
        } else {
          I.Rs1 = wordReg(E->Args[0], S);
          if (E->Args.size() > 1)
            I.Rs2 = wordReg(E->Args[1], S);
        }
        Reg Rd = FRes ? freshFloat(S) : freshWord(S);
        I.Rd = Rd;
        emit(I);
        if (FRes)
          Regs.FloatOf.set(E->W, Rd);
        else
          Regs.WordOf.set(E->W, Rd);
        E = E->C1;
        continue;
      }
      case Cexp::Kind::Looker: {
        Reg Rd;
        switch (E->Op) {
        case CpsOp::LoadCell: {
          Reg Base = wordReg(E->Args[0], S);
          Reg Idx = wordReg(E->Args[1], S);
          Rd = freshWord(S);
          Insn I{TmOp::LoadIdx};
          I.Rd = Rd;
          I.Rs1 = Base;
          I.Rs2 = Idx;
          emit(I);
          break;
        }
        case CpsOp::LoadByte: {
          Reg Base = wordReg(E->Args[0], S);
          Reg Idx = wordReg(E->Args[1], S);
          Rd = freshWord(S);
          Insn I{TmOp::LoadByte};
          I.Rd = Rd;
          I.Rs1 = Base;
          I.Rs2 = Idx;
          emit(I);
          break;
        }
        case CpsOp::SizeOf: {
          Reg Base = wordReg(E->Args[0], S);
          Rd = freshWord(S);
          Insn I{TmOp::SizeOfOp};
          I.Rd = Rd;
          I.Rs1 = Base;
          emit(I);
          break;
        }
        case CpsOp::GetHandler: {
          Rd = freshWord(S);
          Insn I{TmOp::GetHdlr};
          I.Rd = Rd;
          emit(I);
          break;
        }
        default:
          assert(false && "unknown looker");
          Rd = freshWord(S);
        }
        Regs.WordOf.set(E->W, Rd);
        E = E->C1;
        continue;
      }
      case Cexp::Kind::Setter: {
        if (E->Op == CpsOp::StoreCell) {
          Reg Base = wordReg(E->Args[0], S);
          Reg Idx = wordReg(E->Args[1], S);
          Reg Val = wordReg(E->Args[2], S);
          Insn I{TmOp::StoreIdx};
          I.Rs1 = Base;
          I.Rs2 = Idx;
          I.Rd = Val; // value register carried in Rd
          emit(I);
        } else {
          assert(E->Op == CpsOp::SetHandler);
          Reg V = wordReg(E->Args[0], S);
          Insn I{TmOp::SetHdlr};
          I.Rs1 = V;
          emit(I);
        }
        E = E->C1;
        continue;
      }
      case Cexp::Kind::CCall: {
        stageArgs(E->Args, S);
        bool FRes = E->WTy.isFloat();
        Reg Rd = FRes ? freshFloat(S) : freshWord(S);
        Insn I{TmOp::CCallRt};
        I.Rt = E->Op;
        I.Rd = Rd;
        emit(I);
        if (FRes)
          Regs.FloatOf.set(E->W, Rd);
        else
          Regs.WordOf.set(E->W, Rd);
        E = E->C1;
        continue;
      }
      case Cexp::Kind::Halt: {
        Reg R = wordReg(E->F, S);
        Insn I{E->Idx == 1 ? TmOp::HaltExnOp : TmOp::HaltOp};
        I.Rs1 = R;
        emit(I);
        return;
      }
      }
    }
  }

  TmFunction &Out;
  std::vector<std::string> &Pool;
  std::unordered_map<std::string, int> &PoolIndex;
  CodeGenStats &Stats;
  RegMaps &Regs;
};

} // namespace

TmProgram smltc::generateCode(const ClosureResult &Closed,
                              CodeGenStats &Stats) {
  TmProgram P;
  P.Funs.resize(Closed.Funs.size());
  std::unordered_map<std::string, int> PoolIndex;
  RegMaps Regs;
  for (size_t I = 0; I < Closed.Funs.size(); ++I) {
    assert(Closed.Funs[I] && "missing function for label");
    FunCompiler FC(P.Funs[I], P.StringPool, PoolIndex, Stats, Regs);
    FC.compile(Closed.Funs[I]);
  }
  return P;
}
