//===- lty/TypeToLty.h - ML types to LTY (paper Figure 6) -------------------===//
///
/// \file
/// Translates semantic ML types, type schemes, and structure statics into
/// LTYs. Implements the paper's Figure 6 algorithm: type variables that
/// appear inside (rigid) constructor types are recursively boxed (RBOXED);
/// other type variables are BOXED; rigid constructor types are BOXED;
/// flexible (abstract) constructor types are RBOXED. Equality type
/// variables are also RBOXED so the runtime polymorphic equality can walk
/// their values.
///
/// Three representation modes mirror the measured compilers:
///   Standard    (sml.nrp / sml.fag): everything standard boxed
///   RecordsOnly (sml.rep / sml.mtd): typed records, floats still boxed
///   FullFloat   (sml.ffb / sml.fp3): floats unboxed (REALty)
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_LTY_TYPETOLTY_H
#define SMLTC_LTY_TYPETOLTY_H

#include "elab/Absyn.h"
#include "lty/Lty.h"
#include "types/Type.h"

#include <unordered_map>
#include <unordered_set>

namespace smltc {

enum class ReprMode : uint8_t { Standard, RecordsOnly, FullFloat };

class TypeLowering {
public:
  TypeLowering(LtyContext &LC, TypeContext &Types, ReprMode Mode)
      : LC(LC), Types(Types), Mode(Mode) {}

  ReprMode mode() const { return Mode; }
  LtyContext &ltyContext() { return LC; }

  /// Lowers a monotype occurrence.
  const Lty *lower(Type *T);
  /// Lowers a type scheme (quantifiers ignored; bound vars lower as BOXED
  /// or RBOXED per the marking rules).
  const Lty *lowerScheme(const TypeScheme &S);
  /// Lowers structure statics to an SRECORDty. Each StrStatic is lowered
  /// once per TypeLowering: a structure nested n deep is a field of every
  /// enclosing structure's static, and lowering it again per enclosing
  /// one would be quadratic in n.
  const Lty *lowerStatic(const StrStatic *S);

private:
  /// The state of one lower() call: the variables to lower as RBOXED,
  /// the strongest marking each node has had (1 outside a constructor,
  /// 2 inside one), and each node's lowering.
  struct Walk {
    std::unordered_set<const Type *> Marked;
    TypeMemo<uint8_t> MarkedAt;
    TypeMemo<const Lty *> Lowered;
  };

  const Lty *lowerRec(Type *T, Walk &W);
  const Lty *lowerNode(Type *T, Walk &W);
  void markVars(Type *T, bool InCon, Walk &W);

  LtyContext &LC;
  TypeContext &Types;
  ReprMode Mode;
  std::unordered_map<const StrStatic *, const Lty *> Statics;
};

} // namespace smltc

#endif // SMLTC_LTY_TYPETOLTY_H
