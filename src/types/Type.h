//===- types/Type.h - ML semantic types ------------------------------------===//
///
/// \file
/// Semantic types for the elaborator: a mutable type graph with union-find
/// type variables (Damas-Milner style), type constructors (primitive,
/// datatype, abbreviation, and *flexible* — i.e. abstract types arising from
/// signature matching and functor parameters, which the paper's Section 4.3
/// treats specially), data constructors with their runtime representations,
/// and type schemes with rank-based generalization.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_TYPES_TYPE_H
#define SMLTC_TYPES_TYPE_H

#include "support/Arena.h"
#include "support/StringInterner.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace smltc {

struct TyCon;
struct DataCon;

/// Runtime representation of a data constructor, decided at declaration
/// time from the shape of the constructor list (Section 5: "concrete data
/// types are compiled into tagged data records or constants").
enum class ConRepKind : uint8_t {
  Constant,    ///< constant constructor: a tagged small integer
  Transparent, ///< sole value-carrying constructor whose payload is
               ///< statically boxed (a tuple): represented by the payload
               ///< pointer itself (like ::)
  TaggedBox,   ///< heap record [tag, payload]
  Ref,         ///< the builtin ref/array constructors (mutable cell)
};

struct ConRep {
  ConRepKind K = ConRepKind::Constant;
  int Tag = 0;
};

/// A semantic type. Nodes are arena-allocated and mutated by unification
/// (Var nodes carry union-find links).
struct Type {
  enum class Kind : uint8_t { Var, Con, Tuple, Arrow };
  Kind K;

  // --- Var ---
  int VarId = 0;
  bool IsEq = false;     ///< equality type variable (''a)
  bool IsBound = false;  ///< generalized into a scheme; never unified
  bool IsOverload = false; ///< overloaded-operator variable {int, real}
  int Depth = 0;         ///< let-depth (rank) for generalization
  Type *Link = nullptr;  ///< instantiation (union-find)

  // --- Con ---
  TyCon *Con = nullptr;
  Span<Type *> Args;

  // --- Tuple ---
  Span<Type *> Elems;

  // --- Arrow ---
  Type *From = nullptr;
  Type *To = nullptr;

  bool isVar() const { return K == Kind::Var; }
};

/// A polymorphic type scheme: forall BoundVars. Body. BoundVars are the
/// original Var nodes, flagged IsBound; instantiation substitutes fresh
/// variables for them via a copy of Body.
struct TypeScheme {
  Span<Type *> BoundVars;
  Type *Body = nullptr;

  bool isMonomorphic() const { return BoundVars.empty(); }
};

/// A type constructor.
struct TyCon {
  enum class Kind : uint8_t {
    Prim,     ///< int, real, string, bool(datatype-ish but primitive rep),
              ///< unit, ref, array, exn, cont
    Datatype, ///< user (or builtin list/bool) datatype
    Abbrev,   ///< type abbreviation
    Flexible, ///< abstract: from an opaque signature match or a functor
              ///< parameter; paper Section 4.3 forces RBOXED representations
  };
  Kind K;
  Symbol Name;
  int Arity = 0;
  bool AdmitsEq = true;
  int Stamp = 0; ///< unique identity for datatypes/flexible tycons

  // Datatype: constructor descriptors (indexes match declaration order).
  Span<DataCon *> Cons;
  /// Formal parameter variables used in constructor payload templates.
  Span<Type *> Formals;

  // Abbrev: Formals + Body.
  Type *AbbrevBody = nullptr;

  // Flexible: when a functor is applied or an abstraction is analyzed, the
  // *translator* consults the realization recorded in the thinning; the
  // tycon itself stays abstract.
};

/// A data constructor belonging to a datatype TyCon.
struct DataCon {
  Symbol Name;
  TyCon *Owner = nullptr;
  int Index = 0;
  /// Payload type in terms of Owner->Formals; null for constants.
  Type *Payload = nullptr;
  ConRep Rep;
};

/// True for the nodes a structural walk recurses into: applied
/// constructors, abbreviations (a walk that expands one goes on into
/// its body), tuples and arrows, as opposed to leaves.
inline bool hasChildren(const Type *T) {
  return T->K == Type::Kind::Arrow ||
         (T->K == Type::Kind::Tuple && !T->Elems.empty()) ||
         (T->K == Type::Kind::Con &&
          (!T->Args.empty() || T->Con->K == TyCon::Kind::Abbrev));
}

/// What one walk over a type has computed per node. A type is a DAG, not
/// a tree: every use of a monomorphic value shares its type, so
/// `val x1 = (x0, x0) ... val xn = (x(n-1), x(n-1))` gives xn a type of n
/// nodes and 2^n paths. A walk that consults its memo before recursing
/// enters each node at most twice. Most walks are over a few nodes, so a
/// memo records nothing for a walk's first kUnrecorded lookups: those
/// cost a count, and a node looked up then is recorded when the walk
/// meets it again. A walk over two types at once keys it by the pair of
/// nodes it is in (TypePairMemo).
template <typename V, typename K = const Type *, typename H = std::hash<K>>
class TypeMemo {
public:
  V *find(const K &Key) {
    if (Lookups < kUnrecorded) {
      ++Lookups;
      return nullptr;
    }
    if (!Map)
      return nullptr;
    auto It = Map->find(Key);
    return It == Map->end() ? nullptr : &It->second;
  }
  void insert(const K &Key, V Value) {
    if (Lookups < kUnrecorded)
      return;
    if (!Map)
      Map = std::make_unique<std::unordered_map<K, V, H>>();
    Map->emplace(Key, Value);
  }
  /// False if Key was recorded as seen (the visited-set use).
  bool firstVisit(const K &Key) {
    if (find(Key))
      return false;
    insert(Key, V());
    return true;
  }

private:
  static constexpr size_t kUnrecorded = 32;
  size_t Lookups = 0;
  std::unique_ptr<std::unordered_map<K, V, H>> Map;
};

using TypePair = std::pair<const Type *, const Type *>;
struct TypePairHash {
  size_t operator()(const TypePair &P) const {
    return std::hash<const Type *>()(P.first) ^
           std::hash<const Type *>()(P.second) * 0x9e3779b97f4a7c15ull;
  }
};
/// The pairs of nodes one unification or sameType call has entered.
using TypePairMemo = TypeMemo<bool, TypePair, TypePairHash>;

/// Creation and interning context for semantic types. Owns the builtin
/// type constructors.
class TypeContext {
public:
  static constexpr size_t kMaxRenderedTypeNodes = 200;

  /// Fresh-variable and tycon-stamp counters; exported by a frozen
  /// context so a derived context can resume the exact numbering the
  /// inline (concatenated-prelude) pipeline would have reached.
  struct Counters {
    int NextVarId = 1;
    int NextStamp = 1;
  };

  TypeContext(Arena &A, StringInterner &Interner);

  /// Derives a context that *shares* an immutable base context (the
  /// prelude snapshot's): the builtin tycon/type pointers are the base's
  /// (so tycon identity holds across the boundary) and the counters
  /// resume from the base's post-elaboration values. The base is never
  /// mutated — everything new is allocated in \p A — and must outlive
  /// this context.
  TypeContext(Arena &A, StringInterner &Interner, const TypeContext &Base);

  Arena &arena() { return A; }

  Counters counters() const { return {NextVarId, NextStamp}; }

  // --- construction ---
  Type *freshVar(int Depth, bool IsEq = false);
  Type *freshOverloadVar(int Depth);
  Type *con(TyCon *TC, Span<Type *> Args = {});
  Type *con(TyCon *TC, std::vector<Type *> Args);
  Type *tuple(std::vector<Type *> Elems);
  Type *arrow(Type *From, Type *To);

  /// Follows union-find links (with path compression).
  static Type *resolve(Type *T);

  /// Expands top-level abbreviations (after resolve).
  Type *headNormalize(Type *T);

  /// Substitutes Formals[i] |-> Actuals[i] in T (used to instantiate
  /// datatype constructor payloads and abbreviation bodies).
  Type *substitute(Type *T, Span<Type *> Formals, Span<Type *> Actuals);

  /// Instantiates a scheme with fresh variables at \p Depth; the fresh
  /// variables (one per bound var) are appended to \p InstVars.
  Type *instantiate(const TypeScheme &S, int Depth,
                    std::vector<Type *> &InstVars);

  /// Generalizes variables of depth > Depth occurring in T. The affected
  /// var nodes are flagged IsBound.
  TypeScheme generalize(Type *T, int Depth);

  /// True if T admits equality (for equality type variables).
  bool admitsEquality(Type *T);

  /// Structural equality of two resolved types (no unification). Each
  /// pair of nodes is compared once per call.
  bool sameType(Type *T1, Type *T2);

  /// Creates a fresh datatype tycon (constructors attached by caller).
  TyCon *makeDatatype(Symbol Name, int Arity);
  /// Creates a fresh flexible (abstract) tycon.
  TyCon *makeFlexible(Symbol Name, int Arity, bool AdmitsEq);
  /// Creates a type abbreviation.
  TyCon *makeAbbrev(Symbol Name, Span<Type *> Formals, Type *Body);

  /// Decides constructor representations for a datatype whose constructors
  /// are attached. Mirrors SML/NJ's policy (see DESIGN.md Section 5).
  void assignConReps(TyCon *Datatype);

  /// Renders a type for diagnostics: at most kMaxRenderedTypeNodes nodes
  /// of it, the subtrees past that as "...".
  std::string toString(Type *T);
  std::string toString(const TypeScheme &S);

  // --- builtins ---
  TyCon *IntTycon;
  TyCon *RealTycon;
  TyCon *StringTycon;
  TyCon *UnitTycon;
  TyCon *BoolTycon;
  TyCon *ListTycon;
  TyCon *RefTycon;
  TyCon *ArrayTycon;
  TyCon *ExnTycon;
  TyCon *ContTycon;

  DataCon *TrueCon;
  DataCon *FalseCon;
  DataCon *NilCon;
  DataCon *ConsCon;
  DataCon *RefCon;

  Type *IntType;
  Type *RealType;
  Type *StringType;
  Type *UnitType;
  Type *BoolType;
  Type *ExnType;

  Type *listOf(Type *Elem);
  Type *refOf(Type *Elem);
  Type *arrayOf(Type *Elem);
  Type *contOf(Type *Elem);

private:
  Type *substitute(Type *T, Span<Type *> Formals, Span<Type *> Actuals,
                   TypeMemo<Type *> &Done);
  Type *substituteNode(Type *T, Span<Type *> Formals, Span<Type *> Actuals,
                       TypeMemo<Type *> &Done);
  bool admitsEquality(Type *T, TypeMemo<bool> &Seen);
  bool sameType(Type *T1, Type *T2, TypePairMemo &Entered);
  /// True if payload type is statically always a pointer (tuple with >= 1
  /// fields, or string); decides Transparent eligibility.
  bool isStaticallyBoxed(Type *T);

  Arena &A;
  StringInterner &Interner;
  int NextVarId = 1;
  int NextStamp = 1;
};

} // namespace smltc

#endif // SMLTC_TYPES_TYPE_H
