//===- ast/Parser.cpp - MiniML parser --------------------------------------===//

#include "ast/Parser.h"

#include <cassert>
#include <string>

using namespace smltc;
using namespace smltc::ast;

/// Fixed SML default fixities. Returns precedence or 0 if not infix.
/// RightAssoc is set for the right-associative list operators.
static int infixPrec(std::string_view Name, bool &RightAssoc) {
  RightAssoc = false;
  if (Name == "*" || Name == "/" || Name == "div" || Name == "mod" ||
      Name == "quot" || Name == "rem")
    return 7;
  if (Name == "+" || Name == "-" || Name == "^")
    return 6;
  if (Name == "::" || Name == "@") {
    RightAssoc = true;
    return 5;
  }
  if (Name == "=" || Name == "<>" || Name == "<" || Name == ">" ||
      Name == "<=" || Name == ">=")
    return 4;
  if (Name == ":=" || Name == "o")
    return 3;
  return 0;
}

void Parser::expect(TokKind K, const char *Ctx) {
  if (at(K)) {
    bump();
    return;
  }
  if (TooDeep)
    return;
  Diags.error(Tok.Loc, std::string("expected ") + tokKindName(K) + " in " +
                           Ctx + ", found " + tokKindName(Tok.Kind));
}

Symbol Parser::expectIdent(const char *Ctx) {
  if (at(TokKind::Ident)) {
    Symbol S = Tok.Text;
    bump();
    return S;
  }
  if (!TooDeep)
    Diags.error(Tok.Loc, std::string("expected identifier in ") + Ctx +
                             ", found " + tokKindName(Tok.Kind));
  return Interner.intern("<error>");
}

bool Parser::Nesting::tooDeep() {
  if (P.TooDeep)
    return true;
  if (P.Depth <= kMaxNestingDepth)
    return false;
  P.Diags.error(P.Tok.Loc, "program nests deeper than " +
                               std::to_string(kMaxNestingDepth) +
                               " levels, the parser's limit");
  P.TooDeep = true;
  P.Lex.skipToEnd();
  P.Tok = P.Ahead = P.Lex.next();
  return true;
}

LongId Parser::makeLongId(Symbol S) {
  Symbol *Mem = A.copyArray(&S, 1);
  return LongId{Span<Symbol>(Mem, 1)};
}

LongId Parser::parseLongId() {
  std::vector<Symbol> Parts;
  Parts.push_back(expectIdent("long identifier"));
  while (at(TokKind::Dot)) {
    bump();
    Parts.push_back(expectIdent("long identifier"));
  }
  return LongId{Span<Symbol>::copy(A, Parts)};
}

Span<Symbol> Parser::parseTyVarSeq() {
  std::vector<Symbol> Vars;
  if (at(TokKind::TyVar) || at(TokKind::EqTyVar)) {
    Vars.push_back(Tok.Text);
    bump();
  } else if (at(TokKind::LParen) &&
             (Ahead.Kind == TokKind::TyVar || Ahead.Kind == TokKind::EqTyVar)) {
    bump();
    for (;;) {
      if (!at(TokKind::TyVar) && !at(TokKind::EqTyVar)) {
        Diags.error(Tok.Loc, "expected type variable");
        break;
      }
      Vars.push_back(Tok.Text);
      bump();
      if (!eat(TokKind::Comma))
        break;
    }
    expect(TokKind::RParen, "type variable sequence");
  }
  return Span<Symbol>::copy(A, Vars);
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

Ty *Parser::parseTy() {
  Nesting N(*this);
  if (N.tooDeep())
    return errorTy(Tok.Loc);
  Ty *Lhs = parseTupleTy();
  if (at(TokKind::Arrow)) {
    bump();
    Ty *Rhs = parseTy(); // right associative
    Ty *T = A.create<Ty>();
    T->K = Ty::Kind::Arrow;
    T->Loc = Lhs->Loc;
    T->From = Lhs;
    T->To = Rhs;
    return T;
  }
  return Lhs;
}

Ty *Parser::parseTupleTy() {
  Ty *First = parseConTy();
  if (!atIdent("*"))
    return First;
  std::vector<Ty *> Elems{First};
  while (atIdent("*")) {
    bump();
    Elems.push_back(parseConTy());
  }
  Ty *T = A.create<Ty>();
  T->K = Ty::Kind::Tuple;
  T->Loc = First->Loc;
  T->Elems = Span<Ty *>::copy(A, Elems);
  return T;
}

Ty *Parser::parseConTy() {
  Ty *Base = parseAtTy();
  // Postfix type constructor application: `int list`, `int list list`.
  while (at(TokKind::Ident) && !atIdent("*")) {
    bool RA;
    if (infixPrec(Tok.Text.str(), RA) != 0)
      break; // an infix operator cannot be a postfix tycon here
    SourceLoc Loc = Tok.Loc;
    LongId Name = parseLongId();
    Ty *T = A.create<Ty>();
    T->K = Ty::Kind::Con;
    T->Loc = Loc;
    Ty **ArgMem = A.copyArray(&Base, 1);
    T->Args = Span<Ty *>(ArgMem, 1);
    T->ConName = Name;
    Base = T;
  }
  return Base;
}

Ty *Parser::parseAtTy() {
  SourceLoc Loc = Tok.Loc;
  if (at(TokKind::TyVar) || at(TokKind::EqTyVar)) {
    Ty *T = A.create<Ty>();
    T->K = Ty::Kind::Var;
    T->Loc = Loc;
    T->VarName = Tok.Text;
    T->IsEqVar = at(TokKind::EqTyVar);
    bump();
    return T;
  }
  if (at(TokKind::LParen)) {
    bump();
    std::vector<Ty *> Elems;
    Elems.push_back(parseTy());
    while (eat(TokKind::Comma))
      Elems.push_back(parseTy());
    expect(TokKind::RParen, "parenthesized type");
    if (Elems.size() == 1)
      return Elems[0];
    // (t1, ..., tn) must be followed by a type constructor name.
    LongId Name = parseLongId();
    Ty *T = A.create<Ty>();
    T->K = Ty::Kind::Con;
    T->Loc = Loc;
    T->Args = Span<Ty *>::copy(A, Elems);
    T->ConName = Name;
    return T;
  }
  if (at(TokKind::Ident)) {
    LongId Name = parseLongId();
    Ty *T = A.create<Ty>();
    T->K = Ty::Kind::Con;
    T->Loc = Loc;
    T->ConName = Name;
    return T;
  }
  Diags.error(Loc, std::string("expected type, found ") +
                       tokKindName(Tok.Kind));
  bump();
  return errorTy(Loc);
}

Ty *Parser::errorTy(SourceLoc Loc) {
  Ty *T = A.create<Ty>();
  T->K = Ty::Kind::Con;
  T->Loc = Loc;
  T->ConName = makeLongId(Interner.intern("unit"));
  return T;
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

bool Parser::startsAtPat() const {
  switch (Tok.Kind) {
  case TokKind::Underscore:
  case TokKind::IntLit:
  case TokKind::StringLit:
  case TokKind::LParen:
  case TokKind::LBracket:
    return true;
  case TokKind::Ident: {
    // An infix operator (e.g. ::) does not start an atomic pattern.
    bool RA;
    return infixPrec(Tok.Text.str(), RA) == 0;
  }
  default:
    return false;
  }
}

Pat *Parser::parsePat() {
  Nesting N(*this);
  if (N.tooDeep())
    return errorPat(Tok.Loc);
  Pat *P = parseConsPat();
  while (at(TokKind::Colon)) {
    bump();
    Ty *T = parseTy();
    Pat *Typed = A.create<Pat>();
    Typed->K = Pat::Kind::Typed;
    Typed->Loc = P->Loc;
    Typed->Arg = P;
    Typed->Annot = T;
    P = Typed;
  }
  return P;
}

Pat *Parser::parseConsPat() {
  Pat *Lhs = parseAppPat();
  if (!atIdent("::"))
    return Lhs;
  Nesting N(*this);
  if (N.tooDeep())
    return Lhs;
  SourceLoc Loc = Tok.Loc;
  Symbol Cons = Tok.Text;
  bump();
  Pat *Rhs = parseConsPat(); // right associative
  Pat *Pair = A.create<Pat>();
  Pair->K = Pat::Kind::Tuple;
  Pair->Loc = Loc;
  Pat *Elems[2] = {Lhs, Rhs};
  Pair->Elems = Span<Pat *>(A.copyArray(Elems, 2), 2);
  Pat *P = A.create<Pat>();
  P->K = Pat::Kind::App;
  P->Loc = Loc;
  P->Name = makeLongId(Cons);
  P->Arg = Pair;
  return P;
}

Pat *Parser::parseAppPat() {
  if (!at(TokKind::Ident))
    return parseAtPat();
  bool RA;
  if (infixPrec(Tok.Text.str(), RA) != 0)
    return parseAtPat();
  // An identifier: maybe a constructor application, maybe a layered pattern.
  SourceLoc Loc = Tok.Loc;
  LongId Name = parseLongId();
  if (!Name.isQualified() && atIdent("as")) {
    bump();
    Pat *Inner = parsePat();
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::Layered;
    P->Loc = Loc;
    P->AsVar = Name.name();
    P->Arg = Inner;
    return P;
  }
  if (startsAtPat() && !atIdent("as")) {
    Pat *Arg = parseAtPat();
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::App;
    P->Loc = Loc;
    P->Name = Name;
    P->Arg = Arg;
    return P;
  }
  Pat *P = A.create<Pat>();
  P->K = Pat::Kind::Ident;
  P->Loc = Loc;
  P->Name = Name;
  return P;
}

Pat *Parser::parseAtPat() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokKind::Underscore: {
    bump();
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::Wild;
    P->Loc = Loc;
    return P;
  }
  case TokKind::IntLit: {
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::Int;
    P->Loc = Loc;
    P->IntValue = Tok.IntValue;
    bump();
    return P;
  }
  case TokKind::StringLit: {
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::String;
    P->Loc = Loc;
    P->StrValue = Interner.intern(Tok.StrValue);
    bump();
    return P;
  }
  case TokKind::Ident: {
    LongId Name = parseLongId();
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::Ident;
    P->Loc = Loc;
    P->Name = Name;
    return P;
  }
  case TokKind::LParen: {
    bump();
    if (eat(TokKind::RParen)) {
      Pat *P = A.create<Pat>();
      P->K = Pat::Kind::Tuple;
      P->Loc = Loc;
      return P; // unit pattern
    }
    std::vector<Pat *> Elems;
    Elems.push_back(parsePat());
    while (eat(TokKind::Comma))
      Elems.push_back(parsePat());
    expect(TokKind::RParen, "parenthesized pattern");
    if (Elems.size() == 1)
      return Elems[0];
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::Tuple;
    P->Loc = Loc;
    P->Elems = Span<Pat *>::copy(A, Elems);
    return P;
  }
  case TokKind::LBracket: {
    bump();
    std::vector<Pat *> Elems;
    if (!at(TokKind::RBracket)) {
      Elems.push_back(parsePat());
      while (eat(TokKind::Comma))
        Elems.push_back(parsePat());
    }
    expect(TokKind::RBracket, "list pattern");
    // Desugar to p1 :: ... :: nil.
    Pat *Acc = A.create<Pat>();
    Acc->K = Pat::Kind::Ident;
    Acc->Loc = Loc;
    Acc->Name = makeLongId(Interner.intern("nil"));
    for (size_t I = Elems.size(); I-- > 0;) {
      Pat *Pair = A.create<Pat>();
      Pair->K = Pat::Kind::Tuple;
      Pair->Loc = Loc;
      Pat *Two[2] = {Elems[I], Acc};
      Pair->Elems = Span<Pat *>(A.copyArray(Two, 2), 2);
      Pat *ConsP = A.create<Pat>();
      ConsP->K = Pat::Kind::App;
      ConsP->Loc = Loc;
      ConsP->Name = makeLongId(Interner.intern("::"));
      ConsP->Arg = Pair;
      Acc = ConsP;
    }
    return Acc;
  }
  default:
    Diags.error(Loc, std::string("expected pattern, found ") +
                         tokKindName(Tok.Kind));
    bump();
    return errorPat(Loc);
  }
}

Pat *Parser::errorPat(SourceLoc Loc) {
  Pat *P = A.create<Pat>();
  P->K = Pat::Kind::Wild;
  P->Loc = Loc;
  return P;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

bool Parser::startsAtExp() const {
  switch (Tok.Kind) {
  case TokKind::IntLit:
  case TokKind::RealLit:
  case TokKind::StringLit:
  case TokKind::LParen:
  case TokKind::LBracket:
  case TokKind::KwLet:
  case TokKind::KwOp:
  case TokKind::Hash:
    return true;
  case TokKind::Ident: {
    // An infix operator is not the start of an (atomic) operand.
    bool RA;
    return infixPrec(Tok.Text.str(), RA) == 0;
  }
  default:
    return false;
  }
}

Exp *Parser::identExp(Symbol S, SourceLoc Loc) {
  Exp *E = A.create<Exp>();
  E->K = Exp::Kind::Ident;
  E->Loc = Loc;
  E->Name = makeLongId(S);
  return E;
}

Span<Rule> Parser::parseMatch() {
  std::vector<Rule> Rules;
  for (;;) {
    Pat *P = parsePat();
    expect(TokKind::DArrow, "match rule");
    Exp *E = parseExp();
    Rules.push_back(Rule{P, E});
    if (!eat(TokKind::Bar))
      break;
  }
  return Span<Rule>::copy(A, Rules);
}

Exp *Parser::parseExp() {
  SourceLoc Loc = Tok.Loc;
  Nesting N(*this);
  if (N.tooDeep())
    return identExp(Interner.intern("<error>"), Loc);
  switch (Tok.Kind) {
  case TokKind::KwRaise: {
    bump();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Raise;
    E->Loc = Loc;
    E->Arg = parseExp();
    return E;
  }
  case TokKind::KwIf: {
    bump();
    Exp *C = parseExp();
    expect(TokKind::KwThen, "if expression");
    Exp *T = parseExp();
    expect(TokKind::KwElse, "if expression");
    Exp *F = parseExp();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::If;
    E->Loc = Loc;
    E->Scrut = C;
    E->Then = T;
    E->Else = F;
    return E;
  }
  case TokKind::KwCase: {
    bump();
    Exp *S = parseExp();
    expect(TokKind::KwOf, "case expression");
    Span<Rule> Rules = parseMatch();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Case;
    E->Loc = Loc;
    E->Scrut = S;
    E->Rules = Rules;
    return E;
  }
  case TokKind::KwFn: {
    bump();
    Span<Rule> Rules = parseMatch();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Fn;
    E->Loc = Loc;
    E->Rules = Rules;
    return E;
  }
  default:
    break;
  }
  Exp *E = parseOrelse();
  while (at(TokKind::KwHandle)) {
    bump();
    Span<Rule> Rules = parseMatch();
    Exp *H = A.create<Exp>();
    H->K = Exp::Kind::Handle;
    H->Loc = Loc;
    H->Arg = E;
    H->Rules = Rules;
    E = H;
  }
  return E;
}

Exp *Parser::parseOrelse() {
  Exp *L = parseAndalso();
  while (at(TokKind::KwOrelse)) {
    SourceLoc Loc = Tok.Loc;
    bump();
    Exp *R = parseAndalso();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Orelse;
    E->Loc = Loc;
    E->Then = L;
    E->Else = R;
    L = E;
  }
  return L;
}

Exp *Parser::parseAndalso() {
  Exp *L = parseTypedExp();
  while (at(TokKind::KwAndalso)) {
    SourceLoc Loc = Tok.Loc;
    bump();
    Exp *R = parseTypedExp();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Andalso;
    E->Loc = Loc;
    E->Then = L;
    E->Else = R;
    L = E;
  }
  return L;
}

Exp *Parser::parseTypedExp() {
  Exp *L = parseInfixExp(1);
  while (at(TokKind::Colon)) {
    bump();
    Ty *T = parseTy();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Typed;
    E->Loc = L->Loc;
    E->Arg = L;
    E->Annot = T;
    L = E;
  }
  return L;
}

Exp *Parser::parseInfixExp(int MinPrec) {
  Exp *Lhs = parseAppExp();
  for (;;) {
    Symbol OpName;
    if (at(TokKind::Ident)) {
      OpName = Tok.Text;
    } else if (at(TokKind::Equal)) {
      OpName = Interner.intern("=");
    } else {
      break;
    }
    bool RightAssoc;
    int Prec = infixPrec(OpName.str(), RightAssoc);
    if (Prec == 0 || Prec < MinPrec)
      break;
    SourceLoc Loc = Tok.Loc;
    Nesting N(*this);
    if (N.tooDeep())
      break;
    bump();
    Exp *Rhs = parseInfixExp(RightAssoc ? Prec : Prec + 1);
    Exp *Pair = A.create<Exp>();
    Pair->K = Exp::Kind::Tuple;
    Pair->Loc = Loc;
    Exp *Two[2] = {Lhs, Rhs};
    Pair->Elems = Span<Exp *>(A.copyArray(Two, 2), 2);
    Exp *Call = A.create<Exp>();
    Call->K = Exp::Kind::App;
    Call->Loc = Loc;
    Call->Fun = identExp(OpName, Loc);
    Call->Arg = Pair;
    Lhs = Call;
  }
  return Lhs;
}

Exp *Parser::parseAppExp() {
  Exp *F = parseAtExp();
  while (startsAtExp()) {
    Exp *Arg = parseAtExp();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::App;
    E->Loc = F->Loc;
    E->Fun = F;
    E->Arg = Arg;
    F = E;
  }
  return F;
}

Exp *Parser::parseAtExp() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokKind::IntLit: {
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Int;
    E->Loc = Loc;
    E->IntValue = Tok.IntValue;
    bump();
    return E;
  }
  case TokKind::RealLit: {
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Real;
    E->Loc = Loc;
    E->RealValue = Tok.RealValue;
    bump();
    return E;
  }
  case TokKind::StringLit: {
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::String;
    E->Loc = Loc;
    E->StrValue = Interner.intern(Tok.StrValue);
    bump();
    return E;
  }
  case TokKind::KwOp: {
    // `op +` names an infix operator as a value.
    bump();
    Symbol Name;
    if (at(TokKind::Ident)) {
      Name = Tok.Text;
      bump();
    } else if (at(TokKind::Equal)) {
      Name = Interner.intern("=");
      bump();
    } else {
      Diags.error(Tok.Loc, "expected operator after 'op'");
      Name = Interner.intern("<error>");
    }
    return identExp(Name, Loc);
  }
  case TokKind::Hash: {
    bump();
    if (!at(TokKind::IntLit)) {
      Diags.error(Tok.Loc, "expected integer after '#'");
      return identExp(Interner.intern("<error>"), Loc);
    }
    int Index = static_cast<int>(Tok.IntValue);
    bump();
    Nesting N(*this);
    Exp *Arg = N.tooDeep() ? identExp(Interner.intern("<error>"), Loc)
                           : parseAtExp();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Select;
    E->Loc = Loc;
    E->SelectIndex = Index;
    E->Arg = Arg;
    return E;
  }
  case TokKind::Ident: {
    LongId Name = parseLongId();
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Ident;
    E->Loc = Loc;
    E->Name = Name;
    return E;
  }
  case TokKind::LParen: {
    bump();
    if (eat(TokKind::RParen)) {
      Exp *E = A.create<Exp>();
      E->K = Exp::Kind::Tuple;
      E->Loc = Loc;
      return E; // unit
    }
    Exp *First = parseExp();
    if (at(TokKind::Comma)) {
      std::vector<Exp *> Elems{First};
      while (eat(TokKind::Comma))
        Elems.push_back(parseExp());
      expect(TokKind::RParen, "tuple expression");
      Exp *E = A.create<Exp>();
      E->K = Exp::Kind::Tuple;
      E->Loc = Loc;
      E->Elems = Span<Exp *>::copy(A, Elems);
      return E;
    }
    if (at(TokKind::Semi)) {
      std::vector<Exp *> Elems{First};
      while (eat(TokKind::Semi))
        Elems.push_back(parseExp());
      expect(TokKind::RParen, "sequence expression");
      Exp *E = A.create<Exp>();
      E->K = Exp::Kind::Seq;
      E->Loc = Loc;
      E->Elems = Span<Exp *>::copy(A, Elems);
      return E;
    }
    expect(TokKind::RParen, "parenthesized expression");
    return First;
  }
  case TokKind::LBracket: {
    bump();
    std::vector<Exp *> Elems;
    if (!at(TokKind::RBracket)) {
      Elems.push_back(parseExp());
      while (eat(TokKind::Comma))
        Elems.push_back(parseExp());
    }
    expect(TokKind::RBracket, "list expression");
    // Desugar to e1 :: ... :: nil.
    Exp *Acc = identExp(Interner.intern("nil"), Loc);
    for (size_t I = Elems.size(); I-- > 0;) {
      Exp *Pair = A.create<Exp>();
      Pair->K = Exp::Kind::Tuple;
      Pair->Loc = Loc;
      Exp *Two[2] = {Elems[I], Acc};
      Pair->Elems = Span<Exp *>(A.copyArray(Two, 2), 2);
      Exp *Call = A.create<Exp>();
      Call->K = Exp::Kind::App;
      Call->Loc = Loc;
      Call->Fun = identExp(Interner.intern("::"), Loc);
      Call->Arg = Pair;
      Acc = Call;
    }
    return Acc;
  }
  case TokKind::KwLet: {
    bump();
    std::vector<Dec *> Decs;
    while (startsDec())
      Decs.push_back(parseDec());
    expect(TokKind::KwIn, "let expression");
    std::vector<Exp *> Body;
    Body.push_back(parseExp());
    while (eat(TokKind::Semi))
      Body.push_back(parseExp());
    expect(TokKind::KwEnd, "let expression");
    Exp *E = A.create<Exp>();
    E->K = Exp::Kind::Let;
    E->Loc = Loc;
    E->Decs = Span<Dec *>::copy(A, Decs);
    E->Elems = Span<Exp *>::copy(A, Body);
    return E;
  }
  default:
    Diags.error(Loc, std::string("expected expression, found ") +
                         tokKindName(Tok.Kind));
    bump();
    return identExp(Interner.intern("<error>"), Loc);
  }
}

//===----------------------------------------------------------------------===//
// Declarations and modules
//===----------------------------------------------------------------------===//

bool Parser::startsDec() const {
  switch (Tok.Kind) {
  case TokKind::KwVal:
  case TokKind::KwFun:
  case TokKind::KwDatatype:
  case TokKind::KwType:
  case TokKind::KwException:
  case TokKind::KwStructure:
  case TokKind::KwSignature:
  case TokKind::KwFunctor:
  case TokKind::KwAbstraction:
    return true;
  default:
    return false;
  }
}

DatBind Parser::parseDatBind() {
  DatBind DB;
  DB.TyVars = parseTyVarSeq();
  DB.Name = expectIdent("datatype binding");
  expect(TokKind::Equal, "datatype binding");
  std::vector<ConBind> Cons;
  for (;;) {
    ConBind CB;
    CB.Name = expectIdent("constructor binding");
    CB.OfTy = nullptr;
    if (at(TokKind::KwOf)) {
      bump();
      CB.OfTy = parseTy();
    }
    Cons.push_back(CB);
    if (!eat(TokKind::Bar))
      break;
  }
  DB.Cons = Span<ConBind>::copy(A, Cons);
  return DB;
}

Dec *Parser::parseDec() {
  SourceLoc Loc = Tok.Loc;
  Dec *D = A.create<Dec>();
  D->Loc = Loc;
  switch (Tok.Kind) {
  case TokKind::KwVal: {
    bump();
    if (at(TokKind::KwRec)) {
      bump();
      D->K = Dec::Kind::ValRec;
      std::vector<Symbol> Names;
      std::vector<Exp *> Exps;
      for (;;) {
        Names.push_back(expectIdent("val rec binding"));
        expect(TokKind::Equal, "val rec binding");
        Exps.push_back(parseExp());
        if (!eat(TokKind::KwAnd))
          break;
      }
      D->RecNames = Span<Symbol>::copy(A, Names);
      D->RecExps = Span<Exp *>::copy(A, Exps);
      return D;
    }
    D->K = Dec::Kind::Val;
    D->ValPat = parsePat();
    expect(TokKind::Equal, "val binding");
    D->ValExp = parseExp();
    return D;
  }
  case TokKind::KwFun: {
    bump();
    D->K = Dec::Kind::Fun;
    std::vector<FunBind> Binds;
    for (;;) {
      FunBind FB;
      FB.Loc = Tok.Loc;
      eat(TokKind::KwOp); // `fun op @ (...) = ...`
      FB.Name = expectIdent("fun binding");
      std::vector<FunClause> Clauses;
      for (;;) {
        FunClause C;
        std::vector<Pat *> Params;
        while (startsAtPat())
          Params.push_back(parseAtPat());
        if (Params.empty())
          Diags.error(Tok.Loc, "function clause has no parameters");
        C.Params = Span<Pat *>::copy(A, Params);
        C.ResultAnnot = nullptr;
        if (at(TokKind::Colon)) {
          bump();
          C.ResultAnnot = parseTy();
        }
        expect(TokKind::Equal, "fun clause");
        C.Body = parseExp();
        Clauses.push_back(C);
        if (!at(TokKind::Bar))
          break;
        bump();
        eat(TokKind::KwOp);
        Symbol Again = expectIdent("fun clause");
        if (Again != FB.Name)
          Diags.error(Tok.Loc, "clauses of a fun binding must repeat the "
                               "function name");
      }
      FB.Clauses = Span<FunClause>::copy(A, Clauses);
      Binds.push_back(FB);
      if (!eat(TokKind::KwAnd))
        break;
    }
    D->FunBinds = Span<FunBind>::copy(A, Binds);
    return D;
  }
  case TokKind::KwDatatype: {
    bump();
    D->K = Dec::Kind::Datatype;
    std::vector<DatBind> Binds;
    Binds.push_back(parseDatBind());
    while (eat(TokKind::KwAnd))
      Binds.push_back(parseDatBind());
    D->DatBinds = Span<DatBind>::copy(A, Binds);
    return D;
  }
  case TokKind::KwType: {
    bump();
    D->K = Dec::Kind::TypeAbbrev;
    D->TyVars = parseTyVarSeq();
    D->TypeName = expectIdent("type abbreviation");
    expect(TokKind::Equal, "type abbreviation");
    D->TypeBody = parseTy();
    return D;
  }
  case TokKind::KwException: {
    bump();
    D->K = Dec::Kind::Exception;
    D->ExnName = expectIdent("exception declaration");
    if (at(TokKind::KwOf)) {
      bump();
      D->ExnOfTy = parseTy();
    }
    return D;
  }
  case TokKind::KwStructure:
  case TokKind::KwAbstraction: {
    bool IsAbstraction = at(TokKind::KwAbstraction);
    bump();
    D->K = Dec::Kind::Structure;
    D->StrName = expectIdent("structure declaration");
    D->StrConstraint = SigConstraintKind::None;
    if (at(TokKind::Colon) || at(TokKind::ColonGt)) {
      bool Opaque = at(TokKind::ColonGt) || IsAbstraction;
      bump();
      D->StrConstraint = Opaque ? SigConstraintKind::Opaque
                                : SigConstraintKind::Transparent;
      D->StrSig = parseSigExp();
    } else if (IsAbstraction) {
      Diags.error(Tok.Loc, "abstraction declaration requires a signature");
    }
    expect(TokKind::Equal, "structure declaration");
    D->StrBody = parseStrExp();
    return D;
  }
  case TokKind::KwSignature: {
    bump();
    D->K = Dec::Kind::Signature;
    D->SigName = expectIdent("signature declaration");
    expect(TokKind::Equal, "signature declaration");
    D->SigBody = parseSigExp();
    return D;
  }
  case TokKind::KwFunctor: {
    bump();
    D->K = Dec::Kind::Functor;
    D->FctName = expectIdent("functor declaration");
    expect(TokKind::LParen, "functor declaration");
    D->FctArgName = expectIdent("functor parameter");
    expect(TokKind::Colon, "functor parameter");
    D->FctArgSig = parseSigExp();
    expect(TokKind::RParen, "functor declaration");
    D->FctConstraint = SigConstraintKind::None;
    if (at(TokKind::Colon) || at(TokKind::ColonGt)) {
      D->FctConstraint = at(TokKind::ColonGt) ? SigConstraintKind::Opaque
                                              : SigConstraintKind::Transparent;
      bump();
      D->FctResultSig = parseSigExp();
    }
    expect(TokKind::Equal, "functor declaration");
    D->FctBody = parseStrExp();
    return D;
  }
  default:
    Diags.error(Loc, std::string("expected declaration, found ") +
                         tokKindName(Tok.Kind));
    bump();
    D->K = Dec::Kind::Val;
    Pat *P = A.create<Pat>();
    P->K = Pat::Kind::Wild;
    P->Loc = Loc;
    D->ValPat = P;
    D->ValExp = identExp(Interner.intern("<error>"), Loc);
    return D;
  }
}

StrExp *Parser::parseStrExp() {
  SourceLoc Loc = Tok.Loc;
  StrExp *S = A.create<StrExp>();
  S->Loc = Loc;
  if (at(TokKind::KwStruct)) {
    bump();
    S->K = StrExp::Kind::Struct;
    std::vector<Dec *> Decs;
    while (startsDec())
      Decs.push_back(parseDec());
    expect(TokKind::KwEnd, "struct expression");
    S->Decs = Span<Dec *>::copy(A, Decs);
    return S;
  }
  if (at(TokKind::Ident)) {
    // Either a structure path or a functor application F(strexp).
    if (Ahead.Kind == TokKind::LParen) {
      S->K = StrExp::Kind::App;
      S->FctName = Tok.Text;
      bump();
      expect(TokKind::LParen, "functor application");
      S->Arg = parseStrExp();
      expect(TokKind::RParen, "functor application");
      return S;
    }
    S->K = StrExp::Kind::Var;
    S->Name = parseLongId();
    return S;
  }
  Diags.error(Loc, std::string("expected structure expression, found ") +
                       tokKindName(Tok.Kind));
  bump();
  S->K = StrExp::Kind::Struct;
  return S;
}

SigExp *Parser::parseSigExp() {
  SourceLoc Loc = Tok.Loc;
  SigExp *S = A.create<SigExp>();
  S->Loc = Loc;
  if (at(TokKind::KwSig)) {
    bump();
    S->K = SigExp::Kind::Sig;
    std::vector<Spec *> Specs;
    while (!at(TokKind::KwEnd) && !at(TokKind::Eof)) {
      Specs.push_back(parseSpec());
      eat(TokKind::Semi);
    }
    expect(TokKind::KwEnd, "signature expression");
    S->Specs = Span<Spec *>::copy(A, Specs);
    return S;
  }
  if (at(TokKind::Ident)) {
    S->K = SigExp::Kind::Var;
    S->Name = Tok.Text;
    bump();
    return S;
  }
  Diags.error(Loc, std::string("expected signature expression, found ") +
                       tokKindName(Tok.Kind));
  bump();
  S->K = SigExp::Kind::Sig;
  return S;
}

Spec *Parser::parseSpec() {
  SourceLoc Loc = Tok.Loc;
  Spec *Sp = A.create<Spec>();
  Sp->Loc = Loc;
  switch (Tok.Kind) {
  case TokKind::KwVal: {
    bump();
    Sp->K = Spec::Kind::Val;
    Sp->Name = expectIdent("value specification");
    expect(TokKind::Colon, "value specification");
    Sp->ValTy = parseTy();
    return Sp;
  }
  case TokKind::KwType: {
    bump();
    Sp->K = Spec::Kind::Type;
    Sp->TyVars = parseTyVarSeq();
    Sp->Name = expectIdent("type specification");
    if (at(TokKind::Equal)) {
      bump();
      Sp->Manifest = parseTy();
    }
    return Sp;
  }
  case TokKind::KwDatatype: {
    bump();
    Sp->K = Spec::Kind::Datatype;
    Sp->DatB = parseDatBind();
    Sp->Name = Sp->DatB.Name;
    return Sp;
  }
  case TokKind::KwException: {
    bump();
    Sp->K = Spec::Kind::Exception;
    Sp->Name = expectIdent("exception specification");
    if (at(TokKind::KwOf)) {
      bump();
      Sp->ExnOfTy = parseTy();
    }
    return Sp;
  }
  case TokKind::KwStructure: {
    bump();
    Sp->K = Spec::Kind::Structure;
    Sp->Name = expectIdent("structure specification");
    expect(TokKind::Colon, "structure specification");
    Sp->StrSig = parseSigExp();
    return Sp;
  }
  default:
    Diags.error(Loc, std::string("expected specification, found ") +
                         tokKindName(Tok.Kind));
    bump();
    Sp->K = Spec::Kind::Type;
    Sp->Name = Interner.intern("<error>");
    return Sp;
  }
}

Program Parser::parseProgram() {
  std::vector<Dec *> Decs;
  while (!at(TokKind::Eof)) {
    if (at(TokKind::Semi)) {
      bump();
      continue;
    }
    if (!startsDec()) {
      Diags.error(Tok.Loc,
                  std::string("expected top-level declaration, found ") +
                      tokKindName(Tok.Kind));
      bump();
      continue;
    }
    Decs.push_back(parseDec());
  }
  // A tree cut at the nesting limit is as deep as the limit, and
  // elaborating it would only add follow-on errors.
  if (TooDeep)
    Decs.clear();
  return Program{Span<Dec *>::copy(A, Decs)};
}
