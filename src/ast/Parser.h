//===- ast/Parser.h - MiniML parser ----------------------------------------===//
///
/// \file
/// Recursive-descent parser for the SML subset, with a fixed infix operator
/// table (standard SML default fixities; no user `infix` declarations).
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_AST_PARSER_H
#define SMLTC_AST_PARSER_H

#include "ast/Ast.h"
#include "ast/Lexer.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"

#include <vector>

namespace smltc {

/// The deepest the parser nests: one level per nested expression, pattern
/// or type, counting each operator of a right-associative chain (`::`,
/// `->`) and each `#i` selector of a chain as one.
/// Every level costs stack in the recursive passes, about 0.6 KB in the
/// parser alone, so a deeper input fails with an error that names the
/// limit instead of running past the compile stack. 100,000 levels is 5x
/// the deepest program the tests compile.
constexpr unsigned kMaxNestingDepth = 100000;

class Parser {
public:
  Parser(std::string_view Source, Arena &A, StringInterner &Interner,
         DiagnosticEngine &Diags)
      : Lex(Source, Interner, Diags), A(A), Interner(Interner), Diags(Diags) {
    Tok = Lex.next();
    Ahead = Lex.next();
  }

  /// Parses a whole program. On syntax errors, diagnostics are reported and
  /// a best-effort partial program is returned; callers must check
  /// Diags.hasErrors().
  ast::Program parseProgram();

  /// Parses a single expression (used by tests and the quickstart example).
  ast::Exp *parseExpression() { return parseExp(); }

private:
  // Token plumbing.
  void bump() {
    Tok = Ahead;
    Ahead = Lex.next();
  }
  bool at(TokKind K) const { return Tok.Kind == K; }
  bool atIdent(std::string_view S) const {
    return Tok.Kind == TokKind::Ident && Tok.Text.str() == S;
  }
  bool eat(TokKind K) {
    if (!at(K))
      return false;
    bump();
    return true;
  }
  void expect(TokKind K, const char *Ctx);
  Symbol expectIdent(const char *Ctx);

  /// One level of nesting, held while a recursive entry point runs.
  class Nesting {
  public:
    explicit Nesting(Parser &P) : P(P) { ++P.Depth; }
    ~Nesting() { --P.Depth; }
    /// True past kMaxNestingDepth. The first time, reports the error and
    /// makes the rest of the input read as its end, so the parse unwinds
    /// at once and reports nothing more.
    bool tooDeep();

  private:
    Parser &P;
  };

  // Helpers.
  ast::LongId parseLongId();
  ast::LongId makeLongId(Symbol S);
  ast::Exp *identExp(Symbol S, SourceLoc Loc);
  Span<Symbol> parseTyVarSeq();

  // Types.
  ast::Ty *parseTy();
  ast::Ty *parseTupleTy();
  ast::Ty *parseConTy();
  ast::Ty *parseAtTy();
  ast::Ty *errorTy(SourceLoc Loc);

  // Patterns.
  ast::Pat *parsePat();
  ast::Pat *parseConsPat();
  ast::Pat *parseAppPat();
  ast::Pat *parseAtPat();
  ast::Pat *errorPat(SourceLoc Loc);
  bool startsAtPat() const;

  // Expressions.
  ast::Exp *parseExp();
  ast::Exp *parseOrelse();
  ast::Exp *parseAndalso();
  ast::Exp *parseTypedExp();
  ast::Exp *parseInfixExp(int MinPrec);
  ast::Exp *parseAppExp();
  ast::Exp *parseAtExp();
  bool startsAtExp() const;
  Span<ast::Rule> parseMatch();

  // Declarations and modules.
  ast::Dec *parseDec();
  bool startsDec() const;
  ast::DatBind parseDatBind();
  ast::StrExp *parseStrExp();
  ast::SigExp *parseSigExp();
  ast::Spec *parseSpec();

  Lexer Lex;
  Arena &A;
  StringInterner &Interner;
  DiagnosticEngine &Diags;
  Token Tok;
  Token Ahead;
  unsigned Depth = 0;
  bool TooDeep = false;
};

} // namespace smltc

#endif // SMLTC_AST_PARSER_H
