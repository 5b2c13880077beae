//===- ast/Lexer.h - MiniML lexer ------------------------------------------===//
///
/// \file
/// Hand-written lexer for the SML subset. Handles nested (* *) comments,
/// SML-style negative literals (~3), real literals with e-notation, string
/// escapes, alphanumeric and symbolic identifiers, and type variables.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_AST_LEXER_H
#define SMLTC_AST_LEXER_H

#include "ast/Token.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"

#include <string_view>

namespace smltc {

class Lexer {
public:
  Lexer(std::string_view Source, StringInterner &Interner,
        DiagnosticEngine &Diags)
      : Src(Source), Interner(Interner), Diags(Diags) {}

  /// Lexes and returns the next token. Returns Eof forever at end of input.
  Token next();

  /// Makes the rest of the input read as its end.
  void skipToEnd() { Pos = Src.size(); }

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  char advance();
  SourceLoc here() const { return {Line, Col, static_cast<uint32_t>(Pos)}; }
  void skipWhitespaceAndComments();
  Token lexNumber(bool Negative);
  Token lexString();
  Token lexAlphaIdent();
  Token lexSymbolicIdent();
  Token lexTyVar();
  Token make(TokKind K) {
    Token T;
    T.Kind = K;
    T.Loc = TokStart;
    return T;
  }

  std::string_view Src;
  StringInterner &Interner;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
  SourceLoc TokStart;
};

} // namespace smltc

#endif // SMLTC_AST_LEXER_H
