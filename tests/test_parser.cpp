//===- tests/test_parser.cpp - Parser tests ------------------------------------===//

#include "ast/AstPrinter.h"
#include "ast/Parser.h"
#include "driver/Compiler.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

using namespace smltc;

namespace {

std::string parseExpStr(const std::string &Src, bool *Ok = nullptr) {
  Arena A;
  StringInterner I;
  DiagnosticEngine D;
  Parser P(Src, A, I, D);
  ast::Exp *E = P.parseExpression();
  if (Ok)
    *Ok = !D.hasErrors();
  return printExp(E);
}

std::string parseProgStr(const std::string &Src, bool *Ok = nullptr) {
  Arena A;
  StringInterner I;
  DiagnosticEngine D;
  Parser P(Src, A, I, D);
  ast::Program Prog = P.parseProgram();
  if (Ok)
    *Ok = !D.hasErrors();
  return printProgram(Prog);
}

} // namespace

TEST(Parser, InfixPrecedence) {
  EXPECT_EQ(parseExpStr("1 + 2 * 3"),
            "(app + (tuple 1 (app * (tuple 2 3))))");
  EXPECT_EQ(parseExpStr("1 * 2 + 3"),
            "(app + (tuple (app * (tuple 1 2)) 3))");
  EXPECT_EQ(parseExpStr("a = b + c"),
            "(app = (tuple a (app + (tuple b c))))");
}

TEST(Parser, ConsIsRightAssociative) {
  EXPECT_EQ(parseExpStr("1 :: 2 :: nil"),
            "(app :: (tuple 1 (app :: (tuple 2 nil))))");
}

TEST(Parser, MinusIsLeftAssociative) {
  EXPECT_EQ(parseExpStr("10 - 3 - 2"),
            "(app - (tuple (app - (tuple 10 3)) 2))");
}

TEST(Parser, ApplicationBindsTighterThanInfix) {
  EXPECT_EQ(parseExpStr("f x + g y"),
            "(app + (tuple (app f x) (app g y)))");
}

TEST(Parser, ListLiteralDesugars) {
  EXPECT_EQ(parseExpStr("[1, 2]"),
            "(app :: (tuple 1 (app :: (tuple 2 nil))))");
  EXPECT_EQ(parseExpStr("[]"), "nil");
}

TEST(Parser, TupleAndUnit) {
  EXPECT_EQ(parseExpStr("(1, 2, 3)"), "(tuple 1 2 3)");
  EXPECT_EQ(parseExpStr("()"), "(tuple)");
  EXPECT_EQ(parseExpStr("(1)"), "1");
}

TEST(Parser, SequenceExpression) {
  EXPECT_EQ(parseExpStr("(a; b; c)"), "(seq a b c)");
}

TEST(Parser, IfAndLogicalOperators) {
  EXPECT_EQ(parseExpStr("if a then b else c"), "(if a b c)");
  EXPECT_EQ(parseExpStr("a andalso b orelse c"),
            "(orelse (andalso a b) c)");
}

TEST(Parser, FnAndCase) {
  EXPECT_EQ(parseExpStr("fn x => x"), "(fn (x => x))");
  EXPECT_EQ(parseExpStr("case x of 0 => a | _ => b"),
            "(case x (0 => a) (_ => b))");
}

TEST(Parser, LetExpression) {
  EXPECT_EQ(parseExpStr("let val x = 1 in x + 2 end"),
            "(let ((val x 1)) (app + (tuple x 2)))");
}

TEST(Parser, HandleAndRaise) {
  EXPECT_EQ(parseExpStr("raise Foo"), "(raise Foo)");
  EXPECT_EQ(parseExpStr("f x handle E => 0"),
            "(handle (app f x) (E => 0))");
  EXPECT_EQ(parseExpStr("e handle E x => g x"),
            "(handle e ((pcon E x) => (app g x)))");
}

TEST(Parser, SelectSyntax) {
  EXPECT_EQ(parseExpStr("#1 p"), "(#1 p)");
}

TEST(Parser, OpKeyword) {
  EXPECT_EQ(parseExpStr("foldl op + 0 l"),
            "(app (app (app foldl +) 0) l)");
}

TEST(Parser, QualifiedIdentifiers) {
  EXPECT_EQ(parseExpStr("S.T.x"), "S.T.x");
}

TEST(Parser, PatternForms) {
  EXPECT_EQ(parseProgStr("val (x, y) = p"), "(val (ptuple x y) p)");
  EXPECT_EQ(parseProgStr("val x :: rest = l"),
            "(val (pcon :: (ptuple x rest)) l)");
  EXPECT_EQ(parseProgStr("val [a, b] = l"),
            "(val (pcon :: (ptuple a (pcon :: (ptuple b nil)))) l)");
  EXPECT_EQ(parseProgStr("val _ = e"), "(val _ e)");
}

TEST(Parser, LayeredPattern) {
  EXPECT_EQ(parseProgStr("val x as (a, b) = p"),
            "(val (as x (ptuple a b)) p)");
}

TEST(Parser, FunDeclarations) {
  EXPECT_EQ(parseProgStr("fun f x = x"), "(fun (f (x = x)))");
  EXPECT_EQ(parseProgStr("fun f 0 = 1 | f n = n"),
            "(fun (f (0 = 1) (n = n)))");
  EXPECT_EQ(parseProgStr("fun f x y = y and g z = z"),
            "(fun (f (x y = y)) (g (z = z)))");
}

TEST(Parser, DatatypeDeclarations) {
  EXPECT_EQ(parseProgStr("datatype t = A | B of int"),
            "(datatype (t A B:int))");
  EXPECT_EQ(parseProgStr("datatype 'a opt = N | S of 'a"),
            "(datatype (opt N S:'a))");
}

TEST(Parser, TypeSyntax) {
  bool Ok = false;
  parseProgStr("val f = fn (x : int * real -> bool list) => x", &Ok);
  EXPECT_TRUE(Ok);
  parseProgStr("type ('a, 'b) pair = 'a * 'b", &Ok);
  EXPECT_TRUE(Ok);
}

TEST(Parser, ModuleSyntax) {
  bool Ok = false;
  parseProgStr("signature S = sig val x : int type t "
               "datatype d = A | B of t exception E of int "
               "structure Sub : sig end end",
               &Ok);
  EXPECT_TRUE(Ok);
  parseProgStr("structure A = struct val x = 1 end "
               "structure B : S = A "
               "structure C :> S = A "
               "abstraction D : S = A",
               &Ok);
  EXPECT_TRUE(Ok);
  parseProgStr("functor F (X : S) = struct val y = X.x end "
               "structure R = F (A)",
               &Ok);
  EXPECT_TRUE(Ok);
}

TEST(Parser, ErrorRecovery) {
  bool Ok = true;
  parseProgStr("val = 3", &Ok);
  EXPECT_FALSE(Ok);
  parseProgStr("fun = ", &Ok);
  EXPECT_FALSE(Ok);
}

TEST(Parser, TypedExpression) {
  EXPECT_EQ(parseExpStr("x : int"), "(typed x int)");
}

// Every kind of nesting stops at the one limit with one error that names
// it: parentheses, a right-associative `::` chain, a `#1` chain, nested
// patterns, a cons pattern and an arrow type. Compiled, not parsed here:
// the limit is deeper than a test thread's stack, and a compile runs on
// the compile stack.
TEST(Parser, NestingPastTheLimitIsOneError) {
  auto Repeat = [](const std::string &S, size_t N) {
    std::string Out;
    Out.reserve(S.size() * N);
    for (size_t I = 0; I < N; ++I)
      Out += S;
    return Out;
  };
  const size_t N = kMaxNestingDepth + 1;
  const std::string Sources[] = {
      "val x = " + std::string(N, '(') + "1" + std::string(N, ')'),
      "val x = " + Repeat("1 :: ", N) + "nil",
      "val x = " + Repeat("#1 ", N) + "y",
      "fun f " + std::string(N, '(') + "x" + std::string(N, ')') + " = x",
      "fun f (" + Repeat("x :: ", N) + "nil) = 1",
      "val x : " + Repeat("int -> ", N) + "int = f",
  };
  const std::string Limit = "nests deeper than " +
                            std::to_string(kMaxNestingDepth) + " levels";
  for (const std::string &Src : Sources) {
    CompileOutput Out =
        Compiler::compile(Src, CompilerOptions::ffb(), /*WithPrelude=*/false);
    ASSERT_FALSE(Out.Ok) << Src.substr(0, 20);
    EXPECT_NE(Out.Errors.find(Limit), std::string::npos) << Out.Errors;
    EXPECT_EQ(Out.Errors.find('\n'), Out.Errors.size() - 1) << Out.Errors;
  }
  // The outermost expression is the first level.
  CompileOutput Deepest = Compiler::compile(
      "val x = " + std::string(N - 2, '(') + "1" + std::string(N - 2, ')'),
      CompilerOptions::ffb(), /*WithPrelude=*/false);
  EXPECT_TRUE(Deepest.Ok) << Deepest.Errors.substr(0, 200);
}
