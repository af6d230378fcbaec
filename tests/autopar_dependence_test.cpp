#include "autopar/dependence.hpp"

#include <gtest/gtest.h>

namespace tc3i::autopar {
namespace {

DepContext ctx_i() {
  DepContext ctx;
  ctx.loop_var = std::string("i");
  ctx.invariants = {"n", "k"};
  return ctx;
}

ArrayAccess acc(const std::string& array, AffineExpr sub, AccessKind kind) {
  return ArrayAccess{array, {std::move(sub)}, kind};
}

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(0, 5), 5);
  EXPECT_EQ(gcd(7, 0), 7);
  EXPECT_EQ(gcd(13, 7), 1);
}

TEST(DependenceTest, DifferentArraysAreIndependent) {
  const auto o = test_pair(acc("a", AffineExpr::var("i"), AccessKind::Write),
                           acc("b", AffineExpr::var("i"), AccessKind::Read),
                           ctx_i());
  EXPECT_EQ(o.result, DepResult::Independent);
}

TEST(DependenceTest, ZivDistinctConstantsIndependent) {
  const auto o = test_pair(acc("a", AffineExpr::constant(0), AccessKind::Write),
                           acc("a", AffineExpr::constant(1), AccessKind::Read),
                           ctx_i());
  EXPECT_EQ(o.result, DepResult::Independent);
}

TEST(DependenceTest, ZivSameConstantUnproven) {
  const auto o = test_pair(acc("a", AffineExpr::constant(0), AccessKind::Write),
                           acc("a", AffineExpr::constant(0), AccessKind::Write),
                           ctx_i());
  EXPECT_EQ(o.result, DepResult::Carried);
}

TEST(DependenceTest, StrongSivDistanceZeroIsLoopIndependent) {
  const auto o = test_pair(acc("a", AffineExpr::var("i"), AccessKind::Write),
                           acc("a", AffineExpr::var("i"), AccessKind::Read),
                           ctx_i());
  EXPECT_EQ(o.result, DepResult::LoopIndependent);
}

TEST(DependenceTest, StrongSivNonzeroDistanceCarried) {
  const auto o = test_pair(
      acc("a", AffineExpr::var("i"), AccessKind::Write),
      acc("a", AffineExpr::var("i") - AffineExpr::constant(1), AccessKind::Read),
      ctx_i());
  EXPECT_EQ(o.result, DepResult::Carried);
  EXPECT_NE(o.reason.find("strong SIV"), std::string::npos);
}

TEST(DependenceTest, StrongSivNonIntegerDistanceIndependent) {
  // a[2i] vs a[2i+1]: parity separates them.
  const auto o = test_pair(
      acc("a", AffineExpr::var("i", 2), AccessKind::Write),
      acc("a", AffineExpr::var("i", 2) + AffineExpr::constant(1),
          AccessKind::Read),
      ctx_i());
  EXPECT_EQ(o.result, DepResult::Independent);
}

TEST(DependenceTest, GcdTestProvesIndependence) {
  // a[2i] vs a[4i+1]: gcd(2,4)=2 does not divide 1.
  const auto o = test_pair(
      acc("a", AffineExpr::var("i", 2), AccessKind::Write),
      acc("a", AffineExpr::var("i", 4) + AffineExpr::constant(1),
          AccessKind::Read),
      ctx_i());
  EXPECT_EQ(o.result, DepResult::Independent);
  EXPECT_NE(o.reason.find("GCD"), std::string::npos);
}

TEST(DependenceTest, GcdInconclusiveWhenDivides) {
  // a[2i] vs a[4i+2]: gcd divides, solutions exist.
  const auto o = test_pair(
      acc("a", AffineExpr::var("i", 2), AccessKind::Write),
      acc("a", AffineExpr::var("i", 4) + AffineExpr::constant(2),
          AccessKind::Read),
      ctx_i());
  EXPECT_EQ(o.result, DepResult::Carried);
}

TEST(DependenceTest, NonAffineSubscriptCarried) {
  const auto o = test_pair(
      acc("a", AffineExpr::non_affine("p->index"), AccessKind::Write),
      acc("a", AffineExpr::var("i"), AccessKind::Read), ctx_i());
  EXPECT_EQ(o.result, DepResult::Carried);
  EXPECT_NE(o.reason.find("not analyzable"), std::string::npos);
}

TEST(DependenceTest, LoopVariantScalarSubscriptCarried) {
  // intervals[num_intervals]: the Program 1 pattern.
  const auto o = test_pair(
      acc("intervals", AffineExpr::var("num_intervals"), AccessKind::Write),
      acc("intervals", AffineExpr::var("num_intervals"), AccessKind::Write),
      ctx_i());
  EXPECT_EQ(o.result, DepResult::Carried);
  EXPECT_NE(o.reason.find("loop-variant scalar"), std::string::npos);
}

TEST(DependenceTest, InvariantSymbolInSubscriptIsFine) {
  // a[i + k] vs a[i + k]: k invariant; same iteration only.
  const auto sub = AffineExpr::var("i") + AffineExpr::var("k");
  const auto o = test_pair(acc("a", sub, AccessKind::Write),
                           acc("a", sub, AccessKind::Read), ctx_i());
  EXPECT_EQ(o.result, DepResult::LoopIndependent);
}

TEST(DependenceTest, InnerLoopVarOnlyDimensionCarried) {
  // masking[x][y] with x, y inner loop vars: Program 3's pattern.
  DepContext ctx;
  ctx.loop_var = "threat";
  ctx.inner_loop_vars = {"x", "y"};
  ArrayAccess w{"masking", {AffineExpr::var("x"), AffineExpr::var("y")},
                AccessKind::Write};
  const auto o = test_pair(w, w, ctx);
  EXPECT_EQ(o.result, DepResult::Carried);
  EXPECT_NE(o.reason.find("inner loop variables"), std::string::npos);
}

TEST(DependenceTest, ChunkDimensionPinsIteration) {
  // intervals[chunk][<unknown>]: Program 2's pattern — dimension 0 proves
  // cross-iteration independence even though dimension 1 is unanalyzable.
  DepContext ctx;
  ctx.loop_var = "chunk";
  ArrayAccess w{"intervals",
                {AffineExpr::var("chunk"), AffineExpr::var("num_intervals_c")},
                AccessKind::Write};
  const auto o = test_pair(w, w, ctx);
  EXPECT_EQ(o.result, DepResult::LoopIndependent);
}

TEST(DependenceTest, DimensionalityMismatchCarried) {
  ArrayAccess a{"x", {AffineExpr::var("i")}, AccessKind::Write};
  ArrayAccess b{"x", {AffineExpr::var("i"), AffineExpr::var("i")},
                AccessKind::Read};
  EXPECT_EQ(test_pair(a, b, ctx_i()).result, DepResult::Carried);
}

TEST(DependenceTest, ReadReadPairsStillReportIndependentDims) {
  // The analyzer only calls test_pair with at least one write, but the
  // test function itself is access-kind agnostic; ZIV still separates.
  const auto o = test_pair(acc("a", AffineExpr::constant(3), AccessKind::Read),
                           acc("a", AffineExpr::constant(9), AccessKind::Read),
                           ctx_i());
  EXPECT_EQ(o.result, DepResult::Independent);
}

}  // namespace
}  // namespace tc3i::autopar
