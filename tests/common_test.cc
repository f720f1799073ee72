// Unit tests for the common module: Status/Result, Value semantics
// (three-valued logic, arithmetic, hashing, ordering), Schema, and string
// utilities.

#include <gtest/gtest.h>

#include "common/schema.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"

namespace xnfdb {
namespace {

TEST(StatusTest, OkAndErrorRoundTrip) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::ParseError("bad token");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kParseError);
  EXPECT_EQ(err.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(Status::NotFound("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), DataType::kNull);
  EXPECT_EQ(Value(int64_t{3}).type(), DataType::kInt);
  EXPECT_EQ(Value(2.5).type(), DataType::kDouble);
  EXPECT_EQ(Value("hi").type(), DataType::kString);
  EXPECT_EQ(Value(true).type(), DataType::kBool);
  EXPECT_EQ(Value(int64_t{3}).AsDouble(), 3.0);  // int promotes
}

TEST(ValueTest, EqualityIsNullSafeAndNumericCrossType) {
  EXPECT_TRUE(Value() == Value());
  EXPECT_FALSE(Value() == Value(int64_t{0}));
  EXPECT_TRUE(Value(int64_t{2}) == Value(2.0));  // numeric promotion
  EXPECT_FALSE(Value(int64_t{2}) == Value("2"));
  EXPECT_TRUE(Value("abc") == Value("abc"));
}

TEST(ValueTest, ThreeValuedComparison) {
  Value t = Value::Compare(Value(int64_t{1}), Value(int64_t{2}), CompareOp::kLt);
  ASSERT_EQ(t.type(), DataType::kBool);
  EXPECT_TRUE(t.AsBool());
  EXPECT_TRUE(
      Value::Compare(Value(), Value(int64_t{2}), CompareOp::kEq).is_null());
  EXPECT_TRUE(
      Value::Compare(Value(int64_t{1}), Value(), CompareOp::kNe).is_null());
  EXPECT_TRUE(Value::Compare(Value("a"), Value("b"), CompareOp::kLe).AsBool());
  EXPECT_FALSE(Value::Compare(Value("b"), Value("a"), CompareOp::kLe).AsBool());
}

TEST(ValueTest, ParseCompareOpCoversSqlSpellings) {
  CompareOp op = CompareOp::kEq;
  EXPECT_TRUE(ParseCompareOp("<>", &op));
  EXPECT_EQ(op, CompareOp::kNe);
  EXPECT_TRUE(ParseCompareOp(">=", &op));
  EXPECT_EQ(op, CompareOp::kGe);
  EXPECT_FALSE(ParseCompareOp("!=", &op));
  EXPECT_EQ(op, CompareOp::kGe);  // untouched on failure
  EXPECT_STREQ(CompareOpName(CompareOp::kLt), "<");
}

TEST(ValueTest, ArithmeticPromotionAndErrors) {
  Result<Value> sum = Value::Add(Value(int64_t{2}), Value(int64_t{3}));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum.value().AsInt(), 5);

  Result<Value> mixed = Value::Mul(Value(int64_t{2}), Value(1.5));
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value().type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(mixed.value().AsDouble(), 3.0);

  // NULL propagates.
  Result<Value> n = Value::Sub(Value(), Value(int64_t{1}));
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n.value().is_null());

  EXPECT_FALSE(Value::Add(Value("x"), Value(int64_t{1})).ok());
  EXPECT_FALSE(Value::Div(Value(int64_t{1}), Value(int64_t{0})).ok());
}

TEST(ValueTest, IntegerDivisionStaysIntegralWhenExact) {
  Result<Value> exact = Value::Div(Value(int64_t{6}), Value(int64_t{3}));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().type(), DataType::kInt);
  EXPECT_EQ(exact.value().AsInt(), 2);

  Result<Value> frac = Value::Div(Value(int64_t{7}), Value(int64_t{2}));
  ASSERT_TRUE(frac.ok());
  EXPECT_EQ(frac.value().type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(frac.value().AsDouble(), 3.5);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(5.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  Tuple a{Value(int64_t{1}), Value("x")};
  Tuple b{Value(int64_t{1}), Value("x")};
  EXPECT_EQ(HashRow(a), HashRow(b));
}

TEST(ValueTest, OrderingPutsNullFirst) {
  EXPECT_TRUE(Value() < Value(int64_t{0}));
  EXPECT_FALSE(Value(int64_t{0}) < Value());
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value("a") < Value("b"));
}

TEST(ValueTest, ToStringRendersSqlStyle) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
  EXPECT_EQ(Value(true).ToString(), "TRUE");
  EXPECT_EQ(TupleToString({Value(int64_t{1}), Value("a")}), "(1, 'a')");
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  Schema s({{"DNO", DataType::kInt}, {"DName", DataType::kString}});
  EXPECT_EQ(s.FindColumn("dno"), 0);
  EXPECT_EQ(s.FindColumn("DNAME"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
  EXPECT_FALSE(s.ResolveColumn("missing", "table T").ok());
}

TEST(SchemaTest, ValidateTupleChecksArityAndTypes) {
  Schema s({{"A", DataType::kInt}, {"B", DataType::kDouble}});
  EXPECT_TRUE(s.ValidateTuple({Value(int64_t{1}), Value(2.0)}).ok());
  // Int accepted for double columns; NULL anywhere.
  EXPECT_TRUE(s.ValidateTuple({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_TRUE(s.ValidateTuple({Value(), Value()}).ok());
  EXPECT_FALSE(s.ValidateTuple({Value(int64_t{1})}).ok());
  EXPECT_FALSE(s.ValidateTuple({Value("x"), Value(2.0)}).ok());
}

TEST(StrUtilTest, JoinSplitTrim) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Split("a.b..c", '.'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
}

TEST(StrUtilTest, LikeMatching) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("hello", "h_"));
  EXPECT_FALSE(LikeMatch("hello", "H%"));  // case-sensitive on data
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
  EXPECT_TRUE(LikeMatch("xazb", "%a_b"));
}

TEST(StrUtilTest, IdentCaseFolding) {
  EXPECT_TRUE(IdentEquals("abc", "ABC"));
  EXPECT_FALSE(IdentEquals("abc", "abd"));
  EXPECT_EQ(ToUpperIdent("xDept"), "XDEPT");
}

}  // namespace
}  // namespace xnfdb
