// JSON value model, serializer, and parser tests.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/json.hpp"

namespace {

using namespace qarch;
using json::Value;

TEST(Json, ScalarConstruction) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(nullptr).is_null());
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_DOUBLE_EQ(Value(2.5).as_number(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_THROW((void)Value(1.0).as_string(), Error);
  EXPECT_THROW((void)Value("x").as_number(), Error);
  // Checked integers: whole, non-negative and at most 9e15; 64-bit words as
  // strict decimal text.
  EXPECT_EQ(json::as_uint(Value(40.0), "n"), 40u);
  for (const double bad : {40.7, -1.0, 1e16})
    EXPECT_THROW(json::as_uint(Value(bad), "n"), Error) << bad;
  EXPECT_EQ(json::parse_u64("18446744073709551615", "w"),
            18446744073709551615ull);
  for (const char* bad :
       {"", "-1", "+1", " 1", "12abc", "18446744073709551616"})
    EXPECT_THROW(json::parse_u64(bad, "w"), Error) << bad;
}

TEST(Json, ArrayAndObjectBuilding) {
  Value arr = Value::array();
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_DOUBLE_EQ(arr.at(0).as_number(), 1.0);
  EXPECT_THROW((void)arr.at(5), Error);

  Value obj = Value::object();
  obj.set("k", 3.0);
  EXPECT_TRUE(obj.contains("k"));
  EXPECT_FALSE(obj.contains("missing"));
  EXPECT_THROW((void)obj.at("missing"), Error);
  EXPECT_THROW(obj.push_back(1), Error);  // not an array
}

TEST(Json, CompactDump) {
  Value obj = Value::object();
  obj.set("a", 1);
  obj.set("b", Value::array());
  obj.set("s", "x\"y\n");
  obj.set("t", true);
  obj.set("n", nullptr);
  EXPECT_EQ(obj.dump(), R"({"a":1,"b":[],"n":null,"s":"x\"y\n","t":true})");
}

TEST(Json, PrettyDumpIsReparseable) {
  Value obj = Value::object();
  Value inner = Value::array();
  inner.push_back(1.5);
  inner.push_back(false);
  obj.set("list", std::move(inner));
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  const Value back = json::parse(pretty);
  EXPECT_DOUBLE_EQ(back.at("list").at(0).as_number(), 1.5);
  EXPECT_EQ(back.at("list").at(1).as_bool(), false);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(json::parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(json::parse("\"hello\"").as_string(), "hello");
}

TEST(Json, ParseNested) {
  const Value v = json::parse(
      R"({"name":"run","values":[1,2,3],"meta":{"ok":true,"tag":null}})");
  EXPECT_EQ(v.at("name").as_string(), "run");
  EXPECT_EQ(v.at("values").size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("values").at(2).as_number(), 3.0);
  EXPECT_TRUE(v.at("meta").at("ok").as_bool());
  EXPECT_TRUE(v.at("meta").at("tag").is_null());
}

TEST(Json, ParseEscapes) {
  const Value v = json::parse(R"("a\"b\\c\nA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nA");
}

TEST(Json, RoundTripPreservesNumbers) {
  for (double x : {0.0, -1.0, 3.14159265358979, 1e-12, 123456789.0}) {
    const Value v = json::parse(Value(x).dump());
    EXPECT_DOUBLE_EQ(v.as_number(), x);
  }
}

TEST(Json, ParseErrorsAreDescriptive) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "{'a':1}",
        "[1 2]", "{\"a\":1,}"}) {
    EXPECT_THROW(json::parse(bad), Error) << "input: " << bad;
  }
  EXPECT_THROW(json::parse("[1] trailing"), Error);
}

TEST(Json, WhitespaceTolerant) {
  const Value v = json::parse("  {\n\t\"a\" :\t[ 1 ,\n 2 ]\n}  ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

}  // namespace
