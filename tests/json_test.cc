#include <gtest/gtest.h>

#include <limits>

#include "json/json.h"
#include "util/random.h"

namespace mmlib::json {
namespace {

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(1.5).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value::MakeArray().is_array());
  EXPECT_TRUE(Value::MakeObject().is_object());
}

TEST(JsonValueTest, ObjectAccessors) {
  Value doc = Value::MakeObject();
  doc.Set("name", "resnet");
  doc.Set("params", 11689512);
  doc.Set("partial", true);
  doc.Set("ratio", 0.25);

  EXPECT_EQ(doc.GetString("name").value(), "resnet");
  EXPECT_EQ(doc.GetInt("params").value(), 11689512);
  EXPECT_TRUE(doc.GetBool("partial").value());
  EXPECT_DOUBLE_EQ(doc.GetNumber("ratio").value(), 0.25);
  EXPECT_TRUE(doc.Has("name"));
  EXPECT_FALSE(doc.Has("missing"));
}

TEST(JsonValueTest, U64RoundtripsThroughText) {
  for (const uint64_t u :
       {uint64_t{0}, uint64_t{42}, uint64_t{1} << 53, (uint64_t{1} << 53) + 1,
        std::numeric_limits<uint64_t>::max()}) {
    Value doc = Value::MakeObject();
    doc.Set("seed", Value::FromU64(u));
    auto parsed = Parse(doc.Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->GetU64("seed").value(), u);
  }
  // Values a double holds exactly keep their old numeric form.
  Value small = Value::MakeObject();
  small.Set("seed", Value::FromU64(42));
  EXPECT_EQ(small.Dump(), "{\"seed\":42}");
}

TEST(JsonValueTest, GetU64ReadsLegacyNumbersAndRejectsJunk) {
  // Older documents stored seeds >= 2^63 as negative int64 numbers.
  auto legacy = Parse("{\"max\":-1,\"seed\":7}").value();
  EXPECT_EQ(legacy.GetU64("max").value(),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(legacy.GetU64("seed").value(), 7u);
  auto bad = Parse(
      "{\"frac\":1.5,\"huge\":1e30,\"sign\":\"-1\",\"text\":\"12x\","
      "\"empty\":\"\",\"over\":\"18446744073709551616\"}").value();
  for (const char* key : {"frac", "huge", "sign", "text", "empty", "over"}) {
    EXPECT_EQ(bad.GetU64(key).status().code(), StatusCode::kInvalidArgument)
        << key;
  }
}

TEST(JsonValueTest, AccessorsReportTypeMismatch) {
  Value doc = Value::MakeObject();
  doc.Set("n", 3);
  EXPECT_EQ(doc.GetString("n").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(doc.GetBool("n").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(doc.GetString("missing").status().code(), StatusCode::kNotFound);
}

TEST(JsonValueTest, FindMemberTreatsNullAsAbsent) {
  Value doc = Value::MakeObject();
  doc.Set("explicit_null", Value());
  doc.Set("present", 1);
  EXPECT_EQ(doc.FindMember("explicit_null"), nullptr);
  EXPECT_NE(doc.FindMember("present"), nullptr);
  EXPECT_EQ(doc.FindMember("absent"), nullptr);
}

TEST(JsonValueTest, CanonicalDumpSortsKeys) {
  Value doc = Value::MakeObject();
  doc.Set("zebra", 1);
  doc.Set("alpha", 2);
  EXPECT_EQ(doc.Dump(), R"({"alpha":2,"zebra":1})");
}

TEST(JsonValueTest, DumpEscapesSpecialCharacters) {
  Value v(std::string("line\nquote\"back\\slash\ttab"));
  EXPECT_EQ(v.Dump(), "\"line\\nquote\\\"back\\\\slash\\ttab\"");
}

TEST(JsonValueTest, IntegersDumpWithoutExponent) {
  EXPECT_EQ(Value(int64_t{1234567890123}).Dump(), "1234567890123");
  EXPECT_EQ(Value(-5).Dump(), "-5");
  EXPECT_EQ(Value(0.5).Dump(), "0.5");
}

TEST(JsonValueTest, DeepEquality) {
  Value a = Value::MakeObject();
  a.Set("list", Value::Array{Value(1), Value("two"), Value()});
  Value b = Value::MakeObject();
  b.Set("list", Value::Array{Value(1), Value("two"), Value()});
  EXPECT_TRUE(a == b);
  b.as_object()["list"].as_array().push_back(Value(false));
  EXPECT_FALSE(a == b);
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(Parse("null").value().is_null());
  EXPECT_TRUE(Parse("true").value().as_bool());
  EXPECT_FALSE(Parse("false").value().as_bool());
  EXPECT_DOUBLE_EQ(Parse("-12.5e2").value().as_number(), -1250.0);
  EXPECT_EQ(Parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonParseTest, ParsesNestedStructures) {
  auto result = Parse(R"({"a": [1, {"b": "c"}, null], "d": {}})");
  ASSERT_TRUE(result.ok());
  const Value& doc = result.value();
  const Value::Array& a = doc.FindMember("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].GetString("b").value(), "c");
  EXPECT_TRUE(a[2].is_null());
}

TEST(JsonParseTest, HandlesWhitespace) {
  auto result = Parse("  {\n\t\"k\" :  1 ,\r\n \"l\": [ ] }  ");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetInt("k").value(), 1);
}

TEST(JsonParseTest, UnicodeEscapes) {
  auto result = Parse(R"("Aé€")");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_string(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "[1 2]", "tru", "01a",
        "\"unterminated", "{\"a\":1} trailing", "{'single':1}",
        "\"bad \\u12zz escape\""}) {
    EXPECT_FALSE(Parse(bad).ok()) << "input: " << bad;
  }
}

TEST(JsonParseTest, RejectsExcessiveNesting) {
  std::string deep(400, '[');
  deep += std::string(400, ']');
  EXPECT_FALSE(Parse(deep).ok());
}

TEST(JsonParseTest, PrettyDumpReparses) {
  Value doc = Value::MakeObject();
  doc.Set("x", Value::Array{Value(1), Value(2)});
  doc.Set("y", "z");
  auto reparsed = Parse(doc.DumpPretty());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed.value() == doc);
}

// Property: randomly generated documents survive a dump/parse roundtrip.

Value RandomValue(Rng* rng, int depth) {
  const uint64_t kind = rng->NextBelow(depth > 3 ? 4 : 6);
  switch (kind) {
    case 0:
      return Value();
    case 1:
      return Value(rng->NextBelow(2) == 0);
    case 2:
      return Value(static_cast<int64_t>(rng->NextBelow(1 << 30)) -
                   (1 << 29));
    case 3: {
      std::string s;
      const uint64_t len = rng->NextBelow(12);
      for (uint64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
      }
      if (rng->NextBelow(4) == 0) {
        s += "\"\\\n\t";
      }
      return Value(std::move(s));
    }
    case 4: {
      Value::Array array;
      const uint64_t len = rng->NextBelow(5);
      for (uint64_t i = 0; i < len; ++i) {
        array.push_back(RandomValue(rng, depth + 1));
      }
      return Value(std::move(array));
    }
    default: {
      Value doc = Value::MakeObject();
      const uint64_t len = rng->NextBelow(5);
      for (uint64_t i = 0; i < len; ++i) {
        doc.Set("k" + std::to_string(rng->NextBelow(100)),
                RandomValue(rng, depth + 1));
      }
      return doc;
    }
  }
}

class JsonRoundtripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundtripProperty, DumpParseRoundtrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value original = RandomValue(&rng, 0);
    auto compact = Parse(original.Dump());
    ASSERT_TRUE(compact.ok()) << original.Dump();
    EXPECT_TRUE(compact.value() == original) << original.Dump();
    auto pretty = Parse(original.DumpPretty());
    ASSERT_TRUE(pretty.ok());
    EXPECT_TRUE(pretty.value() == original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundtripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace mmlib::json
