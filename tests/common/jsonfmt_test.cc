#include "common/jsonfmt.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace tio {
namespace {

TEST(JsonDouble, FixedPointFormatting) {
  EXPECT_EQ(json_double(0.0, 3), "0.000");
  EXPECT_EQ(json_double(1.0, 3), "1.000");
  EXPECT_EQ(json_double(1.5, 3), "1.500");
  EXPECT_EQ(json_double(-2.25, 2), "-2.25");
  EXPECT_EQ(json_double(1234.5678, 2), "1234.57");
  EXPECT_EQ(json_double(0.0005, 6), "0.000500");
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN(), 3), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity(), 3), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity(), 3), "null");
}

TEST(JsonDouble, IgnoresCommaDecimalLocale) {
  // The regression this helper exists for: under a comma-decimal locale,
  // printf("%f") emits "1,500000" and corrupts JSON. The container may only
  // ship C/POSIX locales, so try several comma-decimal ones and skip if
  // none can be installed into LC_NUMERIC.
  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"};
  const char* installed = nullptr;
  for (const char* name : candidates) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      installed = name;
      break;
    }
  }
  if (installed == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale available";
  }
  char printf_out[64];
  std::snprintf(printf_out, sizeof(printf_out), "%.3f", 1.5);
  EXPECT_STREQ(printf_out, "1,500");  // printf is locale-poisoned...
  EXPECT_EQ(json_double(1.5, 3), "1.500");  // ...json_double is not
  std::setlocale(LC_NUMERIC, "C");
}

TEST(JsonQuote, EscapesMandatoryCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("line\nfeed\ttab\rret"), "\"line\\nfeed\\ttab\\rret\"");
  EXPECT_EQ(json_quote(std::string("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(json_quote(""), "\"\"");
}


TEST(JsonWriter, NestsObjectsAndArraysWithCommasAndIndent) {
  JsonWriter w;
  w.begin_object().field("bench", "demo");
  w.key("config").begin_object().field("procs", 32).field("flag", true).end_object();
  w.key("rows").begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object().field("i", i).key("cells").begin_array().value(1).value(2).end_array();
    w.end_object();
  }
  w.end_array();
  w.key("empty_object").begin_object().end_object();
  w.key("empty_array").begin_array().end_array();
  w.field("schema", 2).end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"config\": {\n"
            "    \"procs\": 32,\n"
            "    \"flag\": true\n"
            "  },\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"i\": 0,\n"
            "      \"cells\": [\n"
            "        1,\n"
            "        2\n"
            "      ]\n"
            "    },\n"
            "    {\n"
            "      \"i\": 1,\n"
            "      \"cells\": [\n"
            "        1,\n"
            "        2\n"
            "      ]\n"
            "    }\n"
            "  ],\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"schema\": 2\n"
            "}");
}

TEST(JsonWriter, EscapesStringValuesAndKeys) {
  JsonWriter w;
  w.begin_object()
      .field("fault_plan", "outage=/vol\"9@0-1")
      .field("prefix", std::string("/v\\x"))
      .field("tab\tkey", std::string_view("a\nb"))
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"fault_plan\": \"outage=/vol\\\"9@0-1\",\n"
            "  \"prefix\": \"/v\\\\x\",\n"
            "  \"tab\\tkey\": \"a\\nb\"\n"
            "}");
}

TEST(JsonWriter, NumbersIntegersBooleansAndNull) {
  JsonWriter w;
  w.begin_array()
      .value(1.5, 3)
      .value(std::numeric_limits<double>::quiet_NaN(), 3)
      .value(std::numeric_limits<double>::infinity(), 2)
      .value(-std::numeric_limits<double>::infinity(), 2)
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(false)
      .null()
      .end_array();
  EXPECT_EQ(w.str(),
            "[\n  1.500,\n  null,\n  null,\n  null,\n  18446744073709551615,\n"
            "  -9223372036854775808,\n  false,\n  null\n]");
}

}  // namespace
}  // namespace tio
