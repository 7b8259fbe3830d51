// Unit tests for lumos::common — RNG determinism/statistics, descriptive
// stats, unit conversions, error macros, and the table reporter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace lumos {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroReturnsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  double lo = 1e300, hi = -1e300;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ASSERT_GE(v, -2.0);
    ASSERT_LT(v, 3.0);
  }
  EXPECT_LT(lo, -1.8);
  EXPECT_GT(hi, 2.8);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  std::vector<double> draws(50000);
  for (double& v : draws) v = rng.normal(5.0, 2.0);
  const double m = mean(draws);
  double sq = 0.0;
  for (const double v : draws) sq += (v - m) * (v - m);
  EXPECT_NEAR(m, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / static_cast<double>(draws.size() - 1)), 2.0, 0.05);
}

TEST(Stats, Mean) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> v{1.0, 10.0, 100.0};
  EXPECT_NEAR(geometric_mean(v), 10.0, 1e-9);
  EXPECT_THROW((void)geometric_mean(std::vector<double>{1.0, -1.0}), InvalidArgument);
}

TEST(Units, DbRoundTrip) {
  for (const double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 20.0}) {
    EXPECT_NEAR(units::linear_to_db(units::db_to_linear(db)), db, 1e-9);
  }
}

TEST(Units, DbmConversions) {
  EXPECT_NEAR(units::dbm_to_watts(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(units::dbm_to_watts(30.0), 1.0, 1e-9);
  EXPECT_NEAR(units::watts_to_dbm(1e-6), -30.0, 1e-9);
}

TEST(Units, AttenuateAppliesLoss) {
  EXPECT_NEAR(units::attenuate(1.0, 3.0103), 0.5, 1e-4);
  EXPECT_NEAR(units::attenuate(2e-3, 0.0), 2e-3, 1e-15);
}

TEST(Units, PrefixHelpers) {
  EXPECT_DOUBLE_EQ(units::ghz(10.0), 1e10);
  EXPECT_DOUBLE_EQ(units::nm(1550.0), 1.55e-6);
  EXPECT_DOUBLE_EQ(units::to_nm(1.55e-6), 1550.0);
  EXPECT_DOUBLE_EQ(units::fj(70.0), 7e-14);
  EXPECT_DOUBLE_EQ(units::to_gops(1e12), 1000.0);
}

TEST(Error, ExpectsThrowsInvalidArgument) {
  EXPECT_THROW(LUMOS_EXPECTS(false), InvalidArgument);
  EXPECT_NO_THROW(LUMOS_EXPECTS(true));
  EXPECT_THROW(LUMOS_EXPECTS_MSG(1 == 2, "message"), InvalidArgument);
}

TEST(Error, EnsuresThrowsInternalError) {
  EXPECT_THROW(LUMOS_ENSURES(false), InternalError);
}

TEST(Error, MessageContainsExpressionAndNote) {
  try {
    LUMOS_EXPECTS_MSG(0 > 1, "zero is not greater");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0 > 1"), std::string::npos);
    EXPECT_NE(what.find("zero is not greater"), std::string::npos);
  }
}

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.add_row({"name", "value"});
  t.add_row({"alpha", Table::num(1.5)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumFormatsExtremes) {
  EXPECT_NE(Table::num(1.23456e12).find('e'), std::string::npos);
  EXPECT_NE(Table::num(1.23456e-9).find('e'), std::string::npos);
  EXPECT_EQ(Table::num(0.0), "0.000");
}

// ---------------------------------------------------------------------------
// json_escape (JsonWriter applies it to every key and string)
// ---------------------------------------------------------------------------

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("tron-eco @ 0.5x"), "tron-eco @ 0.5x");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b\\\\c"), "a\\\\b\\\\\\\\c");
  EXPECT_EQ(json_escape("\"\\\""), "\\\"\\\\\\\"");
}

TEST(JsonEscape, EscapesShortFormControlCharacters) {
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
}

TEST(JsonEscape, EscapesRemainingControlCharactersAsUnicode) {
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape("bell\x07!"), "bell\\u0007!");
  // 0x20 (space) and above pass through untouched.
  EXPECT_EQ(json_escape(" ~"), " ~");
}

// ---------------------------------------------------------------------------
// JsonWriter (the one writer behind every JSON the library emits)
// ---------------------------------------------------------------------------

TEST(JsonWriter, PlacesCommasAndFollowsTheLayoutRule) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().field("name", "x").field("count", std::size_t{3}).field("ok", true);
  w.begin_array("empty").end();
  w.begin_array("ints").element(1).element(-2).end();
  w.begin_object("inline").field("a", 0.5).begin_array("tags").element("t").end().end();
  w.begin_array("rows");
  w.begin_object().field("i", 0).begin_array("cells");
  w.begin_object().field("c", 1).end().begin_object().field("c", 2).end();
  w.end().field("tail", false).end();
  w.begin_object().field("i", 1).end();
  w.end().end();
  // The root object and arrays of containers put one element per line, two
  // spaces per open container; everything else stays on its line.
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"count\": 3,\n"
            "  \"ok\": true,\n"
            "  \"empty\": [],\n"
            "  \"ints\": [1, -2],\n"
            "  \"inline\": {\"a\": 0.5, \"tags\": [\"t\"]},\n"
            "  \"rows\": [\n"
            "    {\"i\": 0, \"cells\": [\n"
            "        {\"c\": 1},\n"
            "        {\"c\": 2}\n"
            "      ], \"tail\": false},\n"
            "    {\"i\": 1}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, RootArrayOfScalarsStaysOnOneLine) {
  std::ostringstream os;
  JsonWriter(os).begin_array().element(1).element("b").end();
  EXPECT_EQ(os.str(), "[1, \"b\"]\n");
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  std::ostringstream os;
  JsonWriter w(os);
  const std::string name = "say \"hi\"\n";
  w.begin_object().field("k\\", name).begin_array("a").element("\t").end().end();
  EXPECT_EQ(os.str(), "{\n  \"k\\\\\": \"say \\\"hi\\\"\\n\",\n  \"a\": [\"\\t\"]\n}\n");
}

TEST(JsonWriter, DoublesPrintAsTheStreamFormatsThem) {
  std::ostringstream os;
  JsonWriter(os).begin_array().element(1.0 / 3.0).element(2.5e-7).element(1e6).end();
  EXPECT_EQ(os.str(), "[0.333333, 2.5e-07, 1e+06]\n");
  std::ostringstream fixed;
  fixed << std::fixed << std::setprecision(3);
  JsonWriter(fixed).begin_array().element(1.0 / 3.0).element(std::uint64_t{7}).end();
  EXPECT_EQ(fixed.str(), "[0.333, 7]\n");
}

TEST(JsonWriter, NonFiniteDoubleThrowsNamingItsKey) {
  const auto message = [](double value, bool element) {
    std::ostringstream os;
    JsonWriter w(os);
    try {
      if (element) {
        w.begin_object().begin_array("series").element(value);
      } else {
        w.begin_object().field("p99_latency_s", value);
      }
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(message(std::nan(""), false).find("p99_latency_s"), std::string::npos);
  EXPECT_NE(message(std::numeric_limits<double>::infinity(), false).find("p99_latency_s"),
            std::string::npos);
  EXPECT_NE(message(-std::numeric_limits<double>::infinity(), true).find("series"),
            std::string::npos);
}

TEST(JsonWriter, RejectsMisplacedValues) {
  std::ostringstream os;
  JsonWriter w(os);
  EXPECT_THROW(w.field("k", 1), InvalidArgument);  // no open object
  w.begin_object();
  EXPECT_THROW(w.element(1), InvalidArgument);  // objects take keyed members
  w.begin_array("a");
  EXPECT_THROW(w.field("k", 1), InvalidArgument);  // arrays take elements
  w.end().end();
  EXPECT_THROW(w.end(), InvalidArgument);  // nothing left to close
}

// Property sweep: PCG next_below stays unbiased enough across bounds.
class RngBoundSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RngBoundSweep, RoughlyUniform) {
  const std::uint32_t bound = GetParam();
  Rng rng(bound * 2654435761u + 1);
  std::vector<int> hist(bound, 0);
  const int n = 2000 * static_cast<int>(bound);
  for (int i = 0; i < n; ++i) ++hist[rng.next_below(bound)];
  const double expected = static_cast<double>(n) / bound;
  for (std::uint32_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(hist[b], expected, 5.0 * std::sqrt(expected)) << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep, ::testing::Values(2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace lumos
