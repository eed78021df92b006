// Tests for the util layer: RNG statistics and determinism, contract
// macros, CLI parsing, table/CSV formatting, the JSON writer.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace vmap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllResidues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(31);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(37);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleFullPopulationIsPermutation) {
  Rng rng(43);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(53);
  Rng child = parent.split();
  // The child stream should not replicate the parent's next outputs.
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next_u64() == child.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, RejectsInvalidArguments) {
  Rng rng(59);
  EXPECT_THROW(rng.uniform_index(0), ContractError);
  EXPECT_THROW(rng.uniform(3.0, 1.0), ContractError);
  EXPECT_THROW(rng.bernoulli(1.5), ContractError);
  EXPECT_THROW(rng.exponential(0.0), ContractError);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractError);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), ContractError);
}

TEST(Contracts, RequireThrowsWithContext) {
  try {
    VMAP_REQUIRE(1 == 2, "math is broken");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Cli, ParsesValuesAndDefaults) {
  CliArgs args("test");
  args.add_flag("alpha", "1.5", "a number");
  args.add_flag("name", "x", "a string");
  args.add_bool("verbose", false, "a bool");
  const char* argv[] = {"prog", "--alpha", "2.5", "--verbose"};
  ASSERT_TRUE(args.parse(4, argv));
  EXPECT_DOUBLE_EQ(args.get_double("alpha"), 2.5);
  EXPECT_EQ(args.get("name"), "x");
  EXPECT_TRUE(args.get_bool("verbose"));
}

TEST(Cli, ParsesEqualsSyntax) {
  CliArgs args("test");
  args.add_flag("n", "0", "count");
  const char* argv[] = {"prog", "--n=42"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_EQ(args.get_int("n"), 42);
}

TEST(Cli, RejectsUnknownFlag) {
  CliArgs args("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(args.parse(3, argv), std::runtime_error);
}

TEST(Cli, RejectsMalformedNumbers) {
  CliArgs args("test");
  args.add_flag("x", "1", "num");
  const char* argv[] = {"prog", "--x", "abc"};
  ASSERT_TRUE(args.parse(3, argv));
  EXPECT_THROW(args.get_double("x"), std::runtime_error);
  EXPECT_THROW(args.get_int("x"), std::runtime_error);
}

TEST(Cli, MissingValueIsAnError) {
  CliArgs args("test");
  args.add_flag("x", "1", "num");
  const char* argv[] = {"prog", "--x"};
  EXPECT_THROW(args.parse(2, argv), std::runtime_error);
}

TEST(Table, AlignsColumnsAndCounts) {
  TablePrinter table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "2"});
  EXPECT_EQ(table.rows(), 2u);
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractError);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::fmt(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::fmt(std::size_t{42}), "42");
  EXPECT_EQ(TablePrinter::sci(0.000123, 2), "1.23e-04");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "vmap_csv_test.csv";
  {
    CsvWriter csv(path, {"t", "v"});
    csv.add_row(std::vector<double>{0.0, 1.0});
    csv.add_row(std::vector<double>{1.0 / 3.0, 0.95});
    csv.close();
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "t,v");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "0,1");
  // Every cell reads back as the same double.
  ASSERT_TRUE(std::getline(in, line));
  const std::size_t comma = line.find(',');
  EXPECT_EQ(parse_csv_number(line.substr(0, comma), 3, "csv"), 1.0 / 3.0);
  EXPECT_EQ(parse_csv_number(line.substr(comma + 1), 3, "csv"), 0.95);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = testing::TempDir() + "vmap_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row(std::vector<double>{1.0}), ContractError);
  csv.close();
  std::remove(path.c_str());
}

TEST(Csv, FailedWriteLeavesNoPartialFile) {
  // The writer publishes through write_file_atomic. Here its temporary name
  // is taken by a directory, so the write fails: the file under the real
  // name keeps its previous contents instead of a truncated prefix, a
  // fresh name stays absent, and close() throws.
  const std::string path = testing::TempDir() + "vmap_csv_atomic.csv";
  const std::string fresh = testing::TempDir() + "vmap_csv_atomic_new.csv";
  std::filesystem::remove(fresh);  // a previous run's, if any
  { std::ofstream(path) << "old,contents\n"; }
  std::filesystem::create_directory(path + ".tmp");
  std::filesystem::create_directory(fresh + ".tmp");
  for (const std::string& target : {path, fresh}) {
    CsvWriter csv(target, {"a", "b"});
    csv.add_row(std::vector<double>{1.0, 2.0});
    EXPECT_THROW(csv.close(), std::runtime_error) << target;
  }
  std::ifstream in(path);
  std::stringstream kept;
  kept << in.rdbuf();
  EXPECT_EQ(kept.str(), "old,contents\n");
  EXPECT_FALSE(std::filesystem::exists(fresh));
  std::filesystem::remove(path + ".tmp");
  std::filesystem::remove(fresh + ".tmp");
  std::filesystem::remove(path);
}

// ---- JSON writer ------------------------------------------------------

TEST(JsonWriter, PlacesCommasThroughNesting) {
  json::Writer w;
  w.begin_object().field("a", 1).key("b").begin_array();
  w.value(true).null().begin_object().end_object().begin_array().end_array();
  w.begin_object().field("c", "d").field("e", false).end_object();
  w.end_array().key("f").begin_object().end_object().end_object();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"b\":[true,null,{},[],{\"c\":\"d\",\"e\":false}],"
            "\"f\":{}}");
  json::Writer top;
  top.begin_array().value(1).value(2).end_array();
  EXPECT_EQ(top.take(), "[1,2]");
}

TEST(JsonWriter, EscapesKeysStringsAndControlCharacters) {
  const std::string nasty = "q\"b\\n\nt\tc\x01\x1f/\xc3\xa9";
  json::Writer w;
  w.begin_object().field(nasty, nasty).end_object();
  EXPECT_EQ(w.str(), "{\"q\\\"b\\\\n\\nt\\tc\\u0001\\u001f/\xc3\xa9\":"
                     "\"q\\\"b\\\\n\\nt\\tc\\u0001\\u001f/\xc3\xa9\"}");
  const StatusOr<json::Value> doc = json::parse(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  ASSERT_EQ(doc->as_object().size(), 1u);
  EXPECT_EQ(doc->as_object()[0].first, nasty);
  EXPECT_EQ(doc->as_object()[0].second.as_string(), nasty);
}

TEST(JsonWriter, NumbersRoundTripThroughTheParser) {
  const double doubles[] = {0.1,       1.0 / 3.0, 5e-324, DBL_MAX,  -DBL_MAX,
                            -2.5,      1e15,      1e300,  12.345,   -0.0,
                            123456789.0};
  json::Writer w;
  w.begin_array();
  for (double d : doubles) w.value(d);
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::numeric_limits<std::int64_t>::min());
  w.end_array();
  const std::string text = w.str();
  // Integers print exactly, doubles in the shortest spelling that parses
  // back to the same value.
  EXPECT_NE(text.find(",18446744073709551615,-9223372036854775808]"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("0.1,"), 1u) << text;
  EXPECT_NE(text.find(",123456789,"), std::string::npos) << text;
  const StatusOr<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const json::Array& values = doc->as_array();
  ASSERT_EQ(values.size(), std::size(doubles) + 2);
  for (std::size_t i = 0; i < std::size(doubles); ++i)
    EXPECT_EQ(values[i].as_number(), doubles[i]) << text;
  EXPECT_EQ(values[std::size(doubles)].as_number(),
            static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
  // The parser reads numbers as doubles, so a parse -> serialize round
  // trip reproduces the writer's bytes for the doubles.
  json::Writer only_doubles;
  only_doubles.begin_array();
  for (double d : doubles) only_doubles.value(d);
  only_doubles.end_array();
  const StatusOr<json::Value> again = json::parse(only_doubles.str());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(json::serialize(*again), only_doubles.str());
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  json::Writer w;
  w.begin_array().value(std::nan("")).value(HUGE_VAL).value(-HUGE_VAL);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

}  // namespace
}  // namespace vmap
