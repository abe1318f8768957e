// Tests for the sgtree_cli command-line tool (driven through RunCli) and
// its flag parser.

#include "tools/cli.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_kernels.h"
#include "tools/command_line.h"

namespace sgtree {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunArgs(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Flag parser.
// ---------------------------------------------------------------------------

TEST(CommandLineTest, PositionalAndFlags) {
  CommandLine cmd({"query", "nn", "--index", "x.idx", "--k", "5"});
  ASSERT_TRUE(cmd.error().empty());
  EXPECT_EQ(cmd.positional(), (std::vector<std::string>{"query", "nn"}));
  EXPECT_EQ(cmd.StringOr("index", ""), "x.idx");
  EXPECT_EQ(cmd.IntOr("k", 1), 5);
  EXPECT_TRUE(cmd.UnusedFlags().empty());
}

TEST(CommandLineTest, DefaultsApply) {
  CommandLine cmd({"build"});
  EXPECT_EQ(cmd.IntOr("page", 4096), 4096);
  EXPECT_DOUBLE_EQ(cmd.DoubleOr("eps", 2.5), 2.5);
  EXPECT_FALSE(cmd.GetString("missing").has_value());
}

TEST(CommandLineTest, UnusedFlagsDetected) {
  CommandLine cmd({"stats", "--index", "a", "--typo", "1"});
  EXPECT_EQ(cmd.StringOr("index", ""), "a");
  EXPECT_EQ(cmd.UnusedFlags(), std::vector<std::string>{"typo"});
}

TEST(CommandLineTest, MissingValueIsError) {
  CommandLine cmd({"stats", "--index"});
  EXPECT_FALSE(cmd.error().empty());
}

TEST(CommandLineTest, StrayPositionalAfterFlagIsError) {
  CommandLine cmd({"stats", "--index", "a", "oops"});
  EXPECT_FALSE(cmd.error().empty());
}

TEST(CommandLineTest, MalformedNumbersAreRecordedNotCoerced) {
  CommandLine cmd({"query", "--k", "banana", "--replicas", "2x", "--eps",
                   "0.5y", "--limit", "", "--big", "99999999999999999999"});
  ASSERT_TRUE(cmd.error().empty());
  EXPECT_FALSE(cmd.GetInt("k").has_value());
  EXPECT_EQ(cmd.IntOr("replicas", 1), 1);  // Not 2.
  EXPECT_DOUBLE_EQ(cmd.DoubleOr("eps", 3.0), 3.0);
  EXPECT_EQ(cmd.IntOr("limit", 20), 20);
  EXPECT_FALSE(cmd.GetInt("big").has_value());  // Out of int64 range.
  EXPECT_TRUE(cmd.UnusedFlags().empty());
  // The first malformed value wins over everything else.
  EXPECT_EQ(cmd.FlagError(), "--k expects an integer, got 'banana'");
}

TEST(CommandLineTest, WellFormedNumbersStillParse) {
  CommandLine cmd({"query", "--k", "-3", "--eps", "2.5e-1", "--n", "+7"});
  EXPECT_EQ(cmd.IntOr("k", 0), -3);
  EXPECT_DOUBLE_EQ(cmd.DoubleOr("eps", 0), 0.25);
  EXPECT_EQ(cmd.IntOr("n", 0), 7);
  EXPECT_EQ(cmd.FlagError(), "");
}

TEST(CommandLineTest, UintOrRefusesNegativeAndOversizedValues) {
  CommandLine negative({"query", "--k", "-3"});
  EXPECT_EQ(negative.UintOr("k", 1), 1u);
  EXPECT_EQ(negative.FlagError(),
            "--k expects a non-negative integer, got '-3'");

  CommandLine oversized({"serve", "--port", "70000"});
  EXPECT_EQ(oversized.UintOr("port", 0, 65535), 0u);
  EXPECT_EQ(oversized.FlagError(),
            "--port expects an integer <= 65535, got '70000'");

  CommandLine fine({"serve", "--port", "8080", "--k", "4294967295"});
  EXPECT_EQ(fine.UintOr("port", 0, 65535), 8080u);
  EXPECT_EQ(fine.UintOr("k", 1), 4294967295u);
  EXPECT_EQ(fine.FlagError(), "");
}

TEST(CommandLineTest, BoolOrAcceptsOnlyZeroOrOne) {
  CommandLine fine({"query", "--json", "1", "--trace=0"});
  EXPECT_TRUE(fine.BoolOr("json", false));
  EXPECT_FALSE(fine.BoolOr("trace", true));
  EXPECT_TRUE(fine.BoolOr("static", true));  // Absent: the fallback.
  EXPECT_EQ(fine.FlagError(), "");

  for (const std::string bad : {"2", "-1", "yes", "01", ""}) {
    CommandLine cmd({"query", "--json", bad});
    EXPECT_FALSE(cmd.BoolOr("json", false)) << bad;
    EXPECT_EQ(cmd.FlagError(), "--json expects 0 or 1, got '" + bad + "'");
  }
}

TEST(CommandLineTest, FlagErrorNamesUnknownFlags) {
  CommandLine cmd({"stats", "--index", "a", "--typo", "1", "--oops", "2"});
  EXPECT_EQ(cmd.StringOr("index", ""), "a");
  EXPECT_EQ(cmd.FlagError(), "unknown flag(s): --typo --oops");
}

// ---------------------------------------------------------------------------
// CLI end-to-end.
// ---------------------------------------------------------------------------

TEST(CliTest, NoArgsShowsUsage) {
  const CliResult r = RunArgs({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliResult r = RunArgs({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, GenBuildStatsQueryPipeline) {
  const std::string data = TempPath("cli_data.txt");
  const std::string index = TempPath("cli_index.bin");

  CliResult r = RunArgs({"gen", "quest", "--out", data, "--d", "1500", "--items",
                     "200", "--patterns", "60", "--seed", "9"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1500 transactions"), std::string::npos);

  r = RunArgs({"build", "--data", data, "--out", index, "--split", "avg"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("indexed 1500"), std::string::npos);

  r = RunArgs({"stats", "--index", index});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("transactions: 1500"), std::string::npos);
  EXPECT_NE(r.out.find("invariants: OK"), std::string::npos);
  // Which signature kernel ran, so a speed gap between machines can be
  // explained from the outside.
  EXPECT_NE(
      r.out.find(std::string("kernel: ") + kernels::Active().name + "\n"),
      std::string::npos)
      << r.out;

  r = RunArgs({"query", "nn", "--index", index, "--q", "1 2 3", "--k", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("query 0:"), std::string::npos);
  EXPECT_NE(r.out.find("compared"), std::string::npos);

  r = RunArgs({"query", "range", "--index", index, "--q", "1 2 3", "--eps",
           "8"});
  ASSERT_EQ(r.code, 0) << r.err;

  r = RunArgs({"query", "contain", "--index", index, "--q", "1"});
  ASSERT_EQ(r.code, 0) << r.err;

  r = RunArgs({"check", "--index", index});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("static image audit: all invariants hold"),
            std::string::npos);

  // check has no --paged switch; it is refused like any unknown flag.
  r = RunArgs({"check", "--index", index, "--paged", "0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown flag(s): --paged"), std::string::npos)
      << r.err;

  std::remove(data.c_str());
  std::remove(index.c_str());
}

TEST(CliTest, CheckRequiresIndex) {
  CliResult r = RunArgs({"check"});
  EXPECT_NE(r.code, 0);
  r = RunArgs({"check", "--index", TempPath("cli_no_such_index.bin")});
  EXPECT_NE(r.code, 0);
}

TEST(CliTest, CensusGeneratorAndBulkBuild) {
  const std::string data = TempPath("cli_census.txt");
  const std::string index = TempPath("cli_census.bin");
  CliResult r =
      RunArgs({"gen", "census", "--out", data, "--tuples", "1200"});
  ASSERT_EQ(r.code, 0) << r.err;

  for (const std::string bulk : {"gray", "bisect", "minhash"}) {
    r = RunArgs({"build", "--data", data, "--out", index, "--bulk", bulk});
    ASSERT_EQ(r.code, 0) << bulk << ": " << r.err;
    r = RunArgs({"stats", "--index", index});
    ASSERT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("invariants: OK"), std::string::npos) << bulk;
  }
  std::remove(data.c_str());
  std::remove(index.c_str());
}

TEST(CliTest, QueryWithMetricFlag) {
  const std::string data = TempPath("cli_metric.txt");
  const std::string index = TempPath("cli_metric.bin");
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", data, "--d", "500", "--items",
                 "100", "--patterns", "30"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"build", "--data", data, "--out", index}).code, 0);
  for (const std::string metric : {"hamming", "jaccard", "dice", "cosine"}) {
    const CliResult r = RunArgs({"query", "nn", "--index", index, "--q", "1 2",
                             "--metric", metric});
    EXPECT_EQ(r.code, 0) << metric << ": " << r.err;
  }
  const CliResult bad =
      RunArgs({"query", "nn", "--index", index, "--q", "1", "--metric", "l2"});
  EXPECT_EQ(bad.code, 1);
  std::remove(data.c_str());
  std::remove(index.c_str());
}

// The value of `key=` in a `trace:` line of `sgtree_cli query --trace 1`.
uint64_t TraceField(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return UINT64_MAX;
  return std::stoull(line.substr(at + key.size() + 2));
}

TEST(CliTest, QueriesFromFile) {
  const std::string data = TempPath("cli_qf_data.txt");
  const std::string index = TempPath("cli_qf.bin");
  const std::string queries = TempPath("cli_qf_queries.txt");
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", data, "--d", "800", "--items",
                 "150", "--patterns", "40"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"build", "--data", data, "--out", index}).code, 0);
  {
    std::ofstream out(queries);
    out << "150 0 2\n0 3 14 15\n1 7 8\n";
  }
  // Each query is charged against a cold buffer: no node read is a hit,
  // not even the second query's root.
  const CliResult r = RunArgs({"query", "nn", "--index", index, "--queries",
                               queries, "--trace", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("query 0:"), std::string::npos);
  EXPECT_NE(r.out.find("query 1:"), std::string::npos);
  std::istringstream lines(r.out);
  std::string line;
  int traces = 0;
  while (std::getline(lines, line)) {
    if (line.find("trace:") == std::string::npos) continue;
    ++traces;
    EXPECT_GT(TraceField(line, "nodes"), 0u) << line;
    EXPECT_EQ(TraceField(line, "hits"), 0u) << line;
    EXPECT_EQ(TraceField(line, "misses"), TraceField(line, "nodes")) << line;
  }
  EXPECT_EQ(traces, 2) << r.out;
  std::remove(data.c_str());
  std::remove(index.c_str());
  std::remove(queries.c_str());
}

TEST(CommandLineTest, InlineEqualsSyntax) {
  CommandLine cmd({"query", "nn", "--index=x.idx", "--k=5", "--eps", "2.5"});
  ASSERT_TRUE(cmd.error().empty());
  EXPECT_EQ(cmd.positional(), (std::vector<std::string>{"query", "nn"}));
  EXPECT_EQ(cmd.StringOr("index", ""), "x.idx");
  EXPECT_EQ(cmd.IntOr("k", 1), 5);
  EXPECT_DOUBLE_EQ(cmd.DoubleOr("eps", 0), 2.5);
  EXPECT_TRUE(cmd.UnusedFlags().empty());

  // "--flag=" carries an explicit empty value.
  CommandLine empty_value({"stats", "--index="});
  ASSERT_TRUE(empty_value.error().empty());
  EXPECT_EQ(empty_value.StringOr("index", "fallback"), "");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(CliTest, StatsAndQueryExportMetrics) {
  const std::string data = TempPath("cli_obs_data.txt");
  const std::string index = TempPath("cli_obs.bin");
  const std::string stats_json = TempPath("cli_obs_stats.json");
  const std::string query_json = TempPath("cli_obs_query.json");
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", data, "--d", "800", "--items",
                 "150", "--patterns", "40"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"build", "--data", data, "--out", index}).code, 0);

  // stats exports the tree's shape as registry JSON.
  CliResult r = RunArgs({"stats", "--index", index, "--metrics-json",
                         stats_json});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote metrics " + stats_json), std::string::npos);
  const std::string stats_export = ReadFile(stats_json);
  EXPECT_NE(stats_export.find("\"counters\""), std::string::npos);
  EXPECT_NE(stats_export.find("\"tree.transactions\":800"),
            std::string::npos);
  EXPECT_NE(stats_export.find("\"histograms\""), std::string::npos);

  // query with --trace=1 prints the per-query pruning breakdown (and the
  // inline --flag=value syntax reaches the parser end to end).
  r = RunArgs({"query", "nn", "--index", index, "--q", "1 2 3", "--k=3",
               "--trace=1", "--metrics-json=" + query_json});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("  trace: nodes="), std::string::npos);
  EXPECT_NE(r.out.find(" misses="), std::string::npos);
  EXPECT_NE(r.out.find("wrote metrics " + query_json), std::string::npos);
  const std::string query_export = ReadFile(query_json);
  EXPECT_NE(query_export.find("\"query.queries\":1"), std::string::npos);
  EXPECT_NE(query_export.find("\"query.random_ios\""), std::string::npos);
  EXPECT_NE(query_export.find("\"query.latency_us\""), std::string::npos);
  EXPECT_NE(query_export.find("\"p50\""), std::string::npos);

  // Without --trace the breakdown stays off.
  r = RunArgs({"query", "nn", "--index", index, "--q", "1 2 3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("  trace:"), std::string::npos);

  std::remove(data.c_str());
  std::remove(index.c_str());
  std::remove(stats_json.c_str());
  std::remove(query_json.c_str());
}

// --json 1 turns the stats / static-info reports into one machine-readable
// JSON object on stdout (the human text disappears entirely) so ops tooling
// scrapes fields instead of parsing prose.
TEST(CliTest, StatsAndStaticInfoEmitJson) {
  const std::string data = TempPath("cli_json_data.txt");
  const std::string index = TempPath("cli_json_index.bin");
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", data, "--d", "700", "--items",
                 "150", "--patterns", "40"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"build", "--data", data, "--out", index}).code, 0);

  CliResult r = RunArgs({"stats", "--index", index, "--json", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"transactions\": 700"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"invariants_ok\": true"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"avg_entry_area\": ["), std::string::npos);
  EXPECT_NE(r.out.find(std::string("\"kernel\": \"") +
                       kernels::Active().name + "\""),
            std::string::npos)
      << r.out;
  EXPECT_EQ(r.out.find("transactions: "), std::string::npos)
      << "human text leaked into the JSON report";

  r = RunArgs({"static-info", "--index", index, "--json", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"format_version\": "), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"transactions\": 700"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"file_size\": "), std::string::npos);
  EXPECT_NE(r.out.find("\"checksums_verified\": true"), std::string::npos);
  EXPECT_EQ(r.out.find("format version:"), std::string::npos);

  // --json 0 keeps the human report.
  r = RunArgs({"stats", "--index", index, "--json", "0"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("transactions: 700"), std::string::npos);

  std::remove(data.c_str());
  std::remove(index.c_str());
}

TEST(CliTest, ErrorPaths) {
  EXPECT_EQ(RunArgs({"gen", "quest"}).code, 1);                    // No --out.
  EXPECT_EQ(RunArgs({"gen", "warehouse", "--out", "/tmp/x"}).code, 1);
  EXPECT_EQ(RunArgs({"build", "--data", "/nonexistent", "--out", "/tmp/x"}).code,
            1);
  EXPECT_EQ(RunArgs({"stats", "--index", "/nonexistent"}).code, 1);
  EXPECT_EQ(RunArgs({"query", "nn", "--index", "/nonexistent", "--q", "1"}).code,
            1);
  const std::string data = TempPath("cli_err_data.txt");
  const std::string index = TempPath("cli_err.bin");
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", data, "--d", "200", "--items",
                 "50", "--patterns", "20"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"build", "--data", data, "--out", index}).code, 0);
  // Out-of-range item in --q.
  EXPECT_EQ(RunArgs({"query", "nn", "--index", index, "--q", "999"}).code, 1);
  // Query without --q/--queries.
  EXPECT_EQ(RunArgs({"query", "nn", "--index", index}).code, 1);
  // Unknown flag.
  EXPECT_EQ(
      RunArgs({"query", "nn", "--index", index, "--q", "1", "--frob", "1"}).code,
      1);
  // Malformed or negative numbers are refused, not coerced to 0 or -1u.
  CliResult r =
      RunArgs({"query", "nn", "--index", index, "--q", "1", "--k", "banana"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --k expects an integer, got 'banana'\n");
  r = RunArgs({"query", "nn", "--index", index, "--q", "1", "--k", "-2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --k expects a non-negative integer, got '-2'\n");
  r = RunArgs({"query", "range", "--index", index, "--q", "1", "--eps",
               "2x"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --eps expects a number, got '2x'\n");
  // On/off flags take exactly 0 or 1.
  r = RunArgs({"stats", "--index", index, "--json", "2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --json expects 0 or 1, got '2'\n");
  r = RunArgs({"query", "nn", "--index", index, "--q", "1", "--trace", "-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --trace expects 0 or 1, got '-1'\n");
  r = RunArgs({"check", "--index", index, "--verify-checksums", "2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --verify-checksums expects 0 or 1, got '2'\n");
  // --static picks the manifest of a sharded --out, --compress the page
  // encoding of a durable index; each is read only there.
  const std::string never_index = TempPath("cli_err_never.bin");
  const std::string never_dir = TempPath("cli_err_never_dir");
  r = RunArgs({"build", "--data", data, "--shards", "2", "--out",
               never_index, "--static", "2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --static expects 0 or 1, got '2'\n");
  r = RunArgs({"build", "--data", data, "--durable", never_dir, "--compress",
               "2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --compress expects 0 or 1, got '2'\n");
  EXPECT_FALSE(std::ifstream(never_index).good());
  EXPECT_FALSE(std::ifstream(never_dir).good());
  // Every single-file index is a static image, so no command takes a
  // --static switch for one.
  r = RunArgs({"build", "--data", data, "--out", never_index, "--static",
               "1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: unknown flag(s): --static\n");
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"query", "nn", "--index", index, "--q", "1",
                                 "--static", "1"},
        {"check", "--index", index, "--static", "1"}}) {
    r = RunArgs(args);
    EXPECT_EQ(r.code, 1) << args[0];
    EXPECT_EQ(r.err, "error: unknown flag(s): --static\n") << args[0];
  }
  const std::string never = TempPath("cli_err_never.txt");
  r = RunArgs({"gen", "quest", "--out", never, "--d", "5k"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --d expects an integer, got '5k'\n");
  EXPECT_FALSE(std::ifstream(never).good());  // Refused before writing.
  std::remove(data.c_str());
  std::remove(index.c_str());
}

// ---------------------------------------------------------------------------
// Collection-level joins.
// ---------------------------------------------------------------------------

TEST(CliTest, JoinRunsEveryAlgorithmWithIdenticalPairCounts) {
  const std::string left_data = TempPath("cli_join_l.txt");
  const std::string right_data = TempPath("cli_join_r.txt");
  const std::string left = TempPath("cli_join_l.bin");
  const std::string right = TempPath("cli_join_r.bin");
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", left_data, "--d", "300",
                 "--items", "80", "--patterns", "20", "--seed", "3"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", right_data, "--d", "300",
                 "--items", "80", "--patterns", "20", "--seed", "4"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"build", "--data", left_data, "--out", left}).code, 0);
  ASSERT_EQ(RunArgs({"build", "--data", right_data, "--out", right}).code, 0);

  // All three algorithms report the same pair count in --json mode.
  std::string pairs_field;
  for (const std::string algo : {"tree", "pretti", "fvt"}) {
    const CliResult r = RunArgs({"join", "contain", "--left", left, "--right",
                             right, "--algo", algo, "--json", "1"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("\"join\": \"contain\""), std::string::npos);
    EXPECT_NE(r.out.find("\"algo\": \"" + algo + "\""), std::string::npos);
    const size_t at = r.out.find("\"pairs\": ");
    ASSERT_NE(at, std::string::npos) << r.out;
    const std::string field = r.out.substr(at, r.out.find(',', at) - at);
    if (pairs_field.empty()) {
      pairs_field = field;
    } else {
      EXPECT_EQ(field, pairs_field) << algo;
    }
  }

  // Human-readable mode prints the summary line.
  const CliResult human = RunArgs(
      {"join", "contain", "--left", left, "--right", right, "--limit", "5"});
  ASSERT_EQ(human.code, 0) << human.err;
  EXPECT_NE(human.out.find("pairs via pretti"), std::string::npos);

  // A similarity join needs the tree backend; the trees were built with
  // the default hamming metric, so a hamming threshold works end to end.
  const CliResult similar =
      RunArgs({"join", "similar", "--left", left, "--right", right, "--algo",
           "tree", "--threshold", "6", "--json", "1"});
  ASSERT_EQ(similar.code, 0) << similar.err;
  EXPECT_NE(similar.out.find("\"join\": \"similar\""), std::string::npos);

  std::remove(left_data.c_str());
  std::remove(right_data.c_str());
  std::remove(left.c_str());
  std::remove(right.c_str());
}

TEST(CliTest, JoinValidationAndSupportErrorsExitNonzero) {
  const std::string data = TempPath("cli_join_e.txt");
  const std::string index = TempPath("cli_join_e.bin");
  ASSERT_EQ(RunArgs({"gen", "quest", "--out", data, "--d", "120", "--items",
                 "40", "--patterns", "10"})
                .code,
            0);
  ASSERT_EQ(RunArgs({"build", "--data", data, "--out", index}).code, 0);

  // Malformed threshold: exit 1 with the offending value in the message.
  CliResult r = RunArgs({"join", "similar", "--left", index, "--right", index,
                     "--algo", "tree", "--metric", "jaccard", "--threshold",
                     "0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(
      r.err.find(
          "threshold must be in (0,1] for jaccard similarity joins, got 0"),
      std::string::npos)
      << r.err;

  // Containment-only backend asked for a similarity join: exit 1 with the
  // support reason.
  r = RunArgs({"join", "similar", "--left", index, "--right", index, "--algo",
           "fvt", "--threshold", "4"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("fvt is a containment-only join"), std::string::npos)
      << r.err;

  // Unknown algorithm and missing inputs.
  EXPECT_EQ(RunArgs({"join", "contain", "--left", index, "--right", index,
                 "--algo", "quadratic"})
                .code,
            1);
  EXPECT_EQ(RunArgs({"join", "contain", "--left", index}).code, 1);
  EXPECT_EQ(RunArgs({"join", "frobnicate", "--left", index, "--right", index})
                .code,
            1);

  // --limit is a count: negative is refused, 0 still lists every pair (a
  // self-join has at least one pair per transaction, more than the
  // default limit of 20).
  r = RunArgs({"join", "contain", "--left", index, "--right", index,
               "--limit", "-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_EQ(r.err, "error: --limit expects a non-negative integer, got '-1'\n");
  r = RunArgs({"join", "contain", "--left", index, "--right", index});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find(" more; raise --limit"), std::string::npos) << r.out;
  r = RunArgs({"join", "contain", "--left", index, "--right", index,
               "--limit", "0"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find(" more; raise --limit"), std::string::npos) << r.out;

  std::remove(data.c_str());
  std::remove(index.c_str());
}

}  // namespace
}  // namespace sgtree
