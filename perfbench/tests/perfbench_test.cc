// Tests of the benchmark's own machinery: the correctness gate, span
// self-time arithmetic, the percentile rule and request-stream determinism.

#include <gtest/gtest.h>

#include <vector>

#include "baseline/linear_scan.h"
#include "data/quest_generator.h"
#include "exec/index_backend.h"
#include "gate.h"
#include "loadgen.h"
#include "report.h"
#include "sgtree/sg_tree.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sgtree::QueryRequest;
using sgtree::QueryResult;
using sgtree::QueryType;

// An IndexBackend that answers through another one and then corrupts every
// `period`-th answer it gives, in a way each query type can notice.
class CorruptingBackend : public sgtree::IndexBackend {
 public:
  CorruptingBackend(const sgtree::IndexBackend& inner, int period)
      : inner_(&inner), period_(period) {}

  const char* name() const override { return "corrupting"; }
  std::string SupportReason(QueryType type) const override {
    return inner_->SupportReason(type);
  }
  void Run(const QueryRequest& request, const sgtree::QueryContext& ctx,
           QueryResult* result) const override {
    inner_->Run(request, ctx, result);
    if (++calls_ % period_ != 0) return;
    if (!result->neighbors.empty()) {
      result->neighbors.back().tid += 1'000'000;  // A tid that does not exist.
    } else {
      result->ids.push_back(1'000'000);
    }
  }

 private:
  const sgtree::IndexBackend* inner_;
  int period_;
  mutable int calls_ = 0;
};

struct SmallIndex {
  sgtree::Dataset data;
  std::unique_ptr<sgtree::SgTree> tree;
  std::vector<QueryRequest> requests;

  SmallIndex() {
    sgtree::QuestOptions options;
    options.num_transactions = 2000;
    options.num_items = 200;
    options.num_patterns = 50;
    options.seed = 7;
    sgtree::QuestGenerator generator(options);
    data = generator.Generate();
    sgtree::SgTreeOptions tree_options;
    tree_options.num_bits = data.num_items;
    tree = std::make_unique<sgtree::SgTree>(tree_options);
    for (const sgtree::Transaction& txn : data.transactions) tree->Insert(txn);
    const std::vector<sgtree::Transaction> queries =
        generator.GenerateQueries(30);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest r;
      r.type = static_cast<QueryType>(i % 6);
      r.query = sgtree::Signature::FromItems(queries[i].items, data.num_items);
      r.k = 5;
      r.epsilon = 4;
      requests.push_back(r);
    }
  }
};

TEST(GateTest, PassesTheRealTreeOnEveryQueryType) {
  const SmallIndex index;
  const sgtree::LinearScan scan(index.data);
  const sgtree::SgTreeBackend backend(*index.tree);
  GateReport report;
  for (const QueryRequest& request : index.requests) {
    CheckAnswer(scan, request, sgtree::Execute(backend, request), &report);
  }
  EXPECT_EQ(report.checked, index.requests.size());
  EXPECT_EQ(report.wrong, 0u) << (report.examples.empty()
                                      ? ""
                                      : report.examples.front());
}

TEST(GateTest, TripsOnCorruptedAnswersAndCountsEachOne) {
  const SmallIndex index;
  const sgtree::LinearScan scan(index.data);
  const sgtree::SgTreeBackend real(*index.tree);
  const CorruptingBackend corrupt(real, /*period=*/3);
  GateReport report;
  for (const QueryRequest& request : index.requests) {
    CheckAnswer(scan, request, sgtree::Execute(corrupt, request), &report);
  }
  EXPECT_EQ(report.checked, index.requests.size());
  EXPECT_EQ(report.wrong, index.requests.size() / 3);
  EXPECT_FALSE(report.examples.empty());
}

TEST(GateTest, AnErrorIsAWrongAnswer) {
  const SmallIndex index;
  const sgtree::LinearScan scan(index.data);
  QueryResult failed;
  failed.error = "boom";
  GateReport report;
  CheckAnswer(scan, index.requests[0], failed, &report);
  EXPECT_EQ(report.wrong, 1u);
}

TEST(GateTest, SampleIndexesAreDistinctSeededAndInRange) {
  const std::vector<size_t> a = SampleIndexes(1000, 50, 9);
  EXPECT_EQ(a, SampleIndexes(1000, 50, 9));
  EXPECT_NE(a, SampleIndexes(1000, 50, 10));
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 1000u);
  EXPECT_EQ(SampleIndexes(5, 50, 9).size(), 5u);
}

Span MakeSpan(uint32_t id, uint32_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfOverlappingChildren) {
  const Span parent = MakeSpan(1, 0, 0, 100);
  // [10, 40) and [30, 60) overlap: together they cover [10, 60) = 50.
  // [70, 80) adds 10. Self time = 100 - 60.
  const std::vector<Span> children = {MakeSpan(2, 1, 10, 40),
                                      MakeSpan(3, 1, 30, 60),
                                      MakeSpan(4, 1, 70, 80)};
  EXPECT_EQ(SelfTimeNs(parent, children), 40);
}

TEST(SpanTest, SelfTimeClipsChildrenToTheParent) {
  const Span parent = MakeSpan(1, 0, 100, 200);
  // Sticks out on both sides: only [100, 200) counts, self time 0.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(2, 1, 50, 250)}), 0);
  // Entirely outside: counts for nothing.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(2, 1, 0, 90)}), 100);
  // Nested children (a child inside another child's interval) count once.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(2, 1, 110, 190),
                                MakeSpan(3, 1, 120, 130)}),
            20);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
}

TEST(SpanTest, TotalsByNameUseEachSpansOwnChildren) {
  Span root = MakeSpan(1, 0, 0, 100);
  root.name = "root";
  Span a = MakeSpan(2, 1, 0, 50);
  a.name = "leaf";
  Span b = MakeSpan(3, 1, 25, 75);
  b.name = "leaf";
  const std::map<std::string, SpanTotals> totals =
      TotalsByName({root, a, b});
  EXPECT_EQ(totals.at("root").count, 1u);
  EXPECT_EQ(totals.at("root").self_ns, 25);
  EXPECT_EQ(totals.at("leaf").count, 2u);
  EXPECT_EQ(totals.at("leaf").total_ns, 100);
  EXPECT_EQ(totals.at("leaf").self_ns, 100);
}

TEST(SpanTest, DisabledRecorderRecordsNothing) {
  SpanRecorder recorder;
  { ScopedSpan span(&recorder, "x"); }
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.set_enabled(true);
  {
    ScopedSpan outer(&recorder, "outer", 0, 7);
    ScopedSpan inner(&recorder, "inner", outer.id(), 7);
  }
  const std::vector<Span> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000, 99), 99);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100000, 99), 99);
  EXPECT_DOUBLE_EQ(SupportedPercentile(500, 99), 98);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100, 99), 90);
  EXPECT_DOUBLE_EQ(SupportedPercentile(10, 99), 0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(0, 99), 0);
  // The reported sample has at least ten samples beyond it, and the next
  // higher rank would not.
  for (const size_t n : {11u, 57u, 200u, 999u, 1000u, 1001u, 12345u}) {
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) samples.push_back(static_cast<double>(i));
    const Summary s = Summarize(samples, 99);
    const auto rank = static_cast<size_t>(s.tail) + 1;  // Value i has rank i+1.
    EXPECT_GE(n - rank, 10u) << n;
    if (s.tail_percentile < 99) EXPECT_EQ(n - rank, 10u) << n;
  }
}

TEST(PercentileTest, HistogramPercentileInterpolatesInsideTheBucket) {
  const std::vector<double> bounds = {10, 20, 50};
  // 10 samples in (0, 10], 10 in (10, 20], none above.
  const std::vector<uint64_t> counts = {10, 10, 0, 0};
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, counts, 50), 10);
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, counts, 75), 15);
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, counts, 100), 20);
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, {0, 0, 0, 4}, 50), 50);
  EXPECT_DOUBLE_EQ(HistogramPercentile(bounds, {0, 0, 0, 0}, 50), 0);
}

TEST(ScrapeTest, ParsesTheMetricsExport) {
  const std::string json =
      "{\"counters\":{\"serve.admitted\":90,\"serve.cache.hits\":30,"
      "\"serve.cache.misses\":60,\"serve.hedges_fired\":2,\"serve.shed\":10},"
      "\"histograms\":{"
      "\"serve.batch_size\":{\"bounds\":[1,2],\"counts\":[2,2,0],\"count\":4,"
      "\"sum\":6,\"p50\":1,\"p95\":2,\"p99\":2},"
      "\"serve.exec_us\":{\"bounds\":[100,200],\"counts\":[0,4,0],"
      "\"count\":4,\"sum\":600,\"p50\":200,\"p95\":200,\"p99\":200},"
      "\"serve.queue_depth\":{\"bounds\":[1,2],\"counts\":[4,0,0],\"count\":4,"
      "\"sum\":4,\"p50\":1,\"p95\":1,\"p99\":1},"
      "\"serve.request_us\":{\"bounds\":[100,200],\"counts\":[2,2,0],"
      "\"count\":4,\"sum\":500,\"p50\":100,\"p95\":200,\"p99\":200}}}";
  ServerScrape scrape;
  ASSERT_TRUE(ParseServerScrape(json, &scrape));
  EXPECT_EQ(scrape.admitted, 90u);
  EXPECT_EQ(scrape.shed, 10u);
  EXPECT_EQ(scrape.cache_hits, 30u);
  EXPECT_EQ(scrape.cache_misses, 60u);
  EXPECT_EQ(scrape.hedges_fired, 2u);
  EXPECT_DOUBLE_EQ(scrape.batch_size_mean, 1.5);
  EXPECT_DOUBLE_EQ(scrape.queue_depth_mean, 1);
  EXPECT_DOUBLE_EQ(scrape.request_us_p50, 100);
  EXPECT_DOUBLE_EQ(scrape.exec_us_p50, 150);
  EXPECT_FALSE(ParseServerScrape("{\"counters\":{}}", &scrape));
}

TEST(StreamTest, SameSeedGivesAByteIdenticalRequestStream) {
  for (const WorkloadSpec* spec : AllWorkloads()) {
    const std::vector<uint8_t> a = EncodeStream(MakeStream(*spec, 42, 2));
    const std::vector<uint8_t> b = EncodeStream(MakeStream(*spec, 42, 2));
    const std::vector<uint8_t> c = EncodeStream(MakeStream(*spec, 43, 2));
    EXPECT_FALSE(a.empty()) << spec->name;
    EXPECT_EQ(a, b) << spec->name;
    EXPECT_NE(a, c) << spec->name;
  }
}

TEST(StreamTest, OpenLoopScheduleAndMixMatchTheSpec) {
  const WorkloadSpec& spec = *FindWorkload("mixed_rw");
  const RequestStream stream = MakeStream(spec, 5, 10);
  ASSERT_EQ(stream.ops.size(),
            static_cast<size_t>(spec.rate_per_s * 10));
  size_t inserts = 0;
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    EXPECT_EQ(stream.ops[i].due_us,
              static_cast<int64_t>(1e6 * static_cast<double>(i) /
                                   spec.rate_per_s));
    if (stream.ops[i].insert) {
      // Inserts carry fresh tids past the initial data.
      EXPECT_GE(stream.ops[i].txn.tid, spec.transactions);
      ++inserts;
    }
  }
  const double share =
      static_cast<double>(inserts) / static_cast<double>(stream.ops.size());
  EXPECT_NEAR(share, spec.insert_fraction, 0.05);
  EXPECT_EQ(FindWorkload("nope"), nullptr);
}

TEST(StreamTest, InsertsGetAWriterConnectionOfTheirOwn) {
  const RequestStream mixed = MakeStream(*FindWorkload("mixed_rw"), 5, 2);
  const std::vector<uint32_t> conn = AssignConnections(mixed.ops, 4);
  std::vector<size_t> per_connection(4, 0);
  for (size_t i = 0; i < mixed.ops.size(); ++i) {
    EXPECT_EQ(conn[i] == 0, mixed.ops[i].insert) << i;
    ++per_connection[conn[i]];
  }
  // The query connections take turns.
  EXPECT_LE(per_connection[1] - per_connection[3], 1u);

  // Without inserts every connection reads, round robin.
  const RequestStream serve = MakeStream(*FindWorkload("serve_zipf"), 5, 2);
  const std::vector<uint32_t> rr = AssignConnections(serve.ops, 4);
  for (size_t i = 0; i < rr.size(); ++i) EXPECT_EQ(rr[i], i % 4);
  EXPECT_EQ(AssignConnections(mixed.ops, 1),
            std::vector<uint32_t>(mixed.ops.size(), 0));
}

}  // namespace
}  // namespace perfbench
