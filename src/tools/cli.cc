#include "tools/cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "common/bit_kernels.h"
#include "common/stats.h"
#include "data/census_generator.h"
#include "data/dataset_io.h"
#include "data/quest_generator.h"
#include "durability/durable_tree.h"
#include "durability/env.h"
#include "durability/recovery.h"
#include "exec/join_api.h"
#include "exec/query_api.h"
#include "exec/query_executor.h"
#include "join/pretti_join.h"
#include "join/set_collection.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "sgtree/bulk_load.h"
#include "shard/join_router.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "static/static_audit.h"
#include "static/static_tree_backend.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"
#include "tools/command_line.h"

namespace sgtree {
namespace {

int Fail(std::ostream& err, const std::string& message) {
  err << "error: " << message << "\n";
  return 1;
}

// Flags are read as signed integers, so INT64_MAX is the largest value
// --seed or --limit accepts.
constexpr uint64_t kMaxFlagValue = std::numeric_limits<int64_t>::max();

// After a command's last flag lookup: refuses malformed values and unknown
// flags with a one-line reason.
int CheckFlags(const CommandLine& cmd, std::ostream& err) {
  const std::string error = cmd.FlagError();
  return error.empty() ? 0 : Fail(err, error);
}

// JSON string escape for the few free-text fields the --json reports carry
// (invariant messages, file paths).
std::string JsonQuoted(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') quoted.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      quoted += buf;
      continue;
    }
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

bool ParseMetric(const std::string& name, Metric* metric) {
  if (name == "hamming") {
    *metric = Metric::kHamming;
  } else if (name == "jaccard") {
    *metric = Metric::kJaccard;
  } else if (name == "dice") {
    *metric = Metric::kDice;
  } else if (name == "cosine") {
    *metric = Metric::kCosine;
  } else {
    return false;
  }
  return true;
}

// Writes the registry's JSON export to `path` (the --metrics-json sink).
int WriteMetricsJson(const obs::MetricsRegistry& registry,
                     const std::string& path, std::ostream& out,
                     std::ostream& err) {
  std::ofstream file(path);
  if (!file) return Fail(err, "cannot write metrics " + path);
  file << obs::ToJson(registry) << "\n";
  out << "wrote metrics " << path << "\n";
  return 0;
}

// Parses "3 17 256" into a sorted unique item list.
bool ParseItems(const std::string& text, uint32_t num_bits,
                std::vector<ItemId>* items) {
  std::istringstream in(text);
  ItemId item = 0;
  while (in >> item) {
    if (item >= num_bits) return false;
    items->push_back(item);
  }
  std::sort(items->begin(), items->end());
  items->erase(std::unique(items->begin(), items->end()), items->end());
  return !items->empty();
}

int CmdGen(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional().size() < 2) {
    return Fail(err, "usage: gen quest|census --out FILE [options]");
  }
  const std::string& kind = cmd.positional()[1];
  const auto out_path = cmd.GetString("out");
  if (!out_path.has_value()) return Fail(err, "gen requires --out");

  Dataset dataset;
  if (kind == "quest") {
    QuestOptions options;
    options.num_transactions =
        static_cast<uint32_t>(cmd.UintOr("d", 10'000));
    options.avg_transaction_size = cmd.DoubleOr("t", 10);
    options.avg_itemset_size = cmd.DoubleOr("i", 6);
    options.num_items = static_cast<uint32_t>(cmd.UintOr("items", 1000));
    options.num_patterns =
        static_cast<uint32_t>(cmd.UintOr("patterns", 200));
    options.seed = cmd.UintOr("seed", 1, kMaxFlagValue);
    if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;
    dataset = QuestGenerator(options).Generate();
    out << "generated " << options.Label() << " (" << dataset.size()
        << " transactions, " << dataset.num_items << " items)\n";
  } else if (kind == "census") {
    CensusOptions options;
    options.num_tuples =
        static_cast<uint32_t>(cmd.UintOr("tuples", 10'000));
    options.seed = cmd.UintOr("seed", 7, kMaxFlagValue);
    if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;
    dataset = CensusGenerator(options).Generate();
    out << "generated CENSUS-like dataset (" << dataset.size()
        << " tuples, " << dataset.num_items << " values)\n";
  } else {
    return Fail(err, "unknown generator '" + kind + "'");
  }
  if (!SaveDataset(dataset, *out_path)) {
    return Fail(err, "cannot write " + *out_path);
  }
  out << "wrote " << *out_path << "\n";
  return 0;
}

int CmdBuild(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  const auto data_path = cmd.GetString("data");
  const auto out_path = cmd.GetString("out");
  const auto durable_dir = cmd.GetString("durable");
  if (!data_path.has_value()) return Fail(err, "build requires --data");
  if (!out_path.has_value() && !durable_dir.has_value()) {
    return Fail(err, "build requires --out (or --durable DIR)");
  }
  Dataset dataset;
  if (!LoadDataset(*data_path, &dataset)) {
    return Fail(err, "cannot read dataset " + *data_path);
  }

  SgTreeOptions options;
  options.num_bits = dataset.num_items;
  options.fixed_dimensionality = dataset.fixed_dimensionality;
  options.page_size = static_cast<uint32_t>(cmd.UintOr("page", 4096));
  if (options.ResolvedMaxEntries() > kMaxNodeEntries) {
    return Fail(err, "--page " + std::to_string(options.page_size) +
                         " gives " +
                         std::to_string(options.ResolvedMaxEntries()) +
                         " entries per node; at most " +
                         std::to_string(kMaxNodeEntries) + " fit a node");
  }
  const std::string split = cmd.StringOr("split", "avg");
  if (split == "avg") {
    options.split_policy = SplitPolicy::kAverage;
  } else if (split == "min") {
    options.split_policy = SplitPolicy::kMinimum;
  } else if (split == "quadratic") {
    options.split_policy = SplitPolicy::kQuadratic;
  } else if (split == "linear") {
    options.split_policy = SplitPolicy::kLinear;
  } else {
    return Fail(err, "unknown split policy '" + split + "'");
  }

  const std::string bulk = cmd.StringOr("bulk", "none");
  const auto shards = static_cast<uint32_t>(cmd.UintOr("shards", 1));
  if (shards == 0) return Fail(err, "--shards must be positive");
  // A sharded --out writes one image per shard; --static 1 picks the v2
  // manifest, which loads read-only over the mapped images.
  const bool static_manifest =
      shards > 1 && !durable_dir.has_value() && cmd.BoolOr("static", false);
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;

  BulkLoadOptions bulk_options;
  if (bulk != "none") {
    if (bulk == "gray") {
      bulk_options.order = BulkLoadOrder::kGrayCode;
    } else if (bulk == "bisect") {
      bulk_options.order = BulkLoadOrder::kClusterPartition;
    } else if (bulk == "minhash") {
      bulk_options.order = BulkLoadOrder::kMinHash;
    } else {
      return Fail(err, "unknown bulk order '" + bulk + "'");
    }
  }

  // Sharded build (--shards N, N >= 2): transactions are hash-partitioned
  // by tid across N per-shard SG-trees. --out writes a manifest plus one
  // image per shard; --durable opens one DurableTree per shard under
  // DIR/shard-<i> (bulk orders are adopted + checkpointed per shard, plain
  // inserts group-commit into each shard's log).
  if (shards > 1) {
    ShardedIndexOptions sharded_options;
    sharded_options.num_shards = shards;
    sharded_options.tree = options;
    if (durable_dir.has_value()) {
      std::string derror;
      auto index = ShardedIndex::OpenDurable(Env::Posix(), *durable_dir,
                                             sharded_options, &derror);
      if (index == nullptr) return Fail(err, derror);
      if (index->size() != 0) {
        return Fail(err, *durable_dir + " already holds an index");
      }
      Timer timer;
      if (bulk == "none") {
        // All or nothing: a failed batch leaves every shard's part in doubt.
        if (index->InsertBatch(dataset.transactions) !=
            dataset.transactions.size()) {
          return Fail(err,
                      "wal append failed; no insert of the batch is "
                      "acknowledged (recover each shard to see what "
                      "reached its log)");
        }
      } else if (!index->AdoptBulkLoaded(dataset, bulk_options, &derror)) {
        return Fail(err, derror);
      }
      const uint32_t opened = index->num_shards();
      out << "indexed " << index->size() << " transactions durably across "
          << opened << " shards in " << timer.ElapsedMs() << " ms; "
          << index->node_count() << " nodes\n"
          << "wrote " << ShardedIndex::ShardDirFor(*durable_dir, 0) << " .. "
          << ShardedIndex::ShardDirFor(*durable_dir, opened - 1) << "\n";
      return 0;
    }
    Timer timer;
    std::unique_ptr<ShardedIndex> index;
    if (bulk == "none") {
      index = std::make_unique<ShardedIndex>(sharded_options);
      index->InsertBatch(dataset.transactions);
    } else {
      index = ShardedIndex::BulkLoad(dataset, sharded_options, bulk_options);
    }
    const double build_ms = timer.ElapsedMs();
    for (uint32_t i = 0; i < shards; ++i) {
      const AuditReport report = AuditTree(index->shard(i));
      if (!report.ok()) {
        return Fail(err, "shard " + std::to_string(i) +
                             " failed validation: " + report.FirstMessage());
      }
    }
    std::string save_error;
    const bool saved = static_manifest
                           ? index->SaveStatic(*out_path, &save_error)
                           : index->Save(*out_path, &save_error);
    if (!saved) {
      return Fail(err, "cannot write index " + *out_path + ": " + save_error);
    }
    out << "indexed " << index->size() << " transactions across " << shards
        << " shards in " << build_ms << " ms; " << index->node_count()
        << " nodes\n"
        << "wrote " << *out_path
        << (static_manifest ? " (read-only)" : "") << " + " << shards
        << " shard images\n";
    return 0;
  }

  // Durable build: every insert goes through the write-ahead log; a bulk
  // order is adopted and checkpointed, plain inserts are left in the log
  // (run wal-checkpoint to publish them as a checkpoint image).
  if (durable_dir.has_value()) {
    DurableTree::Options dt_options;
    dt_options.tree = options;
    std::string derror;
    auto durable =
        DurableTree::Open(Env::Posix(), *durable_dir, dt_options, &derror);
    if (durable == nullptr) return Fail(err, derror);
    if (!durable->tree().empty()) {
      return Fail(err, *durable_dir + " already holds an index");
    }
    Timer timer;
    if (bulk == "none") {
      if (durable->InsertBatch(dataset.transactions) !=
          dataset.transactions.size()) {
        return Fail(err,
                    "wal append failed; no insert of the batch is "
                    "acknowledged");
      }
    } else {
      auto loaded = BulkLoad(dataset, options, bulk_options);
      if (!durable->AdoptBulkLoaded(std::move(loaded), &derror)) {
        return Fail(err, derror);
      }
    }
    const double build_ms = timer.ElapsedMs();
    const SgTree& tree = durable->tree();
    out << "indexed " << tree.size() << " transactions durably in "
        << build_ms << " ms; height " << tree.height() << ", "
        << tree.node_count() << " nodes, " << durable->op_seq()
        << " logged ops, checkpoint " << durable->checkpoint_seq() << "\n"
        << "wrote "
        << CheckpointPathFor(*durable_dir, durable->checkpoint_seq())
        << " + " << WalPathFor(*durable_dir) << "\n";
    return 0;
  }

  std::unique_ptr<SgTree> tree;
  Timer timer;
  if (bulk == "none") {
    tree = std::make_unique<SgTree>(options);
    for (const Transaction& txn : dataset.transactions) tree->Insert(txn);
  } else {
    tree = BulkLoad(dataset, options, bulk_options);
  }
  const double build_ms = timer.ElapsedMs();

  const AuditReport report = AuditTree(*tree);
  if (!report.ok()) {
    return Fail(err, "built tree failed validation: " + report.FirstMessage());
  }
  std::string save_error;
  if (!BuildStaticTree(*tree, *out_path, &save_error)) {
    return Fail(err, "cannot write index " + *out_path + ": " + save_error);
  }
  out << "indexed " << tree->size() << " transactions in " << build_ms
      << " ms; height " << tree->height() << ", " << tree->node_count()
      << " nodes, utilization " << report.stats.avg_utilization << "\n"
      << "wrote " << *out_path << "\n";
  return 0;
}

int CmdRecover(const CommandLine& cmd, std::ostream& out,
               std::ostream& err) {
  const auto dir = cmd.GetString("durable");
  if (!dir.has_value()) return Fail(err, "recover requires --durable");
  const auto out_path = cmd.GetString("out");
  const auto metrics_path = cmd.GetString("metrics-json");
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;

  obs::MetricsRegistry registry;
  std::string error;
  auto recovered = RecoverTree(Env::Posix(), *dir, &error,
                               /*options_hint=*/nullptr, &registry);
  if (recovered == nullptr) {
    err << "error: " << error << "\n";
    // An index that recovers structurally but flunks the deep audit is a
    // distinct, scriptable outcome.
    return error.find("invariant audit") != std::string::npos ? 2 : 1;
  }
  out << "recovery: " << recovered->report.Summary() << "\n"
      << "audit: " << recovered->audit.Summary()
      << "tree: " << recovered->tree->size() << " transactions, height "
      << recovered->tree->height() << ", " << recovered->tree->node_count()
      << " nodes\n";
  if (out_path.has_value()) {
    std::string save_error;
    if (!BuildStaticTree(*recovered->tree, *out_path, &save_error)) {
      return Fail(err, "cannot export " + *out_path + ": " + save_error);
    }
    out << "exported " << *out_path << "\n";
  }
  if (metrics_path.has_value()) {
    return WriteMetricsJson(registry, *metrics_path, out, err);
  }
  return 0;
}

int CmdWalCheckpoint(const CommandLine& cmd, std::ostream& out,
                     std::ostream& err) {
  const auto dir = cmd.GetString("durable");
  if (!dir.has_value())
    return Fail(err, "wal-checkpoint requires --durable");
  const auto metrics_path = cmd.GetString("metrics-json");
  const auto export_path = cmd.GetString("export-static");
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;

  obs::MetricsRegistry registry;
  DurableTree::Options options;
  options.metrics = &registry;
  std::string error;
  auto durable = DurableTree::Open(Env::Posix(), *dir, options, &error);
  if (durable == nullptr) return Fail(err, error);
  out << "recovery: " << durable->recovery_report().Summary() << "\n";
  if (!durable->Checkpoint(&error)) {
    return Fail(err, "checkpoint failed: " + error);
  }
  out << "checkpoint " << durable->checkpoint_seq() << " published: "
      << durable->tree().size() << " transactions, "
      << durable->tree().node_count() << " nodes; log restarted\n";
  if (export_path.has_value()) {
    if (!ExportStatic(*durable, *export_path, &error)) {
      return Fail(err, "static export failed: " + error);
    }
    out << "exported static image " << *export_path << "\n";
  }
  if (metrics_path.has_value()) {
    return WriteMetricsJson(registry, *metrics_path, out, err);
  }
  return 0;
}

int CmdStats(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  const auto index_path = cmd.GetString("index");
  if (!index_path.has_value()) return Fail(err, "stats requires --index");
  const auto metrics_path = cmd.GetString("metrics-json");
  // --json 1: emit the same report as one JSON object on stdout, so ops
  // tooling scrapes fields instead of parsing the human text.
  const bool json = cmd.BoolOr("json", false);
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;
  std::string open_error;
  auto view = StaticTreeView::Open(Env::Posix(), *index_path, {}, &open_error);
  if (view == nullptr) return Fail(err, "cannot load " + open_error);
  const AuditReport report = AuditStaticImage(*view);
  const AuditStats& stats = report.stats;
  const uint32_t min_entries = view->options().ResolvedMinEntries();
  const std::string invariants = report.ok() ? "OK" : report.FirstMessage();
  if (json) {
    out << "{\"transactions\": " << view->size()
        << ", \"signature_bits\": " << view->num_bits()
        << ", \"height\": " << stats.height
        << ", \"nodes\": " << stats.node_count
        << ", \"node_capacity\": " << view->max_entries()
        << ", \"min_entries\": " << min_entries
        << ", \"utilization\": " << stats.avg_utilization
        << ", \"invariants_ok\": " << (report.ok() ? "true" : "false")
        << ", \"invariants\": " << JsonQuoted(invariants)
        << ", \"kernel\": " << JsonQuoted(kernels::Active().name)
        << ", \"avg_entry_area\": [";
    for (size_t level = 0; level < stats.avg_entry_area.size(); ++level) {
      out << (level > 0 ? ", " : "") << stats.avg_entry_area[level];
    }
    out << "]}\n";
  } else {
    out << "transactions: " << view->size() << "\n"
        << "signature bits: " << view->num_bits() << "\n"
        << "height: " << stats.height << "\n"
        << "nodes: " << stats.node_count << "\n"
        << "node capacity: " << view->max_entries() << " (min "
        << min_entries << ")\n"
        << "utilization: " << stats.avg_utilization << "\n"
        << "invariants: " << invariants << "\n"
        << "kernel: " << kernels::Active().name << "\n";
    for (size_t level = 0; level < stats.avg_entry_area.size(); ++level) {
      out << "avg entry area, level " << level << ": "
          << stats.avg_entry_area[level] << "\n";
    }
  }
  if (metrics_path.has_value()) {
    obs::MetricsRegistry registry;
    registry.GetCounter("tree.transactions")->Increment(view->size());
    registry.GetCounter("tree.nodes")->Increment(stats.node_count);
    registry.GetCounter("tree.height")->Increment(stats.height);
    return WriteMetricsJson(registry, *metrics_path, out, err);
  }
  return 0;
}

int CmdCheck(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  const auto index_path = cmd.GetString("index");
  if (!index_path.has_value()) return Fail(err, "check requires --index");
  AuditOptions audit_options;
  audit_options.max_violations =
      static_cast<size_t>(cmd.UintOr("max-violations", 64));
  // --verify-checksums 0 admits an image whose body CRC no longer matches,
  // so the semantic audit can localize the damage instead of the open
  // refusing the whole file with one line.
  StaticOpenOptions open_options;
  open_options.verify_checksums = cmd.BoolOr("verify-checksums", true);
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;

  std::string open_error;
  auto view = StaticTreeView::Open(Env::Posix(), *index_path, open_options,
                                   &open_error);
  if (view == nullptr) return Fail(err, "cannot open " + open_error);
  const AuditReport report = AuditStaticImage(*view, audit_options);
  out << "static image audit: " << report.Summary();
  return report.ok() ? 0 : 2;
}

int CmdStaticInfo(const CommandLine& cmd, std::ostream& out,
                  std::ostream& err) {
  const auto index_path = cmd.GetString("index");
  if (!index_path.has_value()) return Fail(err, "static-info requires --index");
  StaticOpenOptions open_options;
  open_options.verify_checksums = cmd.BoolOr("verify-checksums", true);
  const bool json = cmd.BoolOr("json", false);
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;

  std::string open_error;
  auto view = StaticTreeView::Open(Env::Posix(), *index_path, open_options,
                                   &open_error);
  if (view == nullptr) return Fail(err, "cannot open " + open_error);
  const auto [area_lo, area_hi] = view->TransactionAreaBounds();
  if (json) {
    out << "{\"format_version\": " << static_format::kVersion
        << ", \"transactions\": " << view->size()
        << ", \"signature_bits\": " << view->num_bits()
        << ", \"height\": " << view->height()
        << ", \"nodes\": " << view->node_count()
        << ", \"node_capacity\": " << view->max_entries()
        << ", \"file_size\": " << view->file_size()
        << ", \"area_window\": [" << area_lo << ", " << area_hi << "]"
        << ", \"zero_copy\": " << (view->zero_copy() ? "true" : "false")
        << ", \"checksums_verified\": "
        << (open_options.verify_checksums ? "true" : "false") << "}\n";
    return 0;
  }
  out << "format version: " << static_format::kVersion << "\n"
      << "transactions: " << view->size() << "\n"
      << "signature bits: " << view->num_bits() << "\n"
      << "height: " << view->height() << "\n"
      << "nodes: " << view->node_count() << "\n"
      << "node capacity: " << view->max_entries() << "\n"
      << "file size: " << view->file_size() << " bytes\n"
      << "area window: [" << area_lo << ", " << area_hi << "]\n"
      << "mapping: " << (view->zero_copy() ? "mmap (zero copy)"
                                           : "buffered read")
      << "\n"
      << "checksums: "
      << (open_options.verify_checksums ? "verified" : "skipped") << "\n";
  return 0;
}

int CmdQuery(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional().size() < 2) {
    return Fail(err,
                "usage: query nn|range|contain|exact|subset --index FILE ...");
  }
  const std::string& kind = cmd.positional()[1];
  QueryType type = QueryType::kKnn;
  if (kind == "nn") {
    type = QueryType::kKnn;
  } else if (kind == "range") {
    type = QueryType::kRange;
  } else if (kind == "contain") {
    type = QueryType::kContainment;
  } else if (kind == "exact") {
    type = QueryType::kExact;
  } else if (kind == "subset") {
    type = QueryType::kSubset;
  } else {
    return Fail(err, "unknown query kind '" + kind + "'");
  }
  const auto index_path = cmd.GetString("index");
  if (!index_path.has_value()) return Fail(err, "query requires --index");

  SgTreeOptions options;
  Metric metric = Metric::kHamming;
  if (!ParseMetric(cmd.StringOr("metric", "hamming"), &metric)) {
    return Fail(err, "unknown metric");
  }
  options.metric = metric;

  // --shards 1 loads --index as a sharded manifest (the shard count comes
  // from the manifest, which also carries the static/dynamic format tag)
  // and answers through the scatter-gather router; --threads sizes its
  // worker pool. Otherwise --index is one static image, queried in place.
  const bool sharded = cmd.IntOr("shards", 0) != 0;
  const auto threads = static_cast<uint32_t>(cmd.UintOr("threads", 0));
  std::unique_ptr<StaticTreeView> view;
  std::unique_ptr<ShardedIndex> index;
  uint32_t num_bits = 0;
  std::string load_error;
  if (sharded) {
    ShardedIndexOptions sharded_options;
    sharded_options.tree = options;
    index = ShardedIndex::Load(*index_path, sharded_options, &load_error);
    if (index == nullptr) {
      return Fail(err, "cannot load " + *index_path + ": " + load_error);
    }
    num_bits = index->static_mode() ? index->static_shard(0).num_bits()
                                    : index->shard(0).num_bits();
  } else {
    StaticOpenOptions open_options;
    open_options.tree = options;
    view = StaticTreeView::Open(Env::Posix(), *index_path, open_options,
                                &load_error);
    if (view == nullptr) return Fail(err, "cannot load " + load_error);
    num_bits = view->num_bits();
  }

  // Collect query item lists from --q and/or --queries.
  std::vector<std::vector<ItemId>> queries;
  if (const auto q = cmd.GetString("q"); q.has_value()) {
    std::vector<ItemId> items;
    if (!ParseItems(*q, num_bits, &items)) {
      return Fail(err, "bad --q item list");
    }
    queries.push_back(std::move(items));
  }
  if (const auto path = cmd.GetString("queries"); path.has_value()) {
    Dataset query_set;
    if (!LoadDataset(*path, &query_set)) {
      return Fail(err, "cannot read queries " + *path);
    }
    for (const Transaction& txn : query_set.transactions) {
      queries.push_back(txn.items);
    }
  }
  if (queries.empty()) return Fail(err, "provide --q or --queries");

  const auto k = static_cast<uint32_t>(cmd.UintOr("k", 1));
  const double epsilon = cmd.DoubleOr("eps", 0);
  const bool print_trace = cmd.BoolOr("trace", false);
  const auto metrics_path = cmd.GetString("metrics-json");
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;

  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const auto& items : queries) {
    QueryRequest request;
    request.type = type;
    request.query = Signature::FromItems(items, num_bits);
    request.k = k;
    request.epsilon = epsilon;
    requests.push_back(std::move(request));
  }

  obs::MetricsRegistry registry;
  std::vector<QueryResult> results;
  if (sharded) {
    QueryExecutorOptions exec_options;
    exec_options.num_threads = threads;
    QueryExecutor executor(exec_options);
    QueryRouterOptions router_options;
    router_options.metrics = &registry;
    QueryRouter router(*index, &executor, router_options);
    results = router.Run(requests);
  } else {
    // No pool, as in the router: every query is charged one random I/O per
    // node read, against a cold buffer.
    results.reserve(requests.size());
    for (const QueryRequest& request : requests) {
      results.push_back(Execute(StaticTreeBackend(*view), request));
    }
  }

  QueryTrace total_trace;
  obs::Histogram* latency = registry.GetHistogram("query.latency_us");
  for (size_t qi = 0; qi < results.size(); ++qi) {
    const QueryResult& result = results[qi];
    if (!result.ok()) return Fail(err, result.error);
    out << "query " << qi << ":";
    for (const Neighbor& n : result.neighbors) {
      out << " " << n.tid << "(d=" << n.distance << ")";
    }
    for (uint64_t tid : result.ids) {
      out << " " << tid;
    }
    out << "\n";
    latency->Observe(result.elapsed_us);
    if (print_trace) {
      const QueryTrace& trace = result.trace;
      out << "  trace: nodes=" << trace.nodes_visited()
          << " tested=" << trace.signatures_tested
          << " descended=" << trace.subtrees_descended
          << " pruned=" << trace.subtrees_pruned
          << " verified=" << trace.candidates_verified
          << " results=" << trace.results
          << " hits=" << trace.buffer_hits
          << " misses=" << trace.buffer_misses << "\n";
    }
    total_trace += result.trace;
  }
  out << "# compared " << total_trace.candidates_verified
      << " transactions, " << total_trace.nodes_visited()
      << " node accesses, " << total_trace.buffer_misses << " random I/Os\n";
  if (metrics_path.has_value()) {
    registry.GetCounter("query.queries")->Increment(queries.size());
    registry.GetCounter("query.nodes_visited")
        ->Increment(total_trace.nodes_visited());
    registry.GetCounter("query.signatures_tested")
        ->Increment(total_trace.signatures_tested);
    registry.GetCounter("query.subtrees_pruned")
        ->Increment(total_trace.subtrees_pruned);
    registry.GetCounter("query.candidates_verified")
        ->Increment(total_trace.candidates_verified);
    registry.GetCounter("query.results")->Increment(total_trace.results);
    registry.GetCounter("query.buffer_hits")
        ->Increment(total_trace.buffer_hits);
    registry.GetCounter("query.random_ios")
        ->Increment(total_trace.buffer_misses);
    return WriteMetricsJson(registry, *metrics_path, out, err);
  }
  return 0;
}

// Shared tail of both join paths: prints the pair list (human or JSON),
// the merged trace on --trace, and the join.* metrics on --metrics-json.
int ReportJoin(const JoinResult& result, const std::vector<JoinPair>& pairs,
               JoinType type, bool sharded,
               uint64_t limit, bool json, bool print_trace,
               obs::MetricsRegistry* registry,
               const std::optional<std::string>& metrics_path,
               std::ostream& out, std::ostream& err) {
  const size_t shown =
      limit == 0 ? pairs.size()
                 : static_cast<size_t>(std::min<uint64_t>(pairs.size(), limit));
  if (json) {
    out << "{\"join\": "
        << (type == JoinType::kContainment ? "\"contain\"" : "\"similar\"")
        << ", \"algo\": " << JsonQuoted(result.backend)
        << ", \"sharded\": " << (sharded ? "true" : "false")
        << ", \"pairs\": " << result.pairs
        << ", \"truncated\": " << (result.truncated ? "true" : "false")
        << ", \"elapsed_us\": " << result.elapsed_us
        << ", \"nodes_accessed\": " << result.trace.nodes_visited()
        << ", \"signatures_tested\": " << result.trace.signatures_tested
        << ", \"candidates_verified\": " << result.trace.candidates_verified
        << ", \"sample\": [";
    for (size_t pi = 0; pi < shown; ++pi) {
      out << (pi > 0 ? ", " : "") << "[" << pairs[pi].tid_a << ", "
          << pairs[pi].tid_b << ", " << pairs[pi].distance << "]";
    }
    out << "]}\n";
  } else {
    for (size_t pi = 0; pi < shown; ++pi) {
      out << pairs[pi].tid_a << " " << pairs[pi].tid_b
          << " (d=" << pairs[pi].distance << ")\n";
    }
    if (shown < pairs.size()) {
      out << "... (" << (pairs.size() - shown)
          << " more; raise --limit or pass --limit 0)\n";
    }
    out << "# " << result.pairs << " pairs via " << result.backend
        << (sharded ? " (sharded)" : "") << " in "
        << result.elapsed_us / 1000.0 << " ms\n";
    if (print_trace) {
      const QueryTrace& trace = result.trace;
      out << "# trace: nodes=" << trace.nodes_visited()
          << " tested=" << trace.signatures_tested
          << " descended=" << trace.subtrees_descended
          << " pruned=" << trace.subtrees_pruned
          << " verified=" << trace.candidates_verified
          << " results=" << trace.results << "\n";
    }
  }
  if (metrics_path.has_value()) {
    return WriteMetricsJson(*registry, *metrics_path, out, err);
  }
  return 0;
}

int CmdJoin(const CommandLine& cmd, std::ostream& out, std::ostream& err) {
  if (cmd.positional().size() < 2) {
    return Fail(err,
                "usage: join contain|similar --left FILE --right FILE "
                "[--threshold X] [--metric M] [--shards 1] ...");
  }
  const std::string& kind = cmd.positional()[1];
  JoinRequest request;
  if (kind == "contain") {
    request.type = JoinType::kContainment;
  } else if (kind == "similar") {
    request.type = JoinType::kSimilarity;
  } else {
    return Fail(err, "unknown join kind '" + kind + "'");
  }
  const auto left_path = cmd.GetString("left");
  const auto right_path = cmd.GetString("right");
  if (!left_path.has_value() || !right_path.has_value()) {
    return Fail(err, "join requires --left and --right");
  }

  Metric metric = Metric::kHamming;
  if (!ParseMetric(cmd.StringOr("metric", "hamming"), &metric)) {
    return Fail(err, "unknown metric");
  }
  request.metric = metric;
  request.threshold = cmd.DoubleOr("threshold", 0.0);

  const bool sharded = cmd.IntOr("shards", 0) != 0;
  const auto threads = static_cast<uint32_t>(cmd.UintOr("threads", 0));
  const auto buffer_pages =
      static_cast<uint32_t>(cmd.UintOr("buffer-pages", 64));
  const bool json = cmd.BoolOr("json", false);
  const bool print_trace = cmd.BoolOr("trace", false);
  const uint64_t limit = cmd.UintOr("limit", 20, kMaxFlagValue);
  const auto metrics_path = cmd.GetString("metrics-json");
  if (const int rc = CheckFlags(cmd, err); rc != 0) return rc;

  SgTreeOptions options;
  options.metric = metric;
  obs::MetricsRegistry registry;
  JoinResult result;
  std::vector<JoinPair> pairs;

  if (sharded) {
    // Both sides load as sharded manifests (build --shards N); the
    // |R shards| x |S shards| grid fans out over the executor's lanes.
    ShardedIndexOptions sharded_options;
    sharded_options.tree = options;
    std::string load_error;
    auto left = ShardedIndex::Load(*left_path, sharded_options, &load_error);
    if (left == nullptr) {
      return Fail(err, "cannot load " + *left_path + ": " + load_error);
    }
    auto right = ShardedIndex::Load(*right_path, sharded_options, &load_error);
    if (right == nullptr) {
      return Fail(err, "cannot load " + *right_path + ": " + load_error);
    }
    QueryExecutorOptions exec_options;
    exec_options.num_threads = threads;
    QueryExecutor executor(exec_options);
    JoinRouterOptions router_options;
    router_options.buffer_pages = buffer_pages;
    router_options.metrics = &registry;
    JoinRouter router(*left, *right, &executor, router_options);
    result = router.Run(request, &pairs);
    if (!result.ok()) return Fail(err, result.error);
    return ReportJoin(result, pairs, request.type, true, limit, json,
                      print_trace, &registry, metrics_path, out, err);
  }

  std::string load_error;
  auto left = LoadTree(*left_path, options, &load_error);
  if (left == nullptr) {
    return Fail(err, "cannot load " + *left_path + ": " + load_error);
  }
  auto right = LoadTree(*right_path, options, &load_error);
  if (right == nullptr) {
    return Fail(err, "cannot load " + *right_path + ": " + load_error);
  }

  const SetCollection r_sets = SetCollection::FromTree(*left, {});
  const SetCollection s_sets = SetCollection::FromTree(*right, {});
  const InvertedPostings s_postings(s_sets);
  result = CollectTreePairJoin(request, *left, *right, r_sets, s_postings,
                               buffer_pages, &pairs);
  if (!result.ok()) return Fail(err, result.error);
  registry.GetCounter("join.requests")->Increment(1);
  registry.GetCounter("join.pairs")->Increment(result.pairs);
  registry.GetHistogram("join.latency_us")->Observe(result.elapsed_us);
  return ReportJoin(result, pairs, request.type, false, limit, json,
                    print_trace, &registry, metrics_path, out, err);
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  CommandLine cmd(args);
  if (!cmd.error().empty()) return Fail(err, cmd.error());
  if (cmd.positional().empty()) {
    err << "usage: sgtree_cli gen|build|stats|check|static-info|query|join|"
           "recover|wal-checkpoint ... (see tools/cli.h)\n";
    return 1;
  }
  const std::string& verb = cmd.positional()[0];
  if (verb == "gen") return CmdGen(cmd, out, err);
  if (verb == "build") return CmdBuild(cmd, out, err);
  if (verb == "stats") return CmdStats(cmd, out, err);
  if (verb == "check") return CmdCheck(cmd, out, err);
  if (verb == "static-info") return CmdStaticInfo(cmd, out, err);
  if (verb == "query") return CmdQuery(cmd, out, err);
  if (verb == "join") return CmdJoin(cmd, out, err);
  if (verb == "recover") return CmdRecover(cmd, out, err);
  if (verb == "wal-checkpoint") return CmdWalCheckpoint(cmd, out, err);
  return Fail(err, "unknown command '" + verb + "'");
}

}  // namespace sgtree
