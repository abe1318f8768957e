#include "durability/recovery.h"

#include <vector>

#include "durability/wal.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"

namespace sgtree {
namespace {

std::string Plural(uint64_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

}  // namespace

std::string WalPathFor(const std::string& dir) { return dir + "/wal.sgw"; }

std::string CheckpointPathFor(const std::string& dir,
                              uint64_t checkpoint_seq) {
  return dir + "/checkpoint-" + std::to_string(checkpoint_seq) + ".sgs";
}

std::string RecoveryReport::Summary() const {
  std::string out = "checkpoint " + std::to_string(checkpoint_seq) + ", " +
                    Plural(records_replayed, "op") + " replayed";
  if (torn_tail) out += ", torn tail truncated";
  out += ", recovered at op_seq " + std::to_string(op_seq);
  return out;
}

std::unique_ptr<RecoveredTree> RecoverTree(Env* env, const std::string& dir,
                                           std::string* error,
                                           const SgTreeOptions* options_hint,
                                           obs::MetricsRegistry* metrics) {
  auto fail = [error](const std::string& message)
      -> std::unique_ptr<RecoveredTree> {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (env->FileExists(dir + "/pages.sgp")) {
    return fail(dir + ": retired page-file format (pages.sgp); rebuild the "
                      "index from its data");
  }

  // 1. The marker names the checkpoint image this log follows.
  const std::string wal_path = WalPathFor(dir);
  if (!env->FileExists(wal_path)) {
    return fail("no durable index in " + dir + " (missing " + wal_path + ")");
  }
  std::vector<uint8_t> region;
  if (!Wal::ReadRecordRegion(env, wal_path, &region, error)) return nullptr;
  WalScanner scanner(region.data(), region.size());
  WalRecord marker;
  if (!scanner.Next(&marker) || marker.type != WalRecordType::kCheckpoint) {
    return fail("wal " + wal_path + ": unreadable checkpoint marker");
  }

  // 2. Thaw the image. StaticTreeView::Open checks the signature width;
  // the node capacity it always takes from the file, so compare it here.
  auto result = std::make_unique<RecoveredTree>();
  RecoveryReport& report = result->report;
  report.checkpoint_seq = marker.checkpoint_seq;
  StaticOpenOptions open_options;
  if (options_hint != nullptr) open_options.tree = *options_hint;
  {
    const std::unique_ptr<StaticTreeView> view = StaticTreeView::Open(
        env, CheckpointPathFor(dir, marker.checkpoint_seq), open_options,
        error);
    if (view == nullptr) return nullptr;
    if (options_hint != nullptr &&
        options_hint->ResolvedMaxEntries() != view->max_entries()) {
      return fail("supplied node capacity " +
                  std::to_string(options_hint->ResolvedMaxEntries()) +
                  " does not match the checkpoint image's " +
                  std::to_string(view->max_entries()));
    }
    result->tree = ThawStatic(*view);
  }
  SgTree& tree = *result->tree;

  // 3. Replay the acknowledged operations.
  const uint32_t num_bits = tree.num_bits();
  const std::string foreign = "; the log does not belong to checkpoint " +
                              std::to_string(marker.checkpoint_seq);
  auto refuse = [&](const std::string& what) {
    return fail("wal " + wal_path + ": record " +
                std::to_string(scanner.records()) + " " + what);
  };
  WalRecord record;
  while (scanner.Next(&record)) {
    if (record.type == WalRecordType::kCheckpoint) {
      return refuse("is a second checkpoint marker");
    }
    if (!record.positions.empty() && record.positions.back() >= num_bits) {
      return refuse("sets bit " + std::to_string(record.positions.back()) +
                    " of a " + std::to_string(num_bits) + "-bit signature" +
                    foreign);
    }
    const Signature sig = Signature::FromItems(record.positions, num_bits);
    if (record.type == WalRecordType::kInsert) {
      tree.Insert(sig, record.tid);
    } else if (!tree.Erase(sig, record.tid)) {
      return refuse("erases tid " + std::to_string(record.tid) +
                    ", which is not indexed" + foreign);
    }
    ++report.records_replayed;
  }
  report.torn_tail = scanner.torn();
  report.wal_valid_end = scanner.valid_end();
  report.op_seq = marker.op_seq + report.records_replayed;

  // 4. Post-recovery gate: a structurally broken tree is an error.
  result->audit = AuditTree(tree);
  if (!result->audit.ok()) {
    return fail("recovered tree failed the invariant audit: " +
                result->audit.FirstMessage());
  }

  if (metrics != nullptr) {
    metrics->GetCounter("recovery.records_replayed")
        ->Increment(report.records_replayed);
  }
  return result;
}

}  // namespace sgtree
