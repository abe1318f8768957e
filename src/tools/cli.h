#ifndef SGTREE_TOOLS_CLI_H_
#define SGTREE_TOOLS_CLI_H_

#include <ostream>
#include <string>
#include <vector>

namespace sgtree {

/// Entry point of the `sgtree_cli` tool (separated from main() so the test
/// suite can drive it). Returns a process exit code. Subcommands:
///
///   gen quest   --out F [--d N] [--t X] [--i X] [--items N] [--patterns N]
///               [--seed N]
///   gen census  --out F [--tuples N] [--seed N]
///   build       --data F (--out F | --durable DIR) [--split avg|min|quadratic]
///               [--bulk gray|bisect|minhash|none] [--compress 0|1]
///               [--page N] [--shards N] [--static 0|1]
///               With --durable, builds a crash-safe index in DIR (page
///               file + write-ahead log) instead of a plain snapshot:
///               plain inserts are logged (fold them with wal-checkpoint),
///               bulk loads are logged wholesale and checkpointed.
///               With --shards N (N >= 2), hash-partitions the data into N
///               per-shard SG-trees: --out writes a manifest plus one
///               snapshot per shard, --durable gives every shard its own
///               page file + WAL under DIR/shard-<i>.
///               With --static 1 (requires --out), writes the immutable
///               mmap'able image of static/static_format.h instead of the
///               dynamic snapshot — a single static image, or with
///               --shards N a v2 manifest plus one image per shard. Query
///               it with `query ... --static 1` (or --shards 1 for the
///               manifest); it cannot be updated in place.
///   stats       --index F
///   check       --index F [--max-violations N] [--static 0|1]
///               [--verify-checksums 0|1]
///               Runs the full InvariantAuditor (coverage, levels, fill
///               bounds, tid uniqueness, page reachability) on the loaded
///               tree, then builds the tree's static image in memory,
///               reopens it from those bytes and audits it with
///               AuditStaticImage. With --static 1, audits a static image via
///               AuditStaticImage instead (structure is already enforced
///               at open; --verify-checksums 0 admits a CRC-damaged image
///               so the audit can localize the corruption). Exit 0 =
///               clean, 2 = violations found.
///   static-info --index F [--verify-checksums 0|1]
///               Opens a static image and prints its header: format
///               version, transaction/node counts, height, signature
///               width, node capacity, file size, area window, and whether
///               the bytes are served zero-copy from an mmap.
///   query nn    --index F (--q "i i i ..." | --queries F) [--k N]
///               [--metric hamming|jaccard|dice|cosine]
///   query range --index F (--q ... | --queries F) --eps X [--metric M]
///   query contain --index F (--q ... | --queries F)
///   query exact|subset --index F (--q ... | --queries F)
///               All query kinds run through the unified query API
///               (exec/query_api.h). Add --shards 1 to load --index as a
///               sharded manifest (built with build --shards N) and answer
///               via the scatter-gather QueryRouter — results are
///               byte-identical to the single-tree path; --threads N sizes
///               the router's worker pool (0 = hardware concurrency).
///               Add --static 1 to open --index as a single static image
///               (build --static); sharded static manifests need no flag —
///               the v2 manifest tags itself and the router serves the
///               mmap'ed shards transparently.
///   join contain --left F --right F [--algo tree|pretti|fvt] [--shards 1]
///               [--threads N] [--buffer-pages N] [--limit N] [--json 1]
///               [--trace 1] [--metrics-json F]
///   join similar --left F --right F --threshold X [--metric M]
///               [--algo tree] [--shards 1] ...
///               Collection-level joins through the join API
///               (exec/join_api.h): `contain` reports every pair (r, s)
///               with r's item set a subset of s's, d = the containment
///               gap |s| - |r|; `similar` reports pairs within the
///               threshold under the trees' build-time metric (tree
///               backend only — pretti and fvt are containment-only and
///               refuse with a one-line reason). Pairs print in canonical
///               (tid_a, tid_b) order, capped at --limit (default 20,
///               0 = all). With --shards 1 both sides load as sharded
///               manifests and the join scatter-gathers over the
///               |R shards| x |S shards| grid (shard/join_router.h) —
///               results are byte-identical to the unsharded run.
///               Validation errors (bad threshold, unsupported combo)
///               exit 1 with the reason on stderr.
///   recover     --durable D [--out F] [--metrics-json F]
///               Replays the write-ahead log over the page file, gates the
///               result through the InvariantAuditor, and prints the
///               recovery report. --out exports the recovered tree as a
///               plain snapshot. Exit 0 = recovered clean, 2 = recovered
///               structurally but failed the audit, 1 = unrecoverable.
///   wal-checkpoint --durable D [--metrics-json F] [--export-static F]
///               Opens (recovering if needed) the durable index in D,
///               folds the logged operations into the page file, and
///               truncates the log. --export-static additionally writes an
///               operation-consistent static image of the checkpointed
///               tree to F (crash-atomic publish).
///
/// Datasets use the text format of data/dataset_io.h; indexes the binary
/// format of sgtree/persistence.h.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace sgtree

#endif  // SGTREE_TOOLS_CLI_H_
