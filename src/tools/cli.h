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
///               [--bulk gray|bisect|minhash|none] [--page N] [--shards N]
///               --out writes the index as one static image
///               (static/static_format.h): the only file format a tree is
///               saved to. Every command below that takes --index F opens
///               it in place; `join` and the library's LoadTree thaw it
///               into a mutable tree.
///               With --durable, builds a crash-safe index in DIR instead:
///               the static image of the last checkpoint
///               (checkpoint-<c>.sgs) plus a write-ahead log (wal.sgw) with
///               one record per operation since then. Plain inserts are
///               logged (publish them as a checkpoint with wal-checkpoint);
///               a bulk load is adopted and checkpointed.
///               With --shards N (N >= 2), hash-partitions the data into N
///               per-shard SG-trees: --out writes a manifest plus one image
///               per shard (add --static 1 for the read-only v2 manifest,
///               which loads over the mapped images instead of thawing
///               them), --durable gives every shard its own checkpoint
///               image + log under DIR/shard-<i>.
///   stats       --index F [--json 0|1] [--metrics-json F]
///               Opens the image and prints its shape (height, nodes,
///               utilization, per-level entry area) and the
///               AuditStaticImage verdict.
///   check       --index F [--max-violations N] [--verify-checksums 0|1]
///               Audits the image with AuditStaticImage: coverage, fill
///               bounds, tid uniqueness and signature width (structure is
///               already enforced at open; --verify-checksums 0 admits a
///               CRC-damaged image so the audit can localize the
///               corruption). Exit 0 = clean, 2 = violations found.
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
///               (exec/query_api.h) over the image, read in place. Add
///               --shards 1 to load --index as a sharded manifest (built
///               with build --shards N) and answer via the scatter-gather
///               QueryRouter — results are byte-identical to the
///               single-image path; --threads N sizes the router's worker
///               pool (0 = hardware concurrency). The manifest tags its own
///               format: v1 shards are thawed, v2 shards are served mapped.
///   join contain --left F --right F [--shards 1] [--threads N]
///               [--buffer-pages N] [--limit N] [--json 1] [--trace 1]
///               [--metrics-json F]
///   join similar --left F --right F --threshold X [--metric M]
///               [--shards 1] ...
///               Collection-level joins through the join API
///               (exec/join_api.h): `contain` reports every pair (r, s)
///               with r's item set a subset of s's, d = the containment
///               gap |s| - |r|; `similar` reports pairs within the
///               threshold under the trees' build-time metric. The
///               predicate picks the algorithm: containment runs PRETTI,
///               similarity the tree-vs-tree join, the only one that
///               serves it; the summary line and the JSON "algo" field
///               name the one that ran. Pairs print in canonical
///               (tid_a, tid_b) order, capped at --limit (default 20,
///               0 = all). With --shards 1 both sides load as sharded
///               manifests and the join scatter-gathers over the
///               |R shards| x |S shards| grid (shard/join_router.h) —
///               results are byte-identical to the unsharded run.
///               Validation and support errors (a bad threshold, a
///               similarity join over trees of different signature widths)
///               exit 1 with the reason on stderr.
///   recover     --durable D [--out F] [--metrics-json F]
///               Thaws the checkpoint image the log's marker names, replays
///               the logged operations on it, gates the result through the
///               InvariantAuditor, and prints the recovery report; it
///               writes nothing in D. --out exports the recovered tree as a
///               static image. Exit 0 = recovered clean, 2 = recovered
///               structurally but failed the audit, 1 = unrecoverable (an
///               unreadable marker or image, a log that does not belong to
///               the image, or a retired page-file directory).
///   wal-checkpoint --durable D [--metrics-json F] [--export-static F]
///               Opens (recovering if needed) the durable index in D,
///               publishes the tree as the next checkpoint image, and
///               restarts the log at its marker. --export-static
///               additionally writes an operation-consistent static image
///               of the checkpointed tree to F (crash-atomic publish).
///
/// Datasets use the text format of data/dataset_io.h; indexes the static
/// image of static/static_format.h. An index saved in the retired SGTREE01
/// snapshot format is refused with a reason that says to rebuild it.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace sgtree

#endif  // SGTREE_TOOLS_CLI_H_
