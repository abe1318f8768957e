#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/linear_scan.h"
#include "exec/query_api.h"

namespace perfbench {

/// The correctness gate: answers the program gave are compared with brute
/// force (LinearScanBackend) over the same data. A mismatch is a failed
/// operation and makes the run incorrect.
struct GateReport {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  std::vector<std::string> examples;  // First few mismatches, for the log.
};

/// The brute-force answer to `request` over `scan`. kExact, which the scan
/// does not serve, is answered as the ids of a Hamming range query of
/// radius 0 (identical signatures).
sgtree::QueryResult BruteForce(const sgtree::LinearScan& scan,
                               const sgtree::QueryRequest& request);

/// True when `got` holds the same answer values as `want`: neighbors
/// compared as (distance, tid) multisets, ids as sets; an error on either
/// side is a mismatch. On false, `*why` says what differs.
bool SameAnswer(const sgtree::QueryResult& got,
                const sgtree::QueryResult& want, std::string* why);

/// Checks one answer against brute force and records the outcome.
void CheckAnswer(const sgtree::LinearScan& scan,
                 const sgtree::QueryRequest& request,
                 const sgtree::QueryResult& got, GateReport* report);

/// `count` distinct indexes in [0, n), drawn from `seed`, ascending.
std::vector<size_t> SampleIndexes(size_t n, size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
