// Micro-benchmarks (google-benchmark) for the hot kernels: signature set
// operations, distance bounds, the compression codec, and index update /
// query operations.

#include <benchmark/benchmark.h>

#include "baseline/linear_scan.h"
#include "common/bit_kernels.h"
#include "common/distance.h"
#include "common/gray_code.h"
#include "common/rng.h"
#include "common/signature.h"
#include "data/quest_generator.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "storage/codec.h"

namespace sgtree {
namespace {

Signature MakeSignature(uint64_t seed, uint32_t bits, double density) {
  Rng rng(seed);
  Signature sig(bits);
  for (uint32_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(density)) sig.Set(i);
  }
  return sig;
}

// Per-variant rows: argument 0 indexes kernels::Supported() (0 = scalar,
// 1 = AVX-512 VPOPCNTDQ where the CPU has it); the label names the variant.
const kernels::Variant* VariantOrSkip(benchmark::State& state) {
  const auto supported = kernels::Supported();
  const auto index = static_cast<size_t>(state.range(0));
  if (index >= supported.size()) {
    state.SkipWithError("kernel variant not supported on this CPU");
    return nullptr;
  }
  state.SetLabel(supported[index]->name);
  return supported[index];
}

void BM_SignatureXorCount(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  const Signature a = MakeSignature(1, bits, 0.1);
  const Signature b = MakeSignature(2, bits, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Signature::XorCount(a, b));
  }
}
BENCHMARK(BM_SignatureXorCount)->Arg(256)->Arg(525)->Arg(1000)->Arg(4096);

void BM_KernelXorCount(benchmark::State& state) {
  const kernels::Variant* variant = VariantOrSkip(state);
  if (variant == nullptr) return;
  const auto bits = static_cast<uint32_t>(state.range(1));
  const Signature a = MakeSignature(1, bits, 0.1);
  const Signature b = MakeSignature(2, bits, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        variant->xor_count(a.words().data(), b.words().data(), a.num_words()));
  }
}
BENCHMARK(BM_KernelXorCount)->ArgsProduct({{0, 1}, {256, 525, 1000, 4096}});

void BM_SignatureContains(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  Signature big = MakeSignature(3, bits, 0.3);
  const Signature small = MakeSignature(4, bits, 0.02);
  big.UnionWith(small);
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.Contains(small));
  }
}
BENCHMARK(BM_SignatureContains)->Arg(525)->Arg(1000);

void BM_SignatureUnionWith(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  Signature a = MakeSignature(5, bits, 0.2);
  const Signature b = MakeSignature(6, bits, 0.2);
  for (auto _ : state) {
    a.UnionWith(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SignatureUnionWith)->Arg(525)->Arg(1000);

void BM_MinDistBound(benchmark::State& state) {
  const Signature query = MakeSignature(7, 1000, 0.01);
  const Signature cover = MakeSignature(8, 1000, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinDistBound(query, cover, Metric::kHamming));
  }
}
BENCHMARK(BM_MinDistBound);

// Per variant, the one pass under MinDistBound and every directory bound:
// |e AND q| and |q| together.
void BM_KernelIntersectAndArea(benchmark::State& state) {
  const kernels::Variant* variant = VariantOrSkip(state);
  if (variant == nullptr) return;
  const Signature query = MakeSignature(7, 1000, 0.01);
  const Signature cover = MakeSignature(8, 1000, 0.2);
  for (auto _ : state) {
    const kernels::CountAndArea counts = variant->intersect_and_area(
        cover.words().data(), query.words().data(), query.num_words());
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_KernelIntersectAndArea)->Arg(0)->Arg(1);

void BM_GrayLess(benchmark::State& state) {
  const Signature a = MakeSignature(9, 1000, 0.01);
  const Signature b = MakeSignature(10, 1000, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GrayLess(a, b));
  }
}
BENCHMARK(BM_GrayLess);

void BM_EncodeSignatureSparse(benchmark::State& state) {
  const Signature sig = MakeSignature(11, 1000, 0.01);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    out.clear();
    EncodeSignature(sig, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EncodeSignatureSparse);

void BM_DecodeSignatureSparse(benchmark::State& state) {
  const Signature sig = MakeSignature(12, 1000, 0.01);
  std::vector<uint8_t> encoded;
  EncodeSignature(sig, &encoded);
  for (auto _ : state) {
    size_t offset = 0;
    Signature decoded;
    DecodeSignature(encoded, &offset, 1000, &decoded);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeSignatureSparse);

struct TreeFixture {
  Dataset dataset;
  std::unique_ptr<SgTree> tree;
  std::vector<Signature> queries;

  static const TreeFixture& Get() {
    static TreeFixture* fixture = [] {
      auto* f = new TreeFixture();
      QuestOptions qopt;
      qopt.num_transactions = 20'000;
      qopt.num_items = 1000;
      qopt.num_patterns = 200;
      qopt.avg_transaction_size = 12;
      qopt.avg_itemset_size = 6;
      qopt.seed = 42;
      QuestGenerator gen(qopt);
      f->dataset = gen.Generate();
      SgTreeOptions topt;
      topt.num_bits = 1000;
      f->tree = std::make_unique<SgTree>(topt);
      for (const Transaction& txn : f->dataset.transactions) {
        f->tree->Insert(txn);
      }
      for (const Transaction& q : gen.GenerateQueries(64)) {
        f->queries.push_back(Signature::FromItems(q.items, 1000));
      }
      return f;
    }();
    return *fixture;
  }
};

void BM_TreeInsert(benchmark::State& state) {
  QuestOptions qopt;
  qopt.num_transactions = 4096;
  qopt.num_items = 1000;
  qopt.num_patterns = 100;
  qopt.seed = 77;
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  SgTreeOptions topt;
  topt.num_bits = 1000;
  size_t i = 0;
  SgTree tree(topt);
  uint64_t tid = 0;
  for (auto _ : state) {
    const Transaction& txn = dataset.transactions[i++ % dataset.size()];
    tree.Insert(Signature::FromItems(txn.items, 1000), tid++);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeInsert);

void BM_TreeNearestNeighbor(benchmark::State& state) {
  const TreeFixture& f = TreeFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DfsNearest(*f.tree,
                                        f.queries[i++ % f.queries.size()],
                                        f.tree->OwnPoolContext()));
  }
}
BENCHMARK(BM_TreeNearestNeighbor);

void BM_TreeRangeQuery(benchmark::State& state) {
  const TreeFixture& f = TreeFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RangeSearch(*f.tree,
                                         f.queries[i++ % f.queries.size()],
                                         6.0, f.tree->OwnPoolContext()));
  }
}
BENCHMARK(BM_TreeRangeQuery);

void BM_LinearScanNearest(benchmark::State& state) {
  const TreeFixture& f = TreeFixture::Get();
  static LinearScan* scan = new LinearScan(f.dataset);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scan->Nearest(f.queries[i++ % f.queries.size()]));
  }
}
BENCHMARK(BM_LinearScanNearest);

}  // namespace
}  // namespace sgtree
