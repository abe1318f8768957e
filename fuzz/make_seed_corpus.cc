// Regenerates the checked-in seed corpora under fuzz/corpus/<target>/ using
// the real encoders, so seeds always match the current on-page formats.
// Usage: make_seed_corpus <corpus-root>  (writes corpus-root/<target>/*.bin)
//
// Seeds are deterministic: rerunning after a format change refreshes the
// files in place and the diff shows exactly what the format change did.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/signature.h"
#include "data/dataset_io.h"
#include "durability/byte_io.h"
#include "durability/wal.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_builder.h"
#include "storage/codec.h"
#include "storage/node_format.h"

namespace {

using sgtree::Dataset;
using sgtree::EncodeNode;
using sgtree::EncodeSignature;
using sgtree::NodeRecord;
using sgtree::Signature;
using sgtree::Transaction;

void WriteFile(const std::filesystem::path& path,
               const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    std::exit(1);
  }
}

void AppendU16(uint16_t value, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(value & 0xff));
  out->push_back(static_cast<uint8_t>(value >> 8));
}

Signature MakeSignature(uint32_t num_bits, uint32_t stride, uint32_t count) {
  Signature sig(num_bits);
  for (uint32_t i = 0; i < count; ++i) sig.Set((i * stride) % num_bits);
  return sig;
}

// Codec seeds: 2-byte width header followed by one or more encodings.
void EmitCodecSeeds(const std::filesystem::path& dir) {
  struct Case {
    const char* name;
    uint16_t header_bits;
    Signature sig;
  };
  const uint32_t kBits = 256;  // (header % 2048) + 1 with header 255.
  const std::vector<Case> cases = {
      {"empty.bin", 255, Signature(kBits)},
      {"sparse.bin", 255, MakeSignature(kBits, 37, 10)},
      {"dense.bin", 255, MakeSignature(kBits, 3, 200)},
      {"narrow.bin", 63, MakeSignature(64, 5, 8)},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bytes;
    AppendU16(c.header_bits, &bytes);
    EncodeSignature(c.sig, &bytes);
    WriteFile(dir / c.name, bytes);
  }
  // A back-to-back stream of three encodings, exercising the decode loop.
  std::vector<uint8_t> stream;
  AppendU16(255, &stream);
  EncodeSignature(MakeSignature(kBits, 11, 4), &stream);
  EncodeSignature(MakeSignature(kBits, 7, 120), &stream);
  EncodeSignature(Signature(kBits), &stream);
  WriteFile(dir / "stream.bin", stream);
}

// Node seeds: 2-byte width header, 1 compression byte, then a node image.
void EmitNodeSeeds(const std::filesystem::path& dir) {
  const uint32_t kBits = 256;
  for (const bool compress : {false, true}) {
    NodeRecord leaf;
    leaf.level = 0;
    for (uint64_t tid = 0; tid < 5; ++tid) {
      leaf.entries.emplace_back(
          tid + 100, MakeSignature(kBits, static_cast<uint32_t>(3 * tid + 5),
                                   static_cast<uint32_t>(4 + tid)));
    }
    NodeRecord directory;
    directory.level = 2;
    directory.entries.emplace_back(7, MakeSignature(kBits, 3, 180));
    directory.entries.emplace_back(9, MakeSignature(kBits, 13, 12));

    const std::string suffix = compress ? "_sparse.bin" : "_dense.bin";
    for (const auto& [name, record] :
         {std::pair<std::string, const NodeRecord&>{"leaf", leaf},
          {"directory", directory}}) {
      std::vector<uint8_t> bytes;
      AppendU16(255, &bytes);
      bytes.push_back(compress ? 1 : 0);
      EncodeNode(record, compress, &bytes);
      WriteFile(dir / (name + suffix), bytes);
    }
  }
  // An empty node image (level 1, zero entries).
  std::vector<uint8_t> empty;
  AppendU16(255, &empty);
  empty.push_back(0);
  NodeRecord none;
  none.level = 1;
  EncodeNode(none, false, &empty);
  WriteFile(dir / "empty_dense.bin", empty);
}

// Dataset seeds are the text format itself.
void EmitDatasetSeeds(const std::filesystem::path& dir) {
  Dataset set_data;
  set_data.num_items = 1000;
  set_data.fixed_dimensionality = 0;
  for (uint64_t tid = 0; tid < 6; ++tid) {
    Transaction txn;
    txn.tid = tid;
    for (uint32_t i = 0; i <= tid; ++i) {
      txn.items.push_back(static_cast<uint32_t>(17 * (i + 1) + tid));
    }
    set_data.transactions.push_back(std::move(txn));
  }
  const std::string set_text = sgtree::SerializeDataset(set_data);
  WriteFile(dir / "sets.txt",
            std::vector<uint8_t>(set_text.begin(), set_text.end()));

  Dataset categorical;
  categorical.num_items = 64;
  categorical.fixed_dimensionality = 4;
  for (uint64_t tid = 0; tid < 3; ++tid) {
    Transaction txn;
    txn.tid = 1000 + tid;
    for (uint32_t attr = 0; attr < 4; ++attr) {
      txn.items.push_back(attr * 16 + static_cast<uint32_t>(tid));
    }
    categorical.transactions.push_back(std::move(txn));
  }
  const std::string cat_text = sgtree::SerializeDataset(categorical);
  WriteFile(dir / "categorical.txt",
            std::vector<uint8_t>(cat_text.begin(), cat_text.end()));

  const std::string empty_text = "0 0 0\n";
  WriteFile(dir / "empty.txt",
            std::vector<uint8_t>(empty_text.begin(), empty_text.end()));
}

// WAL seeds: byte 0 is the harness mode byte, the rest a framed record
// stream exactly as Wal::Append lays it out.
void EmitWalSeeds(const std::filesystem::path& dir) {
  auto frame = [](const sgtree::WalRecord& record,
                  std::vector<uint8_t>* out) {
    std::vector<uint8_t> payload;
    sgtree::EncodeWalRecord(record, &payload);
    sgtree::AppendU32(static_cast<uint32_t>(payload.size()), out);
    sgtree::AppendU32(sgtree::Crc32c(payload), out);
    out->insert(out->end(), payload.begin(), payload.end());
  };

  sgtree::WalRecord checkpoint;
  checkpoint.type = sgtree::WalRecordType::kCheckpoint;
  checkpoint.checkpoint_seq = 3;
  checkpoint.op_seq = 40;
  sgtree::WalRecord insert;
  insert.type = sgtree::WalRecordType::kInsert;
  insert.tid = 41;
  insert.positions = {2, 17, 30, 55, 63};
  sgtree::WalRecord erase;
  erase.type = sgtree::WalRecordType::kErase;
  erase.tid = 12;
  erase.positions = {4, 9};

  std::vector<uint8_t> op = {0};
  frame(checkpoint, &op);
  frame(insert, &op);
  frame(erase, &op);
  WriteFile(dir / "committed_op.bin", op);

  // The same stream torn mid-record: the scanner's bread and butter.
  std::vector<uint8_t> torn(op.begin(), op.begin() + ptrdiff_t(op.size() - 9));
  WriteFile(dir / "torn_tail.bin", torn);

  std::vector<uint8_t> single = {0};
  frame(checkpoint, &single);
  WriteFile(dir / "checkpoint_only.bin", single);
}

// Static-image seeds: a real BFS-serialized image built by the production
// builder, the empty-tree image, and two canonical rejects (truncation and
// foreign magic) so the fuzzer starts with both sides of the gate.
void EmitStaticTreeSeeds(const std::filesystem::path& dir) {
  sgtree::SgTreeOptions options;
  options.num_bits = 96;
  options.max_entries = 6;
  sgtree::SgTree tree(options);
  for (uint64_t tid = 0; tid < 40; ++tid) {
    Transaction txn;
    txn.tid = tid;
    for (uint32_t i = 0; i < 3 + tid % 4; ++i) {
      const auto item = static_cast<uint32_t>((tid * 11 + i * 17) % 96);
      if (std::find(txn.items.begin(), txn.items.end(), item) ==
          txn.items.end()) {
        txn.items.push_back(item);
      }
    }
    std::sort(txn.items.begin(), txn.items.end());
    tree.Insert(txn);
  }
  const std::vector<uint8_t> image = sgtree::BuildStaticImage(tree);
  WriteFile(dir / "valid.bin", image);

  const sgtree::SgTree empty(options);
  WriteFile(dir / "empty.bin", sgtree::BuildStaticImage(empty));

  WriteFile(dir / "truncated.bin",
            std::vector<uint8_t>(image.begin(), image.begin() + 40));
  std::vector<uint8_t> bad_magic = image;
  std::memcpy(bad_magic.data(), "NOTSGSTA", 8);
  WriteFile(dir / "bad_magic.bin", bad_magic);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_seed_corpus <corpus-root>\n";
    return 1;
  }
  const std::filesystem::path root = argv[1];
  for (const char* target :
       {"codec", "node_format", "dataset_io", "wal", "static_tree"}) {
    std::filesystem::create_directories(root / target);
  }
  EmitCodecSeeds(root / "codec");
  EmitNodeSeeds(root / "node_format");
  EmitDatasetSeeds(root / "dataset_io");
  EmitWalSeeds(root / "wal");
  EmitStaticTreeSeeds(root / "static_tree");
  std::cout << "seed corpora written under " << root << "\n";
  return 0;
}
