// sgtree_serve: the long-running serving front end (DESIGN.md §10).
//
//   sgtree_serve --index PATH [--port N] [--durable-dir DIR]
//                [--replicas N] [--max-inflight N] [--cache-entries N]
//
// --index loads a ShardedIndex manifest. Both kinds name one static image
// per shard: a v1 manifest (Save, `build --shards N --out`) thaws them into
// mutable in-memory trees, a v2 manifest (SaveStatic, `build --shards N
// --static 1`) serves them mapped and unlocks --replicas > 1. --durable-dir
// opens a durable index instead (mutable over the wire via
// insert/checkpoint frames), with every shard-<i> subdirectory it holds;
// the directory must already hold a sharded index (`build --durable DIR
// --shards N`, N >= 2), and a path holding no shard-<i> directory is
// refused. The server prints
// "listening on 127.0.0.1:<port> (...)" once ready (port 0 =
// ephemeral, resolved in the message — how scripts drive it without a port
// race; the parentheses name the index mode, shards, replicas and the
// signature kernel variant) and runs until SIGINT/SIGTERM.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bit_kernels.h"
#include "durability/env.h"
#include "server/server.h"
#include "shard/sharded_index.h"
#include "tools/command_line.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int /*signum*/) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  sgtree::CommandLine cmd(std::move(args));
  if (!cmd.error().empty()) {
    std::cerr << "error: " << cmd.error() << "\n";
    return 1;
  }
  const auto index_path = cmd.GetString("index");
  const auto durable_dir = cmd.GetString("durable-dir");

  sgtree::serve::ServerOptions options;
  options.port = static_cast<uint16_t>(
      cmd.UintOr("port", 0, std::numeric_limits<uint16_t>::max()));
  options.max_inflight =
      static_cast<uint32_t>(cmd.UintOr("max-inflight", 256));
  options.cache_entries =
      static_cast<size_t>(cmd.UintOr("cache-entries", 4096));
  options.replicas.num_replicas =
      static_cast<uint32_t>(cmd.UintOr("replicas", 1));
  if (const std::string flag_error = cmd.FlagError(); !flag_error.empty()) {
    std::cerr << "error: " << flag_error << "\n";
    return 1;
  }
  if (index_path.has_value() == durable_dir.has_value()) {
    std::cerr << "error: pass exactly one of --index PATH (manifest) or "
                 "--durable-dir DIR\n";
    return 1;
  }

  std::string error;
  std::unique_ptr<sgtree::ShardedIndex> index;
  sgtree::ShardedIndexOptions index_options;
  if (index_path.has_value()) {
    index = sgtree::ShardedIndex::Load(*index_path, index_options, &error);
    options.replicas.manifest_path = *index_path;
    options.replicas.index_options = index_options;
  } else {
    index = sgtree::ShardedIndex::OpenDurable(
        sgtree::Env::Posix(), *durable_dir, index_options, &error);
  }
  if (index == nullptr) {
    std::cerr << "error: cannot open index: " << error << "\n";
    return 1;
  }

  auto server = sgtree::serve::Server::Create(index.get(), options, &error);
  if (server == nullptr) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  if (!server->Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::cout << "listening on 127.0.0.1:" << server->port() << " ("
            << (index->static_mode()
                    ? "static"
                    : (index->durable() ? "durable" : "in-memory"))
            << ", " << index->num_shards() << " shard(s), "
            << server->replica_set()->num_replicas() << " replica(s), kernel "
            << sgtree::kernels::Active().name << ")" << std::endl;
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "shutting down\n";
  server->Stop();
  return 0;
}
