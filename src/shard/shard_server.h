// The shard worker: one spatial shard behind a minimal framed server
// speaking the protocol-v4 shard op family over a stream socket — a Unix
// socket in a `dfmkit shard-serve` process, or one end of a socketpair
// for an in-process worker. Deliberately simpler than the analysis daemon
// (service/server.h): one coordinator connection at a time, requests
// handled inline in arrival order (the coordinator pipelines across
// workers, not within one), no admission queue, no session registry.
//
// Ops: shard_open (hydrate a window from a layout file or inline
// layers), shard_drc / shard_match / shard_litho (unit batches),
// shard_edit (mirror a delta), ping, shutdown. Requests reuse the v3
// trace-context fields, so worker spans parent under the coordinator's
// dispatch span and `dfmkit trace-merge` stitches both timelines
// together.
#pragma once

#include "shard/worker.h"

#include <optional>
#include <string>

namespace dfm::shard {

struct ShardServeOptions {
  /// Unix-domain socket path to listen on (required).
  std::string unix_path;
  /// Worker compute pool for shard_open'd sessions; 1 = serial,
  /// 0 = hardware concurrency. A shard_open may override per open.
  unsigned threads = 1;
  /// Exit after the first coordinator connection closes (the spawn
  /// helper's mode); false keeps accepting coordinators until a
  /// shutdown op.
  bool once = true;
  /// When non-empty, record telemetry for the worker's lifetime and
  /// write a Chrome trace here on exit. Worker spans carry the
  /// coordinator's trace context, so `dfmkit trace-merge` can stitch
  /// the coordinator's file with each worker's into one timeline.
  std::string trace_out;
};

/// Runs the worker loop until shutdown (op or disconnect under `once`).
/// Returns a process exit code. Throws on listener setup failure.
int run_shard_server(const ShardServeOptions& options);

/// Serves one coordinator connection on the connected stream socket
/// `fd` to completion: the hello frame, then requests in arrival order
/// against `session` (which shard_open replaces). Leaves `fd` open.
/// Returns true when a shutdown op asked the worker to exit. Every
/// worker runs this loop: run_shard_server per accepted connection, and
/// RemoteShardBackend's in-process workers on one end of a socketpair.
bool serve_connection(int fd, const ShardServeOptions& options,
                      std::optional<ShardWorkerSession>& session);

}  // namespace dfm::shard
