#include "shard/remote_backend.h"

#include "core/delta.h"
#include "core/stream_source.h"
#include "core/telemetry.h"
#include "shard/shard_server.h"
#include "shard/wire.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace dfm::shard {
namespace {

using service::Json;

/// shard_open for `core`/`window`, minus the geometry source (the
/// caller adds a "path" or inline "layers").
Json open_request(const ShardWorkerConfig& worker, const Rect& core,
                  const Rect& window) {
  Json::Object req;
  req["op"] = Json("shard_open");
  req["core"] = rect_to_json(core);
  req["window"] = rect_to_json(window);
  req["tech"] = tech_to_json(worker.tech);
  req["model"] = model_to_json(worker.model);
  req["litho_tile"] = Json(static_cast<std::int64_t>(worker.litho_tile));
  req["litho_edge_tolerance"] =
      Json(static_cast<std::int64_t>(worker.litho_edge_tolerance));
  req["litho_fast"] = Json(litho_fast_name(worker.litho_fast));
  req["threads"] = Json(static_cast<std::int64_t>(worker.threads));
  return Json(std::move(req));
}

/// reply[key]: an array with one entry per unit the call sent.
const Json::Array& per_unit(const Json& reply, const char* key,
                            std::size_t units) {
  const Json* f = reply.find(key);
  if (f == nullptr || f->as_array().size() != units) {
    throw service::JsonError(std::string(key) + ": wrong arity");
  }
  return f->as_array();
}

}  // namespace

pid_t spawn_shard_worker(const std::string& binary,
                         const std::string& socket_path,
                         const std::string& log_path, unsigned threads,
                         const std::string& trace_out) {
  // Build argv before forking: the child must stick to async-signal-safe
  // calls (the coordinator may have pool threads holding allocator locks
  // at fork time).
  const std::string threads_s = std::to_string(threads);
  std::vector<const char*> argv = {binary.c_str(),   "shard-serve",
                                   "--socket",       socket_path.c_str(),
                                   "--threads",      threads_s.c_str(),
                                   "--once"};
  if (!trace_out.empty()) {
    argv.push_back("--trace-out");
    argv.push_back(trace_out.c_str());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("shard: fork: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
    ::_exit(127);
  }
  return pid;
}

service::ServiceClient connect_shard_worker(const std::string& path,
                                            pid_t pid, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::chrono::milliseconds backoff(5);
  for (;;) {
    try {
      return service::ServiceClient::connect_unix(path);
    } catch (const service::ProtocolError&) {
      // Socket not bound yet (or worker died). Distinguish the two.
    }
    // WNOWAIT: leave the exited child to the caller's reaping.
    siginfo_t info{};
    if (pid > 0 &&
        ::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == pid) {
      throw std::runtime_error("shard: worker for " + path +
                               " exited before accepting (status " +
                               std::to_string(info.si_status) + ")");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("shard: timed out waiting for worker socket " +
                               path);
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
  }
}

std::string self_executable_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    throw std::runtime_error("shard: cannot resolve /proc/self/exe");
  }
  buf[n] = '\0';
  return std::string(buf);
}

std::string make_shard_scratch_dir(const std::string& base) {
  std::string root = base;
  if (root.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    root = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  }
  std::string tmpl = root + "/dfmkit-shard-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("shard: mkdtemp " + tmpl + ": " +
                             std::strerror(errno));
  }
  return tmpl;
}

Rect shard_extent_of(const std::string& layout_path) {
  const std::shared_ptr<const SnapshotSource> src =
      open_stream_source(layout_path);
  Rect extent = Rect::empty();
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    extent = extent.join(src->layer_bbox(k));
  }
  return extent;
}

RemoteShardBackend::RemoteShardBackend(const Rect& extent,
                                       RemoteShardConfig config)
    : config_(std::move(config)) {
  plan_ = ShardPlan::make(extent, config_.shards,
                          shard_halo(config_.worker.tech, config_.worker.litho_tile,
                                     config_.worker.model.sigma));
  try {
    for (std::size_t s = 0; s < plan_.size(); ++s) {
      ShardProcess p;
      p.socket_path =
          config_.socket_dir + "/shard-" + std::to_string(s) + ".sock";
      const std::string log =
          config_.socket_dir + "/shard-" + std::to_string(s) + ".log";
      const std::string trace =
          config_.trace_dir.empty()
              ? std::string()
              : config_.trace_dir + "/shard-" + std::to_string(s) +
                    ".trace.json";
      p.pid = spawn_shard_worker(config_.binary, p.socket_path, log,
                                 config_.worker.threads, trace);
      procs_.push_back(p);
    }
    for (std::size_t s = 0; s < plan_.size(); ++s) {
      Json open = open_request(config_.worker, plan_.cores[s],
                               plan_.windows[s]);
      open.set("path", Json(config_.layout_path));
      attach(connect_shard_worker(procs_[s].socket_path, procs_[s].pid,
                                  config_.spawn_timeout_s),
             std::move(open));
    }
  } catch (...) {
    shutdown_workers();
    throw;
  }
}

RemoteShardBackend::RemoteShardBackend(const LayerMap& layers, int shards,
                                       const ShardWorkerConfig& config) {
  config_.worker = config;
  config_.shards = shards;
  Rect bbox = Rect::empty();
  for (const auto& [k, r] : layers) bbox = bbox.join(r.bbox());
  plan_ = ShardPlan::make(bbox, shards,
                          shard_halo(config.tech, config.litho_tile,
                                     config.model.sigma));
  try {
    for (std::size_t s = 0; s < plan_.size(); ++s) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
        throw std::runtime_error(std::string("shard: socketpair: ") +
                                 std::strerror(errno));
      }
      try {
        threads_.emplace_back([fd = fds[1]] {
          std::optional<ShardWorkerSession> session;
          try {
            serve_connection(fd, ShardServeOptions{}, session);
          } catch (...) {
            // Closing the socket below fails the coordinator's pending
            // call, which degrades the backend: the failure surfaces
            // there, as a dead worker process's would.
          }
          ::close(fd);
        });
      } catch (...) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw;
      }
      service::ServiceClient client = service::ServiceClient::adopt(fds[0]);
      Json open = open_request(config, plan_.cores[s], plan_.windows[s]);
      Json::Array jlayers;
      for (const auto& [k, r] : layers) {
        Json::Object e;
        e["layer"] = layer_to_json(k);
        e["region"] = region_to_json(r.clipped(plan_.windows[s]));
        jlayers.push_back(Json(std::move(e)));
      }
      open.set("layers", Json(std::move(jlayers)));
      attach(std::move(client), std::move(open));
    }
  } catch (...) {
    shutdown_workers();
    throw;
  }
}

RemoteShardBackend::~RemoteShardBackend() { shutdown_workers(); }

void RemoteShardBackend::attach(service::ServiceClient client, Json open) {
  if (client.hello().get_string("server", "") != "dfmkit-shard") {
    throw std::runtime_error("shard: worker " +
                             std::to_string(clients_.size()) +
                             " is not a dfmkit shard worker");
  }
  client.set_max_frame_bytes(kShardMaxFrameBytes);
  client.call_ok(std::move(open));
  clients_.push_back(std::move(client));
}

void RemoteShardBackend::shutdown_workers() noexcept {
  for (service::ServiceClient& c : clients_) {
    try {
      Json::Object req;
      req["op"] = Json("shutdown");
      c.call(Json(std::move(req)));
    } catch (...) {
    }
    c.close();  // EOF ends a worker that missed the shutdown op
  }
  // A process that never got its connection (the constructor failed
  // first) would wait in accept() forever.
  for (std::size_t s = clients_.size(); s < procs_.size(); ++s) {
    ::kill(procs_[s].pid, SIGKILL);
  }
  clients_.clear();
  for (const ShardProcess& p : procs_) ::waitpid(p.pid, nullptr, 0);
  procs_.clear();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

bool RemoteShardBackend::call_many(std::vector<Call>& calls) {
  std::vector<char> failed(calls.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    threads.emplace_back([this, i, &calls, &failed] {
      try {
        calls[i].reply = clients_[calls[i].worker].call_ok(calls[i].request);
      } catch (...) {
        failed[i] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const char f : failed) {
    if (f != 0) {
      // A worker died or misbehaved mid-batch: stop accelerating for
      // good (workers may now disagree with the coordinator) and let
      // the flow compute everything locally.
      degraded_ = true;
      return false;
    }
  }
  return true;
}

std::vector<RemoteShardBackend::Call> RemoteShardBackend::batch_calls(
    const Json& request, const char* field, std::size_t n,
    const std::function<int(std::size_t)>& route,
    const std::function<Json(std::size_t)>& encode) const {
  std::map<int, std::vector<std::size_t>> per_worker;
  for (std::size_t i = 0; i < n; ++i) {
    const int w = route(i);
    if (w >= 0) per_worker[w].push_back(i);
  }
  std::vector<Call> calls;
  for (auto& [w, idx] : per_worker) {
    Json::Array units;
    units.reserve(idx.size());
    for (const std::size_t i : idx) units.push_back(encode(i));
    Call c{static_cast<std::size_t>(w), request, Json(), std::move(idx)};
    c.request.set(field, Json(std::move(units)));
    calls.push_back(std::move(c));
  }
  return calls;
}

bool RemoteShardBackend::shard_drc(const std::vector<Rule>& rules,
                                   std::vector<Region>* bad2x,
                                   std::vector<char>* handled) {
  if (degraded_) return false;
  Json::Array jrules;
  jrules.reserve(rules.size());
  for (const Rule& r : rules) jrules.push_back(rule_to_json(r));
  Json::Object req;
  req["op"] = Json("shard_drc");
  req["rules"] = Json(std::move(jrules));
  std::vector<Call> calls(plan_.size());
  for (std::size_t s = 0; s < calls.size(); ++s) {
    calls[s].worker = s;
    calls[s].request = Json(req);
  }
  if (!call_many(calls)) return false;
  std::vector<Region> stitched(rules.size());
  try {
    for (const Call& c : calls) {
      const Json::Array& per_rule = per_unit(c.reply, "bad2x", rules.size());
      for (std::size_t i = 0; i < rules.size(); ++i) {
        // Named: rects() references the Region's storage, and a
        // temporary would die before the loop body ran.
        const Region piece = region_from_json(per_rule[i]);
        for (const Rect& b : piece.rects()) {
          stitched[i].add(b);
        }
      }
    }
  } catch (const std::exception&) {
    degraded_ = true;
    return false;
  }
  for (std::size_t i = 0; i < rules.size(); ++i) {
    (*bad2x)[i] = std::move(stitched[i]);
    (*handled)[i] = 1;
  }
  return true;
}

bool RemoteShardBackend::shard_match(
    std::size_t set_index, const std::vector<AnchorWindow>& sites,
    std::vector<std::vector<PatternMatch>>* out,
    std::vector<char>* handled) {
  if (degraded_) return false;
  Json::Object req;
  req["op"] = Json("shard_match");
  req["set"] = Json(static_cast<std::int64_t>(set_index));
  std::vector<Call> calls = batch_calls(
      Json(std::move(req)), "sites", sites.size(),
      [&](std::size_t i) { return route_pattern_site(plan_, sites[i]); },
      [&](std::size_t i) { return site_to_json(sites[i]); });
  if (!call_many(calls)) return false;
  std::vector<std::vector<PatternMatch>> got(sites.size());
  try {
    for (const Call& c : calls) {
      const Json::Array& per_site =
          per_unit(c.reply, "matches", c.units.size());
      for (std::size_t j = 0; j < c.units.size(); ++j) {
        for (const Json& jm : per_site[j].as_array()) {
          got[c.units[j]].push_back(match_from_json(jm));
        }
      }
    }
  } catch (const std::exception&) {
    degraded_ = true;
    return false;
  }
  for (const Call& c : calls) {
    for (const std::size_t i : c.units) {
      (*out)[i] = std::move(got[i]);
      (*handled)[i] = 1;
    }
  }
  return true;
}

bool RemoteShardBackend::shard_litho(const std::vector<Rect>& cores,
                                     std::vector<std::vector<Hotspot>>* per_core,
                                     std::vector<char>* skipped,
                                     std::vector<char>* handled) {
  if (degraded_) return false;
  Json::Object req;
  req["op"] = Json("shard_litho");
  std::vector<Call> calls = batch_calls(
      Json(std::move(req)), "cores", cores.size(),
      [&](std::size_t i) {
        return route_litho_tile(plan_, cores[i], config_.worker.model.sigma);
      },
      [&](std::size_t i) { return rect_to_json(cores[i]); });
  if (!call_many(calls)) return false;
  std::vector<std::vector<Hotspot>> got(cores.size());
  std::vector<char> skip(cores.size(), 0);
  try {
    for (const Call& c : calls) {
      const Json::Array& hs = per_unit(c.reply, "hotspots", c.units.size());
      const Json::Array& sk = per_unit(c.reply, "skipped", c.units.size());
      for (std::size_t j = 0; j < c.units.size(); ++j) {
        for (const Json& jh : hs[j].as_array()) {
          got[c.units[j]].push_back(hotspot_from_json(jh));
        }
        skip[c.units[j]] = sk[j].as_int() != 0 ? 1 : 0;
      }
    }
  } catch (const std::exception&) {
    degraded_ = true;
    return false;
  }
  for (const Call& c : calls) {
    for (const std::size_t i : c.units) {
      (*per_core)[i] = std::move(got[i]);
      (*skipped)[i] = skip[i];
      (*handled)[i] = 1;
    }
  }
  return true;
}

void RemoteShardBackend::shard_apply(const LayoutDelta& delta) {
  TELEM_SPAN("shard/apply");
  Rect added = Rect::empty();
  Rect touched = Rect::empty();
  for (const auto& [k, ld] : delta.layers()) {
    if (!ld.added.empty()) {
      added = added.join(ld.added.bbox());
      touched = touched.join(ld.added.bbox());
    }
    if (!ld.removed.empty()) touched = touched.join(ld.removed.bbox());
  }
  // Growth past the plan extent leaves geometry no core owns; stop
  // accelerating (the flow recomputes locally, byte-identically).
  if (!added.is_empty() && !plan_.extent.contains(added)) degraded_ = true;
  if (degraded_) return;
  Json::Object req;
  req["op"] = Json("shard_edit");
  req["delta"] = delta_to_json(delta);
  std::vector<Call> calls;
  for (std::size_t s = 0; s < plan_.size(); ++s) {
    if (!touched.is_empty() && !plan_.windows[s].overlaps(touched)) continue;
    calls.push_back(Call{s, Json(req), Json(), {}});
  }
  call_many(calls);
}

}  // namespace dfm::shard
