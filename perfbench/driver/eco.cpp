// eco_served: ECO designers editing through the analysis service. An
// in-process ServiceServer listens on a Unix socket; kClients client
// threads each hold one session on the same many-tile design (opened
// one after another in set-up) and run a closed loop of ECO cycles:
//
//   edit(add patch) -> flow fetch -> edit(remove patch) -> flow fetch
//
// so the geometry is restored after every pair of writes. One cycle is
// one op; consecutive cycles rotate over kSites patch sites, one per
// litho tile. Every reply is checked against the reports set-up
// computed through a direct DfmFlowSession on the library API.
#include "common.h"
#include "inputs.h"

#include "core/incremental.h"
#include "gdsii/gdsii.h"
#include "service/client.h"
#include "service/server.h"

#include <condition_variable>
#include <thread>

namespace perfbench {

namespace {

using dfm::service::Json;
using dfm::service::ServiceClient;

constexpr unsigned kExecutors = 2;          // ServiceOptions::workers
constexpr unsigned kServerPoolThreads = 2;  // shared compute pool
constexpr unsigned kClients = 2;
constexpr dfm::Coord kEcoTile = 4000;       // bench_f3's ECO granule
constexpr dfm::Coord kPatchEdge = 400;
/// Patch sites, each in its own litho tile; consecutive cycles of a
/// client rotate over them, so one run's cycles average over sites.
constexpr std::size_t kSites = 4;

/// What one request of a cycle returned, for checks and layer metrics.
struct Reply {
  bool edit = false;
  double ms = 0;
  std::string report;
  std::string error;
};

class EcoServed final : public Workload {
 public:
  Budget budget() const override {
    // Executors join parallel_for beside the pool's workers.
    return {kExecutors + kServerPoolThreads - 1, kClients, 0};
  }

  void setup(Run& run) override {
    const std::string dir = run.work_dir + "/eco";
    make_dirs(dir);
    path_ = write_inputs("eco_served", run.seed, dir).front();
    direct_reference(run);

    dfm::service::ServiceOptions so;
    so.unix_path = dir + "/eco.sock";
    so.workers = kExecutors;
    so.pool_threads = kServerPoolThreads;
    so.max_sessions = kClients;
    so.flow.litho_tile = kEcoTile;
    server_ = std::make_unique<dfm::service::ServiceServer>(so);
    server_->start();
    // Sessions open one after another: no concurrent cold flows.
    for (unsigned c = 0; c < kClients; ++c) {
      ServiceClient client = ServiceClient::connect_unix(so.unix_path);
      const Json opened = client.open(path_, "", {}, kEcoTile);
      if (opened.get_string("report", "") != base_) {
        throw std::runtime_error("open: served report differs from direct");
      }
      sessions_.push_back(opened.get_string("session", ""));
      clients_.push_back(std::move(client));
    }
    // Warm-up: one checked cycle per client, serially.
    for (unsigned c = 0; c < kClients; ++c) {
      std::vector<Reply> replies;
      const std::string err = cycle(run, c, 0, c, false, replies);
      if (!err.empty()) throw std::runtime_error("warm-up: " + err);
    }
  }

  void measure(Run& run, double seconds, bool traced) override {
    // Traced clients attach trace context only while recording is on;
    // the server then echoes its span and queue wait in each reply.
    if (traced) dfm::telemetry::set_enabled(true);
    std::mutex mu;
    std::condition_variable cv;
    bool go = false;
    std::uint64_t t0 = 0;
    const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::vector<double>> cycle_ms(kClients);
    std::vector<std::vector<Reply>> replies(kClients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return go; });
        }
        std::uint64_t n = 0;
        while (now_ns() - t0 < budget_ns) {
          ++n;
          const std::uint64_t start = now_ns();
          const std::string err =
              cycle(run, c, (static_cast<std::uint64_t>(c) << 32) | n,
                    (c + n) % kSites, traced, replies[c]);
          cycle_ms[c].push_back(ms_between(start, now_ns()));
          run.count_op(err);
          if (!clients_[c].connected()) break;  // transport failure
        }
      });
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      t0 = now_ns();
      go = true;
    }
    cv.notify_all();
    for (std::thread& t : threads) t.join();
    const std::uint64_t end = now_ns();
    if (traced) {
      dfm::telemetry::set_enabled(false);
      run.set_value("service.backpressure", static_cast<double>(backpressure_));
    }

    std::vector<double> all;
    for (const auto& v : cycle_ms) all.insert(all.end(), v.begin(), v.end());
    run.add_op_ms(all, traced);
    if (!traced) run.rec.window_s = static_cast<double>(end - t0) / 1e9;
    // The edit/fetch latency split is an end-user number: take it from
    // the untraced loop.
    if (run.trace && !traced) {
      for (const auto& v : replies) {
        for (const Reply& r : v) {
          run.sample(r.edit ? "service.edit_ms" : "service.fetch_ms", r.ms);
        }
      }
    }
  }

 private:
  /// Direct library reference: base and patched reports from a
  /// DfmFlowSession over the same file and options the server uses.
  void direct_reference(Run& run) {
    std::uint64_t t = now_ns();
    const dfm::Library lib = dfm::read_gdsii_file(path_);
    if (run.trace) run.sample("gdsii.read_ms", ms_between(t, now_ns()));
    const std::uint32_t top = top_of(lib);
    dfm::ThreadPool pool(kServerPoolThreads);
    if (run.trace) {
      t = now_ns();
      const dfm::LayoutSnapshot snap(lib, top, &pool);
      run.sample("snapshot.build_ms", ms_between(t, now_ns()));
    }
    dfm::DfmFlowOptions o(&pool);
    o.litho_tile = kEcoTile;
    dfm::DfmFlowSession direct(lib, top, o);
    base_ = dfm::flow_report_canonical_json(direct.report());
    if (run.trace) set_litho_counts(run, direct.report());
    sites_ = eco_patch_sites(direct.snapshot(), kEcoTile, kPatchEdge, kSites);
    const auto apply = [&](const dfm::LayoutDelta& delta) {
      const std::uint64_t t0 = now_ns();
      const dfm::DfmFlowReport& rep = direct.apply(delta);
      if (run.trace) sample_apply(run, rep, ms_between(t0, now_ns()));
      return dfm::flow_report_canonical_json(rep);
    };
    const dfm::DfmFlowReport start = direct.report();
    for (const std::vector<dfm::Rect>& site : sites_) {
      dfm::LayoutDelta add;
      dfm::LayoutDelta remove;
      for (const dfm::Rect& r : site) {
        add.add(dfm::layers::kMetal1, r);
        remove.remove(dfm::layers::kMetal1, r);
      }
      added_.push_back(apply(add));
      removed_.push_back(apply(remove));
    }
    // The canonical bytes of a splice carry its unit counts; the analysis
    // itself must be back to the cold start.
    if (!dfm::reports_equivalent(direct.report(), start)) {
      throw std::runtime_error("direct removes do not restore the report");
    }
  }

  /// One request: the round trip, its reply check, and (traced) spans
  /// for the server's queue wait and execution from the echoed trace.
  Reply request(Run& run, unsigned c, Json req, bool edit, bool traced,
                std::uint64_t id) {
    Reply out;
    out.edit = edit;
    Scoped span(run, edit ? "service.edit" : "service.fetch", id);
    const std::uint64_t t0 = now_ns();
    Json reply;
    try {
      reply = clients_[c].call(std::move(req));
    } catch (const std::exception& e) {
      clients_[c].close();
      out.error = std::string("transport: ") + e.what();
      return out;
    }
    const std::uint64_t t1 = now_ns();
    out.ms = ms_between(t0, t1);
    const Json* ok = reply.find("ok");
    if (ok == nullptr || !ok->as_bool()) {
      const Json* err = reply.find("error");
      const std::string code =
          err != nullptr && err->is_string() ? err->as_string() : "error";
      if (code == dfm::service::errc::kQueueFull) ++backpressure_;
      out.error = "reply " + code;
      return out;
    }
    out.report = reply.get_string("report", "");
    if (traced) trace_reply(run, reply, edit, span.id(), t0, t1);
    return out;
  }

  void trace_reply(Run& run, const Json& reply, bool edit,
                   std::uint64_t span, std::uint64_t t0, std::uint64_t t1) {
    const Json* tr = reply.find("trace");
    if (tr == nullptr) return;
    const auto start = static_cast<std::uint64_t>(tr->get_int("start_ns", 0));
    const auto end = static_cast<std::uint64_t>(tr->get_int("end_ns", 0));
    const auto queue = static_cast<std::uint64_t>(tr->get_int("queue_ns", 0));
    const double queue_ms = static_cast<double>(queue) / 1e6;
    const double compute_ms = ms_between(start, end);
    run.sample("service.queue_ms", queue_ms);
    if (edit) {
      run.sample("service.compute_ms", compute_ms);
    } else {
      run.sample("service.overhead_ms",
                 ms_between(t0, t1) - queue_ms - compute_ms);
    }
    run.sample("service.reply_bytes",
               static_cast<double>(reply.dump().size()));
    for (const auto& [name, lo, hi] :
         {std::tuple{"server.queue", start - queue, start},
          std::tuple{"server.execute", start, end}}) {
      Span s;
      s.name = name;
      s.start_ns = lo;
      s.end_ns = hi;
      s.id = run.spans.next_id();
      s.parent = span;
      s.derived = true;  // echoed by the server, not timed here
      run.spans.add(std::move(s));
    }
  }

  /// One ECO cycle on client `c` at patch site `site`; returns "" or
  /// the first failed check.
  std::string cycle(Run& run, unsigned c, std::uint64_t id, std::size_t site,
                    bool traced, std::vector<Reply>& log) {

    Scoped span(run, "op", id);
    const auto edit = [&](bool remove) {
      Json::Object req;
      req["op"] = Json("edit");
      req["session"] = Json(sessions_[c]);
      Json::Array edits;
      for (const dfm::Rect& r : sites_[site]) {
        edits.push_back(ServiceClient::make_edit("m1", r.lo.x, r.lo.y, r.hi.x,
                                                 r.hi.y, remove));
      }
      req["edits"] = Json(std::move(edits));
      return request(run, c, Json(std::move(req)), true, traced, id);
    };
    const auto fetch = [&] {
      Json::Object req;
      req["op"] = Json("flow");
      req["session"] = Json(sessions_[c]);
      return request(run, c, Json(std::move(req)), false, traced, id);
    };
    std::string err;
    const auto check = [&](const Reply& r, const std::string& want,
                           const char* what) {
      log.push_back(r);
      log.back().report.clear();  // keep timings only
      if (!err.empty()) return;
      if (!r.error.empty()) {
        err = std::string(what) + ": " + r.error;
      } else if (r.report != want) {
        err = std::string(what) + ": report differs from the reference";
      }
    };
    const Reply added = edit(false);
    check(added, added_[site], "edit add");
    if (!clients_[c].connected()) return err;
    check(fetch(), added.report, "fetch after add");
    const Reply removed = edit(true);
    check(removed, removed_[site], "edit remove (geometry restored)");
    if (!clients_[c].connected()) return err;
    check(fetch(), removed.report, "fetch after remove");
    return err;
  }

  std::string path_;
  std::string base_;     // canonical cold report (what open returns)
  std::vector<std::vector<dfm::Rect>> sites_;  // patch rects per site
  std::vector<std::string> added_;    // per site: report after the add
  std::vector<std::string> removed_;  // per site: after add + remove
  std::unique_ptr<dfm::service::ServiceServer> server_;
  std::vector<ServiceClient> clients_;
  std::vector<std::string> sessions_;
  std::atomic<std::uint64_t> backpressure_{0};
};

}  // namespace

std::unique_ptr<Workload> make_eco_served() {
  return std::make_unique<EcoServed>();
}

}  // namespace perfbench
