// signoff_cold and sharded_cold: one caller, each op a full cold sign-off
// of one design — read_gdsii_file -> LayoutSnapshot -> run_dfm_flow with
// every pass — checked against the canonical report bytes set-up
// computed through the library's in-memory entry point.
#include "common.h"
#include "inputs.h"

#include "core/shard_backend.h"
#include "gdsii/gdsii.h"
#include "shard/remote_backend.h"

#include <optional>

namespace perfbench {

namespace {

using dfm::DfmFlowOptions;
using dfm::DfmFlowReport;
using dfm::Library;
using dfm::ThreadPool;

/// Compute threads of the flow pool (the op's caller joins parallel_for,
/// so this is the whole in-process parallelism).
constexpr unsigned kColdThreads = 2;
/// sharded_cold: worker processes and each worker's own pool.
constexpr int kShards = 2;
constexpr unsigned kShardWorkerThreads = 1;
constexpr std::uint64_t kShardWarmupOps = 3;

/// Per-layer numbers of one flow report, and its passes as derived spans
/// under the flow span (the flow runs its passes one after another).
void trace_flow_report(Run& run, const DfmFlowReport& rep,
                       std::uint64_t flow_span, std::uint64_t flow_start_ns) {
  std::uint64_t at = flow_start_ns;
  for (const dfm::PassTrace& p : rep.trace.passes) {
    const auto ns = static_cast<std::uint64_t>(p.ms * 1e6);
    Span s;
    s.name = "pass." + p.name;
    s.start_ns = at;
    s.end_ns = at + ns;
    s.id = run.spans.next_id();
    s.parent = flow_span;
    s.derived = true;
    run.spans.add(std::move(s));
    at += ns;
  }
  sample_passes(run, rep);
  if (const dfm::PassTrace* litho = rep.trace.find("litho")) {
    run.sample("litho.tiles", static_cast<double>(litho->total_units));
  }
  run.sample("litho.hotspots", static_cast<double>(rep.hotspots.size()));
}

/// The op: one cold sign-off of the file at `path`. Returns the op's
/// latency; the canonical report (the checked output) is encoded after
/// the clock stops.
OpResult cold_op(Run& run, const std::string& path, DfmFlowOptions options,
                 ThreadPool& pool, bool traced, std::uint64_t request,
                 const std::string& expected) {
  options.pool = &pool;
  const std::uint64_t t0 = now_ns();
  std::optional<DfmFlowReport> rep;
  {
    Scoped op(run, "op", request);
    Library lib;
    {
      Scoped s(run, "gdsii.read");
      lib = dfm::read_gdsii_file(path);
      if (traced) run.sample("gdsii.read_ms", ms_between(s.start_ns(), now_ns()));
    }
    std::optional<dfm::LayoutSnapshot> snap;
    {
      Scoped s(run, "snapshot.build");
      snap.emplace(lib, top_of(lib), &pool);
      if (traced) {
        run.sample("snapshot.build_ms", ms_between(s.start_ns(), now_ns()));
      }
    }
    Scoped flow(run, "flow");
    rep.emplace(dfm::run_dfm_flow(*snap, options));
    if (traced) trace_flow_report(run, *rep, flow.id(), flow.start_ns());
  }
  OpResult r{ms_between(t0, now_ns()), {}};
  if (dfm::flow_report_canonical_json(*rep) != expected) {
    r.error = path + ": canonical report differs from the set-up reference";
  }
  return r;
}

/// Canonical report of `lib` through the in-memory entry point (the
/// flow flattens itself): the reference the file-based op must match.
std::string reference_report(const Library& lib, DfmFlowOptions options,
                             ThreadPool& pool) {
  options.pool = &pool;
  return dfm::flow_report_canonical_json(
      dfm::run_dfm_flow(lib, top_of(lib), options));
}

DfmFlowOptions signoff_options() {
  DfmFlowOptions o;  // every pass, 20 um litho tile, litho_fast auto
  o.threads = kColdThreads;
  return o;
}

DfmFlowOptions sharded_options() {
  DfmFlowOptions o = signoff_options();
  o.litho_tile = 4000;  // bench_s3's tile: more tiles to distribute
  return o;
}

class SignoffCold final : public Workload {
 public:
  Budget budget() const override { return {kColdThreads, 1, 0}; }

  void setup(Run& run) override {
    pool_ = std::make_unique<ThreadPool>(kColdThreads);
    const std::string dir = run.work_dir + "/signoff";
    make_dirs(dir);
    paths_ = write_inputs("signoff_cold", run.seed, dir);
    // The reference flows double as the warm-up: they fill the
    // process-global kernel-spectrum cache the ops then hit.
    for (int i = 0; i < kSignoffPool; ++i) {
      refs_.push_back(reference_report(signoff_design(run.seed, i),
                                       signoff_options(), *pool_));
    }
  }

  void measure(Run& run, double seconds, bool traced) override {
    closed_loop(run, seconds, traced, [&](std::uint64_t request) {
      const std::size_t d = request % paths_.size();
      return cold_op(run, paths_[d], signoff_options(), *pool_, traced,
                     request, refs_[d]);
    });
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::string> paths_;
  std::vector<std::string> refs_;
};

/// Times each dispatch into the shard layer and counts the units it
/// handled. Benchmark-owned: the flow sees an ordinary ShardBackend.
class TimedShards final : public dfm::ShardBackend {
 public:
  TimedShards(dfm::ShardBackend& inner, Run& run) : inner_(inner), run_(run) {}

  std::size_t shard_count() const override { return inner_.shard_count(); }
  bool is_degraded() const override { return inner_.is_degraded(); }

  bool shard_drc(const std::vector<dfm::Rule>& rules,
                 std::vector<dfm::Region>* bad2x,
                 std::vector<char>* handled) override {
    Timer t(*this, "shard.drc", rules.size());
    return t.done(inner_.shard_drc(rules, bad2x, handled), handled);
  }
  bool shard_match(std::size_t set_index,
                   const std::vector<dfm::AnchorWindow>& sites,
                   std::vector<std::vector<dfm::PatternMatch>>* out,
                   std::vector<char>* handled) override {
    Timer t(*this, "shard.match", sites.size());
    return t.done(inner_.shard_match(set_index, sites, out, handled), handled);
  }
  bool shard_litho(const std::vector<dfm::Rect>& cores,
                   std::vector<std::vector<dfm::Hotspot>>* per_core,
                   std::vector<char>* skipped,
                   std::vector<char>* handled) override {
    Timer t(*this, "shard.litho", cores.size());
    return t.done(inner_.shard_litho(cores, per_core, skipped, handled),
                  handled);
  }
  void shard_apply(const dfm::LayoutDelta& delta) override {
    inner_.shard_apply(delta);
  }

  /// Total time inside the shard layer since the last call (ns).
  std::uint64_t take_call_ns() {
    const std::uint64_t ns = call_ns_;
    call_ns_ = 0;
    return ns;
  }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t handled() const { return handled_; }

 private:
  /// One dispatch: a span, its latency sample, and the handled count.
  class Timer {
   public:
    Timer(TimedShards& owner, const char* name, std::size_t units)
        : owner_(owner), name_(name), span_(owner.run_, name) {
      owner_.offered_ += units;
    }
    bool done(bool accepted, const std::vector<char>* handled) {
      const std::uint64_t ns = now_ns() - t0_;
      owner_.call_ns_ += ns;
      if (accepted && handled != nullptr) {
        for (const char h : *handled) owner_.handled_ += h != 0 ? 1 : 0;
      }
      if (owner_.run_.tracing.load(std::memory_order_relaxed)) {
        owner_.run_.sample(std::string(name_) + "_call_ms",
                           static_cast<double>(ns) / 1e6);
      }
      return accepted;
    }

   private:
    TimedShards& owner_;
    const char* name_;
    Scoped span_;
    std::uint64_t t0_ = now_ns();
  };

  dfm::ShardBackend& inner_;
  Run& run_;
  std::uint64_t call_ns_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t handled_ = 0;
};

class ShardedCold final : public Workload {
 public:
  Budget budget() const override {
    return {kColdThreads + kShards * kShardWorkerThreads, 1,
            static_cast<unsigned>(kShards)};
  }

  void setup(Run& run) override {
    pool_ = std::make_unique<ThreadPool>(kColdThreads);
    const std::string dir = run.work_dir + "/sharded";
    make_dirs(dir);
    path_ = write_inputs("sharded_cold", run.seed, dir).front();
    ref_ = reference_report(signoff_design(run.seed, 0), sharded_options(),
                            *pool_);

    dfm::shard::RemoteShardConfig sc;
    const DfmFlowOptions o = sharded_options();
    sc.worker.tech = o.tech;
    sc.worker.model = o.model;
    sc.worker.litho_tile = o.litho_tile;
    sc.worker.litho_edge_tolerance = o.litho_edge_tolerance;
    sc.worker.litho_fast = o.litho_fast;
    sc.worker.threads = kShardWorkerThreads;
    sc.layout_path = path_;
    sc.binary = run.dfmkit;
    sc.socket_dir = dir;
    sc.shards = kShards;
    backend_ = std::make_unique<dfm::shard::RemoteShardBackend>(
        dfm::shard::shard_extent_of(path_), std::move(sc));
    timed_ = std::make_unique<TimedShards>(*backend_, run);

    // Warm-up: sharded ops, which fill every process's spectrum cache.
    // One would do for the cache; three keep connect_shard_worker's
    // polling quantum (up to 100 ms) a small share of setup_s, which
    // otherwise spread by about 20% over seeds.
    for (std::uint64_t i = 0; i < kShardWarmupOps; ++i) {
      const OpResult r = op(run, false, 0);
      if (!r.error.empty()) throw std::runtime_error("warm-up: " + r.error);
    }
  }

  void measure(Run& run, double seconds, bool traced) override {
    timed_->take_call_ns();
    const std::uint64_t offered0 = timed_->offered();
    const std::uint64_t handled0 = timed_->handled();
    double op_ms_total = 0;
    closed_loop(run, seconds, traced, [&](std::uint64_t request) {
      const OpResult r = op(run, traced, request);
      op_ms_total += r.ms;
      return r;
    });
    if (traced) {
      const double offered =
          static_cast<double>(timed_->offered() - offered0);
      run.set_value("shard.handled_ratio",
                    offered > 0 ? static_cast<double>(timed_->handled() -
                                                      handled0) /
                                      offered
                                : 0);
      run.set_value("shard.call_share",
                    op_ms_total > 0 ? static_cast<double>(timed_->take_call_ns()) /
                                          1e6 / op_ms_total
                                    : 0);
    }
  }

 private:
  OpResult op(Run& run, bool traced, std::uint64_t request) {
    DfmFlowOptions o = sharded_options();
    o.shards = timed_.get();
    OpResult r = cold_op(run, path_, o, *pool_, traced, request, ref_);
    if (r.error.empty() && backend_->degraded()) {
      r.error = "shard backend degraded (a worker failed)";
    }
    return r;
  }

  std::unique_ptr<ThreadPool> pool_;
  std::string path_;
  std::string ref_;
  std::unique_ptr<dfm::shard::RemoteShardBackend> backend_;
  std::unique_ptr<TimedShards> timed_;
};

}  // namespace

std::unique_ptr<Workload> make_signoff_cold() {
  return std::make_unique<SignoffCold>();
}

std::unique_ptr<Workload> make_sharded_cold() {
  return std::make_unique<ShardedCold>();
}

}  // namespace perfbench
