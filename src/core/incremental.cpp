#include "core/incremental.h"

#include "core/shard_backend.h"
#include "layout/library.h"

#include <chrono>
#include <utility>

namespace dfm {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

DfmFlowSession::DfmFlowSession(const Library& lib, std::uint32_t top,
                               DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  run_cold([&] {
    const std::size_t budget = resolved_memory_budget(options_);
    if (budget == 0) {
      return std::make_unique<LayoutSnapshot>(lib, top, pool_.get());
    }
    // Out-of-core mode: snapshot hydrates lazily from a copy of the
    // library (the session outlives the caller's reference) and evicts
    // at pass boundaries to stay under `budget`.
    auto snap = std::make_unique<LayoutSnapshot>(
        std::make_shared<LibrarySource>(std::make_shared<Library>(lib), top),
        LayoutSnapshot::standard_flow_layers());
    snap->budget().set_limit(budget);
    return snap;
  });
}

DfmFlowSession::DfmFlowSession(LayerMap layers, DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  run_cold([&] {
    auto snap = std::make_unique<LayoutSnapshot>(std::move(layers));
    // Eager snapshots can't drop geometry, but their derived products are
    // still evictable under a budget.
    if (const std::size_t budget = resolved_memory_budget(options_)) {
      snap->budget().set_limit(budget);
    }
    return snap;
  });
}

DfmFlowSession::DfmFlowSession(std::shared_ptr<const SnapshotSource> source,
                               DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  run_cold([&] {
    auto snap = std::make_unique<LayoutSnapshot>(
        std::move(source), LayoutSnapshot::standard_flow_layers());
    snap->budget().set_limit(resolved_memory_budget(options_));
    return snap;
  });
}

void DfmFlowSession::run_cold(
    const std::function<std::unique_ptr<LayoutSnapshot>()>& make) {
  detail::run_cold_flow(report_, options_, pool_.get(), caches_,
                        [&]() -> const LayoutSnapshot& {
                          snap_ = make();
                          return *snap_;
                        });
}

const DfmFlowReport& DfmFlowSession::apply(const LayoutDelta& delta) {
  const auto t0 = Clock::now();
  // Keep shard workers' resident geometry in lockstep before any pass
  // dispatches to them; the coordinator's damage model below stays the
  // sole authority on what is stale.
  if (options_.shards != nullptr) options_.shards->shard_apply(delta);
  auto next = std::make_unique<IncrementalSnapshot>(*snap_, delta);

  DfmFlowReport rep;
  PassTrace snap_pass;
  snap_pass.name = "snapshot";
  snap_pass.ms = ms_since(t0);
  snap_pass.items = next->layer_keys().size();
  snap_pass.total_units = next->layer_keys().size();
  for (const LayerKey k : next->layer_keys()) {
    if (next->layer_dirty(k)) ++snap_pass.dirty_units;
  }
  snap_pass.incremental = true;
  rep.trace.passes.push_back(std::move(snap_pass));

  const FlowDamage damage{next.get()};
  detail::run_flow_passes(rep, *next, options_, pool_.get(), caches_, damage,
                          &report_);
  rep.trace.total_ms = ms_since(t0);

  report_ = std::move(rep);
  snap_ = std::move(next);
  return report_;
}

}  // namespace dfm
