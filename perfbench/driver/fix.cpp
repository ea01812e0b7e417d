// fix_loop: a fix script waiting on the score-gated repair loop. Each op
// is one FixEngine::fix call on a DfmFlowSession in the same start state
// (a defect-rich design, bench_f5's flow options at litho_tile 8000). The op times the engine's
// own propose/apply/rescore/rollback loop; restoring the start state
// afterwards is untimed and verified by canonical report bytes.
#include "common.h"
#include "inputs.h"

#include "core/fix_engine.h"
#include "core/incremental.h"
#include "gdsii/gdsii.h"

#include <optional>

namespace perfbench {

namespace {

constexpr unsigned kFixThreads = 2;
constexpr dfm::Coord kFixTile = 8000;

/// One plan round over the moves whose candidate count the block fixes
/// (fill and spread counts follow the seeded geometry): 19 candidates.
dfm::FixOptions fix_options() {
  dfm::FixOptions fo;
  fo.max_iters = 1;
  fo.moves = {"pattern_via", "pattern_pinch", "via_double", "retarget"};
  return fo;
}

/// bench_f5's flow: litho off, so a call costs about 0.8 s rather than
/// about 4 s (measured on a 4-core host) and a 15 s run holds about 20
/// calls; the splice cost is DRC, patterns and the global passes.
dfm::DfmFlowOptions fix_flow_options(dfm::ThreadPool* pool) {
  dfm::DfmFlowOptions o(pool);
  o.model.sigma = 20;
  o.model.px = 10;
  o.litho_tile = kFixTile;
  o.run_litho = false;
  return o;
}

class FixLoop final : public Workload {
 public:
  Budget budget() const override { return {kFixThreads, 1, 0}; }

  void setup(Run& run) override {
    pool_ = std::make_unique<dfm::ThreadPool>(kFixThreads);
    const std::string dir = run.work_dir + "/fix";
    make_dirs(dir);
    const std::string path = write_inputs("fix_loop", run.seed, dir).front();
    std::uint64_t t = now_ns();
    const dfm::Library lib = dfm::read_gdsii_file(path);
    if (run.trace) run.sample("gdsii.read_ms", ms_between(t, now_ns()));
    if (run.trace) {
      t = now_ns();
      const dfm::LayoutSnapshot snap(lib, top_of(lib), pool_.get());
      run.sample("snapshot.build_ms", ms_between(t, now_ns()));
    }
    session_ = std::make_unique<dfm::DfmFlowSession>(
        lib, top_of(lib), fix_flow_options(pool_.get()));
    start_.emplace(session_->report());
    if (run.trace) set_litho_counts(run, session_->report());
    // Warm-up and reference: the first loop's outcome bytes.
    const dfm::FixOutcome outcome = dfm::FixEngine::fix(*session_, fix_options());
    if (outcome.proposed == 0) {
      throw std::runtime_error("fix design produced no candidates");
    }
    outcome_ = dfm::fix_outcome_json(outcome);
    const std::string err = restore(run, outcome, false);
    if (!err.empty()) throw std::runtime_error("set-up: " + err);
  }

  void measure(Run& run, double seconds, bool traced) override {
    closed_loop(run, seconds, traced, [&](std::uint64_t request) {
      OpResult r;
      std::optional<dfm::FixOutcome> outcome;
      {
        Scoped op(run, "op", request);
        if (traced) {
          // Planning alone, side-effect free: the loop's first step.
          Scoped plan(run, "fix.plan");
          const dfm::FixPlan p = dfm::FixEngine::run(
              session_->snapshot(), session_->report(), fix_options(),
              session_->options().tech);
          run.sample("fix.plan_ms", ms_between(plan.start_ns(), now_ns()));
        }
        Scoped loop(run, "fix.loop");
        const std::uint64_t t0 = now_ns();
        outcome.emplace(dfm::FixEngine::fix(*session_, fix_options()));
        r.ms = ms_between(t0, now_ns());
      }
      if (traced) {
        const auto evaluated = static_cast<double>(outcome->steps.size());
        run.sample("fix.loop_ms", r.ms);
        run.sample("fix.candidate_ms", evaluated > 0 ? r.ms / evaluated : 0);
        run.set_value("fix.proposed", outcome->proposed);
        run.set_value("fix.accepted", outcome->accepted);
        run.set_value("fix.accept_ratio",
                      outcome->proposed > 0
                          ? static_cast<double>(outcome->accepted) /
                                static_cast<double>(outcome->proposed)
                          : 0);
      }
      if (dfm::fix_outcome_json(*outcome) != outcome_) {
        r.error = "fix outcome differs from the set-up reference";
      }
      const std::string err = restore(run, *outcome, traced);
      if (r.error.empty()) r.error = err;
      return r;
    });
  }

 private:
  /// Undoes the loop's accepted edits (untimed) and checks the session
  /// is back in its start state.
  std::string restore(Run& run, const dfm::FixOutcome& outcome, bool traced) {
    Scoped span(run, "restore");
    const std::uint64_t t0 = now_ns();
    const dfm::DfmFlowReport& rep =
        session_->apply(dfm::inverse_delta(outcome.applied));
    if (traced) sample_apply(run, rep, ms_between(t0, now_ns()));
    // Content first: the restored analysis must equal the cold start.
    // The canonical bytes also carry the splice's unit counts, so they
    // are compared with the first restore's bytes.
    if (!dfm::reports_equivalent(rep, *start_)) {
      return "start state not restored after the loop";
    }
    const std::string bytes = dfm::flow_report_canonical_json(rep);
    if (restored_.empty()) restored_ = bytes;
    if (bytes != restored_) return "restore report bytes differ";
    return {};
  }

  std::unique_ptr<dfm::ThreadPool> pool_;
  std::unique_ptr<dfm::DfmFlowSession> session_;
  std::optional<dfm::DfmFlowReport> start_;  // the cold start report
  std::string restored_;  // canonical bytes of the first restore
  std::string outcome_;
};

}  // namespace

std::unique_ptr<Workload> make_fix_loop() {
  return std::make_unique<FixLoop>();
}

}  // namespace perfbench
