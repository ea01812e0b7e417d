// Shared pieces of the benchmark driver: the run record every workload
// fills, the benchmark-side span log of the traced run, and the small
// host probes (nproc, load average, peak RSS) each result carries.
//
// The driver measures dfmkit from outside: it times calls into the public
// API and records its own spans around them. It adds nothing inside the
// library.
#pragma once

#include "core/dfm_flow.h"
#include "core/telemetry.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds; the same clock the service echoes in its
/// per-request trace object, so client and server times compare directly.
inline std::uint64_t now_ns() { return dfm::telemetry::now_ns(); }

inline double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Threads and processes a workload configures. Each count must stay
/// within nproc or the workload refuses to start (noise rule: no more
/// runnable threads than cores).
struct Budget {
  /// Threads that can compute at once: pool workers plus the callers
  /// that join parallel_for, server executors, shard worker pools.
  unsigned compute_threads = 1;
  /// Client threads, each with one connection.
  unsigned clients = 1;
  /// Shard worker processes.
  unsigned shard_workers = 0;
};

/// One benchmark-side span. `derived` spans are laid out from a report's
/// per-pass trace rather than timed by the driver.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  bool derived = false;
};

/// In-memory span store of the traced run; written out once at the end.
class SpanLog {
 public:
  std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  void add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<std::uint64_t> next_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Everything one driver process measures. Per-op latencies of the timed
/// loop go to `op_ms` (and, in a traced run, `traced_op_ms` for the
/// traced half); per-layer numbers go to `samples` (reduced to a median
/// by the reporting script) or `values` (reported as is).
struct Record {
  std::vector<double> setup_s;  // one entry: process start to loop start
  std::vector<double> op_ms;
  std::vector<double> traced_op_ms;
  double window_s = 0;  // wall time of the untraced timed loop
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
};

/// The state of one driver process: arguments, the record, and the span
/// log. Ops may complete on several client threads, so the mutating
/// helpers lock.
struct Run {
  std::uint64_t seed = 1;
  bool trace = false;
  std::string work_dir;  // per-process scratch inside the checkout
  std::string dfmkit;    // the dfmkit binary (shard workers exec it)
  /// Test hook: counts every n-th otherwise passing op as failed, so the
  /// failure accounting can be checked end to end. 0 disables.
  std::uint64_t inject_failures = 0;

  /// True during the traced half of a traced run.
  std::atomic<bool> tracing{false};
  SpanLog spans;
  Record rec;

  /// Counts one attempted op and, when `error` is non-empty, one failed
  /// op (keeping the first messages for the report).
  void count_op(const std::string& error);
  void sample(const std::string& name, double v);
  void set_value(const std::string& name, double v);
  /// Adds the ops of a finished loop to the right latency series.
  void add_op_ms(const std::vector<double>& ms, bool traced);

 private:
  void count_failure(const std::string& error);  // mu_ held
  std::mutex mu_;
};

/// RAII benchmark span: records into run.spans while the run is
/// tracing, parented under the calling thread's innermost open span.
class Scoped {
 public:
  Scoped(Run& run, const char* name, std::uint64_t request = 0);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::uint64_t id() const { return span_.id; }
  std::uint64_t start_ns() const { return span_.start_ns; }

 private:
  Run& run_;
  bool on_ = false;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

/// One op of a closed loop: its timed latency and, when a correctness
/// check failed, why.
struct OpResult {
  double ms = 0;
  std::string error;
};

/// One caller issuing `op(request)` back to back for `seconds`: each op
/// starts when the previous one returned. Records every op's latency,
/// counts attempts and failures, and (untraced) the loop's wall time.
void closed_loop(Run& run, double seconds, bool traced,
                 const std::function<OpResult(std::uint64_t)>& op);

/// Samples pass.<name>_ms for the seven flow passes of `rep`.
void sample_passes(Run& run, const dfm::DfmFlowReport& rep);
/// Samples one incremental apply: its latency, the dirty units summed
/// over passes, the share of units reused, and the pass times.
void sample_apply(Run& run, const dfm::DfmFlowReport& rep, double ms);
/// Records litho.tiles and litho.hotspots of `rep` as values.
void set_litho_counts(Run& run, const dfm::DfmFlowReport& rep);

/// Logical CPUs this process may run on (what `nproc` prints).
unsigned online_cpus();
/// 1-minute load average, -1 when unreadable.
double load_average();
/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part stolen by the hypervisor for other guests. Zero when
/// unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();
/// Creates `path` and its parents (mkdir -p); throws on failure.
void make_dirs(const std::string& path);
/// Removes `path` recursively; best effort.
void remove_tree(const std::string& path);

/// One workload: set-up, then a timed closed loop. Destruction tears
/// the set-up down (servers joined, shard workers reaped).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Budget budget() const = 0;
  /// The complete set-up: inputs, references, warm-up.
  virtual void setup(Run& run) = 0;
  /// The closed loop for `seconds`; `traced` marks the traced half.
  virtual void measure(Run& run, double seconds, bool traced) = 0;
};

std::unique_ptr<Workload> make_signoff_cold();
std::unique_ptr<Workload> make_sharded_cold();
std::unique_ptr<Workload> make_eco_served();
std::unique_ptr<Workload> make_fix_loop();

}  // namespace perfbench
