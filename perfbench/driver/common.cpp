#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {
thread_local std::uint64_t tl_open_span = 0;
constexpr std::size_t kKeptFailures = 8;
const char* const kFlowPasses[] = {"drc_plus",     "recommended",
                                   "litho",        "dpt",
                                   "via_doubling", "connectivity",
                                   "caa_yield"};
}  // namespace

void Run::count_op(const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  ++rec.attempted;
  if (error.empty() && inject_failures > 0 &&
      rec.attempted % inject_failures == 0) {
    count_failure("injected failure (--inject-failures)");
    return;
  }
  if (error.empty()) return;
  count_failure(error);
}

void Run::count_failure(const std::string& error) {
  ++rec.failed;
  if (rec.failures.size() < kKeptFailures) rec.failures.push_back(error);
}

void Run::sample(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  rec.samples[name].push_back(v);
}

void Run::set_value(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  rec.values[name] = v;
}

void Run::add_op_ms(const std::vector<double>& ms, bool traced) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& dst = traced ? rec.traced_op_ms : rec.op_ms;
  dst.insert(dst.end(), ms.begin(), ms.end());
}

Scoped::Scoped(Run& run, const char* name, std::uint64_t request)
    : run_(run), on_(run.tracing.load(std::memory_order_relaxed)) {
  if (!on_) return;
  span_.name = name;
  span_.id = run_.spans.next_id();
  span_.parent = tl_open_span;
  span_.request = request;
  saved_parent_ = tl_open_span;
  tl_open_span = span_.id;
  span_.start_ns = now_ns();
}

Scoped::~Scoped() {
  if (!on_) return;
  span_.end_ns = now_ns();
  tl_open_span = saved_parent_;
  run_.spans.add(std::move(span_));
}

void closed_loop(Run& run, double seconds, bool traced,
                 const std::function<OpResult(std::uint64_t)>& op) {
  static std::atomic<std::uint64_t> request{0};
  std::vector<double> ms;
  double busy_ms = 0;
  const std::uint64_t t0 = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() - t0 < budget_ns) {
    const OpResult r = op(++request);
    ms.push_back(r.ms);
    busy_ms += r.ms;
    run.count_op(r.error);
  }
  // One caller: throughput is ops over the time spent inside ops (the
  // untimed checks and restores between ops are not the system's work).
  if (!traced) run.rec.window_s = busy_ms / 1e3;
  run.add_op_ms(ms, traced);
}

void sample_passes(Run& run, const dfm::DfmFlowReport& rep) {
  for (const char* name : kFlowPasses) {
    const dfm::PassTrace* p = rep.trace.find(name);
    run.sample(std::string("pass.") + name + "_ms", p != nullptr ? p->ms : 0);
  }
}

void sample_apply(Run& run, const dfm::DfmFlowReport& rep, double ms) {
  run.sample("incremental.apply_ms", ms);
  std::size_t dirty = 0;
  std::size_t total = 0;
  for (const dfm::PassTrace& p : rep.trace.passes) {
    dirty += p.dirty_units;
    total += p.total_units;
  }
  run.sample("incremental.dirty_units", static_cast<double>(dirty));
  run.sample("incremental.reuse_ratio",
             total > 0 ? 1.0 - static_cast<double>(dirty) /
                                   static_cast<double>(total)
                       : 1.0);
  sample_passes(run, rep);
}

void set_litho_counts(Run& run, const dfm::DfmFlowReport& rep) {
  const dfm::PassTrace* litho = rep.trace.find("litho");
  run.set_value("litho.tiles", litho != nullptr
                                   ? static_cast<double>(litho->total_units)
                                   : 0);
  run.set_value("litho.hotspots", static_cast<double>(rep.hotspots.size()));
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = -1;
  if (!(in >> one)) return -1;
  return one;
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t f[8] = {};
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (std::uint64_t& x : f) {
    if (!(in >> x)) return {};
    t.total += x;
  }
  t.steal = f[7];
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw std::runtime_error("mkdir " + path + ": " + ec.message());
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
